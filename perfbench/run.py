"""Benchmark for bellri: four workloads, each timed in fresh single-threaded processes.

    python3 perfbench/run.py --workload sweep --seed 1 --trace 0
    python3 perfbench/run.py                 # all four workloads, untraced then traced

A run splits its measuring time (``run_seconds`` in BENCHMARK.json) over four
fresh processes, one after another, and pools their operations. Each
operation is reported in cal: its time divided by the median time of the
runs of a fixed reference kernel around it in the same process, which
cancels most of the host's drift. Set-up is the median over the four
processes. ``--trace 0`` reports the end-to-end metrics; with ``--trace 1``
each process does every round twice, traced and untraced, and the run
reports the per-layer metrics instead. Without ``--trace`` every workload is
run both ways and the result holds both sets of metrics. The last line of
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("sweep", "states", "montecarlo", "cli")
PROCESSES = 4  # fresh measuring processes per run, one after another
BUDGET_S = 170.0  # a whole run ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to its end; returns (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run's budget: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result["ready"] - t0, result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds / PROCESSES),
            "--trace", str(trace)]
    setups, procs = [], []
    for _ in range(PROCESSES):
        setup, res = _spawn(args, deadline)
        setups.append(setup)
        procs.append(res)

    plain, ratio_on, ratio_off = [], [], []
    for res in procs:
        res["cal_s"] = _cals(res["op_s"], res["kernel_s"])
        for t, on, c in zip(res["op_s"], res["traced"], res["cal_s"]):
            (ratio_on if on else ratio_off).append(t / c)
            if not on:
                plain.append(t)
    plain.sort()
    ratio = sorted(ratio_off)
    n = len(ratio)
    tail = max(n - 11, 0)  # the highest rank with ten operations beyond it
    raw = {
        "cal_ms": statistics.median(k for res in procs for k in res["kernel_s"]) * 1e3,
        "op_mean_ms": statistics.fmean(plain) * 1e3,
        "op_p50_ms": statistics.median(plain) * 1e3,
        "op_tail_ms": plain[tail] * 1e3,
        "tail_percentile": 100.0 * (n - 10) / n,
        "ops_timed": n,
        "rounds": sum(res["rounds"] for res in procs),
        "setups_s": setups,
    }
    if trace:
        metrics = _layer_metrics(procs, ratio_on, ratio_off)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_mean_cal": {"value": statistics.fmean(ratio), "unit": "cal"},
            "op_p50_cal": {"value": statistics.median(ratio), "unit": "cal"},
            "op_tail_cal": {"value": ratio[tail], "unit": "cal"},
            "peak_mem_mb": {"value": max(res["peak_mem_mb"] for res in procs), "unit": "MB"},
        }
    incorrect, failures = {}, {}
    for res in procs:
        incorrect.update(res["incorrect"])
        for msg, count in res["failures"].items():
            failures[msg] = failures.get(msg, 0) + count
    result = {
        "correct": not incorrect,
        "attempted": sum(res["attempted"] for res in procs),
        "failed": sum(res["failed"] for res in procs),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "result": result,
              "raw": raw, "failures": failures, "incorrect": incorrect, "workers": procs}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record), encoding="utf-8")
    return {"result": result, "raw": raw, "failures": failures, "incorrect": incorrect}


def _cals(op_s: list[float], kernel_s: list[float]) -> list[float]:
    """One cal per operation: the median of the kernel runs around it.

    ``kernel_s[i]`` ran just before operation i and ``kernel_s[i + 1]`` just
    after. An operation takes as many kernel runs on each side as cover half
    its own duration (at least one, at most 16), so a short one follows the
    host's bursts and a long one is not judged by two short samples.
    """
    typical = statistics.median(kernel_s)
    cals = []
    for i, t in enumerate(op_s):
        n = min(max(math.ceil(0.5 * t / typical), 1), 16)
        cals.append(statistics.median(kernel_s[max(i - n + 1, 0):i + n + 1]))
    return cals


def _layer_metrics(procs: list[dict], ratio_on: list[float], ratio_off: list[float]) -> dict:
    ops = len(ratio_on)
    names = procs[0]["layers"]["names"]
    calls = dict.fromkeys(names, 0)
    own = dict.fromkeys(names, 0.0)
    for res in procs:
        layers = res["layers"]
        cal = [c for c, on in zip(res["cal_s"], res["traced"]) if on]
        for fn in names:
            calls[fn] += layers["calls"][fn]
        for row, c in zip(layers["self_s"], cal):
            for fn, x in zip(names, row):
                own[fn] += x / c
    m = {}
    for fn in names:
        m[f"{fn}.calls_per_op"] = {"value": calls[fn] / ops, "unit": "count"}
        m[f"{fn}.self_cal_per_op"] = {"value": own[fn] / ops, "unit": "cal"}
    bisections = calls["criteria.critical_visibility"]
    evals = sum(res["layers"]["bisect_evals"] for res in procs)
    m["criteria.critical_visibility.evals_per_call"] = {
        "value": evals / bisections if bisections else 0.0, "unit": "count"}
    m["lhv.estimate_correlation.peak_alloc_mb"] = {
        "value": max(res["layers"]["mc_peak_bytes"] for res in procs) / 2**20, "unit": "MB"}
    m["lhv.estimate_correlation.samples_per_op"] = {
        "value": sum(res["layers"]["mc_samples"] for res in procs) / ops, "unit": "count"}
    out_bytes = sum(res["totals"].get("cli.output_bytes", 0) for res in procs)
    m["cli.output_bytes_per_op"] = {
        "value": out_bytes / sum(res["attempted"] for res in procs), "unit": "B"}
    m["trace.overhead_cal_per_op"] = {
        "value": statistics.fmean(ratio_on) - statistics.fmean(ratio_off), "unit": "cal"}
    return m


def _report(name: str, seed: int, trace: int, run: dict) -> None:
    res, raw = run["result"], run["raw"]
    print(f"{name} seed={seed} trace={trace}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {str(res['correct']).lower()}; {raw['ops_timed']} untraced ops timed in "
          f"{raw['rounds']} rounds, tail at p{raw['tail_percentile']:.1f}, cal {raw['cal_ms']:.3f} ms")
    for metric, v in res["metrics"].items():
        print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
    for msg, count in run["failures"].items():
        print(f"  failed x{count}: {msg}")
    for msg, count in run["incorrect"].items():
        print(f"  INCORRECT x{count}: {msg}", file=sys.stderr)
    print("raw: " + json.dumps(raw))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="must equal run_seconds in BENCHMARK.json, the run length the bounds hold for")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both, one run each)")
    args = ap.parse_args()
    if not (ROOT / "src" / "bellri" / "__init__.py").is_file():
        print(f"error: no bellri sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g}, but the bounds hold for run_seconds {seconds}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    try:
        for name in names:
            for trace in modes:
                run = run_workload(name, args.seed, seconds, trace)
                _report(name, args.seed, trace, run)
                if name in results:
                    prev = results[name]
                    prev["correct"] &= run["result"]["correct"]
                    prev["attempted"] += run["result"]["attempted"]
                    prev["failed"] += run["result"]["failed"]
                    prev["metrics"].update(run["result"]["metrics"])
                else:
                    results[name] = run["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
