"""Steadiness check: repeat each workload and compare run-to-run spread with the bounds.

    python3 perfbench/steady.py --runs 10              # all workloads, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workload cli

Each run is a separate ``run.py`` process with its own seed. For every
end-to-end metric it prints the quartiles across runs and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json, and for
the timed metrics the spread of the raw milliseconds beside it, so the effect
of the reference-kernel units stays visible. A metric is marked steady when
its spread is below a third of its bound. ``setup_s`` (process start, which
the reference kernel cannot correct) is held only to its bound. Exits 1
unless every workload is steady, correct, and fails the same share of
operations in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_OF = {"op_mean_cal": "op_mean_ms", "op_p50_cal": "op_p50_ms", "op_tail_cal": "op_tail_ms"}


def one_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    raw = json.loads(next(x for x in lines if x.startswith("raw: "))[5:])
    return json.loads(lines[-1]), raw


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    steady = True
    for wl in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(wl, seed) for seed in seeds]
        shares = sorted({(r["failed"], r["attempted"]) for r, _ in runs})
        constant = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r, _ in runs)
        steady &= constant and correct
        print(f"\n{wl}: seeds {seeds[0]}..{seeds[-1]}, failed/attempted {shares}, "
              f"share {'constant' if constant else 'VARIES'}, correct {correct}")
        print(f"  {'metric':<12} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>8} {'bound':>6}   raw spread")
        for name, bound in bounds.items():
            q1, m, q3, sp = spread([r["metrics"][name]["value"] for r, _ in runs])
            raw = f"{spread([x[RAW_OF[name]] for _, x in runs])[3]:8.4f}" if name in RAW_OF else ""
            flag = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            steady &= sp <= bound if name == "setup_s" else sp < bound / 3
            print(f"  {name:<12} {q1:10.4f} {m:10.4f} {q3:10.4f} {sp:8.4f} {bound:6.2f}   {raw:>8}   {flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
