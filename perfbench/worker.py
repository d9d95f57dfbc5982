"""One workload in one fresh process: set up, then measure for a fixed time.

Started by ``run.py``; not meant to be run by hand. Prints one JSON line: the
monotonic time at which set-up ended, the raw operation and reference-kernel
durations, the counts, and for a traced run the folded spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from oracles import CheckFailed

ROOT = Path(__file__).resolve().parent.parent

MIN_ROUNDS = 3  # per process, so a run of four processes has at least 12

# The reference kernel's inputs and code are frozen here, apart from the
# oracles, so that mending or extending a check never changes the unit.
_rng = np.random.default_rng(12345)
_KA = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_KB = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_KBUF = np.arange(2**18, dtype=np.float64)  # 2 MiB
_KPAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_KPAIRS = np.einsum("iab,jcd->ijacbd", _KPAULI, _KPAULI).reshape(3, 3, 4, 4)
_KSIGNS = [s for s in itertools.product((1.0, -1.0), repeat=4) if s.count(-1.0) % 2 == 1]


def _kernel_state(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_KSTATES = [_kernel_state(_rng) for _ in range(12)]


def reference_kernel() -> float:
    """Fixed work that never calls bellri; one run of it is one cal.

    Small complex matmuls (interpreter and numpy call overhead), passes over
    a 2 MiB array (memory traffic), and a Pauli-einsum tensor, its largest
    singular value, CHSH sign patterns and a JSON round trip on fixed states
    (a code footprint like that of bellri's per-state analysis, which host
    contention slows more than a tight loop). Changing this function or the
    constants above changes the unit.
    """
    acc = 0.0
    for _ in range(400):
        acc += np.trace(_KA @ _KB).real
    for _ in range(8):
        acc += float(_KBUF.sum())
    for rho in _KSTATES:
        t = np.einsum("ijab,ba->ij", _KPAIRS, rho).real
        acc += math.sqrt(max(float(np.linalg.eigvalsh(t.T @ t).max()), 0.0))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            e = (t[i, i], t[i, j], t[j, i], t[j, j])
            acc += sorted(abs(sum(s * x for s, x in zip(signs, e))) for signs in _KSIGNS)[-1]
        entries = [[float(z.real), float(z.imag)] for z in rho.ravel()]
        acc += len(json.loads(json.dumps({"rows": 4, "cols": 4, "entries": entries}))["entries"])
    return acc


def measure(workload, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    clock = time.perf_counter
    op_s, kernel_s, traced = [], [], []
    attempted = failed = rounds = 0
    failures: Counter = Counter()
    incorrect: Counter = Counter()
    k0 = clock()
    reference_kernel()
    kernel_s.append(clock() - k0)
    deadline = clock() + seconds
    while rounds < MIN_ROUNDS or clock() < deadline:
        ops = workload.round()
        # a traced run does every round twice on the same inputs, traced and
        # untraced, in turns first, so the overhead compares like with like
        passes = ((True, False) if rounds % 2 == 0 else (False, True)) if tracer else (False,)
        for on in passes:
            for op in ops:
                if on:
                    tracer.install()
                t0 = clock()
                try:
                    out = op.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = exc
                t1 = clock()
                if on:
                    tracer.uninstall()
                    tracer.fold()
                if isinstance(out, Exception):
                    bad = True
                    failures[f"{type(out).__name__}: {out}"] += 1
                else:
                    try:
                        bad = op.check(out)
                    except CheckFailed as exc:
                        bad = False
                        incorrect[str(exc)] += 1
                    if bad:
                        failures["unexpected exit status or diagnostic"] += 1
                attempted += 1
                failed += bad
                op_s.append(t1 - t0)
                traced.append(on)
                k0 = clock()
                reference_kernel()
                kernel_s.append(clock() - k0)
        rounds += 1
    totals = getattr(workload, "totals", dict)()
    return {
        "op_s": op_s,
        "kernel_s": kernel_s,
        "traced": traced,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "incorrect": dict(incorrect),
        "totals": totals,
        "layers": tracer.summary() if tracer else None,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    import bellri

    src = (ROOT / "src").resolve()
    if src not in Path(bellri.__file__).resolve().parents:
        print(f"bellri imported from {bellri.__file__}, not from {src}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workdir = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            workload.warmup()
            warmup_incorrect = {}
        except CheckFailed as exc:
            warmup_incorrect = {f"warm-up: {exc}": 1}
        reference_kernel()
        ready = time.monotonic()
        result = measure(workload, args.seconds, bool(args.trace))
        result["ready"] = ready
        result["incorrect"].update(warmup_incorrect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
