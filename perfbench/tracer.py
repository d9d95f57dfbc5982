"""Spans at bellri's public functions, recorded from outside the library.

While installed, every traced function is replaced by a timing wrapper in
every module namespace that binds it (``compute_tensor`` is bound in
``tensor``, ``criteria``, ``lhv`` and the package), so calls between modules
are caught too. Spans stay in memory; ``fold`` turns one operation's spans
into per-function call counts and self times (span minus its child spans).
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import bellri
from bellri import cli, criteria, lhv, states, tensor

TRACED = {
    states: ("validate_density_matrix", "make_werner"),
    tensor: ("compute_tensor", "tensor_max_svd", "rotate_tensor", "rotation_from_unitary"),
    criteria: ("evaluate_ri_criterion", "chsh_complete_set", "inner_product_ee", "ri_bound_check",
               "critical_visibility"),
    lhv: ("consistency_verdict", "verdict_sweep", "estimate_correlation"),
    cli: ("main", "parse_state", "load_config"),
}
NAMES = [f"{m.__name__.rpartition('.')[2]}.{f}" for m, fs in TRACED.items() for f in fs]
NAMESPACES = (bellri, states, tensor, criteria, lhv, cli)

_EVAL = NAMES.index("criteria.evaluate_ri_criterion")
_BISECT = NAMES.index("criteria.critical_visibility")
_MC = NAMES.index("lhv.estimate_correlation")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.calls = [0] * len(NAMES)
        self.self_s: list[list[float]] = []  # per traced operation, per function
        self.bisect_evals = 0
        self.mc_samples = 0
        self.mc_peak_bytes = 0
        self.sample_spans: list = []
        self._wrappers = {}
        for module, fns in TRACED.items():
            for f in fns:
                fn = getattr(module, f)
                idx = NAMES.index(f"{module.__name__.rpartition('.')[2]}.{f}")
                self._wrappers[fn] = self._mc_wrap(idx, fn) if idx == _MC else self._wrap(idx, fn)
        self._patches = [
            (ns, attr, val)
            for ns in NAMESPACES
            for attr, val in vars(ns).items()
            if any(val is fn for fn in self._wrappers)
        ]

    def _wrap(self, idx, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(k)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[k] = (idx, t0, clock(), parent)
                stack.pop()

        return wrapper

    def _mc_wrap(self, idx, fn):
        timed = self._wrap(idx, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                self.mc_peak_bytes = max(self.mc_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self.mc_samples += int(kwargs["n"] if "n" in kwargs else args[3])

        return wrapper

    def install(self) -> None:
        for ns, attr, val in self._patches:
            setattr(ns, attr, self._wrappers[val])

    def uninstall(self) -> None:
        for ns, attr, val in self._patches:
            setattr(ns, attr, val)

    def fold(self) -> None:
        """Add the spans of the operation just finished to the totals."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for idx, t0, t1, parent in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
                if idx == _EVAL and spans[parent][0] == _BISECT:
                    self.bisect_evals += 1
        own = [0.0] * len(NAMES)
        for k, (idx, t0, t1, _) in enumerate(spans):
            self.calls[idx] += 1
            own[idx] += t1 - t0 - child_s[k]
        self.self_s.append(own)
        if not self.sample_spans:
            self.sample_spans = [(NAMES[i], t0, t1, p) for i, t0, t1, p in spans]
        spans.clear()

    def summary(self) -> dict:
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "names": NAMES,
            "self_s": self.self_s,
            "bisect_evals": self.bisect_evals,
            "mc_samples": self.mc_samples,
            "mc_peak_bytes": self.mc_peak_bytes,
            "sample_spans": self.sample_spans,
        }
