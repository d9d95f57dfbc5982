"""Explicit two-setting local hidden variable model for the noisy singlet.

The construction: the first observer's three predetermined outcomes are
independent fair coins ``a_1, a_2, a_3``; the second observer's outcome on
axis ``i`` is ``-a_i`` with probability ``(1 + v)/2`` and ``+a_i`` otherwise,
independently per axis. This reproduces the noisy-singlet correlations at
the canonical axes exactly: ``-v`` on matched axes, ``0`` on mismatched ones.
Transporting the axes with a rotation pair yields the same correlations in
any rotated frame, so the family pins down the correlation at every pair of
equal directions (-v) and every orthogonal pair (0) while satisfying the
complete two-setting CHSH set at all visibilities.

:func:`consistency_verdict` records where the family nevertheless fails:
gluing the rotated copies into one omnidirectional model is impossible
whenever the rotationally invariant criterion is violated, i.e. for
``v > 3/4``. The verdict delegates to that criterion; no combinatorial
search over the continuum of frames is attempted.
"""

from __future__ import annotations

import _thread
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .criteria import _criterion
from .errors import DomainError
from .states import _real, _werner, _whole
from .tensor import _pauli_expectations, validate_rotation

CONSISTENT = "consistent-at-this-visibility"
RI_VIOLATED = "ri-criterion-violated"

# upper limits on the sizes callers may ask for, checked before anything is
# allocated: 10^9 samples keep 125 MB of packed signs, and verdict_sweep peaks
# near 160 B per point, so 10^6 steps stay under 200 MB
MAX_SAMPLES = 10**9
MAX_STEPS = 10**6
# sweep points mixed and judged per stacked criterion call. A chunk's states take
# 256 B per point and peak at four 64 KiB blocks with the second product and numpy's
# casting buffers. glibc gives a free heap top above 128 KiB back to the kernel: with
# chunks of 448 points or more, a process that had done nothing else faulted ~155
# pages back in on every 1005-point sweep, and with 256 none
_CHUNK = 256


@dataclass(frozen=True, eq=False)
class LhvTwoSettingModel:
    """Two-setting model at visibility ``v``, its axes in frames rotated by ``r1``, ``r2``.

    Frames default to the identity. The model's correlations at its own axes
    are ``-v`` on matched and ``0`` on mismatched axes regardless of frames.
    """

    v: float
    r1: Any = None
    r2: Any = None

    def __post_init__(self) -> None:
        # every model is checked and keeps read-only copies of its frames,
        # which the caller's arrays cannot change afterwards
        object.__setattr__(self, "v", _real(self.v, "visibility", 0, 1))
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            frame = np.eye(3) if r is None else np.array(validate_rotation(r))
            frame.flags.writeable = False
            object.__setattr__(self, name, frame)

    @property
    def flip_probability(self) -> float:
        """Probability that the second outcome opposes the first on a matched axis."""
        return (1.0 + self.v) / 2.0


build_model = LhvTwoSettingModel


class McEstimate(NamedTuple):
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int


class ConsistencyVerdict(NamedTuple):
    """Whether the rotated two-setting copies can coexist at visibility ``v``.

    A named tuple, built at about half the cost of a frozen dataclass:
    immutable, compared field by field, and iterable.
    """

    v: float
    criterion_margin: float
    consistent: bool
    explanation_code: str


def _axis_streams(seed: int, keys: Iterable[int] = range(6)) -> list[np.random.Generator]:
    # six independent child streams: three for the first observer's coins,
    # three for the per-axis flips; the fixed derivation order keeps estimates
    # reproducible regardless of which axes a caller consumes. Child k is
    # built alone as SeedSequence(seed, spawn_key=(k,)), which is
    # SeedSequence(seed).spawn(6)[k], so a caller pays only for the streams it
    # draws from
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for k in keys]


# Leaves of numpy's pairwise summation tree. np.add.reduce over a contiguous
# float64 array splits a node of m > 128 elements at m//2 - (m//2) % 8 and
# adds the two halves' sums; a node of at most _LEAF elements reduced on its
# own gives the same bits as inside the whole array. Every leaf but the last
# starts and ends on a multiple of 8, so the leaves' bit-packed signs tile
# one byte array. The first pass draws in chunks of _LEAF samples, one per
# thread at a time, so its two threads' buffers take what one thread's
# leaves of 2^16 took.
_LEAF = 1 << 15
# row s: the eight signs that byte s packs, in np.packbits order
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


def _pairwise(lo: int, hi: int, leaf: Callable[[int, int], Any]) -> Any:
    """Sum of ``leaf(a, b)`` over the leaves ``[a, b)`` of ``[lo, hi)``, left to right, in numpy's order."""
    m = hi - lo
    if m <= _LEAF:
        return leaf(lo, hi)
    h = m // 2 - (m // 2) % 8
    return _pairwise(lo, lo + h, leaf) + _pairwise(lo + h, hi, leaf)


def _twice(work: Callable[[], int]) -> int:
    """``work() + work()``, one on the caller's thread and one on a helper thread at once.

    The helper has ended its ``work`` before this returns, and its failure is
    raised here.
    """
    helper_result: dict = {}
    done = _thread.allocate_lock()
    done.acquire()

    def run() -> None:
        try:
            helper_result["sum"] = work()
        except BaseException as exc:  # handed to the caller's thread
            helper_result["error"] = exc
        finally:
            done.release()

    # threading.Thread.start would block the caller until the new thread first
    # runs, which on a machine whose other core is busy is a scheduler slice
    # of several ms; the caller has chunks of its own to draw meanwhile, and a
    # helper that starts late takes fewer of them
    _thread.start_new_thread(run, ())
    try:
        mine = work()
    finally:
        done.acquire()
    if "error" in helper_result:
        raise helper_result["error"]
    return mine + helper_result["sum"]


def estimate_correlation(
    model: LhvTwoSettingModel, i: int, j: int, n: int, seed: int
) -> McEstimate:
    """Monte Carlo mean of ``a_i * b_j`` over ``n`` seeded draws (axes 1-indexed).

    Draws ``_LEAF`` samples at a time and keeps only the signs, bit-packed:
    memory is ``n/8`` bytes plus a fixed working set of about 1 MB. Two
    threads draw, the caller's and one helper that the call starts, without
    waiting for it to run, and waits for before it returns. Each takes the
    next chunk of samples from its own streams advanced to the chunk's start,
    so the result has the bits of one thread. ``n`` must lie in ``1000..MAX_SAMPLES``
    (10^9); any other count raises :class:`DomainError` before anything is allocated.
    """
    i = _whole(i, "axis index i", 1, 3)
    j = _whole(j, "axis index j", 1, 3)
    n = _whole(n, "sample count n", 1000, MAX_SAMPLES)
    seed = _whole(seed, "seed", 0)
    p = model.flip_probability
    signs = np.empty((n + 7) // 8, dtype=np.uint8)
    # one iterator shared by both threads; next() on it is one C call, which
    # the GIL makes atomic, so each chunk goes to exactly one thread
    chunks = iter(range(0, n, _LEAF))

    def count() -> int:
        # the -1 products in the chunks this thread takes. Its streams skip
        # the chunks the other thread took: a flip takes one 64-bit word per
        # sample and a coin stream one per two samples, since every chunk
        # but the last has _LEAF samples, a multiple of 8, which also gives
        # each chunk's packed signs bytes of their own
        keys = (3 + (j - 1), i - 1, j - 1) if i != j else (3 + (j - 1),)
        flips, *coins = _axis_streams(seed, keys)
        coins = [coin.bit_generator for coin in coins]
        u = np.empty(min(n, _LEAF))
        neg = np.empty(u.size, dtype=bool)
        at = k = 0  # the sample this thread's streams stand at; its count
        for a in chunks:
            if a > at:
                flips.bit_generator.advance(a - at)
                for coin in coins:
                    coin.advance((a - at) // 2)
            m = min(_LEAF, n - a)
            at = a + m
            # neg marks the draws with a_i * b_j = a_i * a_j * flip_j = -1. On
            # matched axes a_i * a_i = 1, so no coin is drawn; the streams are
            # independent, so skipping one changes no other draw. A coin of
            # integers(0, 2) is the top bit of one 32-bit half of the stream's
            # 64-bit words, low half first (Lemire's method never rejects on a
            # range of 2), so the parity of two coins is the top bit of the XOR
            # of their raw words.
            np.less(flips.random(out=u[:m]), p, out=neg[:m])
            if coins:
                words = coins[0].random_raw((m + 1) // 2)
                words ^= coins[1].random_raw((m + 1) // 2)  # in place: no third word array
                neg[:m] ^= words.view(np.uint32)[:m] >= 1 << 31
            signs[a // 8 : (at + 7) // 8] = np.packbits(neg[:m])
            k += int(np.count_nonzero(neg[:m]))
        return k

    # the products are +-1, so their float sum n - 2k is exact and the mean is
    # that of the full product array bit for bit. The squared deviations take
    # two values; summing them leaf by leaf in numpy's tree reproduces
    # std(ddof=1) of the full array bit for bit, which neither the closed
    # form 4k(n-k)/n nor a sum in other chunks does. The second pass stays on
    # one thread: its table lookup holds the GIL, and a second thread made it
    # no faster
    mean = (n - 2 * _twice(count)) / n
    lut = np.array([(1.0 - mean) * (1.0 - mean), (-1.0 - mean) * (-1.0 - mean)])
    rows = lut.take(_BYTE_BITS)
    u = np.empty((min(n, _LEAF) + 7) // 8 * 8)  # whole bytes' rows

    def squares(a: int, b: int) -> float:
        # a leaf starts on a byte, so its bytes' rows are its squared deviations
        # and then the padding of a last partial byte. mode="clip" writes into
        # u directly, where the default "raise" goes through a temporary
        packed = signs[a // 8 : (b + 7) // 8]
        rows.take(packed, axis=0, out=u.reshape(-1, 8)[: packed.size], mode="clip")
        return float(u[: b - a].sum())

    ss = _pairwise(0, n, squares)
    return McEstimate(
        mean=mean,
        std_error=math.sqrt(ss / (n - 1)) / math.sqrt(n),
        n_samples=n,
    )


def mc_report(model: LhvTwoSettingModel, i: int, j: int, est: McEstimate) -> dict:
    """JSON payload for one estimate: target and a 5-sigma pass flag included."""
    i = _whole(i, "axis index i", 1, 3)
    j = _whole(j, "axis index j", 1, 3)
    target = -model.v if i == j else 0.0
    return {
        "v": model.v,
        "i": i,
        "j": j,
        "n": est.n_samples,
        "mean": est.mean,
        "std_error": est.std_error,
        "target": target,
        "pass": abs(est.mean - target) <= 5.0 * est.std_error,
    }


def _sweep_chunks(v_min: float, v_max: float, steps: int) -> Iterator[tuple[list, list, list]]:
    """Visibilities, criterion margins and consistency flags of the noisy singlet, one chunk at a time.

    The visibilities are ``np.linspace(v_min, v_max, steps)``; each chunk holds
    ``_CHUNK`` of them, judged by one stacked criterion call, as three lists.
    The range is checked, and ``steps`` must lie in ``1..MAX_STEPS`` (10^6),
    before this returns, so a refused sweep has yielded nothing. The stacked
    states exist one chunk at a time, so only the grid grows with ``steps``.
    """
    v_min = _real(v_min, "visibility v_min", 0, 1)
    v_max = _real(v_max, "visibility v_max", 0, 1)
    if v_max < v_min:
        raise DomainError(f"need v_min <= v_max, got [{v_min}, {v_max}]")
    steps = _whole(steps, "step count steps", 1, MAX_STEPS)
    grid = np.linspace(v_min, v_max, steps)
    return map(_judge, (grid[lo : lo + _CHUNK] for lo in range(0, steps, _CHUNK)))


def _judge(v: np.ndarray) -> tuple[list, list, list]:
    # the mixtures are valid and Hermitian by construction, so none is validated; mixing
    # the endpoint tensors instead moves T_zz by an ulp at 4180 of 10001 margins on [0, 1]
    lhs, rhs, holds = _criterion(_pauli_expectations(_werner(v[:, None, None])))
    return v.tolist(), (lhs - rhs).tolist(), holds.tolist()


def sweep_margins(v_min: float, v_max: float, steps: int) -> tuple[list, list, list]:
    """Visibilities, criterion margins and consistency flags on ``np.linspace(v_min, v_max, steps)``, as lists.

    The chunks of :func:`_sweep_chunks` joined; ``steps`` must lie in ``1..MAX_STEPS``.
    """
    vs: list = []
    margins: list = []
    consistent: list = []
    for chunk_vs, chunk_margins, flags in _sweep_chunks(v_min, v_max, steps):
        vs += chunk_vs
        margins += chunk_margins
        consistent += flags
    return vs, margins, consistent


def consistency_verdict(v: float) -> ConsistencyVerdict:
    """Can the rotated two-setting models be glued at visibility ``v``?

    Delegates to the rotationally invariant criterion on the noisy-singlet
    tensor: a violation certifies that no omnidirectional model exists, so
    the two-setting copies must contradict each other.
    """
    v = _real(v, "visibility", 0, 1)
    return verdict_sweep(v, v, 1)[0]


def verdict_sweep(v_min: float, v_max: float, steps: int) -> list[ConsistencyVerdict]:
    """Verdicts at the points of :func:`sweep_margins` (``1 <= steps <= MAX_STEPS``)."""
    vs, margins, consistent = sweep_margins(v_min, v_max, steps)
    # tuple.__new__ on the field tuples builds each record in C, as _make does
    # after a Python frame of its own; the flags are bools, which index the codes
    codes = map((RI_VIOLATED, CONSISTENT).__getitem__, consistent)
    fields = zip(vs, margins, consistent, codes)
    return list(map(tuple.__new__, repeat(ConsistencyVerdict), fields))
