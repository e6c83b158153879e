"""Streaming diagonal averages along rotation orbits.

Orbits are evaluated blockwise as {x0 + n*alpha} with double-double product
reduction (never iterated additions), block sums are exactly rounded by an
error-free vectorised sum (``_dd.v_sum``, equal to math.fsum bit for bit)
and merged through a Neumaier accumulator in fixed block order, so traces
are bitwise reproducible for any worker count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from . import _dd
from .dynsys import TransformFamily, TransformSpec, effective_rotation, finite_order
from .observables import Observable, evaluate_array
from .unitmath import CompensatedSum, ScalarConstant, UnitPoint, frac

DEFAULT_CHUNK = 1 << 16
# _orbit_array takes n through float64, exact up to 2**53
MAX_N = 1 << 53
# blocks in flight per pool thread: enough to keep every thread busy
_BLOCKS_PER_WORKER = 4


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing checkpoint counts at which the running average
    is recorded; the last entry is the total orbit length."""

    checkpoints: tuple[int, ...]

    def __post_init__(self):
        cs = self.checkpoints
        if not cs:
            raise ValueError("schedule must have at least one checkpoint")
        if any(b <= a for a, b in zip(cs, cs[1:])) or cs[0] < 1:
            raise ValueError("checkpoints must be positive and strictly increasing")
        if cs[-1] > MAX_N:
            raise ValueError("schedule exceeds the supported orbit length")

    @classmethod
    def geometric(cls, n_max: int, ratio: float = 10.0 ** 0.125,
                  first: int = 10) -> "Schedule":
        if n_max < 1:
            raise ValueError("n_max must be positive")
        if ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        cs, j = [], 0
        while True:
            x = first * ratio ** j  # inf for a huge ratio
            c = math.ceil(x) if x < n_max else n_max
            if c >= n_max:
                break
            if not cs or c > cs[-1]:
                cs.append(c)
            j += 1
        cs.append(n_max)
        return cls(tuple(cs))


@dataclass(frozen=True)
class AverageTrace:
    schedule: Schedule
    values: tuple[float, ...]
    final: float
    est_tail: float


def _orbit_array(x0: UnitPoint, const: ScalarConstant, n: np.ndarray) -> np.ndarray:
    """Points {x0 + n*alpha} for an int64 index vector, to ~1 ulp."""
    if const.is_rational():
        fr = const.as_fraction() % 1
        p, q = fr.numerator, fr.denominator
        if p * q >= 1 << 62:
            raise ValueError("rational rotation constant too large to reduce")
        shift = ((n % q) * p % q).astype(np.float64) / q
        h, e = _dd.v_two_sum(shift, x0.value)
        return _dd.v_frac(h, e + x0.comp)
    ch, cl = const.dd()
    nf = n.astype(np.float64)
    h, e = _dd.v_two_prod(nf, ch)
    lo = nf * cl + e
    h, e2 = _dd.v_two_sum(h, x0.value)
    return _dd.v_frac(h, lo + e2 + x0.comp)


@dataclass(frozen=True)
class DiagonalJob:
    """Terms prod_i f_i({x0 + n*alpha_i})."""

    constants: tuple[ScalarConstant, ...]
    observables: tuple[Observable, ...]
    x0: UnitPoint
    schedule: Schedule

    def terms(self, n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1, dtype=np.int64)
        out = None
        for c, f in zip(self.constants, self.observables):
            vals = evaluate_array(f, _orbit_array(self.x0, c, n))
            out = vals if out is None else out * vals
        return out


def _arc_intervals(start: np.ndarray, length: float):
    """A circle arc [s, s+L) as up to two intervals in [0, 1)."""
    end = start + length
    lo1, hi1 = start, np.minimum(end, 1.0)
    lo2 = np.zeros_like(start)
    hi2 = np.maximum(end - 1.0, 0.0)
    return (lo1, lo2), (hi1, hi2)


def _arc_intersection_lengths(starts, lengths) -> np.ndarray:
    los, his = [], []
    for s, L in zip(starts, lengths):
        lo, hi = _arc_intervals(s, L)
        los.append(lo)
        his.append(hi)
    total = np.zeros_like(starts[0])
    for combo in _iproduct(range(2), repeat=len(starts)):
        lo = np.maximum.reduce([los[i][c] for i, c in enumerate(combo)])
        hi = np.minimum.reduce([his[i][c] for i, c in enumerate(combo)])
        total += np.maximum(hi - lo, 0.0)
    return total


@dataclass(frozen=True)
class ArcJob:
    """Terms len(T1^-n A1 ∩ ... ∩ C), exact arc-intersection lengths.

    ``moving`` arcs are pulled back by each transform (shift by -n*alpha);
    ``fixed`` arcs stay put.
    """

    moving: tuple[tuple[ScalarConstant, float, float], ...]  # (alpha, start, len)
    fixed: tuple[tuple[float, float], ...]
    schedule: Schedule

    def terms(self, n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1, dtype=np.int64)
        starts, lengths = [], []
        for alpha, a, length in self.moving:
            starts.append(_orbit_array(UnitPoint.from_real(a), alpha.neg(), n))
            lengths.append(length)
        for a, length in self.fixed:
            starts.append(np.full(len(n), frac(a)))
            lengths.append(length)
        return _arc_intersection_lengths(starts, lengths)


def _block_plan(checkpoints, chunk_size: int):
    """Blocks [n0, n1) cut at every checkpoint and every multiple of
    chunk_size, generated in order one at a time."""
    n0 = 0
    for c in checkpoints:
        while n0 < c:
            n1 = min(c, (n0 // chunk_size + 1) * chunk_size)
            yield n0, n1
            n0 = n1


def _map_in_order(pool, fn, items, window: int):
    """Like ``pool.map``, but submits items lazily and keeps at most
    ``window`` of them in flight."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_chunked(job, workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> AverageTrace:
    """Execute a job over fixed contiguous blocks.

    The block plan depends only on the schedule and chunk_size, block sums
    are exactly rounded (``_dd.v_sum``) and merged in plan order, so any
    worker count yields identical traces.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    cps = job.schedule.checkpoints
    blocks = _block_plan(cps, chunk_size)

    def block_sum(block):
        n0, n1 = block
        return n1, _dd.v_sum(job.terms(n0, n1))

    acc = CompensatedSum()
    values = []
    it = iter(cps)
    nxt = next(it)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        sums = (map(block_sum, blocks) if workers == 1 else
                _map_in_order(pool, block_sum, blocks, _BLOCKS_PER_WORKER * workers))
        for n1, s in sums:
            acc.add(s)
            if n1 == nxt:
                values.append(acc.value() / n1)
                nxt = next(it, None)
    est_tail = abs(values[-1] - values[-2]) if len(values) > 1 else 0.0
    return AverageTrace(job.schedule, tuple(values), values[-1], est_tail)


def birkhoff_average(t: TransformSpec, f: Observable, x0, s: Schedule,
                     workers: int = 1) -> AverageTrace:
    """(1/N) sum_{n<N} f(T^n x0) at every checkpoint."""
    job = DiagonalJob((effective_rotation(t),), (f,), UnitPoint.from_real(x0), s)
    return run_chunked(job, workers)


def multiple_average(fam: TransformFamily, fs, x0, s: Schedule,
                     workers: int = 1) -> AverageTrace:
    """(1/N) sum_{n<N} prod_i f_i(T_i^n x0)."""
    fs = tuple(fs)
    if len(fs) != len(fam.members):
        raise ValueError(f"{len(fs)} observables for {len(fam.members)} transformations")
    job = DiagonalJob(tuple(effective_rotation(m) for m in fam.members), fs,
                      UnitPoint.from_real(x0), s)
    return run_chunked(job, workers)


def periodic_factor_average(fam: TransformFamily, fs, g: Observable,
                            s_map: TransformSpec, x0, sch: Schedule,
                            workers: int = 1) -> AverageTrace:
    """Diagonal average with an extra finite-order factor g(S^n x0)."""
    fs = tuple(fs)
    if len(fs) != len(fam.members):
        raise ValueError(f"{len(fs)} observables for {len(fam.members)} transformations")
    finite_order(s_map)  # raises for infinite-order maps
    consts = tuple(effective_rotation(m) for m in fam.members) + (
        effective_rotation(s_map),)
    job = DiagonalJob(consts, fs + (g,), UnitPoint.from_real(x0), sch)
    return run_chunked(job, workers)


def _require_indicator(f: Observable, name: str):
    if f.kind != "indicator":
        raise ValueError(f"{name} must be an indicator observable")
    a, b = f.params
    return a, b - a


def correlation_average(t: TransformSpec, A: Observable, B: Observable,
                        s: Schedule, workers: int = 1) -> AverageTrace:
    """(1/N) sum_{n<N} len(T^-n A ∩ B), each term exact."""
    a, la = _require_indicator(A, "A")
    b, lb = _require_indicator(B, "B")
    job = ArcJob(((effective_rotation(t), a, la),), ((b, lb),), s)
    return run_chunked(job, workers)


def triple_intersection_average(t1: TransformSpec, t2: TransformSpec,
                                A: Observable, B: Observable, C: Observable,
                                s: Schedule, workers: int = 1) -> AverageTrace:
    """(1/N) sum_{n<N} len(T1^-n A ∩ T2^-n B ∩ C)."""
    a, la = _require_indicator(A, "A")
    b, lb = _require_indicator(B, "B")
    c, lc = _require_indicator(C, "C")
    job = ArcJob(((effective_rotation(t1), a, la),
                  (effective_rotation(t2), b, lb)), ((c, lc),), s)
    return run_chunked(job, workers)
