"""Streaming diagonal averages along rotation orbits.

Orbits are evaluated blockwise: each block starts from the base
{x0 + n0*alpha} and adds j*{alpha} for the local step j, split so that the
large part is exact in float64; one sign test wraps the points into
[0, 1).  Base and step are each one exact integer ratio (Python-int step
counts, never iterated additions) rounded once to a double-double.  Each
job plans its members' orbits once.  A rational member repeats with its
period q, so when q is below DEFAULT_CHUNK its observable is evaluated at
one period of points per job, and each block multiplies by those values,
rotated to its first step, in rows that q divides: the terms bit for bit,
as no value depends on the length of the array it is computed in (trig_poly
runs each Horner multiply out of place for this, as numpy rounds an
in-place complex multiply of a one-element array differently).  Members
with equal constants share one orbit per block.  Block sums are exactly
rounded (``_dd.v_sum``, equal to math.fsum bit for bit): one ExtractVector
pass and a bound on its rounding error certify almost every block, and only
sums near a rounding midpoint take further passes.  They are merged through
a Neumaier accumulator in block order, in one thread, so traces are bitwise
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _iproduct

import numpy as np

from . import _dd
from .observables import Observable, evaluate_array
from .unitmath import CompensatedSum, ScalarConstant, UnitPoint, frac, orbit_point

DEFAULT_CHUNK = 1 << 16
# orbit points are good at any n (``orbit_point``): the cap is policy, so
# that every count converts to a float exactly, as the average divides by it
MAX_N = 1 << 53
# geometric schedules start here and take about log(n_max / _FIRST) /
# log(ratio) steps: at most 344k at MIN_RATIO, which parses in under a second
_FIRST = 10
MIN_RATIO = 1.0001


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
    def geometric(cls, n_max: int, ratio: float = 10.0 ** 0.125) -> "Schedule":
        if n_max < 1:
            raise ValueError("n_max must be positive")
        if not ratio >= MIN_RATIO:
            raise ValueError(f"ratio must be at least {MIN_RATIO}")
        cs, j = [], 0
        while True:
            x = _FIRST * ratio ** j  # inf for a huge ratio
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


_STEP_MAX = 1 << 17


@lru_cache(maxsize=1)
def _steps() -> np.ndarray:
    """The shared read-only step vector 0, 1, ..., _STEP_MAX - 1."""
    j = np.arange(_STEP_MAX, dtype=np.float64)
    j.flags.writeable = False
    return j


def _grid_split(x, k: int):
    """Split a double-double x in [0, 1), an orbit base or step, into
    hi + lo with hi a multiple of 2**-k and lo = x - hi <= 0 (to one
    rounding)."""
    h, l = x
    hi = math.ldexp(math.ceil(math.ldexp(h, k)), -k)
    if hi == h and l > 0.0:
        hi += math.ldexp(1.0, -k)
    return hi, (h - hi) + l


def _wrap(o: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Map o in (-1, 2) into [0, 1) in place: subtract floor(o) twice, so a
    negative that rounds up to 1.0 lands on 0.0; t is scratch."""
    for _ in range(2):
        np.floor(o, out=t)
        o -= t
    return o


def _period(const: ScalarConstant):
    """The period q of {x0 + n*const} when const = p/q (mod 1) with
    p*q < 2**62, the orbits ``rational_points`` computes; None otherwise."""
    if const.b:
        return None
    fr = const.a % 1
    return fr.denominator if fr.numerator * fr.denominator < 1 << 62 else None


def _orbit(const: ScalarConstant):
    """(const, q, step): const's ``_period`` q, or None and the step {const}
    as a double-double, its exact ``residue`` rounded once (``_dd.dd_mod1``)."""
    q = _period(const)
    return const, q, None if q is not None else _dd.dd_mod1(*const.residue())


# a period view's rows are the multiple of q below this, or q, wide: on 2**16
# terms, rows of 2**10 .. 2**12 multiply about 1.4 times slower than 2**13
_VIEW = 1 << 13


def _times_period(row, a, out):
    """out = a * row repeated, or row repeated for a None, through a
    (rows, len(row)) view of out and its tail: the bits of a full product."""
    w, k = len(row), len(out) - len(out) % len(row)
    body, tail = out[:k].reshape(-1, w), out[k:]
    if a is None:
        body[...], tail[...] = row, row[:len(tail)]
    else:
        np.multiply(a[:k].reshape(-1, w), row, out=body)
        np.multiply(a[k:], row[:len(tail)], out=tail)
    return out


def rational_points(x0: UnitPoint, fr, n0: int, out):
    """{x0 + n*fr} for a Fraction fr, from the exact residue n*p mod q of
    fr mod 1 = p/q, written to out; p*q must be below 2**62, so the residues
    stay exact in int64.  One row of whole periods is computed and repeated;
    a ``DiagonalJob`` repeats the values at one period from n = 0 instead."""
    fr %= 1
    p, q = fr.numerator, fr.denominator
    m = min(q * max(1, _VIEW // q), len(out))
    n = np.arange(n0, n0 + m, dtype=np.int64)
    h, e = _dd.two_sum(((n % q) * p % q).astype(np.float64) / q, x0.value)
    o = np.subtract(h, np.floor(h), out=out[:m])
    o += e + x0.comp
    _wrap(o, h)
    if m < len(out):
        _times_period(o, None, out[m:])
    return out


def _orbit_block(x0: UnitPoint, orbit, n0: int, n1: int, ws) -> np.ndarray:
    """Points {x0 + n*alpha} for n0 <= n < n1, within about half an ulp.

    A rational alpha with a period (``_orbit``) goes to
    ``rational_points``.  Any other alpha runs in L <= _STEP_MAX points from
    the base {x0 + m0*alpha} (``orbit_point``: Python-int step count, exact
    rational part), adding j*{alpha} for the local step j < L.  Base and
    step are split on the grid 2**-k, k = 52 - bit_length(L - 1): the grid
    parts sum exactly in float64, as base + j*step stays below 2**(53-k),
    and so does their fractional part.  The remainders, both <= 0, give a
    correction above -2**(52-2k) that is added last, in one rounding.  The
    grid part lies in [0, 1) and the correction is <= 0, so a point lies in
    (-2**(52-2k), 1) and never rounds up to 1.0 from below.  One sign test
    then wraps it: only a negative point needs +1, and one that rounds up
    to 1.0 doing so lies on the circle at 0.0.  These are the bits of two
    floor-and-subtract rounds (``_wrap``), from one pass that only reads,
    and more passes only when some point is negative.

    The points go to ws[0], and ws[1] is scratch, for two rows ws of
    n1 - n0 floats.
    """
    out, t = ws
    const, q, step = orbit
    if q is not None:
        return rational_points(x0, const.a, n0, out)
    for m0 in range(n0, n1, _STEP_MAX):
        m1 = min(n1, m0 + _STEP_MAX)
        k = 52 - (m1 - m0 - 1).bit_length()
        base = orbit_point(x0, const, m0)
        bh, bl = _grid_split((base.value, base.comp), k)
        ah, al = _grid_split(step, k)
        j, o, tt = _steps()[:m1 - m0], out[m0 - n0:m1 - n0], t[m0 - n0:m1 - n0]
        np.multiply(j, ah, out=o)
        o += bh
        np.floor(o, out=tt)
        o -= tt
        np.multiply(j, al, out=tt)
        tt += bl
        o += tt
        if o.min() < 0.0:
            neg = o < 0.0
            o[neg] += 1.0
            o[o == 1.0] = 0.0
    return out


@dataclass(frozen=True)
class DiagonalJob:
    """Terms prod_i f_i({x0 + n*alpha_i})."""

    constants: tuple[ScalarConstant, ...]
    observables: tuple[Observable, ...]
    x0: UnitPoint
    schedule: Schedule

    @cached_property
    def _plan(self):
        """Per member (observable, orbit, row, period), and a later member
        that reads member 0's points, or None.  A member of period q below
        DEFAULT_CHUNK has as period its values at n < w + q and the row
        width w.  Any other member reads its points from ws[row], row being
        the first member with its constant, which computes its ``_orbit``
        (its period, or its step from one ``residue``) once per job."""
        first, plan = {}, []
        for i, (c, f) in enumerate(zip(self.constants, self.observables)):
            row, orbit = first.get(c) or first.setdefault(c, (i, _orbit(c)))
            q = orbit[1]
            if q is not None and q < DEFAULT_CHUNK:
                v = evaluate_array(f, rational_points(self.x0, c.a, 0, np.empty(q)))
                w = q * max(1, _VIEW // q)
                plan.append((f, None, None, (np.tile(v, w // q + 1), w)))
            else:
                plan.append((f, orbit, row, None))
        spare = next((i for i, p in enumerate(plan[1:], 1) if p[2] == 0), None)
        return tuple(plan), spare

    def terms(self, n0: int, n1: int) -> np.ndarray:
        """The terms for n0 <= n < n1, from the plan the job makes once.

        A member of period q below DEFAULT_CHUNK is evaluated at one period
        of points per job, and a block multiplies by those values, rotated
        to start at n0 mod q, in rows that q divides (only member 0 writes
        them out).  They repeat as its points do, and no value depends on
        the length of the array it is evaluated in (see the module note),
        so the terms are the bits that evaluating every point gives.
        Members with equal constants share one ``_orbit_block`` call per
        block.  The product runs in member order, as its rounding depends on it."""
        # one buffer per block: member i's points in row i, scratch last
        plan, spare = self._plan
        ws = np.empty((len(plan) + 1, n1 - n0))
        out = None
        for i, (f, orbit, row, period) in enumerate(plan):
            # member 0's values may be its points (frac_part), which member
            # spare reads later: the product moves to spare's free row
            dst = ws[i] if out is None else ws[spare] if i == 1 and spare else out
            if period is None:
                if row == i:
                    _orbit_block(self.x0, orbit, n0, n1, (ws[i], ws[-1]))
                v = evaluate_array(f, ws[row])
                out = v if out is None else np.multiply(out, v, out=dst)
            else:
                values, w = period
                s = n0 % (len(values) - w)
                out = _times_period(values[s:s + w], out, dst)
        return out


def _arc_intersection_lengths(arcs, ws) -> np.ndarray:
    """len(arc_1 ∩ ... ∩ arc_d): the sum over piece choices, in
    itertools.product order, of max(min(his) - max(los), 0).

    An arc [s, s+L) is the pieces [s, min(s+L, 1)) and [0, s+L-1) of
    [0, 1), each given as (lo arrays, lo scalar, hi arrays, hi scalar).  A
    negative hi needs no clamp at 0, as it already gives +0.0.  max and
    min are exact, so they fold in any order, in place.  A choice whose
    scalar bounds are already empty only ever adds +0.0 and is skipped.
    ws holds three scratch rows.
    """
    total, lo, term = None, ws[0], ws[1]
    for combo in _iproduct(*arcs):
        lo_s, hi_s = max(p[1] for p in combo), min(p[3] for p in combo)
        if hi_s <= lo_s:
            continue
        los = [a for p in combo for a in p[0]]
        his = [a for p in combo for a in p[2]]
        low = lo_s
        if los:
            low = los[0]
            for a in los[1:]:
                low = np.maximum(low, a, out=lo)
            if lo_s > 0.0:  # every lo is >= +0.0
                low = np.maximum(low, lo_s, out=lo)
        if his:
            np.minimum(his[0], hi_s, out=term)
        else:
            term.fill(hi_s)
        for a in his[1:]:
            np.minimum(term, a, out=term)
        term -= low
        np.maximum(term, 0.0, out=term)
        if total is None:
            total, term = term, ws[2]
        else:
            total += term
    if total is None:
        total = term
        total.fill(0.0)
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

    @cached_property
    def _moving(self):
        """Each moving arc's start point, pulled-back ``_orbit`` and length."""
        return tuple((UnitPoint.from_real(a), _orbit(alpha.neg()), length)
                     for alpha, a, length in self.moving)

    def terms(self, n0: int, n1: int) -> np.ndarray:
        # one buffer per block: rows 3i..3i+2 hold moving arc i's start, end
        # and end - 1 (the end row is the orbit scratch first); 3 more rows
        # are for the sum
        ws = np.empty((3 * len(self.moving) + 3, n1 - n0))
        arcs = []
        for i, (x0, orbit, length) in enumerate(self._moving):
            start, end, end1 = ws[3 * i:3 * i + 3]
            _orbit_block(x0, orbit, n0, n1, ws[3 * i:3 * i + 2])
            np.add(start, length, out=end)
            np.subtract(end, 1.0, out=end1)
            arcs.append((([start], 0.0, [end], 1.0), ([], 0.0, [end1], 1.0)))
        for a, length in self.fixed:
            start = frac(a)
            end = start + length
            arcs.append((([], start, [], min(end, 1.0)), ([], 0.0, [], max(end - 1.0, 0.0))))
        return _arc_intersection_lengths(arcs, ws[3 * len(self.moving):])


def _block_plan(checkpoints, chunk: int):
    """Blocks [n0, n1) cut at every checkpoint and every multiple of chunk,
    generated in order one at a time."""
    n0 = 0
    for c in checkpoints:
        while n0 < c:
            n1 = min(c, (n0 // chunk + 1) * chunk)
            yield n0, n1
            n0 = n1


def run_job(job) -> AverageTrace:
    """Execute a job over fixed contiguous blocks of at most DEFAULT_CHUNK
    terms.  Block sums are exactly rounded (``_dd.v_sum``) and merged in
    plan order; a block ends at every checkpoint, where the running average
    is recorded."""
    cps = job.schedule.checkpoints
    acc = CompensatedSum()
    values = []
    for n0, n1 in _block_plan(cps, DEFAULT_CHUNK):
        acc.add(_dd.v_sum(job.terms(n0, n1)))
        if n1 == cps[len(values)]:
            values.append(acc.value() / n1)
    est_tail = abs(values[-1] - values[-2]) if len(values) > 1 else 0.0
    return AverageTrace(job.schedule, tuple(values), values[-1], est_tail)


def check_family(fam, fs, arcs: bool = False):
    """(fam, fs) as tuples for a nonempty family with one observable per
    member, or with arcs one indicator per member and one more; otherwise
    ValueError.  The averages and their predictions take the same inputs."""
    fam, fs, want = tuple(fam), tuple(fs), len(fam) + arcs
    if not fam or len(fs) != want:
        raise ValueError(f"{len(fs)} observables for a family of {len(fam)}: "
                         f"need a nonempty family and {want}")
    if arcs and any(f.kind != "indicator" for f in fs):
        raise ValueError("intersection averages take indicator observables")
    return fam, fs


def multiple_average(fam, fs, x0, s: Schedule) -> AverageTrace:
    """(1/N) sum_{n<N} prod_i f_i(T_i^n x0) for the family's constants."""
    job = DiagonalJob(*check_family(fam, fs), UnitPoint.from_real(x0), s)
    return run_job(job)


def intersection_average(fam, indicators, s: Schedule) -> AverageTrace:
    """(1/N) sum_{n<N} len(T1^-n A1 ∩ ... ∩ Td^-n Ad ∩ C), each term exact:
    member i pulls back indicator i, and the last indicator C stays put."""
    fam, indicators = check_family(fam, indicators, arcs=True)
    arcs = [(a, b - a) for a, b in (f.params for f in indicators)]
    job = ArcJob(tuple((t, *arc) for t, arc in zip(fam, arcs)), (arcs[-1],), s)
    return run_job(job)
