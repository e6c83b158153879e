import math
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusavg.dynsys import finite_rotation, rotation, rotation_power
from torusavg import _dd, engine
from torusavg.engine import (DEFAULT_CHUNK, MAX_N, ArcJob, AverageTrace,
                             DiagonalJob, Schedule, _block_plan, _grid_split,
                             _orbit, _orbit_block, _period, _wrap,
                             intersection_average, multiple_average, run_job)
from torusavg.observables import (evaluate_array, frac_part, indicator,
                                  piecewise_linear, power_of_frac, product,
                                  trig_poly)
from torusavg.oracle import predict, predict_intersection
from torusavg.unitmath import (CompensatedSum, ScalarConstant, UnitPoint,
                               frac, orbit_point)

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)


def orbit_block(x0, c, n0, n1):
    """engine._orbit_block, for c's orbit, with a buffer of its own."""
    return _orbit_block(x0, _orbit(c), n0, n1, np.empty((2, n1 - n0)))


def naive_orbit(x0, alpha_float, n):
    """High-level reference: direct product form, no streaming."""
    return frac(x0 + n * alpha_float)


def value_at(f, x):
    """f at the one point x, through evaluate_array."""
    return float(evaluate_array(f, np.array([x]))[0])


def naive_average(x0, alphas, fs, n_max):
    total = 0.0
    for n in range(n_max):
        term = 1.0
        for a, f in zip(alphas, fs):
            term *= value_at(f, naive_orbit(x0, a, n))
        total += term
    return total / n_max


def naive_arc_len(intervals):
    """Length of the intersection of circle arcs given as (start, length)."""
    grid = 200_000
    xs = (np.arange(grid) + 0.5) / grid
    mask = np.ones(grid, dtype=bool)
    for s, L in intervals:
        d = (xs - s) % 1.0
        mask &= d < L
    return mask.mean()


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((10, 10))
    with pytest.raises(ValueError):
        Schedule((0, 5))
    with pytest.raises(ValueError):
        Schedule.geometric(0)
    with pytest.raises(ValueError):
        Schedule.geometric(100, ratio=1.0)


def test_geometric_schedule_shape():
    s = Schedule.geometric(10 ** 6)
    cs = s.checkpoints
    assert cs[0] == 10 and cs[-1] == 10 ** 6
    assert all(b > a for a, b in zip(cs, cs[1:]))
    # eight checkpoints per decade
    assert 40 <= len(cs) <= 42
    s = Schedule.geometric(7)
    assert s.checkpoints == (7,)


# ---------------------------------------------------------------------------
# birkhoff / multiple averages vs. the naive loop


def test_birkhoff_matches_naive():
    sch = Schedule((3, 10, 57, 200))
    tr = multiple_average([rotation(SQRT2)], [frac_part()], 0.3, sch)
    for n, v in zip(sch.checkpoints, tr.values):
        ref = naive_average(0.3, [math.sqrt(2)], [frac_part()], n)
        assert v == pytest.approx(ref, abs=1e-12)
    assert tr.final == tr.values[-1]
    assert tr.est_tail == abs(tr.values[-1] - tr.values[-2])


def test_multiple_average_matches_naive():
    fam = [rotation(SQRT2), rotation(SQRT3)]
    fs = [frac_part(), power_of_frac(2)]
    sch = Schedule((11, 100, 333))
    tr = multiple_average(fam, fs, 0.125, sch)
    for n, v in zip(sch.checkpoints, tr.values):
        ref = naive_average(0.125, [math.sqrt(2), math.sqrt(3)], fs, n)
        assert v == pytest.approx(ref, abs=1e-11)


def test_multiple_average_with_rational_member():
    fam = [finite_rotation(2), rotation(SQRT2)]
    fs = [indicator(0.0, 0.5), frac_part()]
    sch = Schedule((97, 500))
    tr = multiple_average(fam, fs, 0.35, sch)
    ref = naive_average(0.35, [0.5, math.sqrt(2)], fs, 500)
    assert tr.final == pytest.approx(ref, abs=1e-12)


def test_finite_rotation_average_exact_value():
    # T: x -> x + 1/2 from x0 = 0.35 visits {0.35, 0.85}; average of {x} = 0.6
    sch = Schedule((100,))
    tr = multiple_average([finite_rotation(2)], [frac_part()], 0.35, sch)
    assert tr.final == pytest.approx(0.6, abs=1e-15)


def test_periodic_factor_average_matches_naive():
    # a periodic factor is one more member, a finite rotation
    fam = [rotation(SQRT2), finite_rotation(3)]
    g = trig_poly([(1, 1.0, 0.0)])
    sch = Schedule((250,))
    tr = multiple_average(fam, [frac_part(), g], 0.2, sch)
    total = 0.0
    for n in range(250):
        total += (value_at(frac_part(), naive_orbit(0.2, math.sqrt(2), n))
                  * value_at(g, naive_orbit(0.2, 1 / 3, n)))
    assert tr.final == pytest.approx(total / 250, abs=1e-12)


def test_periodic_factor_constant_g_degenerates():
    fam = [rotation(SQRT2), finite_rotation(4)]
    sch = Schedule((10, 400))
    a = multiple_average(fam, [frac_part(), trig_poly([(0, 1.0, 0.0)])], 0.3, sch)
    b = multiple_average([rotation(SQRT2)], [frac_part()], 0.3, sch)
    assert a.values == pytest.approx(b.values, abs=1e-14)


def test_observable_count_mismatch():
    # one observable per member, of a nonempty family; predict refuses the same
    for fam, fs in (([rotation(SQRT2), rotation(SQRT3)], [frac_part()]),
                    ([], [])):
        with pytest.raises(ValueError):
            multiple_average(fam, fs, 0.0, Schedule((10,)))
        with pytest.raises(ValueError):
            predict(fam, fs)


# ---------------------------------------------------------------------------
# streaming invariants


def test_prefix_property():
    # a longer schedule reproduces the shorter one's values exactly
    long = multiple_average([rotation(SQRT2)], [frac_part()],
                            0.3, Schedule((10, 100, 1000, 5000)))
    short = multiple_average([rotation(SQRT2)], [frac_part()],
                             0.3, Schedule((10, 100, 1000)))
    assert long.values[:3] == short.values


def run_with_chunk(monkeypatch, job, chunk):
    monkeypatch.setattr("torusavg.engine.DEFAULT_CHUNK", chunk)
    return run_job(job)


def test_chunk_size_invariance(monkeypatch):
    job = DiagonalJob((SQRT2,), (frac_part(),), UnitPoint(0.3),
                      Schedule((7, 123, 1000)))
    a = run_with_chunk(monkeypatch, job, 1)
    b = run_with_chunk(monkeypatch, job, 1 << 16)
    c = run_with_chunk(monkeypatch, job, 17)
    assert max(abs(x - y) for x, y in zip(a.values, b.values)) <= 1e-13
    assert max(abs(x - y) for x, y in zip(a.values, c.values)) <= 1e-13


def test_average_bounded_by_observable_range():
    fam = [rotation(SQRT2)]
    for f in (trig_poly([(0, 0.5, 0.0), (2, 1.0, -1.0)]),
              product(piecewise_linear([(0.0, -2.0), (0.5, 3.0)]),
                      trig_poly([(1, 1.0, 0.0)]))):
        lo, hi = f.bounds
        tr = multiple_average(fam, [f], 0.6, Schedule.geometric(10 ** 4))
        assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in tr.values)


def test_cesaro_stability():
    # consecutive running averages differ by at most (range)/(N+1)
    tr = multiple_average([rotation(SQRT2)], [frac_part()], 0.0,
                          Schedule(tuple(range(100, 111))))
    for (n0, v0), (n1, v1) in zip(zip(tr.schedule.checkpoints, tr.values),
                                  zip(tr.schedule.checkpoints[1:], tr.values[1:])):
        assert abs(v1 - v0) <= (n1 - n0) * 1.0 / n1 + 1e-12


def eager_plan(checkpoints, chunk_size):
    """The block plan as a sorted edge set, built up front."""
    n_max = checkpoints[-1]
    edges = sorted({0, n_max, *checkpoints,
                    *range(chunk_size, n_max, chunk_size)})
    return list(zip(edges, edges[1:]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300).flatmap(lambda chunk: st.tuples(
    st.just(chunk),
    st.lists(st.one_of(st.integers(1, 5000),
                       st.integers(1, 40).map(lambda k: k * chunk)),
             min_size=1, max_size=12))))
def test_block_plan_matches_eager_plan(args):
    chunk, cps = args
    cps = sorted(set(cps))
    assert list(_block_plan(cps, chunk)) == eager_plan(cps, chunk)


def fsum_trace(job, chunk_size):
    """run_job's values with every block reduced by math.fsum."""
    cps = job.schedule.checkpoints
    acc, values = CompensatedSum(), []
    for n0, n1 in eager_plan(cps, chunk_size):
        acc.add(math.fsum(job.terms(n0, n1).tolist()))
        if n1 in cps:
            values.append(acc.value() / n1)
    return values


def test_run_job_equals_fsum_reference(monkeypatch):
    sch = Schedule((7, 1000, 4096, 50_000, 123_457))
    diag = DiagonalJob(
        (SQRT2, ScalarConstant.surd("1/3", "-2/7", 5)),
        (power_of_frac(8), product(trig_poly([(1, 1.0, 0.5), (3, 0.0, 2.0)]),
                                   indicator(0.1, 0.7))),
        UnitPoint.from_real(0.3), sch)
    arc = ArcJob(((SQRT2, 0.1, 0.35), (SQRT3.neg(), 0.6, 0.5)),
                 ((0.3, 0.5),), sch)
    for job in (diag, arc):
        for chunk in (4096, 1 << 16):
            tr = run_with_chunk(monkeypatch, job, chunk)
            assert list(tr.values) == fsum_trace(job, chunk)  # bitwise


def test_run_job_stops_at_the_failing_block():
    # 16,384 blocks; the fourth one fails
    calls = []

    class Job:
        schedule = Schedule((1 << 30,))

        def terms(self, n0, n1):
            calls.append(n0)
            if len(calls) > 3:
                raise RuntimeError("block failed")
            return np.zeros(n1 - n0)

    with pytest.raises(RuntimeError):
        run_job(Job())
    assert len(calls) == 4


def test_orbit_length_capped_where_the_constant_error_stays_small():
    # points stay within an ulp at any n (test_orbit_block_matches_mpmath);
    # orbits stop at 2**53 by policy, where counts are still exact floats
    assert MAX_N == 2 ** 53
    with pytest.raises(ValueError):
        Schedule((10, MAX_N + 1))
    for c in (SQRT2, ScalarConstant.surd("1/3", "-2/7", 5), SQRT2.neg(),
              ScalarConstant.literal(0.123456789),
              ScalarConstant.rational(3, 7)):
        for x0 in (0.0, 0.3):
            got = orbit_block(UnitPoint.from_real(x0), c, MAX_N - 1, MAX_N + 1)
            for k, v in zip((MAX_N - 1, MAX_N), got):
                ref = orbit_point(x0, c, k).value
                assert abs((v - ref + 0.5) % 1.0 - 0.5) <= 1e-15


# ---------------------------------------------------------------------------
# orbit kernel

ORBIT_X0 = (0.0, 0.3, 0.123456789)
ORBIT_N0 = (0, 10 ** 6, 2 ** 40, MAX_N - 2 ** 16)
ORBIT_LENGTHS = (1, 17, 2 ** 16)
FIXED_BITS = 160


def floor_wrapped_orbit_block(x0, c, n0, n1):
    """The irrational path of _orbit_block with the points wrapped by two
    floor-and-subtract rounds (``_wrap``) in place of the sign test: the
    points before the wrap, and after it."""
    k = 52 - (n1 - n0 - 1).bit_length()
    base = orbit_point(x0, c, n0)
    bh, bl = _grid_split((base.value, base.comp), k)
    ah, al = _grid_split(_dd.dd_mod1(*c.residue()), k)
    j = np.arange(n1 - n0, dtype=np.float64)
    o = j * ah + bh
    o -= np.floor(o)
    o += j * al + bl
    return o.copy(), _wrap(o, np.empty_like(o))


def mp_value(c):
    """The constant in mpmath, from its exact rational and radicand parts."""
    def q(fr):
        return mpmath.mpf(fr.numerator) / fr.denominator
    return q(c.a) + q(c.b) * mpmath.sqrt(c.m)


def mp_orbit_errors(x0, c, n0, points):
    """Circular distances, in units of 2**-53, between points[j] and
    {x0 + (n0 + j)*alpha}.  mpmath gives {x0 + n0*alpha} and {alpha} as
    FIXED_BITS-bit fixed-point integers; the steps j*{alpha} are added in
    exact integer arithmetic; the reference is split into a multiple of
    2**-53 and a remainder before it meets the float points."""
    one = 1 << FIXED_BITS
    # integer-part bits of n*alpha, which the fraction must not lose
    size = max(abs(c.a), abs(c.b)).numerator.bit_length() + 2 * c.m.bit_length()
    with mpmath.workprec(FIXED_BITS + 120 + size):
        alpha = mp_value(c)

        def fixed(v):
            return int(mpmath.nint((v - mpmath.floor(v)) * one)) % one
        base, step = fixed(mpmath.mpf(x0) + n0 * alpha), fixed(alpha)
    ref = (np.arange(len(points), dtype=object) * step + base) % one
    shift = FIXED_BITS - 53
    ref_hi = (ref >> shift).astype(np.int64) * 2.0 ** -53
    ref_lo = (ref & ((1 << shift) - 1)).astype(np.float64) * 2.0 ** -FIXED_BITS
    # points - ref_hi is exact for nearby values; across 0 ~ 1 the shift
    # by 1 goes to whichever side is above 1/2, where it is exact too
    d = points - ref_hi
    d = np.where(d > 0.5, (points - 1.0) - ref_hi, d)
    d = np.where(d < -0.5, points - (ref_hi - 1.0), d)
    return np.abs(d - ref_lo) * 2.0 ** 53


@pytest.mark.parametrize("c", [SQRT2, SQRT3.neg(),
                               ScalarConstant.surd("1/3", "-2/7", 5),
                               ScalarConstant.literal(0.123456789),
                               # in (-1/2, 0): alpha + 1 rounds
                               ScalarConstant.surd("2/3", "-1/3", 7),
                               ScalarConstant.literal(-0.3),
                               # p*q >= 2**62: no exact int64 residues
                               ScalarConstant.rational(3, 2 ** 61 + 2),
                               ScalarConstant.literal(0.6180339887498949),
                               ScalarConstant.literal(0.1),
                               # b*sqrt(m) beyond float range or below it
                               ScalarConstant.surd("1/3", int("1" * 400), 2),
                               ScalarConstant.surd(0, "1/" + "1" * 400, 2),
                               ScalarConstant.surd(0, "-" + "3" * 30 + "/7", 3),
                               # a rational part near 2**52 beside a surd:
                               # the step keeps the bits below 2**-53
                               ScalarConstant.surd(Fraction(3 * 2 ** 52 + 1, 3),
                                                   "-47/3", 7)])
def test_orbit_block_matches_mpmath(c):
    for x0, n0, length in iproduct(ORBIT_X0, ORBIT_N0, ORBIT_LENGTHS):
        pts = orbit_block(UnitPoint.from_real(x0), c, n0, n0 + length)
        assert pts.shape == (length,)
        assert np.all((pts >= 0.0) & (pts < 1.0))
        assert max(mp_orbit_errors(x0, c, n0, pts)) <= 1.0, (x0, n0, length)
        if _period(c) is None:
            _, ref = floor_wrapped_orbit_block(UnitPoint.from_real(x0), c, n0,
                                               n0 + length)
            assert pts.tobytes() == ref.tobytes(), (x0, n0, length)


def test_literal_tenth_orbit_is_correctly_rounded():
    # the literal 0.1 is 1/10, so {n * 0.1} is the float nearest (n mod 10)/10
    # for every n, where the float 0.1 drifts by 0.05 at n = 2**53
    for n0 in ORBIT_N0 + (MAX_N - 17,):
        pts = orbit_block(UnitPoint(0.0), ScalarConstant.literal(0.1), n0, n0 + 17)
        assert pts.tolist() == [(n % 10) / 10 for n in range(n0, n0 + 17)]


@pytest.mark.parametrize("c", [SQRT2, ScalarConstant.rational(1, 3)])
def test_orbit_block_wraps_just_below_zero(c):
    # x0 = -1e-30 rounds to 1.0, which lies on the circle at 0.0
    pts = orbit_block(UnitPoint(0.0, -1e-30), c, 0, 17)
    assert pts[0] == 0.0 and np.all((pts >= 0.0) & (pts < 1.0))


HALF_LESS_1E20 = ScalarConstant.surd("1/2", "-1e-20", 2)
HALF_LESS_1E16 = ScalarConstant.surd("1/2", "-1e-16", 2)


@pytest.mark.parametrize("c, x0, n0, n, j, negative, lo, hi", [
    # {j*alpha} is 1 - j*1.4e-20 for even j: a whole-number grid part and a
    # negative correction, and the point + 1 rounds to 1.0, which is 0.0
    (HALF_LESS_1E20, 0.0, 0, 17, 2, True, 0.0, 0.0),
    # start points 1 - 1.4e-14 and 1 - 1e-12 on the grid part 1.0 (2**-36
    # apart for 2**16 points) are negative until wrapped, and + 1 stays
    # below 1.0; so does 1 - 2.8e-16 at j = 2
    (HALF_LESS_1E20, 0.0, 10 ** 6, 2 ** 16, 0, True, 0.99, 1 - 2 ** -53),
    (SQRT2, -1e-12, 0, 2 ** 16, 0, True, 0.99, 1 - 2 ** -53),
    (HALF_LESS_1E16, 0.0, 0, 17, 2, True, 0.99, 1 - 2 ** -53),
    # points exactly at +0.0: {0 * alpha}, and {10**16 * alpha} for the
    # literal's exact rational 6180339887498949 / 10**16
    (SQRT2, 0.0, 0, 17, 0, False, 0.0, 0.0),
    (ScalarConstant.literal(0.6180339887498949), 0.0, 10 ** 16, 17, 0, False,
     0.0, 0.0),
])
def test_orbit_block_sign_test_matches_floor_wrap(c, x0, n0, n, j, negative,
                                                  lo, hi):
    x0 = UnitPoint.from_real(x0)
    pts = orbit_block(x0, c, n0, n0 + n)
    before, ref = floor_wrapped_orbit_block(x0, c, n0, n0 + n)
    assert pts.tobytes() == ref.tobytes()
    assert (before[j] < 0.0) == negative
    assert lo <= pts[j] <= hi and not np.signbit(pts[j])
    assert np.all((pts >= 0.0) & (pts < 1.0))


def former_v_frac(h, l):
    """The former kernel's collapse of (h, l) into [0, 1)."""
    h = h - np.floor(h)
    s = h + l
    t = s - h
    e = (h - (s - t)) + (l - t)
    out = s + e
    out = np.where(out >= 1.0, out - 1.0, out)
    out = np.where(out < 0.0, out + 1.0, out)
    return np.where(out >= 1.0, 0.0, out)


def rational_index_formula(x0, const, n):
    """The former kernel's rational points: {x0 + ((n mod q)*p mod q) / q}."""
    fr = const.a % 1
    p, q = fr.numerator, fr.denominator
    shift = ((n % q) * p % q).astype(np.float64) / q
    h = shift + x0.value
    t = h - shift
    e = (shift - (h - t)) + (x0.value - t)
    return former_v_frac(h, e + x0.comp)


@pytest.mark.parametrize("c", [ScalarConstant.rational(p, q) for p, q in
                               [(1, 3), (-2, 7), (3, 4), (0, 1), (5, 1),
                                (1, 65537), (12345, 1000003)]])
def test_rational_points_match_index_formula(c):
    x0s = [UnitPoint.from_real(x) for x in ORBIT_X0 + (1 - 2 ** -53,)]
    x0s.append(UnitPoint(0.7, -2e-17))
    for x0, n0, length in iproduct(x0s, ORBIT_N0, ORBIT_LENGTHS):
        got = orbit_block(x0, c, n0, n0 + length)
        ref = rational_index_formula(
            x0, c, np.arange(n0, n0 + length, dtype=np.int64))
        assert got.tobytes() == ref.tobytes(), (x0, n0, length)


def untiled_terms(job, n0, n1):
    """The terms with every point of every member evaluated: the product of
    evaluate_array over the full orbit block, in member order."""
    out = None
    for c, f in zip(job.constants, job.observables):
        vals = evaluate_array(f, orbit_block(job.x0, c, n0, n1))
        out = vals if out is None else out * vals
    return out


TILED_OBSERVABLES = {
    "trig_poly": trig_poly([(0, 0.25, 0.0), (1, 0.8, -0.6), (-3, 0.5, 0.125)]),
    "indicator": indicator(0.2, 0.7),
    "power_of_frac": power_of_frac(3),
    "piecewise_linear": piecewise_linear([(0.0, 1.0), (0.3, -2.0), (0.8, 0.5)]),
}
TILED_CONSTANTS = [
    (1, ScalarConstant.rational(3, 1)),
    (1, rotation_power(ScalarConstant.rational(1, 2), 2)),
    (2, ScalarConstant.rational(1, 2)),
    (7, ScalarConstant.rational(-3, 7)),
    (12, ScalarConstant.rational(5, 12)),
    (65536, ScalarConstant.rational(12345, 65536)),
    (65537, ScalarConstant.rational(30000, 65537)),
    (1000003, ScalarConstant.rational(777777, 1000003)),
    # one view row each side of engine._VIEW = 2**13 wide
    (8191, ScalarConstant.rational(-1000, 8191)),
    (8193, ScalarConstant.rational(4097, 8193)),
    # the largest planned period: a 2**16-term block is one row and 1 term
    (65535, ScalarConstant.rational(32768, 65535)),
]


@pytest.mark.parametrize("q, c", TILED_CONSTANTS)
@pytest.mark.parametrize("kind", sorted(TILED_OBSERVABLES))
def test_tiled_terms_match_untiled_terms(q, c, kind):
    assert _period(c) == q
    f = TILED_OBSERVABLES[kind]
    # blocks shorter than, as long as and longer than one period, from an
    # n0 that is not a multiple of it; short periods from several x0, as
    # a one-point period is all one orbit point
    lengths = {max(min(q - 1, 65536), 1), q, q + 5, 65536}
    n0s = (5 * q + 3,) if q > 65536 else (5 * q + 3, 2 ** 40 + 1)
    x0s = [0.123456789]
    if q < 65536:
        lengths.add(3 * q + 2)
        x0s += list(np.random.default_rng(q).random(6))
    for x0 in map(UnitPoint.from_real, x0s):
        jobs = (DiagonalJob((c,), (f,), x0, Schedule((1,))),
                DiagonalJob((SQRT2, c), (trig_poly([(2, 1.0, 0.5)]), f),
                            x0, Schedule((1,))),
                DiagonalJob((c, SQRT3), (f, frac_part()), x0, Schedule((1,))))
        # one job object serves every block, out of order: the last n0
        # first, and the longest block first
        for n0, n in sorted(iproduct(n0s, lengths), reverse=True):
            for job in jobs:
                got = job.terms(n0, n0 + n)
                assert got.tobytes() == untiled_terms(job, n0, n0 + n).tobytes(), (n0, n)


def test_job_plans_members_once(monkeypatch):
    # frac_part's values are its points, which member 4 reads again, so the
    # product takes row 4 from member 1 on, while member 3 computes an orbit
    job = DiagonalJob(
        (SQRT2, ScalarConstant.rational(2, 5), ScalarConstant.rational(5, 12),
         SQRT3, SQRT2),
        (frac_part(), TILED_OBSERVABLES["trig_poly"],
         TILED_OBSERVABLES["piecewise_linear"], indicator(0.1, 0.6),
         power_of_frac(2)),
        UnitPoint.from_real(0.3), Schedule.geometric(10 ** 6))
    acc, ref = CompensatedSum(), []
    blocks = eager_plan(job.schedule.checkpoints, DEFAULT_CHUNK)
    for n0, n1 in blocks:
        acc.add(math.fsum(untiled_terms(job, n0, n1).tolist()))
        if n1 in job.schedule.checkpoints:
            ref.append(acc.value() / n1)
    rational, orbits, periods, steps = [], [], [], []
    rational_points, orbit_block_ = engine.rational_points, engine._orbit_block
    period, residue = engine._period, ScalarConstant.residue

    def counted_rational_points(x0, fr, n0, out):
        rational.append(fr)
        return rational_points(x0, fr, n0, out)

    def counted_orbit_block(x0, orbit, n0, n1, ws):
        orbits.append(orbit[0])
        return orbit_block_(x0, orbit, n0, n1, ws)

    def counted_period(c):
        periods.append(c)
        return period(c)

    def counted_residue(c, *n):
        # a step is residue() with no count; orbit_point passes one
        if not n:
            steps.append(c)
        return residue(c, *n)

    monkeypatch.setattr(engine, "rational_points", counted_rational_points)
    monkeypatch.setattr(engine, "_orbit_block", counted_orbit_block)
    monkeypatch.setattr(engine, "_period", counted_period)
    monkeypatch.setattr(ScalarConstant, "residue", counted_residue)
    for _ in range(2):
        assert list(run_job(job).values) == ref  # bitwise
    # two runs: the rational members once per job, the orbits of the two
    # surds once per block; each constant's period and step once per job,
    # for all the members that share it
    assert sorted(rational) == [Fraction(2, 5), Fraction(5, 12)]
    assert len(blocks) > 16
    assert Counter(orbits) == {SQRT2: 2 * len(blocks), SQRT3: 2 * len(blocks)}
    assert Counter(periods) == Counter(set(job.constants))
    assert Counter(steps) == {SQRT2: 1, SQRT3: 1}


def former_arc_terms(job, n0, n1):
    """ArcJob terms by the former product-of-intervals formula: every arc
    is [s, min(s+L, 1)) plus [0, max(s+L-1, 0)), fixed arcs as full
    arrays, and the product of the pieces summed in itertools order."""
    starts, lengths = [], []
    for alpha, a, length in job.moving:
        starts.append(orbit_block(UnitPoint.from_real(a), alpha.neg(), n0, n1))
        lengths.append(length)
    for a, length in job.fixed:
        starts.append(np.full(n1 - n0, frac(a)))
        lengths.append(length)
    los, his = [], []
    for s, length in zip(starts, lengths):
        end = s + length
        los.append((s, np.zeros_like(s)))
        his.append((np.minimum(end, 1.0), np.maximum(end - 1.0, 0.0)))
    total = np.zeros_like(starts[0])
    for combo in iproduct(range(2), repeat=len(starts)):
        lo = np.maximum.reduce([los[i][c] for i, c in enumerate(combo)])
        hi = np.minimum.reduce([his[i][c] for i, c in enumerate(combo)])
        total += np.maximum(hi - lo, 0.0)
    return total


QUARTER = ScalarConstant.rational(1, 4)
ARC_JOBS = [
    # one arc: moving, wrapping for most n
    (((SQRT2, 0.1, 0.95),), ()),
    # two arcs: moving with a non-wrapping, a wrapping, an end-at-1 fixed arc
    (((SQRT2, 0.1, 0.35),), ((0.3, 0.5),)),
    (((SQRT3.neg(), 0.9, 0.3),), ((0.8, 0.5),)),
    (((SQRT2, 0.0, 0.5),), ((0.5, 0.5),)),
    (((SQRT2, 0.6, 0.7), (SQRT3, 0.25, 0.5)), ()),
    # three arcs
    (((SQRT2, 0.0, 0.5), (SQRT3, 0.2, 0.7)), ((0.1, 0.5),)),
    (((SQRT2, 0.7, 0.6), (SQRT3.neg(), 0.9, 0.4)), ((0.75, 0.5),)),
    (((SQRT2, 0.3, 1.0),), ((0.2, 0.1), (0.6, 0.3))),
    (((SQRT2, 0.3, 0.2), (SQRT3, 0.1, 0.9), (ScalarConstant.literal(0.7071), 0.5, 0.6)), ()),
    # exact quarter boundaries make zero-length intersections
    (((QUARTER, 0.0, 0.25),), ((0.0, 0.25),)),
    (((QUARTER, 0.25, 0.5), (ScalarConstant.rational(1, 2), 0.5, 0.5)), ((0.75, 0.25),)),
    # fixed arcs only, and fixed arcs that never meet
    ((), ((0.2, 0.5), (0.6, 0.7))),
    (((SQRT2, 0.1, 0.5),), ((0.0, 0.2), (0.5, 0.2))),
]


@pytest.mark.parametrize("moving, fixed", ARC_JOBS)
def test_arc_terms_match_product_of_intervals(moving, fixed):
    job = ArcJob(moving, fixed, Schedule((10,)))
    for n0, length in ((0, 1), (0, 17), (10 ** 6 + 3, 4096), (2 ** 40, 2 ** 16)):
        got = job.terms(n0, n0 + length)
        ref = former_arc_terms(job, n0, n0 + length)
        assert got.tobytes() == ref.tobytes(), (n0, length)  # sign of 0 too


# ---------------------------------------------------------------------------
# arc jobs (correlation / triple intersection)


def test_correlation_matches_grid_oracle():
    sch = Schedule((40,))
    A, B = indicator(0.1, 0.45), indicator(0.3, 0.8)
    tr = intersection_average([rotation(SQRT2)], [A, B], sch)
    total = 0.0
    for n in range(40):
        shift = frac(0.1 - n * math.sqrt(2))
        total += naive_arc_len([(shift, 0.35), (0.3, 0.5)])
    # grid oracle resolves lengths to ~2 cells of 1/200000
    assert tr.final == pytest.approx(total / 40, abs=2e-4)


def test_correlation_terms_exact_for_rational_rotation():
    # T: x -> x + 1/4, A = B = [0, 0.25): intersection alternates 0.25, 0, 0, 0
    sch = Schedule((4, 8, 400))
    tr = intersection_average([finite_rotation(4)],
                              [indicator(0.0, 0.25)] * 2, sch)
    assert tr.values[0] == pytest.approx(0.25 / 4, abs=1e-15)
    assert tr.final == pytest.approx(0.0625, abs=1e-15)


def test_triple_intersection_matches_grid_oracle():
    sch = Schedule((25,))
    A, B, C = indicator(0.0, 0.5), indicator(0.2, 0.9), indicator(0.1, 0.6)
    tr = intersection_average([rotation(SQRT2), rotation(SQRT3)], [A, B, C],
                              sch)
    total = 0.0
    for n in range(25):
        sa = frac(0.0 - n * math.sqrt(2))
        sb = frac(0.2 - n * math.sqrt(3))
        total += naive_arc_len([(sa, 0.5), (sb, 0.7), (0.1, 0.5)])
    assert tr.final == pytest.approx(total / 25, abs=2e-4)


def test_arc_jobs_require_indicators():
    half = indicator(0.0, 0.5)
    # a non-indicator at each position
    bad = [([SQRT2], [half] * i + [frac_part()] + [half] * (1 - i))
           for i in range(2)]
    bad += [([SQRT2, SQRT3], [half] * i + [frac_part()] + [half] * (2 - i))
            for i in range(3)]
    # a count other than one more than the members, and an empty family
    bad += [([SQRT2], [half]), ([SQRT2], [half] * 3),
            ([SQRT2, SQRT3], [half] * 2), ([], [half]), ([], [])]
    for fam, fs in bad:
        with pytest.raises(ValueError):
            intersection_average(fam, fs, Schedule((10,)))
        # the prediction takes the same inputs as the average
        with pytest.raises(ValueError):
            predict_intersection(fam, fs)


def test_wraparound_arc_lengths():
    # pulled-back arc wraps 0; every term still lies in [0, min-length]
    sch = Schedule.geometric(2000)
    tr = intersection_average([rotation(SQRT2)],
                              [indicator(0.9, 1.0), indicator(0.0, 0.2)], sch)
    assert all(0.0 <= v <= 0.1 + 1e-15 for v in tr.values)
