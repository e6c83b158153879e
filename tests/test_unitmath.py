import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusavg import _dd
from torusavg.unitmath import (_ROOT_BITS, MAX_RADICAND, CompensatedSum,
                               ScalarConstant, UnitPoint, frac, orbit_point)

mp.mp.dps = 40

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)


# ---------------------------------------------------------------------------
# frac


def test_frac_examples():
    assert frac(0.0) == 0.0
    assert frac(3.25) == 0.25
    assert frac(-0.3) == pytest.approx(0.7, abs=1e-15)


def test_frac_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            frac(bad)


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e15, max_value=1e15))
def test_frac_idempotent_and_in_range(x):
    r = frac(x)
    assert 0.0 <= r < 1.0
    assert frac(r) == r


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.integers(min_value=-(2 ** 30), max_value=2 ** 30))
def test_frac_shift_invariance(x, m):
    # x + m rounds once, so compare as circle distance at the rounding scale
    d = abs(frac(x + m) - frac(x))
    assert min(d, 1.0 - d) <= 2 ** -22


# ---------------------------------------------------------------------------
# orbit_point


def test_orbit_rational_exact():
    assert orbit_point(UnitPoint(0.0), ScalarConstant.rational(1, 2), 3).value == 0.5
    p = orbit_point(UnitPoint(0.0), ScalarConstant.rational(1, 3), 10 ** 6)
    assert p.value == pytest.approx(1 / 3, abs=1e-15)


def test_orbit_surd_against_high_precision_oracle():
    # frozen from a 40-digit mpmath evaluation of {0.25 + 1e6*sqrt(2)}
    p = orbit_point(UnitPoint(0.25), SQRT2, 10 ** 6)
    assert p.value + p.comp == pytest.approx(0.8123730950488016887, abs=1e-12)
    oracle = float(mp.frac(mp.mpf(0.25) + 10 ** 6 * mp.sqrt(2)))
    assert p.value + p.comp == pytest.approx(oracle, abs=1e-12)


def test_orbit_large_n():
    p = orbit_point(UnitPoint(0.0), SQRT2, 2 ** 40)
    oracle = float(mp.frac(2 ** 40 * mp.sqrt(2)))
    assert p.value + p.comp == pytest.approx(oracle, abs=1e-10)


def test_orbit_rejects_negative_step():
    with pytest.raises(ValueError):
        orbit_point(UnitPoint(0.0), SQRT2, -1)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_orbit_additivity(m, n):
    a = orbit_point(UnitPoint(0.0), SQRT2, m + n)
    b = orbit_point(orbit_point(UnitPoint(0.0), SQRT2, m), SQRT2, n)
    diff = abs((a.value + a.comp) - (b.value + b.comp))
    assert min(diff, 1.0 - diff) <= 1e-12  # distance on the circle


def rounded_mod1(x: Fraction):
    """{x} as (hi, lo): hi the float nearest {x}, lo the float nearest the
    rest, both from Fraction's correctly rounded float(); (0.0, 0.0) when
    hi rounds up to 1.0."""
    x %= 1
    hi = float(x)
    return (hi, float(x - Fraction(hi))) if hi < 1.0 else (0.0, 0.0)


def mp_constant(c):
    return (mp.mpf(c.a.numerator) / c.a.denominator
            + mp.mpf(c.b.numerator) / c.b.denominator * mp.sqrt(c.m))


def fraction_orbit_point(x0, alpha, n):
    """orbit_point as one exact Fraction sum rounded once: x0's value and
    comp, n*a, and n*b in lowest terms into the integer square root of
    b*sqrt(m)."""
    x0 = UnitPoint.from_real(x0)
    b = n * alpha.b
    p, q, m = b.numerator, b.denominator, alpha.m
    r = math.isqrt(p * p * m << 2 * _ROOT_BITS) // q
    return UnitPoint(*rounded_mod1(Fraction(x0.value) + Fraction(x0.comp)
                                   + n * alpha.a
                                   + Fraction(r if p > 0 else -r, 1 << _ROOT_BITS)))


ORBIT_CONSTS = [
    SQRT2, SQRT3.neg(),
    ScalarConstant.surd("1/3", "-2/7", 5),
    ScalarConstant.surd("-5/6", "3/10", 7),
    ScalarConstant.surd("2/3", "-1/3", 7),
    ScalarConstant.rational(3, 2 ** 61 + 2),
    ScalarConstant.rational(-7, 2 ** 61 + 2),
    ScalarConstant.surd(0, Fraction(-1, 2 ** 61 + 2), 2),
    ScalarConstant.surd(Fraction(7, 10 ** 400), Fraction(-3, 10 ** 400), 3),
    ScalarConstant.literal(0.1), ScalarConstant.literal(-0.3),
    ScalarConstant.surd("1/3", int("1" * 400), 2),
    ScalarConstant.surd(0, "-" + "3" * 30 + "/7", 3),
]
# gcd(n, q_b) > 1 at multiples of 2, 5, 7, 17 and 2**40; up to 2**53
ORBIT_NS = [0, 1, 2, 3, 5, 6, 7, 10, 14, 34, 35, 70, 10 ** 6, 2 ** 40,
            7 * 2 ** 40, 2 ** 53 - 1, 2 ** 53]
ORBIT_NS += np.random.default_rng(7).integers(0, 2 ** 53, 24).tolist()
ORBIT_X0S = [0.0, 0.3, UnitPoint(0.7, -2e-17), 1 - 2 ** -53]


def test_orbit_point_matches_fraction_formula():
    # Python-int residues, and n*b into the root in whatever terms, give the
    # Fraction arithmetic's bits, signed zeros included: the root's floor
    # depends on the value of n*b alone
    for c in ORBIT_CONSTS:
        for x0 in ORBIT_X0S:
            for n in ORBIT_NS:
                got = orbit_point(x0, c, n)
                ref = fraction_orbit_point(x0, c, n)
                assert (got.value.hex(), got.comp.hex()) == \
                    (ref.value.hex(), ref.comp.hex()), (c, x0, n)


def test_orbit_point_matches_mpmath():
    # within 2**-106 of {x0 + n*alpha} up to n = 2**53 (the root's floor
    # costs under 2**-128, the rounded lo under 2**-107), or 0.0 for a point
    # within half an ulp below 1 (such as {0.3 + 7/10} and
    # {-7*sqrt(2)/(2**61+2)})
    for c in ORBIT_CONSTS:
        with mp.workprec(2000):
            alpha = mp_constant(c)
            for x0 in ORBIT_X0S:
                x0 = UnitPoint.from_real(x0)
                for n in ORBIT_NS:
                    got = orbit_point(x0, c, n)
                    ref = mp.frac(mp.mpf(x0.value) + mp.mpf(x0.comp) + n * alpha)
                    d = abs(mp.mpf(got.value) + mp.mpf(got.comp) - ref)
                    d = min(d, 1 - d)
                    assert d <= 2.0 ** -106 or (
                        (got.value, got.comp) == (0.0, 0.0) and d <= 2.0 ** -54), \
                        (c, x0, n, float(d))


# ---------------------------------------------------------------------------
# ScalarConstant


def test_surd_normalization():
    # square factors move into the coefficient: sqrt(8) = 2*sqrt(2)
    s8 = ScalarConstant.surd(0, 1, 8)
    assert (s8.b, s8.m) == (Fraction(2), 2)
    assert s8 == ScalarConstant.surd(0, 2, 2)
    # degenerate radicand collapses to a rational
    assert ScalarConstant.surd(1, 2, 4) == ScalarConstant(Fraction(5), 0, 1)
    assert ScalarConstant.surd(1, 0, 3) == ScalarConstant.rational(1)


def test_surd_radicand_cap():
    # 2**32 = 65536**2 is a square; the largest prime below the cap factors
    # by trial division in milliseconds
    assert ScalarConstant.surd(0, 1, MAX_RADICAND) == ScalarConstant.rational(65536)
    assert ScalarConstant.surd(0, 1, 4294967291).m == 4294967291
    for bad in (0, -2, MAX_RADICAND + 1):
        with pytest.raises(ValueError):
            ScalarConstant.surd(0, 1, bad)


def test_literal_is_its_decimal_rational():
    # the rational of the shortest round-trip decimal, not of the binary float
    assert ScalarConstant.literal(0.1) == ScalarConstant.rational(1, 10)
    assert ScalarConstant.literal(0.5) == ScalarConstant.rational(1, 2)
    assert ScalarConstant.literal(12.0) == ScalarConstant.rational(12)
    assert ScalarConstant.literal(-0.0) == ScalarConstant.rational(0)
    assert ScalarConstant.literal(1e-9) == ScalarConstant.rational(1, 10 ** 9)
    assert ScalarConstant.literal(5e-324).a == Fraction(5, 10 ** 324)
    assert ScalarConstant.literal(1e300).a == 10 ** 300
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            ScalarConstant.literal(bad)


def test_scalar_residue():
    # p/q is congruent to n times the constant modulo 1: the rational part
    # exactly, at any size, and the surd part within 2**-128
    assert Fraction(*ScalarConstant.rational(1, 3).residue()) == Fraction(1, 3)
    assert (Fraction(*ScalarConstant.rational(10 ** 400 + 1, 3).residue())
            == Fraction(2, 3))
    assert Fraction(*ScalarConstant.rational(-7, 10).residue(3)) == Fraction(9, 10)
    with mp.workdps(500):
        for c, n in [(SQRT2, 1), (SQRT2, 2 ** 53), (SQRT3.neg(), 7),
                     (ScalarConstant.surd("1/3", "-2/7", 5), 10 ** 6),
                     (ScalarConstant.surd(0, 10 ** 400, 2), 1)]:
            p, q = c.residue(n)
            assert 0 <= p < q
            d = mp.frac(n * mp_constant(c)) - mp.mpf(p) / q
            assert min(d % 1, 1 - d % 1) < mp.mpf(2) ** -128, (c, n)
    assert ScalarConstant.surd(0, Fraction(1, 10 ** 400), 2).residue() == (0, 1 << 128)


# ---------------------------------------------------------------------------
# compensated summation


def test_compensated_sum_ones():
    acc = CompensatedSum()
    for _ in range(10 ** 6):
        acc.add(1.0)
    assert acc.value() == 1_000_000.0


def test_compensated_sum_tenths():
    acc = CompensatedSum()
    for _ in range(10):
        acc.add(0.1)
    assert acc.value() == pytest.approx(1.0, abs=1e-15)


def test_compensated_sum_cancellation_witness():
    # exact-rational oracle: 1e16 + 1 - 1e16 == 1
    acc = CompensatedSum()
    for t in (1e16, 1.0, -1e16):
        acc.add(t)
    assert acc.value() == 1.0


def test_compensated_sum_overflow_reported():
    acc = CompensatedSum()
    acc.add(1e308)
    with pytest.raises(OverflowError):
        acc.add(1e308)


def test_compensated_sum_rejects_non_finite():
    with pytest.raises(ValueError):
        CompensatedSum().add(math.nan)


# ---------------------------------------------------------------------------
# UnitPoint


def test_unit_point_range_enforced():
    with pytest.raises(ValueError):
        UnitPoint(1.0)
    with pytest.raises(ValueError):
        UnitPoint(-0.1)
    assert UnitPoint.from_real(3.25).value == 0.25
    assert UnitPoint.from_real(-0.25).value == 0.75


@pytest.mark.parametrize("p, q", [(7, 3), (10 ** 400 + 1, 3), (-7, 3),
                                  (2 ** 100 - 2 ** 46 - 1, 2 ** 100),
                                  (1, 3 << 1100), (0, 5), (-10, 5)])
def test_dd_mod1_rounds_once(p, q):
    assert _dd.dd_mod1(p, q) == rounded_mod1(Fraction(p, q))


def test_dd_mod1_rounding_up_to_one_is_zero():
    # just below 1, down to the rounding tie 1 - 2**-54, lies at 0 on the
    # circle; just beyond the tie it is the float below 1 and a residue
    for p, q in [(2 ** 60 - 1, 2 ** 60), (2 ** 54 - 1, 2 ** 54), (-1, 10 ** 30)]:
        assert _dd.dd_mod1(p, q) == (0.0, 0.0)
    assert (_dd.dd_mod1(2 ** 100 - 2 ** 46 - 1, 2 ** 100)
            == (1 - 2 ** -53, 2 ** -54 - 2 ** -100))


@settings(max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0).via("signed zero")
@example(-0.3).via("rounds")
@example(-1e-20).via("rounds up to 1")
@example(-5e-324).via("rounds up to 1")
@example(1e300).via("an integer")
@example(1 - 2 ** -53).via("just below 1")
def test_from_real_is_exact_frac_rounded_once(x):
    got = UnitPoint.from_real(x)
    assert ((got.value.hex(), got.comp.hex())
            == tuple(v.hex() for v in rounded_mod1(Fraction(x)))), x
