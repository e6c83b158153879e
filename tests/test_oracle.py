import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusavg.dynsys import finite_rotation, identity, rotation, rotation_power
from torusavg.engine import Schedule, multiple_average
from torusavg import oracle
from torusavg.observables import (frac_part, indicator, integrate,
                                  piecewise_linear, power_of_frac, trig_poly)
from torusavg.observables import MAX_PRODUCT_FACTORS
from torusavg.oracle import (Factor, WeylTerm, _shift_period, compare,
                             predict, weyl_form)
from torusavg.unitmath import ScalarConstant

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)
SQRT5 = ScalarConstant.surd(0, 1, 5)


def finite_order(spec):
    """Order of a rational rotation: the denominator of its rational part."""
    term, = weyl_form([spec])
    if term.c:
        raise ValueError("transform does not have finite order")
    return term.a.denominator


def classes(specs):
    """Member indices grouped by radicand, in order of first appearance."""
    groups = {}
    for i, t in enumerate(weyl_form(specs)):
        groups.setdefault(t.m, []).append(i)
    return tuple(tuple(g) for g in groups.values())


# ---------------------------------------------------------------------------
# finite order


def test_finite_order():
    assert finite_order(finite_rotation(6)) == 6
    assert finite_order(rotation(ScalarConstant.rational(3, 4))) == 4
    assert finite_order(rotation(ScalarConstant.rational(7, 1))) == 1
    assert finite_order(identity()) == 1
    with pytest.raises(ValueError):
        finite_order(rotation(SQRT2))


# ---------------------------------------------------------------------------
# families and the Weyl form of their constants


def test_weyl_form_groups_by_radicand():
    specs = [rotation(SQRT2), rotation(SQRT3), rotation(SQRT2)]
    assert classes(specs) == ((0, 2), (1,))
    assert weyl_form(specs) == (WeylTerm(0, 1, 2), WeylTerm(0, 1, 3),
                                WeylTerm(0, 1, 2))


def test_weyl_form_recognizes_rotation_power():
    assert weyl_form([rotation(SQRT2), rotation_power(SQRT2, 1)]) == (
        WeylTerm(0, 1, 2),) * 2
    assert weyl_form([rotation_power(SQRT2, 2),
                      rotation(ScalarConstant.surd(0, 2, 2))]) == (
        WeylTerm(0, 1, 2),) * 2
    # beta = gcd(2/3, 2, 3) = 1/3 for 2/3 sqrt(2), sqrt(8) and 3 sqrt(2)
    assert weyl_form([rotation(ScalarConstant.surd(0, "2/3", 2)),
                      rotation(ScalarConstant.surd(0, 1, 8)),
                      rotation_power(SQRT2, 3)]) == (
        WeylTerm(0, 2, 2), WeylTerm(0, 6, 2), WeylTerm(0, 9, 2))


def test_weyl_form_keeps_integer_shifts_as_rational_parts():
    # alpha and alpha + 1 act identically; the shift stays in the rational
    # part, whose denominator 1 adds no period
    assert weyl_form([rotation(SQRT2), rotation(ScalarConstant.surd(1, 1, 2))]) == (
        WeylTerm(0, 1, 2), WeylTerm(1, 1, 2))
    assert weyl_form([rotation(ScalarConstant.surd("1/2", -2, 3))]) == (
        WeylTerm(Fraction(1, 2), -1, 3),)


def test_weyl_form_finite_vs_rational():
    assert weyl_form([finite_rotation(3), rotation(ScalarConstant.rational(1, 3))]) == (
        WeylTerm(Fraction(1, 3), 0, 1),) * 2


# ---------------------------------------------------------------------------
# literal constants


def test_weyl_form_literal_rational():
    assert weyl_form([rotation(ScalarConstant.literal(0.5))]) == (
        WeylTerm(Fraction(1, 2), 0, 1),)
    assert weyl_form([rotation(ScalarConstant.literal(0.75))]) == (
        WeylTerm(Fraction(3, 4), 0, 1),)
    assert finite_order(rotation(ScalarConstant.literal(0.75))) == 4


def test_weyl_form_literal_unresolved():
    # no literal is left unresolved: the float nearest sqrt(2) - 1 is the
    # rational of its shortest decimal, 0.41421356237309515, not a surd
    lit = rotation(ScalarConstant.literal(math.sqrt(2) - 1))
    assert weyl_form([rotation(SQRT2), lit]) == (
        WeylTerm(0, 1, 2), WeylTerm(Fraction(41421356237309515, 10 ** 17), 0, 1))
    assert finite_order(lit) == 2 * 10 ** 16


# ---------------------------------------------------------------------------
# predictions


def test_predict_distinct_rotations_factorizes():
    fam = [rotation(SQRT2), rotation(SQRT3)]
    pred = predict(fam, [frac_part(), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(0.25, abs=1e-13)
    assert pred.derivation == (Factor(1, (), 1), Factor(2, (0,), 1),
                               Factor(3, (1,), 1))
    assert pred.caveats == ()


def test_predict_repeated_rotation_couples():
    fam = [rotation(SQRT2), rotation(SQRT2)]
    pred = predict(fam, [frac_part(), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(1 / 3, abs=1e-12)
    assert pred.derivation == (Factor(1, (), 1), Factor(2, (0, 1), 1))
    assert pred.caveats == ()


def test_predict_three_distinct_rotations():
    fam = [rotation(SQRT2), rotation(SQRT3), rotation(SQRT5)]
    pred = predict(fam, [frac_part()] * 3)
    assert pred.applicable
    assert pred.value == pytest.approx(0.125, abs=1e-13)


def test_predict_with_periodic_factor():
    # limit = (int {x}) * ((1/k) sum_r g(x0 + r/k)); k = 5, x0 = 0.37 gives 0.285
    fam = [rotation(SQRT2), finite_rotation(5)]
    pred = predict(fam, [frac_part(), frac_part()], 0.37)
    assert pred.applicable
    assert pred.value == pytest.approx(0.285, abs=1e-13)
    assert pred.derivation == (Factor(1, (1,), 5), Factor(2, (0,), 1))


def test_predict_rational_shift_couples_by_residue():
    # members differ by the rational 1/2: G[0] = int {t}^2 = 1/3 and
    # G[1] = int {t}{t + 1/2} = 5/24, so the limit is (1/3 + 5/24)/2 = 13/48
    fam = [rotation(SQRT2),
           rotation(ScalarConstant.surd("1/2", 1, 2))]
    pred = predict(fam, [frac_part(), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(13 / 48, abs=1e-12)
    assert pred.derivation == (Factor(1, (), 2), Factor(2, (0, 1), 2))


def test_predict_integer_shift_acts_as_the_same_rotation():
    # alpha and alpha + 1 act identically on the circle
    fam = [rotation(SQRT2), rotation(ScalarConstant.surd(1, 1, 2))]
    pred = predict(fam, [frac_part(), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(1 / 3, abs=1e-12)


def test_predict_unresolved_literal_is_inapplicable():
    # the literal is 41421356237309515/10**17 = 8284271247461903/(2*10**16),
    # a period above MAX_PERIOD
    fam = [rotation(SQRT2),
           rotation(ScalarConstant.literal(math.sqrt(2) - 1))]
    pred = predict(fam, [frac_part(), frac_part()])
    assert not pred.applicable and pred.value is None
    assert pred.caveats == (f"period {2 * 10 ** 16} exceeds {oracle.MAX_PERIOD}",)
    with pytest.raises(ValueError):
        compare(pred, None, 1e-3)


def test_predict_literal_proven_rational():
    # the literal 0.25 is 1/4: the orbit {0.1 + j/4} has mean 0.475
    fam = [rotation(SQRT2), rotation(ScalarConstant.literal(0.25))]
    pred = predict(fam, [frac_part(), frac_part()], 0.1)
    assert pred.applicable
    assert pred.value == pytest.approx(0.5 * 0.475, abs=1e-15)
    assert pred.derivation[0] == Factor(1, (1,), 4)


@pytest.mark.parametrize("v, value", [
    # the engine rotates by 1e-9 exactly: {x} from 0 averages 0.0005 at
    # N = 10**6, not 0, and only tends to 1/2
    (1e-9, None),
    # 0.33333333363333334 is no third: its period is 5*10**16
    (1 / 3 + 3e-10, None),
    # the identity map: {x} stays at x0 = 0
    (12.0, 0.0),
])
def test_predict_literal_means_its_decimal(v, value):
    pred = predict([rotation(ScalarConstant.literal(v))],
                   [frac_part()], 0.0)
    assert pred.applicable == (value is not None)
    assert pred.value == value


@pytest.mark.parametrize("vs", [(0.5,), (0.25,), (0.1,), (12.0,), (0.1, 0.25)])
def test_predict_literal_matches_engine_over_whole_periods(vs):
    # N = 10**6 is a multiple of every period, so the finite-N average
    # is the limit itself
    fam = [rotation(ScalarConstant.literal(v)) for v in vs]
    fs = [frac_part(), indicator(0.2, 0.7)][:len(vs)]
    tr = multiple_average(fam, fs, 0.3, Schedule((10 ** 6,)))
    pred = predict(fam, fs, 0.3)
    assert pred.applicable
    assert tr.final == pytest.approx(pred.value, abs=1e-12)


def test_predict_period_cap_is_inapplicable():
    big = ScalarConstant.rational(1, (1 << 20) + 1)
    pred = predict([rotation(big)], [frac_part()])
    assert not pred.applicable and pred.value is None
    assert any("period" in c for c in pred.caveats)
    ok = ScalarConstant.rational(1, 1 << 20)
    assert predict([rotation(ok)], [frac_part()]).applicable


def test_predict_panel_budget_is_inapplicable():
    # two members over sqrt(2) with multipliers 1 and k map the breakpoint
    # of {x} to at most 1 + k points in (0, 1), so the degree-2 class takes
    # up to 2 + k panels, one a piece: k = 2**20 - 1 is one panel past the
    # budget and k = 2**20 - 2 fills it.  The limit, the integral of
    # {t}{kt}, is 1/4 + 1/(12k)
    fam = [rotation(SQRT2), rotation_power(SQRT2, (1 << 20) - 1)]
    pred = predict(fam, [frac_part(), frac_part()])
    assert not pred.applicable and pred.value is None
    assert pred.caveats == ("quadrature over radicand 2: up to 1048577 panels "
                            "after refinement exceeds 1048576",)
    k = (1 << 20) - 2
    pred = predict([rotation(SQRT2), rotation_power(SQRT2, k)],
                   [frac_part(), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(0.25 + 1 / (12 * k), abs=1e-12)


def test_predict_indicator_to_one_keeps_its_wrap():
    # 1_[0.3, 1) jumps from 1 to 0 where {x0 + t} wraps; a quadrature that
    # misses that jump said 0.3649928
    fam = [rotation(SQRT2), rotation(ScalarConstant.surd(0, 2, 2))]
    fs = [indicator(0.3, 1.0), indicator(0.0, 0.5)]
    pred = predict(fam, fs, 0.77)
    assert pred.applicable
    assert pred.value == pytest.approx(0.365, abs=1e-15)
    with mp.workdps(30):
        want = mp_formula([(Fraction(0), 1, 2), (Fraction(0), 2, 2)], fs, 0.77)
    assert pred.value == pytest.approx(float(want), abs=1e-15)


@pytest.mark.parametrize("p", [16, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5,
                               3 * 10 ** 5, 10 ** 6])
def test_predict_large_powers(p):
    # [R_sqrt2, R_sqrt2] from 0 integrates t^p * t: the limit is 1/(p + 2)
    pred = predict([rotation(SQRT2)] * 2, [power_of_frac(p), frac_part()])
    assert pred.applicable
    assert pred.value == pytest.approx(1 / (p + 2), rel=1e-11)


def test_predict_large_powers_at_the_panel_budget():
    # {t}^p {2t}^p with p = 10**6 is near 1/(3p); its class takes
    # (p + 2p)/2 panels, past the budget, or it must be right
    p = 10 ** 6
    pred = predict([rotation(SQRT2), rotation(ScalarConstant.surd(0, 2, 2))],
                   [power_of_frac(p)] * 2)
    if pred.applicable:
        with mp.workdps(30):  # the part on [1/2, 1], in s = 1 - t
            want = 2 / mp.mpf(2) ** (p + 2) / (2 * p + 1) + mp.quad(
                lambda s: ((1 - s) * (1 - 2 * s)) ** p,
                [0, mp.mpf(2) / p, mp.mpf(8) / p, mp.mpf(32) / p,
                 mp.mpf(128) / p, 0.5])
        assert pred.value == pytest.approx(float(want), rel=1e-11)
    else:
        assert any("panels" in c for c in pred.caveats)
    # [{x}^p, {x}] takes ceil((p + 1)/2) panels and one a breakpoint, so
    # p = 2**21 - 4 is one panel past the budget
    pred = predict([rotation(SQRT2)] * 2,
                   [power_of_frac((1 << 21) - 4), frac_part()])
    assert not pred.applicable
    assert pred.caveats == ("quadrature over radicand 2: up to 1048577 panels "
                            "after refinement exceeds 1048576",)


def test_predict_large_multiplier_listed_first():
    # c = 10**9 + 7 over sqrt(2) beside c = 1: the shift period comes in
    # closed form and the quadrature is refused by the panel budget at once
    big = rotation(ScalarConstant.surd("1/2", 1000000007, 2))
    fam = [big, rotation(SQRT2)]
    for f in (frac_part(), trig_poly([(1, 1.0, 0.0)])):
        pred = predict(fam, [f, f])
        assert not pred.applicable and pred.value is None
        assert pred.derivation[1] == Factor(2, (0, 1), 2)
        assert any("panels" in c for c in pred.caveats)
    # c = 63 first: the shift 1/2 = 63/2 (mod 1) is common, one quadrature
    fam = [rotation(ScalarConstant.surd("1/2", 63, 2)),
           rotation(ScalarConstant.surd("1/2", 1, 2))]
    fs = [frac_part(), indicator(0.2, 0.45)]
    pred = predict(fam, fs, 0.6)
    assert pred.derivation[1] == Factor(2, (0, 1), 2)
    with mp.workdps(30):
        want = mp_formula([(Fraction(1, 2), 63, 2), (Fraction(1, 2), 1, 2)],
                          fs, 0.6)
    assert pred.value == pytest.approx(float(want), abs=1e-12)


def _searched_period(ts):
    """The least p | q_m admitting a common shift, by trying every
    tau = (p a_0 + k) / c_0."""
    q_m = math.lcm(*(t.a.denominator for t in ts))
    return next(p for p in range(1, q_m + 1) if q_m % p == 0 and any(
        all((t.c * tau - p * t.a).denominator == 1 for t in ts)
        for tau in ((p * ts[0].a + k) / ts[0].c for k in range(abs(ts[0].c)))))


def test_shift_period_matches_search():
    # up to a scenario's 8 members and its periodic factor, with rational
    # parts over divisors of 360, so that the search stays short
    rng = random.Random(5)
    dens = [d for d in range(1, 361) if 360 % d == 0]
    for _ in range(300):
        n = rng.randint(1, MAX_PRODUCT_FACTORS)
        cs = [rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(n)]
        g = math.gcd(*cs)
        ts = [WeylTerm(Fraction(rng.randrange(360), rng.choice(dens)),
                       c // g, 2) for c in cs]
        assert _shift_period(ts) == _searched_period(ts), ts


# a coefficient b of sqrt(m) for m in (2, 8, 18, 50): all over sqrt(2)
COEFF = st.fractions(max_denominator=10 ** 6).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.fractions(max_denominator=100), COEFF,
                          st.sampled_from((2, 8, 18, 50))),
                min_size=1, max_size=MAX_PRODUCT_FACTORS))
def test_weyl_form_coefficients_are_coprime(members):
    # _shift_period's pairwise rule rests on gcd(c_i) = 1
    ts = weyl_form([ScalarConstant.surd(a, b, m) for a, b, m in members])
    assert {t.m for t in ts} == {2}
    assert math.gcd(*(t.c for t in ts)) == 1


def test_predict_nine_members_over_one_radicand():
    # a scenario's 8 members and its periodic factor, all over sqrt(2)
    n = MAX_PRODUCT_FACTORS
    fam = [rotation_power(SQRT2, p) for p in range(1, n + 1)]
    pred = predict(fam, [frac_part()] * n, 0.3)
    assert pred.applicable
    with mp.workdps(20):
        want = mp_formula([(Fraction(0), p, 2) for p in range(1, n + 1)],
                          [frac_part()] * n, 0.3)
    assert pred.value == pytest.approx(float(want), abs=1e-12)


def test_predict_mixed_surd_bases_applicable():
    # sqrt(2) - sqrt(3) is irrational; recognized symbolically
    fam = [rotation(SQRT2), rotation(SQRT3)]
    assert predict(fam, [frac_part(), frac_part()]).applicable


def test_predict_surd_vs_rational_applicable():
    # the rational member visits {x0, x0 + 1/3, x0 + 2/3}
    fam = [rotation(SQRT2), finite_rotation(3)]
    pred = predict(fam, [frac_part(), indicator(0.0, 0.5)])
    assert pred.applicable
    assert pred.value == pytest.approx(1 / 3, abs=1e-13)
    pred = predict(fam, [frac_part(), indicator(0.0, 0.5)], 0.2)
    assert pred.value == pytest.approx(1 / 6, abs=1e-13)


def test_predict_same_radicand_resonance():
    # cos(2 pi (x + t)) cos(2 pi (x + 2t)) cos(2 pi (x + 3t)) averages to
    # cos(2 pi x) / 4 over t: the frequencies 1 + 2 - 3 cancel
    cos = trig_poly([(1, 1.0, 0.0)])
    fam = [rotation_power(SQRT2, p) for p in (1, 2, 3)]
    pred = predict(fam, [cos] * 3, 0.3)
    assert pred.applicable
    assert pred.value == pytest.approx(math.cos(0.6 * math.pi) / 4, abs=1e-12)
    assert pred.derivation == (Factor(1, (), 1), Factor(2, (0, 1, 2), 1))


@pytest.mark.parametrize("k, x0, f, mean", [
    (5, 0.37, frac_part(), 0.57),  # ({5 * 0.37} + 2) / 5
    (1, 0.37, frac_part(), 0.37),
    (2, 0.1, frac_part(), 0.35),
    (2, 0.1, indicator(0.0, 0.5), 0.5),  # the orbit {0.1, 0.6} hits it once
])
def test_predict_finite_rotation_examples(k, x0, f, mean):
    pred = predict([finite_rotation(k)], [f], x0)
    assert pred.applicable
    assert pred.value == pytest.approx(mean, abs=1e-14)


def test_predict_finite_rotation_matches_identity():
    # (1/k) sum_r {x + r/k} = ({k x} + (k - 1)/2) / k
    for k in (2, 3, 5, 8, 13):
        for x in (0.0, 0.12, 0.5, 0.999):
            m = predict([finite_rotation(k)], [frac_part()], x)
            rhs = (math.modf(k * x)[0] + (k - 1) / 2) / k
            assert m.value == pytest.approx(rhs, abs=1e-12)


def test_predict_periodic_factor_closed_form():
    # [R_sqrt2, x -> x + 1/k] with [{x}, {x}]: the sqrt2 member integrates
    # to 1/2, and sum_{r<k} {x + r/k} = {kx} + (k - 1)/2 leaves the exact
    # limit {k x0}/(2k) + (k - 1)/(4k), here in exact arithmetic.  Besides
    # 0 and 1/2, which lie on every grid j/k of even k, the x0 avoid the
    # floats nearest j/k, such as 1/3: there {x0 + r/k} lies within an ulp
    # of 1, and whether it rounds to 0 decides a jump of 1/(2k)
    rng = random.Random(64)
    xs = [0.0, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -40] + [
        rng.random() for _ in range(19)]
    for k in range(1, 65):
        fam = [rotation(SQRT2), finite_rotation(k)]
        for x0 in xs:
            pred = predict(fam, [frac_part(), frac_part()], x0)
            want = Fraction(k) * Fraction(x0) % 1 / (2 * k) + Fraction(k - 1, 4 * k)
            assert pred.applicable
            assert abs(pred.value - float(want)) <= 1e-12, (k, x0)


def test_predict_group_collapse():
    # [T, T] with f, g couples into one integral of the product
    fam2 = [rotation(SQRT2), rotation(SQRT2)]
    p2 = predict(fam2, [frac_part(), power_of_frac(2)])
    assert p2.value == pytest.approx(0.25, abs=1e-12)  # int {x}^3
    fam1 = [rotation(SQRT2)]
    p1 = predict(fam1, [power_of_frac(3)])
    assert p2.value == pytest.approx(p1.value, abs=1e-12)


def test_predict_permutation_invariance():
    fs = [frac_part(), power_of_frac(2), indicator(0.2, 0.9)]
    specs = [rotation(SQRT2), rotation(SQRT3), rotation(SQRT2)]
    base = predict(specs, fs)
    perm = [2, 0, 1]
    rearranged = predict([specs[i] for i in perm],
                         [fs[i] for i in perm])
    assert rearranged.value == pytest.approx(base.value, abs=1e-13)
    assert rearranged.applicable == base.applicable


def test_predict_constant_absorption():
    fam = [rotation(SQRT2), rotation(SQRT3)]
    with_const = predict(fam, [frac_part(), trig_poly([(0, 2.0, 0.0)])])
    assert with_const.value == pytest.approx(1.0, abs=1e-13)


def test_predict_argument_errors():
    fam = [rotation(SQRT2)]
    with pytest.raises(ValueError):
        predict(fam, [frac_part(), frac_part()])


# ---------------------------------------------------------------------------
# compare


def test_compare_pass_and_fail():
    fam = [rotation(SQRT2), rotation(SQRT3)]
    fs = [frac_part(), frac_part()]
    pred = predict(fam, fs)
    trace = multiple_average(fam, fs, 0.3, Schedule.geometric(50_000))
    rep = compare(pred, trace, 5e-3)
    assert rep.passed and rep.final_error <= 5e-3
    assert rep.tail == trace.est_tail
    # negative control: an off-by-0.05 prediction must fail at the same tol
    from torusavg.oracle import Prediction
    wrong = Prediction(pred.value + 0.05, pred.derivation, True, ())
    assert not compare(wrong, trace, 5e-3).passed


def test_compare_rejects_bad_tolerance():
    fam = [rotation(SQRT2)]
    pred = predict(fam, [frac_part()])
    trace = multiple_average(fam, [frac_part()], 0.0, Schedule((100,)))
    for tol in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            compare(pred, trace, tol)


# ---------------------------------------------------------------------------
# cross-validation against mpmath


def _mp_eval(f, x):
    """f at x in [0, 1), in mpmath arithmetic."""
    if f.kind == "frac_part":
        return x
    if f.kind == "indicator":
        a, b = f.params
        return mp.mpf(a <= x < b)
    pos = [mp.mpf(p) for p, _ in f.params] + [mp.mpf(1)]
    vals = [mp.mpf(v) for _, v in f.params] + [mp.mpf(f.params[0][1])]
    i = max(j for j in range(len(pos) - 1) if pos[j] <= x)
    return vals[i] + (vals[i + 1] - vals[i]) * (x - pos[i]) / (pos[i + 1] - pos[i])


def _mp_breakpoints(f):
    if f.kind == "indicator":
        return [mp.mpf(b) for b in f.params]
    return [mp.mpf(0)] + [mp.mpf(p) for p, _ in f.params[1:]
                          if f.kind == "piecewise_linear"]


def mp_formula(members, fs, x0):
    """The Weyl limit for members given as (a, c, m), in mpmath:
    (1/q) sum_j prod_{rational i} f_i({x0 + j a_i}) prod_m G_m(j), each
    G_m(j) an mpmath.quad split at t = (b - x0 - j a_i + k) / c_i."""
    frac = lambda x: x - mp.floor(x)
    x0 = mp.mpf(x0)
    q = math.lcm(*(a.denominator for a, _, _ in members))
    total = mp.mpf(0)
    for j in range(q):
        term = mp.mpf(1)
        for m in {m for _, _, m in members}:
            idx = [i for i, (_, _, mi) in enumerate(members) if mi == m]
            shift = [frac(x0 + mp.mpf(j * members[i][0].numerator)
                          / members[i][0].denominator) for i in idx]
            if m == 1:
                term *= mp.fprod(_mp_eval(fs[i], s) for i, s in zip(idx, shift))
                continue
            cuts = {mp.mpf(0), mp.mpf(1)}
            for i, s in zip(idx, shift):
                c = members[i][1]
                for b in _mp_breakpoints(fs[i]):
                    for k in range(-abs(c) - 2, abs(c) + 3):
                        t = (b - s + k) / c
                        if 0 < t < 1:
                            cuts.add(t)
            term *= mp.quad(lambda t: mp.fprod(
                _mp_eval(fs[i], frac(s + members[i][1] * t))
                for i, s in zip(idx, shift)), sorted(cuts))
        total += term
    return total / q


def _random_piecewise(rng):
    knots = sorted(round(rng.uniform(0.01, 0.99), 3) for _ in range(2))
    return piecewise_linear([(0.0, round(rng.uniform(-1, 1), 3))]
                            + [(p, round(rng.uniform(-1, 1), 3)) for p in knots])


def _random_case(rng):
    """Members over sqrt(2), sqrt(3) and the rationals, as (spec, (a, c, m))
    with multipliers c up to 8, and an indicator (some from 0, some to 1),
    {x} or piecewise-linear observable for each."""
    members = []
    for _ in range(rng.randint(2, 4)):
        a = Fraction(rng.choice((0, 1, 1, 2)), rng.choice((1, 2, 3)))
        m, c = rng.choice((2, 2, 3, 1)), rng.choice((-3, -1, 1, 2, 5, 8))
        if m == 1:
            spec = rotation(ScalarConstant.rational(a))
            members.append((spec, (a, 0, 1)))
        elif c > 0:
            spec = rotation_power(ScalarConstant.surd(a, 1, m), c)
            members.append((spec, (a * c, c, m)))
        else:
            spec = rotation(ScalarConstant.surd(a, c, m))
            members.append((spec, (a, c, m)))
    fs = []
    for _ in members:
        kind = rng.randrange(3)
        if kind == 0:
            lo = round(rng.uniform(0, 0.7), 3)
            hi = round(lo + rng.uniform(0.05, 0.3), 3)
            fs.append(indicator(*rng.choice([(lo, hi), (0.0, hi), (lo, 1.0)])))
        else:
            fs.append(frac_part() if kind == 1 else _random_piecewise(rng))
    return members, fs, round(rng.random(), 6)


@pytest.mark.parametrize("seed", range(12))
def test_predict_matches_mpmath_formula(seed):
    members, fs, x0 = _random_case(random.Random(seed))
    pred = predict([s for s, _ in members], fs, x0)
    assert pred.applicable
    with mp.workdps(30):
        want = mp_formula([t for _, t in members], fs, x0)
    assert pred.value == pytest.approx(float(want), abs=1e-12)


def test_predict_powers_of_one_rotation_need_one_quadrature(monkeypatch):
    # the golden rotation (1 + sqrt 5)/2 to the powers 1 and 3: a = 1/2, 3/2
    # and c = 1, 3 give q_m = 2, but the shift 1/2 = c_i/2 (mod 1) of both
    # members is absorbed by t -> t + 1/2, so G[1] = G[0]
    calls = []  # the number of shifts of each call
    monkeypatch.setattr(oracle, "integrate", lambda *a, **k: calls.append(
        len(a[1][0][0])) or integrate(*a, **k))
    phi = ScalarConstant.surd("1/2", "1/2", 5)
    fs = [frac_part(), indicator(0.1, 0.6)]
    pred = predict([rotation_power(phi, 1), rotation_power(phi, 3)],
                   fs, 0.3)
    assert pred.derivation[1] == Factor(5, (0, 1), 2)
    assert calls == [1]
    with mp.workdps(30):
        want = mp_formula([(Fraction(1, 2), 1, 5), (Fraction(3, 2), 3, 5)], fs, 0.3)
    assert pred.value == pytest.approx(float(want), abs=1e-12)
