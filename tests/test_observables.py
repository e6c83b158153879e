import gc
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from torusavg.observables import (MAX_FREQUENCY, MAX_POWER, MAX_PRODUCT_FACTORS,
                                  Observable,
                                  QuadratureBudgetError, evaluate_array,
                                  frac_part, indicator, integrate,
                                  piecewise_linear, power_of_frac, product,
                                  trig_poly)
from torusavg.unitmath import UnitPoint


# ---------------------------------------------------------------------------
# pointwise evaluation


def value_at(f, x):
    """f at the one point x, through evaluate_array."""
    return float(evaluate_array(f, np.array([x]))[0])


def test_evaluate_basic():
    assert value_at(frac_part(), 0.3) == 0.3
    assert value_at(power_of_frac(2), 0.5) == 0.25
    assert value_at(trig_poly([(1, 1.0, 0.0)]), 0.25) == pytest.approx(0.0, abs=1e-15)
    assert value_at(trig_poly([(0, 2.5, 0.0)]), 0.9) == 2.5
    assert value_at(frac_part(), UnitPoint(0.7).value) == 0.7


def test_indicator_half_open_convention():
    f = indicator(0.2, 0.6)
    assert value_at(f, 0.2) == 1.0  # left endpoint included
    assert value_at(f, 0.6) == 0.0  # right endpoint excluded
    assert value_at(f, 0.4) == 1.0
    assert value_at(f, 0.1) == 0.0


def test_piecewise_linear_wraps():
    f = piecewise_linear([(0.0, 1.0), (0.5, 3.0)])
    assert value_at(f, 0.25) == 2.0
    assert value_at(f, 0.75) == 2.0  # interpolates back toward the 0-knot value
    assert value_at(f, 0.0) == 1.0
    assert f.exact_integral == pytest.approx(2.0, abs=1e-15)
    # the knot values are halved before they are added
    assert piecewise_linear([(0.0, 1e308), (0.5, 1.5e308)]).exact_integral == 1.25e308


def test_product_evaluation():
    f = product(indicator(0.0, 0.5), frac_part())
    assert value_at(f, 0.25) == 0.25
    assert value_at(f, 0.75) == 0.0
    assert f.breakpoints == (0.0, 0.5)
    # an indicator ending at 1 jumps back to 0 where {x} wraps
    assert indicator(0.3, 1.0).breakpoints == (0.0, 0.3)
    assert indicator(0.0, 1.0).breakpoints == (0.0,)


def test_degrees():
    assert [f.degree for f in (frac_part(), power_of_frac(7), indicator(0.1, 0.2),
                               trig_poly([(3, 1.0, 0.0)]),
                               piecewise_linear([(0.0, 1.0)]))] == [1, 7, 0, 0, 1]
    assert product(power_of_frac(3), frac_part(), trig_poly([(1, 1.0, 0.0)])).degree == 4


def test_constructor_domain_errors():
    with pytest.raises(ValueError):
        indicator(0.5, 0.5)
    with pytest.raises(ValueError):
        indicator(-0.1, 0.5)
    with pytest.raises(ValueError):
        power_of_frac(0)
    # the power is capped at 2**53 as policy
    assert power_of_frac(MAX_POWER).params == (MAX_POWER,)
    for p in (MAX_POWER + 1, 10 ** 400):
        with pytest.raises(ValueError):
            power_of_frac(p)
    with pytest.raises(ValueError):
        piecewise_linear([(0.1, 1.0)])
    with pytest.raises(ValueError):
        piecewise_linear([(0.0, 1.0), (0.5, 2.0), (0.3, 0.0)])
    for knots in ([(0.0, 0.0), (1e-310, 1.0)],
                  [(0.0, 1.7e308), (0.5, -1.7e308)],
                  [(0.0, 0.0), (1.0 - 2 ** -53, 1e308)]):
        with pytest.raises(ValueError, match="slopes"):
            piecewise_linear(knots)
    for k in (MAX_FREQUENCY + 1, -MAX_FREQUENCY - 1, 10 ** 400):
        with pytest.raises(ValueError):
            trig_poly([(k, 1.0, 0.0)])
    assert trig_poly([(MAX_FREQUENCY, 1.0, 0.0), (-MAX_FREQUENCY, 0.0, 1.0)])


def test_evaluate_array_matches_scalar():
    fs = [frac_part(), power_of_frac(3), indicator(0.3, 0.7),
          trig_poly([(0, 0.5, 0.0), (2, 1.0, -0.5)]),
          piecewise_linear([(0.0, 0.0), (0.25, 1.0), (0.75, -1.0)])]
    xs = np.linspace(0.0, 1.0, 101)[:-1]
    for f in fs:
        arr = evaluate_array(f, xs)
        for x, v in zip(xs, arr):
            assert value_at(f, float(x)) == pytest.approx(v, abs=1e-15)


LENGTH_KINDS = {
    "frac_part": frac_part(),
    "power_of_frac": power_of_frac(3),
    "power_of_frac-2": power_of_frac(2),
    "indicator": indicator(0.3, 0.7),
    "trig_poly": trig_poly([(0, 0.5, 0.0), (1, 0.8, -0.6), (2, 1.0, -0.5),
                            (-5, 0.25, 0.125)]),
    "trig_poly-single": trig_poly([(1, 1.0, 0.0)]),
    "piecewise_linear": piecewise_linear([(0.0, 0.0), (0.25, 1.0), (0.75, -1.0)]),
    "product": product(trig_poly([(3, 0.5, 0.5)]), piecewise_linear(
        [(0.0, 2.0), (0.5, -1.0)]), power_of_frac(2), indicator(0.1, 0.9)),
}


@pytest.mark.parametrize("name", sorted(LENGTH_KINDS))
def test_evaluation_does_not_depend_on_array_length(name):
    # the engine evaluates one period of a rational member and tiles the
    # values, so a value must not depend on where or in how long an array
    # it is computed
    f = LENGTH_KINDS[name]
    xs = np.random.default_rng(11).random(8191 + 8193)
    xs[:4] = (0.0, 0.25, 0.5, 0.75)
    full = evaluate_array(f, xs)
    for off in (0, 1, 8191):
        for n in [*range(1, 18), 8191, 8192, 8193]:
            part = evaluate_array(f, xs[off:off + n])
            assert part.tobytes() == full[off:off + n].tobytes(), (off, n)
    for x, v in zip(xs[:64], full[:64]):
        assert np.float64(value_at(f, float(x))).tobytes() == v.tobytes()


_rng = random.Random(8)
TRIG_SPECTRA = {
    "dense": [(k, _rng.uniform(-1, 1), _rng.uniform(-1, 1)) for k in range(7)],
    "single": [(1, 0.8, -0.6)],
    "negative-duplicate": [(3, 0.5, -0.25), (-3, 0.75, 0.5), (1, 1.0, 1.0),
                           (1, -0.5, 0.25), (-1, 0.2, 0.3), (-2, 0.0, -0.9)],
    "constant-with-sine": [(0, 0.7, 5.0), (0, -0.2, -1.0), (2, 0.3, -0.4)],
    "sparse": [(1, 0.6, -0.3), (4096, -0.4, 0.8), (1 << 19, 0.9, 0.1)],
    "max-frequency": [(MAX_FREQUENCY, 0.7, -0.6), (-MAX_FREQUENCY, 0.1, 0.2)],
}


@pytest.mark.parametrize("name", [n for n in TRIG_SPECTRA if n != "single"])
def test_trig_poly_matches_mpmath(name):
    coeffs = TRIG_SPECTRA[name]
    xs = np.concatenate([np.random.default_rng(4).random(400), [
        0.0, 1e-12, 1e-6, 0.5 - 1e-6, 0.5 - 2.0 ** -40, 0.5, 0.5 + 1e-9,
        0.5 + 1e-6, 1.0 - 1e-6, 1.0 - 2.0 ** -53]])
    got = evaluate_array(trig_poly(coeffs), xs)
    # Horner in z = e(x) on |z| = 1: phase error 2*pi*|k|*eps per term,
    # rounding of order eps per Horner step; C = 2
    kmax = max(abs(k) for k, _, _ in coeffs)
    steps = len({abs(k) for k, _, _ in coeffs})
    amp = sum(abs(c) + abs(s) for _, c, s in coeffs)
    bound = 2 * (2 * math.pi * kmax + steps) * 2.0 ** -53 * amp
    with mp.workdps(50):
        for x, v in zip(xs, got):
            w = 2 * mp.pi * mp.mpf(float(x))
            want = mp.fsum(c * mp.cos(k * w) + s * mp.sin(k * w)
                           for k, c, s in coeffs)
            assert abs(v - want) <= bound, (x, v, want)


@pytest.mark.parametrize("name", ["dense", "single", "sparse"])
def test_trig_poly_evaluation_memory(name):
    xs = np.random.default_rng(5).random(1 << 20)
    f = trig_poly(TRIG_SPECTRA[name])
    evaluate_array(f, xs)  # numpy's one-time set-up is not the evaluation's
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            evaluate_array(f, xs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - base <= 48 * xs.size
    # numpy keeps a few freed shape buffers (48 bytes here); a kept power or
    # result would be 128 KB or more
    assert current - base < 4096


def test_value_bounds_enclose_samples():
    fs = [frac_part(), indicator(0.1, 0.2),
          trig_poly([(0, 1.0, 0.0), (3, 0.5, 0.5)]),
          piecewise_linear([(0.0, -2.0), (0.5, 3.0)]),
          product(trig_poly([(1, 1.0, 0.0)]), frac_part()),
          product(piecewise_linear([(0.0, -2.0), (0.5, 3.0)]),
                  trig_poly([(0, -1.0, 0.0), (2, 0.5, 0.0)]), power_of_frac(2))]
    assert (fs[-1].bounds, fs[-1].frequency) == ((-4.5, 3.0), 2)
    xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    for f in fs:
        lo, hi = f.bounds
        vals = evaluate_array(f, xs)
        assert lo <= vals.min() + 1e-12 and vals.max() - 1e-12 <= hi


# ---------------------------------------------------------------------------
# exact integrals


def test_exact_integrals():
    assert frac_part().exact_integral == 0.5
    assert power_of_frac(2).exact_integral == pytest.approx(1 / 3, abs=1e-16)
    assert indicator(0.25, 0.75).exact_integral == 0.5
    assert trig_poly([(0, 0.7, 0.0), (5, 2.0, 3.0)]).exact_integral == 0.7


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_matches_exact_values():
    assert integrate([frac_part()]) == pytest.approx(0.5, abs=1e-13)
    assert integrate([frac_part(), frac_part()]) == pytest.approx(1 / 3, abs=1e-13)
    assert integrate([power_of_frac(2)]) == pytest.approx(1 / 3, abs=1e-13)
    assert integrate([indicator(0.2, 0.7)]) == pytest.approx(0.5, abs=1e-13)
    # overlap of two indicators is the length of the intersection
    assert integrate([indicator(0.0, 0.4), indicator(0.3, 0.9)]) == pytest.approx(0.1, abs=1e-13)


def test_integrate_trig_orthogonality():
    # int cos(2 pi k x) cos(2 pi j x) = (1/2) [k == j]
    c3 = trig_poly([(3, 1.0, 0.0)])
    c4 = trig_poly([(4, 1.0, 0.0)])
    assert integrate([c3, c3]) == pytest.approx(0.5, abs=1e-13)
    assert integrate([c3, c4]) == pytest.approx(0.0, abs=1e-13)


def test_integrate_resolves_high_frequencies():
    # two panels per period of the product's frequency 2 * 5000
    c = trig_poly([(5000, 1.0, 0.0)])
    assert integrate([c, c]) == pytest.approx(0.5, abs=1e-13)
    assert integrate([product(c, c)]) == pytest.approx(0.5, abs=1e-13)
    # the same product through the multiplier map t -> 5000 t
    one = trig_poly([(1, 1.0, 0.0)])
    assert integrate([one, one], maps=[(0.0, 5000), (0.0, 5000)]) == pytest.approx(
        0.5, abs=1e-13)
    # frequency 2**19 takes the whole budget of 2**20 panels, one more is
    # past it
    with pytest.raises(QuadratureBudgetError):
        integrate([trig_poly([((1 << 19) + 1, 1.0, 0.0)])])
    assert integrate([trig_poly([(1 << 19, 1.0, 0.0)])]) == pytest.approx(
        0.0, abs=1e-13)


def test_integrate_shift_arrays():
    fs = [frac_part(), indicator(0.2, 0.7), trig_poly([(3, 1.0, 0.5)])]
    shifts = [np.array([0.0, 0.25, 0.9]), np.array([0.5, 0.1, 0.3]),
              np.array([0.7, 0.7, 0.0])]
    cs = [1, -2, 3]
    got = integrate(fs, maps=list(zip(shifts, cs)))
    assert got.shape == (3,)
    for r in range(3):
        assert got[r] == integrate(fs, maps=[(s[r], c) for s, c in zip(shifts, cs)])
    # the budget bounds the panels of all shifts together: {4096 t} has
    # 4,095 breakpoints in (0, 1) and the bound counts 4,096, so one panel
    # more each, 4,097; 256 shifts make 1,048,832, past 2**20, and 255 do not
    with pytest.raises(QuadratureBudgetError):
        integrate([frac_part()], maps=[(np.zeros(256), 4096)])
    assert integrate([frac_part()], maps=[(np.zeros(255), 4096)]) == pytest.approx(
        np.full(255, 0.5), abs=1e-15)


def test_integrate_random_indicators_tight():
    rng = random.Random(42)
    for _ in range(25):
        a = rng.uniform(0.0, 0.98)
        b = rng.uniform(a + 0.01, 1.0)
        assert integrate([indicator(a, b)]) == pytest.approx(b - a, abs=1e-14)


def test_integrate_agrees_with_exact_integral_metadata():
    fs = [frac_part(), power_of_frac(4), indicator(0.11, 0.93),
          piecewise_linear([(0.0, 1.0), (0.3, -2.0), (0.8, 4.0)]),
          trig_poly([(0, 0.25, 0.0), (1, 1.0, 2.0), (7, -0.5, 0.5)])]
    for f in fs:
        assert integrate([f]) == pytest.approx(f.exact_integral, abs=1e-12)


def test_integrate_product_wrapper_consistent():
    fs = [indicator(0.1, 0.6), frac_part(), trig_poly([(2, 1.0, 0.0)])]
    assert integrate([product(*fs)]) == pytest.approx(integrate(fs), abs=1e-13)


def test_quadrature_budget():
    # a breakpoint-heavy observable pushed past the panel budget
    dense = Observable("indicator", params=(0.0, 1.0),
                       breakpoints=tuple(np.linspace(0.001, 0.999, (1 << 20) + 2)))
    with pytest.raises(QuadratureBudgetError):
        integrate([dense])


# ---------------------------------------------------------------------------
# class integrals against independent oracles


def _jumps(f):
    """Where f may jump or bend on [0, 1), read from its parameters: the
    wrap at 0, indicator ends and knots."""
    if f.kind == "indicator":
        return [0.0, *f.params]
    if f.kind == "piecewise_linear":
        return [p for p, _ in f.params]
    return [0.0]


def _cuts(fs, maps, num):
    """The t in [0, 1] where some f_i({s_i + c_i t}) may jump, in num."""
    cuts = {num(0), num(1)}
    for f, (s, c) in zip(fs, maps):
        for b in _jumps(f):
            for k in range(-abs(c) - 2, abs(c) + 3):
                t = (num(b) - num(s) + k) / c
                if 0 < t < 1:
                    cuts.add(t)
    return sorted(cuts)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _local_poly(f, s, c, tm):
    """f({s + c t}) near tm, between two cuts, as coefficients in t."""
    u0 = s - math.floor(s + c * tm)  # {s + c t} = u0 + c t there
    if f.kind == "frac_part":
        return [u0, Fraction(c)]
    if f.kind == "power_of_frac":
        out = [Fraction(1)]
        for _ in range(f.params[0]):
            out = _poly_mul(out, [u0, Fraction(c)])
        return out
    x = u0 + c * tm
    if f.kind == "indicator":
        a, b = map(Fraction, f.params)
        return [Fraction(a <= x < b)]
    pos = [Fraction(p) for p, _ in f.params] + [Fraction(1)]
    val = [Fraction(v) for _, v in f.params] + [Fraction(f.params[0][1])]
    j = max(i for i in range(len(pos) - 1) if pos[i] <= x)
    slope = (val[j + 1] - val[j]) / (pos[j + 1] - pos[j])
    return [val[j] + slope * (u0 - pos[j]), slope * c]


def exact_class_integral(fs, maps):
    """int_0^1 prod_i f_i({s_i + c_i t}) dt in exact rationals, for
    piecewise-polynomial f_i: on each piece between cuts the product is a
    polynomial in t, integrated term by term."""
    cuts = _cuts(fs, maps, Fraction)
    total = Fraction(0)
    for t0, t1 in zip(cuts, cuts[1:]):
        poly = [Fraction(1)]
        for f, (s, c) in zip(fs, maps):
            poly = _poly_mul(poly, _local_poly(f, Fraction(s), c, (t0 + t1) / 2))
        total += sum(a * (t1 ** (k + 1) - t0 ** (k + 1)) / (k + 1)
                     for k, a in enumerate(poly))
    return total


MULTIPLIERS = (-2, -1, 1, 2, 3, 4)


def _random_indicator(rng):
    a = round(rng.uniform(0.0, 0.8), 6)
    b = round(rng.uniform(a + 0.01, 1.0), 6)
    return indicator(*rng.choice([(a, b), (0.0, b), (a, 1.0)]))


def _random_knots(rng):
    pos = sorted({round(rng.uniform(0.01, 0.99), 6) for _ in range(3)})
    return piecewise_linear([(p, round(rng.uniform(-1, 1), 6))
                             for p in [0.0, *pos]])


def _random_polynomial_factor(rng):
    return rng.choice([frac_part, lambda: power_of_frac(rng.randint(1, 4)),
                       lambda: _random_indicator(rng),
                       lambda: _random_knots(rng)])()


@pytest.mark.parametrize("seed", range(40))
def test_integrate_matches_exact_rational_integrals(seed):
    # 2-4 factors, so degrees 0 to 16, each factor under its own map with
    # a dyadic shift; three shifts per factor go through one call
    rng = random.Random(seed)
    fs = [_random_polynomial_factor(rng) for _ in range(rng.randint(2, 4))]
    cs = [rng.choice(MULTIPLIERS) for _ in fs]
    shifts = [np.array([rng.randrange(1 << 12) / (1 << 12) for _ in range(3)])
              for _ in fs]
    got = integrate(fs, list(zip(shifts, cs)))
    for r in range(3):
        maps = [(float(s[r]), c) for s, c in zip(shifts, cs)]
        want = exact_class_integral(fs, maps)
        assert abs(got[r] - want) <= 1e-15, (maps, float(want))


def _mp_value(f, x):
    """f at x in [0, 1), in mpmath arithmetic."""
    if f.kind == "trig_poly":
        return mp.fsum(c * mp.cos(2 * mp.pi * k * x) + s * mp.sin(2 * mp.pi * k * x)
                       for k, c, s in f.params)
    if f.kind in ("frac_part", "power_of_frac"):
        return x ** (f.params or (1,))[0]
    if f.kind == "indicator":
        return mp.mpf(f.params[0] <= x < f.params[1])
    pos = [mp.mpf(p) for p, _ in f.params] + [mp.mpf(1)]
    val = [mp.mpf(v) for _, v in f.params] + [mp.mpf(f.params[0][1])]
    j = max(i for i in range(len(pos) - 1) if pos[i] <= x)
    return val[j] + (val[j + 1] - val[j]) * (x - pos[j]) / (pos[j + 1] - pos[j])


@pytest.mark.parametrize("seed", range(24))
def test_integrate_trig_classes_match_mpmath(seed):
    # a trig_poly of up to 3 harmonics beside 1-3 piecewise-polynomial
    # factors; mpmath integrates at 30 digits, split at the jumps and at
    # every half period of the class's highest frequency
    rng = random.Random(100 + seed)
    trig = trig_poly([(k, rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(rng.randint(1, 3) + 1)])
    fs = [trig] + [_random_polynomial_factor(rng)
                   for _ in range(rng.randint(1, 3))]
    maps = [(rng.randrange(1 << 12) / (1 << 12), rng.choice(MULTIPLIERS))
            for _ in fs]
    got = integrate(fs, maps)
    with mp.workdps(30):
        half = 2 * abs(maps[0][1]) * trig.frequency
        cuts = sorted(set(_cuts(fs, maps, mp.mpf))
                      | {mp.mpf(j) / half for j in range(1, half)})
        want = mp.quad(lambda t: mp.fprod(
            _mp_value(f, mp.frac(s + c * t)) for f, (s, c) in zip(fs, maps)), cuts)
    assert abs(got - want) <= 1e-14, (maps, float(want))


def test_integrate_argument_limits():
    with pytest.raises(ValueError):
        integrate([])
    # one observable per member of a family, periodic factor included
    assert integrate([frac_part()] * MAX_PRODUCT_FACTORS) == pytest.approx(
        0.1, abs=1e-13)
    with pytest.raises(ValueError):
        integrate([frac_part()] * (MAX_PRODUCT_FACTORS + 1))
