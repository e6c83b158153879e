"""Engine traces against exact finite-N Weyl sums.

For trig_poly observables the diagonal average is a finite sum over
frequency tuples h of  C_h e(H x0) (1/N) sum_{n<N} e(n theta_h),  with
e(x) = exp(2 pi i x), H = sum h_i and theta_h = sum h_i alpha_i.  Each inner
sum is a geometric series, summed in closed form with 40-digit mpmath
constants, so the engine can be checked at every checkpoint of any N.
Whether theta_h is an integer is decided exactly from the symbolic
constants.
"""

from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from torusavg.dynsys import finite_rotation, rotation, rotation_power
from torusavg.engine import Schedule, multiple_average
from torusavg.observables import trig_poly
from torusavg.oracle import predict
from torusavg.unitmath import ScalarConstant

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)
COS = trig_poly([(1, 1.0, 0.0)])


def _fourier(f):
    """Fourier coefficients {h: f^(h)} of a trig_poly."""
    out = {}
    for k, c, s in f.params:
        if k == 0:
            out[0] = out.get(0, 0) + mp.mpf(c)
        else:
            for h, amp in ((k, mp.mpc(c, -s) / 2), (-k, mp.mpc(c, s) / 2)):
                out[h] = out.get(h, 0) + amp
    return out


def _parts(k):
    """(rational part, {radicand: coefficient}) of a member's constant."""
    return k.a, ({k.m: k.b} if k.b else {})


def _series(specs, fs, x0):
    """(C_h e(H x0), resonant, e(theta_h)) for every frequency tuple h."""
    parts = [_parts(s) for s in specs]
    alphas = [mp.mpf(a.numerator) / a.denominator
              + sum(mp.mpf(b.numerator) / b.denominator * mp.sqrt(m)
                    for m, b in bs.items()) for a, bs in parts]
    x0 = mp.mpf(x0)
    for terms in product(*(_fourier(f).items() for f in fs)):
        hs = [h for h, _ in terms]
        coef = mp.fprod(c for _, c in terms) * mp.expjpi(2 * sum(hs) * x0)
        irr = {}
        for h, (_, bs) in zip(hs, parts):
            for m, b in bs.items():
                irr[m] = irr.get(m, Fraction(0)) + h * b
        rat = sum((h * a for h, (a, _) in zip(hs, parts)), Fraction(0))
        resonant = not any(irr.values()) and rat.denominator == 1
        theta = sum(h * a for h, a in zip(hs, alphas))
        yield coef, resonant, mp.expjpi(2 * theta)


def weyl_average(specs, fs, x0, checkpoints):
    """(1/N) sum_{n<N} prod_i f_i({x0 + n alpha_i}) for every checkpoint N."""
    with mp.workdps(40):
        sums = [mp.mpc(0)] * len(checkpoints)
        for coef, resonant, ratio in _series(specs, fs, x0):
            for j, n in enumerate(checkpoints):
                sums[j] += coef * (n if resonant else
                                   (1 - ratio ** n) / (1 - ratio))
        return [float((s / n).real) for s, n in zip(sums, checkpoints)]


def weyl_limit(specs, fs, x0):
    """The limit as N -> infinity: the sum over resonant tuples."""
    with mp.workdps(40):
        return float(mp.re(mp.fsum(coef for coef, resonant, _ in
                                   _series(specs, fs, x0) if resonant)))


COS12288 = trig_poly([(12288, 1.0, 0.0)])
RANDOMISH = [trig_poly([(0, 0.25, 0.0), (1, 0.7, -0.4), (2, -0.3, 0.9)]),
             trig_poly([(1, -0.5, 0.6), (3, 0.8, 0.1)]),
             trig_poly([(0, -0.1, 0.0), (2, 0.45, -0.75), (5, 0.2, 0.3)])]


@pytest.mark.parametrize("specs, fs, x0", [
    ([rotation_power(SQRT2, p) for p in (1, 2, 3)], [COS] * 3, 0.3),
    ([rotation(SQRT2), finite_rotation(3)], RANDOMISH[:2], 0.41),
    ([rotation(SQRT2), rotation(ScalarConstant.surd("1/2", 1, 2))],
     RANDOMISH[1:], 0.77),
    ([rotation_power(SQRT3, 2), rotation_power(ScalarConstant.surd("1/3", 1, 3), 3)],
     [RANDOMISH[0], RANDOMISH[2]], 0.05),
    ([rotation(SQRT2), rotation_power(SQRT2, 98304)],
     [trig_poly([(0, 0.5, 0.0), (1, 1.0, 0.0)]), COS], 0.2),
], ids=["sqrt2-powers-cos", "sqrt2-finite3", "sqrt2-half-shift",
        "rotation-power-pair", "multiplier-98304"])
def test_engine_matches_exact_weyl_sums(specs, fs, x0):
    sched = Schedule.geometric(10 ** 6)
    trace = multiple_average(specs, fs, x0, sched)
    exact = weyl_average(specs, fs, x0, sched.checkpoints)
    for n, got, want in zip(sched.checkpoints, trace.values, exact):
        assert got == pytest.approx(want, abs=1e-12), n


@pytest.mark.parametrize("specs, fs, x0", [
    # 98304 = 24 * 4096: on 4096 uniform panels, as the quadrature once
    # took, every node sees the same phase of the second factor
    ([rotation(SQRT2), rotation_power(SQRT2, 98304)],
     [trig_poly([(0, 0.5, 0.0), (1, 1.0, 0.0)]), COS], 0.2),
    # the frequencies 1 * 12288 and 12288 * 1 resonate to cos(2 pi 12287 x0)/2;
    # their sum 24576 = 6 * 4096 is aliased on 4096 uniform panels
    ([rotation_power(SQRT2, 12288), rotation(SQRT2)], [COS, COS12288], 0.3),
    ([rotation_power(SQRT3, 3000), rotation(ScalarConstant.surd("1/2", 1, 3)),
      finite_rotation(2)], [RANDOMISH[1], trig_poly([(9000, 0.5, 0.25)]),
                            RANDOMISH[0]], 0.61),
], ids=["multiplier-98304", "resonance-12288", "resonance-9000-half-shift"])
def test_predict_matches_weyl_limit_at_large_multipliers(specs, fs, x0):
    pred = predict(specs, fs, x0)
    assert pred.applicable
    assert pred.value == pytest.approx(weyl_limit(specs, fs, x0), abs=1e-12)


def test_predict_frequency_beyond_panel_budget_is_inapplicable():
    # frequency 1 + 2**20 needs more than 2**20 panels at two per period
    pred = predict([rotation(SQRT2), rotation_power(SQRT2, 1 << 20)],
                   [COS, COS])
    assert not pred.applicable and pred.value is None
    assert any("panels" in c for c in pred.caveats)
