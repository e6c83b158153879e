import math
from fractions import Fraction

import mpmath as mp
import pytest

from torusavg.dynsys import (WeylTerm, finite_rotation, identity, rotation,
                             rotation_power, weyl_form)
from torusavg.unitmath import ScalarConstant, UnitPoint, orbit_point

mp.mp.dps = 40

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)


def apply(alpha, x, n):
    """T^n x for the rotation by alpha."""
    return orbit_point(x, alpha, n)


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
# constructors: each returns the constant of its rotation


def test_effective_rotation():
    assert rotation(SQRT2) == SQRT2
    assert rotation_power(SQRT2, 2) == ScalarConstant.surd(0, 2, 2)
    assert finite_rotation(5) == ScalarConstant.rational(1, 5)
    assert identity() == ScalarConstant.rational(0)


def test_constructor_domain_errors():
    with pytest.raises(ValueError):
        rotation_power(SQRT2, 0)
    with pytest.raises(ValueError):
        finite_rotation(0)


# ---------------------------------------------------------------------------
# apply


def test_apply_examples():
    # frozen from a 40-digit evaluation of {2*sqrt(2)}
    p = apply(rotation(SQRT2), 0.0, 2)
    assert p.value + p.comp == pytest.approx(0.8284271247461900976, abs=1e-15)
    assert apply(finite_rotation(4), 0.1, 3).value == pytest.approx(0.85, abs=1e-15)
    assert apply(identity(), 0.3, 10 ** 6).value == 0.3


def test_apply_power_matches_scaled_rotation():
    a = apply(rotation_power(SQRT2, 3), 0.2, 1000)
    b = apply(rotation(SQRT2), 0.2, 3000)
    assert a.value + a.comp == pytest.approx(b.value + b.comp, abs=1e-13)


def test_commutation():
    # every constructible pair commutes: T S x == S T x
    specs = [rotation(SQRT2), rotation(SQRT3), finite_rotation(7),
             rotation_power(SQRT2, 3), rotation(ScalarConstant.literal(0.123))]
    for s in specs:
        for t in specs:
            for x in (0.0, 0.3, 0.9999):
                a = apply(s, apply(t, x, 1), 1)
                b = apply(t, apply(s, x, 1), 1)
                d = abs((a.value + a.comp) - (b.value + b.comp))
                assert min(d, 1.0 - d) <= 1e-15


def test_measure_preservation_on_grid():
    # a rotation permutes any q-periodic grid it is commensurate with
    spec = finite_rotation(8)
    grid = [i / 16 for i in range(16)]
    image = sorted(apply(spec, x, 1).value for x in grid)
    assert image == pytest.approx(grid, abs=1e-15)


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
