import mpmath as mp
import pytest

from torusavg.dynsys import finite_rotation, identity, rotation, rotation_power
from torusavg.unitmath import ScalarConstant, UnitPoint, orbit_point

mp.mp.dps = 40

SQRT2 = ScalarConstant.surd(0, 1, 2)
SQRT3 = ScalarConstant.surd(0, 1, 3)


def apply(alpha, x, n):
    """T^n x for the rotation by alpha."""
    return orbit_point(x, alpha, n)


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
