"""Arithmetic on the unit circle [0, 1).

Fractional parts, exact rotation constants a + b*sqrt(m), orbit points
{x + n*alpha} rounded once from exact integer ratios, and Neumaier
compensated summation.  A literal constant is the rational of its shortest
round-trip decimal, so the literal 0.1 is exactly 1/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _dd


def frac(x: float) -> float:
    """Fractional part {x} = x - floor(x), always in [0, 1)."""
    if not math.isfinite(x):
        raise ValueError("frac: input must be finite")
    r = x - math.floor(x)
    return 0.0 if r >= 1.0 else r


# radicands factor by trial division up to sqrt(m): 2**16 steps at most
MAX_RADICAND = 1 << 32


def _squarefree(m: int):
    """Split m = s**2 * r with r square-free; returns (s, r)."""
    s, r, d = 1, m, 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            s *= d
        d += 1
    return s, r


# fractional bits of the integer square root behind a surd part
_ROOT_BITS = 128


def _surd_residue(p: int, q: int, m: int) -> int:
    """(p/q)*sqrt(m) modulo 1 in units of 2**-_ROOT_BITS, for ints q > 0:
    the integer square root floor(2**_ROOT_BITS * |p/q|*sqrt(m)), with p's
    sign, mod 2**_ROOT_BITS.  Over 2**_ROOT_BITS it is within
    2**-_ROOT_BITS at any magnitude, and it depends on the value of p/q
    alone."""
    r = math.isqrt(p * p * m << 2 * _ROOT_BITS) // q
    return (r if p > 0 else -r) % (1 << _ROOT_BITS)


@dataclass(frozen=True)
class ScalarConstant:
    """A rotation constant a + b*sqrt(m), exactly: rational a and b, and a
    square-free m, with b = 0 and m = 1 for a rational.  Negation and
    integer scaling stay exact.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    m: int = 1

    @staticmethod
    def rational(p, q=1) -> "ScalarConstant":
        if q < 1:
            raise ValueError("rational denominator must be a positive integer")
        return ScalarConstant(Fraction(p, q))

    @staticmethod
    def surd(a, b, m: int) -> "ScalarConstant":
        """a + b*sqrt(m) for 1 <= m <= MAX_RADICAND; square factors of m
        are pulled into b."""
        a, b = Fraction(a), Fraction(b)
        if not 0 < m <= MAX_RADICAND:
            raise ValueError(f"surd radicand must be an integer in [1, {MAX_RADICAND}]")
        s, r = _squarefree(m)
        b *= s
        if b == 0 or r == 1:
            return ScalarConstant(a + b)
        return ScalarConstant(a, b, r)

    @staticmethod
    def literal(v: float) -> "ScalarConstant":
        """The rational of v's shortest round-trip decimal: 0.1 is 1/10."""
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("literal constant must be finite")
        return ScalarConstant(Fraction(repr(v)))

    def residue(self, n: int = 1):
        """Ints (p, q) with p/q congruent to n times the constant modulo 1:
        n*a reduced exactly, (n*p_a mod q_a)/q_a, plus n*b*sqrt(m) modulo 1
        to within 2**-_ROOT_BITS (``_surd_residue`` of n*p_b and q_b), as
        one fraction over q_a * 2**_ROOT_BITS."""
        (pa, qa), (pb, qb) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        return ((n * pa % qa << _ROOT_BITS) + _surd_residue(n * pb, qb, self.m) * qa,
                qa << _ROOT_BITS)

    def neg(self) -> "ScalarConstant":
        return ScalarConstant(-self.a, -self.b, self.m)

    def mul_int(self, n: int) -> "ScalarConstant":
        return ScalarConstant(self.a * n, self.b * n, self.m if n else 1)


@dataclass(frozen=True)
class UnitPoint:
    """A point of the circle with a compensation residue: value + comp
    carries the position to double-double precision."""

    value: float
    comp: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.value < 1.0):
            raise ValueError(f"unit point out of [0, 1): {self.value!r}")

    @staticmethod
    def from_real(x) -> "UnitPoint":
        if isinstance(x, UnitPoint):
            return x
        if not math.isfinite(x):
            raise ValueError("unit point must be finite")
        return UnitPoint(*_dd.dd_mod1(*float(x).as_integer_ratio()))

    def __float__(self):
        return self.value


def orbit_point(x0, alpha: ScalarConstant, n: int) -> UnitPoint:
    """{x0 + n*alpha} via product reduction, rounded once.

    x0's value and comp are exact ratios, and so is n*alpha modulo 1 from
    Python ints (``ScalarConstant.residue``): exact in its rational part,
    and within 2**-128 in its surd part.  ``_dd.dd_mod1`` rounds their sum
    modulo 1 once, with the rounded lo within 2**-107, so the point is
    within 2**-106 for every n, but for one within half an ulp below 1,
    which is 0.0.
    """
    if n < 0:
        raise ValueError("orbit step count must be nonnegative")
    x0 = UnitPoint.from_real(x0)
    p, q = alpha.residue(n)
    (pv, qv), (pc, qc) = x0.value.as_integer_ratio(), x0.comp.as_integer_ratio()
    return UnitPoint(*_dd.dd_mod1((p * qv + pv * q) * qc + pc * q * qv, q * qv * qc))


class CompensatedSum:
    """Neumaier running sum; deterministic for a fixed order of add()s."""

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float):
        if not math.isfinite(x):
            raise ValueError("compensated sum: term must be finite")
        s = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - s) + x
        else:
            self._c += (x - s) + self._s
        self._s = s
        if math.isinf(s):
            raise OverflowError("compensated sum overflowed")

    def value(self) -> float:
        return self._s + self._c
