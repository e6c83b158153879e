"""Arithmetic on the unit circle [0, 1).

Fractional parts, drift-controlled orbit points {x + n*alpha}, Neumaier
compensated summation, the shifted-fractional-part identity, and a bounded
exhaustive search for integer relations among rotation constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

from . import _dd


def frac(x: float) -> float:
    """Fractional part {x} = x - floor(x), always in [0, 1)."""
    if not math.isfinite(x):
        raise ValueError("frac: input must be finite")
    r = x - math.floor(x)
    return 0.0 if r >= 1.0 else r


def _squarefree(m: int):
    """Split m = s**2 * r with r square-free; returns (s, r)."""
    s, r, d = 1, m, 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            s *= d
        d += 1
    return s, r


@lru_cache(maxsize=None)
def _sqrt_dd(m: int):
    return _dd.dd_sqrt_int(m)


@dataclass(frozen=True)
class ScalarConstant:
    """A rotation constant.

    Three kinds: an exact rational, a quadratic surd a + b*sqrt(m) with
    rational a, b and square-free m, or a plain float literal.  Symbolic
    kinds survive negation and integer scaling exactly.
    """

    kind: str  # "rational" | "surd" | "literal"
    rat: Fraction | None = None
    surd_a: Fraction | None = None
    surd_b: Fraction | None = None
    surd_m: int | None = None
    lit: float | None = None

    @staticmethod
    def rational(p, q=1) -> "ScalarConstant":
        if q < 1:
            raise ValueError("rational denominator must be a positive integer")
        return ScalarConstant("rational", rat=Fraction(p, q))

    @staticmethod
    def surd(a, b, m: int) -> "ScalarConstant":
        """a + b*sqrt(m); square factors of m are pulled into b."""
        a, b = Fraction(a), Fraction(b)
        if m <= 0:
            raise ValueError("surd radicand must be a positive integer")
        s, r = _squarefree(m)
        b *= s
        if b == 0:
            return ScalarConstant.rational(a)
        if r == 1:
            return ScalarConstant.rational(a + b)
        return ScalarConstant("surd", surd_a=a, surd_b=b, surd_m=r)

    @staticmethod
    def literal(v: float) -> "ScalarConstant":
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("literal constant must be finite")
        return ScalarConstant("literal", lit=v)

    # -- evaluation ---------------------------------------------------------

    def dd(self):
        """Double-double value (hi, lo)."""
        if self.kind == "rational":
            return _dd.dd_from_fraction(self.rat)
        if self.kind == "surd":
            t = _dd.dd_mul_int(_sqrt_dd(self.surd_m), self.surd_b.numerator)
            t = _dd.dd_div_int(t, self.surd_b.denominator)
            return _dd.dd_add(_dd.dd_from_fraction(self.surd_a), t)
        return (self.lit, 0.0)

    @property
    def float_value(self) -> float:
        h, l = self.dd()
        return h + l

    # -- exact arithmetic where kinds allow ---------------------------------

    def is_rational(self) -> bool:
        return self.kind == "rational"

    def as_fraction(self) -> Fraction:
        if self.kind != "rational":
            raise ValueError("not a rational constant")
        return self.rat

    def neg(self) -> "ScalarConstant":
        if self.kind == "rational":
            return ScalarConstant.rational(-self.rat)
        if self.kind == "surd":
            return ScalarConstant("surd", surd_a=-self.surd_a,
                                  surd_b=-self.surd_b, surd_m=self.surd_m)
        return ScalarConstant.literal(-self.lit)

    def mul_int(self, n: int) -> "ScalarConstant":
        if self.kind == "rational":
            return ScalarConstant.rational(self.rat * n)
        if self.kind == "surd":
            return ScalarConstant.surd(self.surd_a * n, self.surd_b * n, self.surd_m)
        return ScalarConstant.literal(self.lit * n)


@dataclass(frozen=True)
class UnitPoint:
    """A point of the circle with a compensation residue: value + comp
    carries the position to roughly double-double precision."""

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
        h, l = _dd.dd_frac((float(x), 0.0))
        return UnitPoint(h, l)

    def __float__(self):
        return self.value


def orbit_point(x0, alpha: ScalarConstant, n: int) -> UnitPoint:
    """{x0 + n*alpha} via product reduction.

    Rational constants reduce with exact integer arithmetic; surds reduce
    their rational part exactly and multiply the sqrt part in double-double,
    so the error stays at a few ulp independent of n.
    """
    if n < 0:
        raise ValueError("orbit step count must be nonnegative")
    x0 = UnitPoint.from_real(x0)
    if alpha.kind == "rational":
        fr = alpha.rat
        shift = _dd.dd_from_fraction(
            Fraction((n * fr.numerator) % fr.denominator, fr.denominator))
    elif alpha.kind == "surd":
        ra = (n * alpha.surd_a) % 1
        rb = n * alpha.surd_b
        t = _dd.dd_mul_int(_sqrt_dd(alpha.surd_m), rb.numerator)
        t = _dd.dd_div_int(t, rb.denominator)
        shift = _dd.dd_add(_dd.dd_from_fraction(ra), t)
    else:
        shift = _dd.dd_mul_int((alpha.lit, 0.0), n)
    h, l = _dd.dd_frac(_dd.dd_add((x0.value, x0.comp), shift))
    return UnitPoint(h, l)


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


def sum_shifted_frac(x, k: int):
    """Sum_{r=0}^{k-1} {x + r/k}, each term evaluated directly; for a 1-D
    array of x, an array with one sum per x.

    Equals {k*x} + (k-1)/2 for every real x in [0, 1]; the right-hand side
    is the test oracle, this computes the left-hand side.  Terms carry at
    most a couple of ulp each and each sum is exactly rounded (math.fsum of
    its terms, bit for bit), so the identity holds to well below 1e-12 for
    k up to a few thousand.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=np.float64)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    t = x[..., None] + np.arange(k) / k
    t -= np.floor(t)
    return _dd.v_sum(t) if t.ndim == 1 else _dd.v_sum_rows(t)


@dataclass(frozen=True)
class IndependenceVerdict:
    status: str  # "dependent" | "independent-up-to-bound" | "exact-independent"
    relation: tuple[int, ...] | None = None
    bound: int | None = None
    reason: str | None = None


def rational_independence(alphas, bound: int = 10, tol: float = 1e-9) -> IndependenceVerdict:
    """Search for integer relations k0 + k1*a1 + ... + kd*ad = 0.

    Exhaustive over |k_i| <= bound; a found relation is reported with
    minimal max-norm, ties broken lexicographically after normalizing the
    sign of the first nonzero entry.
    """
    d = len(alphas)
    if d == 0:
        raise ValueError("empty constant list")
    if d > 4:
        raise ValueError("exhaustive search supports at most 4 constants")
    if bound < 1 or bound > 10_000 // d:
        raise ValueError(f"bound must be in [1, {10_000 // d}]")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if d == 1 and alphas[0].kind == "surd":
        return IndependenceVerdict(
            "exact-independent",
            reason="nonzero quadratic-surd part is irrational")
    dds = [a.dd() for a in alphas]
    best = None
    for ks in _iproduct(range(-bound, bound + 1), repeat=d):
        if not any(ks):
            continue
        s = (0.0, 0.0)
        for k, c in zip(ks, dds):
            if k:
                s = _dd.dd_add(s, _dd.dd_mul_int(c, k))
        k0 = -round(s[0] + s[1])
        if abs(k0) > bound:
            continue
        if abs((s[0] + k0) + s[1]) > tol:
            continue
        vec = (k0, *ks)
        for v in vec:
            if v:
                if v < 0:
                    vec = tuple(-u for u in vec)
                break
        key = (max(abs(v) for v in vec), vec)
        if best is None or key < best:
            best = key
    if best is not None:
        return IndependenceVerdict("dependent", relation=best[1])
    return IndependenceVerdict("independent-up-to-bound", bound=bound)
