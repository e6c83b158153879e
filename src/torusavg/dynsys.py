"""Commuting transformation families on the circle.

Every constructible map is a rotation x -> x + alpha (possibly of finite
order), and each constructor returns its constant alpha, the only thing
the engine and the oracle read.  So every family commutes and preserves
Haar measure by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .observables import MAX_PRODUCT_FACTORS
from .unitmath import ScalarConstant

# members of a scenario's family; its periodic factor is one more member
MAX_FAMILY_SIZE = MAX_PRODUCT_FACTORS - 1


def rotation(alpha: ScalarConstant) -> ScalarConstant:
    """x -> x + alpha."""
    return alpha


def rotation_power(alpha: ScalarConstant, p: int) -> ScalarConstant:
    """x -> x + p*alpha."""
    if p < 1:
        raise ValueError("power must be a positive integer")
    return alpha.mul_int(p)


def finite_rotation(q: int) -> ScalarConstant:
    """x -> x + 1/q, an order-q map."""
    if q < 1:
        raise ValueError("order must be a positive integer")
    return ScalarConstant.rational(1, q)


def identity() -> ScalarConstant:
    return ScalarConstant.rational(0)


@dataclass(frozen=True)
class WeylTerm:
    """A rotation constant written as a + c * beta_m * sqrt(m)."""

    a: Fraction
    c: int  # 0 for a rational constant
    m: int  # square-free radicand; 1 for a rational constant


def weyl_form(ks) -> tuple[WeylTerm, ...]:
    """Each member's constant as a + c * beta_m * sqrt(m): a rational, c an
    integer, and one beta_m > 0 per radicand m, the gcd of the sqrt(m)
    coefficients of the members over m."""
    ks = tuple(ks)
    beta = {}
    for k in ks:
        if k.b:
            g = beta.get(k.m, Fraction(0))
            beta[k.m] = Fraction(math.gcd(g.numerator, k.b.numerator),
                                 math.lcm(g.denominator, k.b.denominator))
    return tuple(WeylTerm(k.a, int(k.b / beta[k.m]) if k.b else 0, k.m)
                 for k in ks)

