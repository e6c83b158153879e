"""Commuting transformation families on the circle.

All constructible kinds are rotations (possibly of finite order), so every
family commutes and preserves Haar measure by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .observables import MAX_PRODUCT_FACTORS
from .unitmath import ScalarConstant, rational_independence

# members of a scenario's family; its periodic factor is one more member
MAX_FAMILY_SIZE = MAX_PRODUCT_FACTORS - 1


@dataclass(frozen=True)
class TransformSpec:
    kind: str  # "rotation" | "rotation_power" | "finite_rotation"
    alpha: ScalarConstant | None = None
    power: int | None = None
    order: int | None = None
    label: str = field(default="", compare=False)


def rotation(alpha: ScalarConstant, label: str = "") -> TransformSpec:
    return TransformSpec("rotation", alpha=alpha, label=label)


def rotation_power(alpha: ScalarConstant, p: int, label: str = "") -> TransformSpec:
    """x -> x + p*alpha."""
    if p < 1:
        raise ValueError("power must be a positive integer")
    return TransformSpec("rotation_power", alpha=alpha, power=p, label=label)


def finite_rotation(q: int, label: str = "") -> TransformSpec:
    """x -> x + 1/q, an order-q map."""
    if q < 1:
        raise ValueError("order must be a positive integer")
    return TransformSpec("finite_rotation", order=q, label=label)


def identity(label: str = "id") -> TransformSpec:
    return rotation(ScalarConstant.rational(0), label=label)


def effective_rotation(spec: TransformSpec) -> ScalarConstant:
    """The single rotation constant a spec reduces to."""
    if spec.kind == "rotation":
        return spec.alpha
    if spec.kind == "rotation_power":
        return spec.alpha.mul_int(spec.power)
    if spec.kind == "finite_rotation":
        return ScalarConstant.rational(1, spec.order)
    raise ValueError(f"unknown transform kind {spec.kind!r}")


@dataclass(frozen=True)
class WeylTerm:
    """A rotation constant written as a + c * beta_m * sqrt(m)."""

    a: Fraction
    c: int  # 0 for a rational constant
    m: int  # square-free radicand; 1 for a rational constant


def weyl_form(specs, bound: int = 10) -> tuple[WeylTerm | None, ...]:
    """Each member's constant as a + c * beta_m * sqrt(m): a rational, c an
    integer, and one beta_m > 0 per radicand m, the gcd of the sqrt(m)
    coefficients of the members over m.

    A literal counts as rational only when the bounded relation search
    proves it so; any other literal gives None.
    """
    parts = []
    for spec in specs:
        k = effective_rotation(spec)
        if k.kind == "surd":
            parts.append((k.surd_a, k.surd_b, k.surd_m))
        elif k.kind == "rational":
            parts.append((k.rat, Fraction(0), 1))
        else:
            v = rational_independence([k], bound=bound, tol=1e-9)
            parts.append((Fraction(-v.relation[0], v.relation[1]), Fraction(0), 1)
                         if v.status == "dependent" else None)
    beta = {}
    for _, b, m in filter(None, parts):
        if b:
            g = beta.get(m, Fraction(0))
            beta[m] = Fraction(math.gcd(g.numerator, b.numerator),
                               math.lcm(g.denominator, b.denominator))
    return tuple(p and WeylTerm(p[0], int(p[1] / beta[p[2]]) if p[1] else 0, p[2])
                 for p in parts)


@dataclass(frozen=True)
class TransformFamily:
    members: tuple[TransformSpec, ...]


def build_family(specs) -> TransformFamily:
    """A family of at most MAX_PRODUCT_FACTORS members, one observable each:
    a scenario's family and its periodic factor."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("family must be nonempty")
    if len(specs) > MAX_PRODUCT_FACTORS:
        raise ValueError(f"family size capped at {MAX_PRODUCT_FACTORS}")
    return TransformFamily(specs)
