"""Commuting transformation families on the circle.

All constructible kinds are rotations (possibly of finite order), so every
family commutes and preserves Haar measure by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .observables import MAX_PRODUCT_FACTORS
from .unitmath import ScalarConstant

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


def weyl_form(specs) -> tuple[WeylTerm, ...]:
    """Each member's constant as a + c * beta_m * sqrt(m): a rational, c an
    integer, and one beta_m > 0 per radicand m, the gcd of the sqrt(m)
    coefficients of the members over m."""
    ks = [effective_rotation(spec) for spec in specs]
    beta = {}
    for k in ks:
        if k.b:
            g = beta.get(k.m, Fraction(0))
            beta[k.m] = Fraction(math.gcd(g.numerator, k.b.numerator),
                                 math.lcm(g.denominator, k.b.denominator))
    return tuple(WeylTerm(k.a, int(k.b / beta[k.m]) if k.b else 0, k.m)
                 for k in ks)


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
