"""Commuting transformation families on the circle.

Every constructible map is a rotation x -> x + alpha (possibly of finite
order), and each constructor returns its constant alpha, the only thing
the engine and the oracle (in Weyl form, ``oracle.weyl_form``) read.  So
every family commutes and preserves Haar measure by construction.
"""

from __future__ import annotations

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
