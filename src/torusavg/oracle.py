"""Closed-form limit predictions and measured-vs-predicted comparison.

Write each member's constant as a_i + c_i * beta_m * sqrt(m)
(``dynsys.weyl_form``) and let q be the lcm of the a-denominators.  As 1
and the sqrt(m) of distinct square-free m are linearly independent over
Q, the sequence (n mod q, {n beta_m sqrt(m)} for each m) is equidistributed
in Z/q x T^k (Weyl 1916), so the diagonal average from x0 tends to

    (1/q) sum_{j<q} prod_{rational i} f_i({x0 + j a_i}) prod_m G_m[j mod q_m],
    G_m[r] = int_0^1 prod_{i over m} f_i(x0 + r a_i + c_i t) dt,

with q_m the lcm of the a-denominators over m, one quadrature per residue
of a period p of G_m that divides q_m (``_shift_period``).  A literal
constant is the rational of its shortest round-trip decimal, so 0.1 has
q = 10.  The prediction is not applicable when q exceeds MAX_PERIOD or the
quadratures of a class exceed the panel budget of ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dd
from .dynsys import weyl_form
from .engine import AverageTrace, check_family, rational_points
from .observables import QuadratureBudgetError, evaluate_array, integrate
from .unitmath import UnitPoint

MAX_PERIOD = 1 << 20
# Periods from here up are not written out in decimal: int-to-str
# conversion may refuse more than 640 digits (the least limit that
# sys.set_int_max_str_digits takes).
_PRINTABLE = 1 << 2048


@dataclass(frozen=True)
class Factor:
    """The members over one radicand m and the period of their rational
    parts; m = 1 holds the rational members, with the period q of the sum.
    A period of _PRINTABLE or more is None."""

    radicand: int
    indices: tuple[int, ...]
    period: int | None


@dataclass(frozen=True)
class Prediction:
    value: float | None  # None when not applicable
    derivation: tuple[Factor, ...]
    applicable: bool
    caveats: tuple[str, ...]


def _resolve(members):
    """(weyl_form terms, derivation, period q)."""
    terms = weyl_form(members)
    classes = {1: []}
    for i, t in enumerate(terms):
        classes.setdefault(t.m, []).append(i)
    q = math.lcm(*(t.a.denominator for t in terms))
    derivation = []
    for m, idx in classes.items():
        p = q if m == 1 else math.lcm(*(terms[i].a.denominator for i in idx))
        derivation.append(Factor(m, tuple(idx), p if p < _PRINTABLE else None))
    return terms, tuple(derivation), q


def _bezout(a: int, b: int):
    """(g, x, y) with a*x + b*y = g, |g| = gcd(a, b)."""
    if not b:
        return a, 1, 0
    g, x, y = _bezout(b, a % b)
    return g, y, x - a // b * y


def _shift_period(ts) -> int:
    """The least p with p*a_i = c_i*tau (mod 1) for one tau and every member,
    so that t -> t + tau gives G_m[r + p] = G_m[r].  The c_i are coprime
    (beta_m is the gcd of their coefficients), so sum u_i c_i = 1 for
    integers u_i, tau = p*A (mod 1) with A = sum u_i a_i, and p is the lcm
    of the denominators of c_i*A - a_i, a divisor of q_m."""
    g, u = 0, []
    for t in ts:
        g, x, y = _bezout(g, t.c)
        u = [x * v for v in u] + [y]
    a = sum(v * t.a for v, t in zip(u, ts)) / g
    return math.lcm(*((t.c * a - t.a).denominator for t in ts))


def predict(fam, fs, x0=0.0) -> Prediction:
    """Predicted limit of the diagonal average from x0 for the family's
    constants."""
    fam, fs = check_family(fam, fs)
    terms, derivation, q = _resolve(fam)
    if q > MAX_PERIOD:
        shown = q if q < _PRINTABLE else f"of {q.bit_length()} bits"
        return Prediction(None, derivation, False,
                          (f"period {shown} exceeds {MAX_PERIOD}",))
    x0 = UnitPoint.from_real(x0)

    def shifts(a, n):  # {x0 + r*a} for r < n, as the engine computes them
        return rational_points(x0, a, 0, np.empty(n))

    vals = np.ones(q)
    for i in derivation[0].indices:
        vals *= evaluate_array(fs[i], shifts(terms[i].a, q))
    for f in derivation[1:]:
        obs, ts = [fs[i] for i in f.indices], [terms[i] for i in f.indices]
        if len(obs) == 1 and obs[0].exact_integral is not None:
            vals *= obs[0].exact_integral
            continue
        p = _shift_period(ts)
        try:
            g = integrate(obs, [(shifts(t.a, p), t.c) for t in ts])
        except QuadratureBudgetError as e:
            return Prediction(None, derivation, False,
                              (f"quadrature over radicand {f.radicand}: {e}",))
        vals *= g[np.arange(q) % p]
    return Prediction(_dd.v_sum(vals) / q, derivation, True, ())


def predict_intersection(members, indicators) -> Prediction:
    """Limit of (1/N) sum_n len(T1^-n A1 ∩ ... ∩ C): the product of the
    arc lengths when every member is a surd rotation and no two share a
    radicand, so that the orbit is equidistributed on the torus; otherwise
    not applicable."""
    members, indicators = check_family(members, indicators, arcs=True)
    _, derivation, _ = _resolve(members)
    if (derivation[0].indices or
            any(len(f.indices) > 1 for f in derivation[1:])):
        return Prediction(None, derivation, False,
                          ("members are not surd rotations over distinct radicands",))
    return Prediction(math.prod(f.exact_integral for f in indicators),
                      derivation, True, ())


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    final_error: float
    tail: float


def compare(pred: Prediction, trace: AverageTrace, tol: float) -> ComparisonReport:
    """Pass iff the trace's final value is within tol of the prediction's
    value, which a negative control may have set where the oracle gave none.

    The empirical tail is carried along so a failure can be attributed to
    slow convergence rather than a wrong prediction.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if pred.value is None:
        raise ValueError("prediction has no value; nothing to compare")
    err = abs(trace.final - pred.value)
    return ComparisonReport(err <= tol, err, trace.est_tail)
