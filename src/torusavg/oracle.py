"""Closed-form limit predictions and measured-vs-predicted comparison.

Write each member's constant as a_i + c_i * beta_m * sqrt(m) (``weyl_form``)
and let q be the lcm of the a-denominators.  As 1 and the sqrt(m) of
distinct square-free m are linearly independent over Q, the sequence
(n mod q, {n beta_m sqrt(m)} for each m) is equidistributed in Z/q x T^k
(Weyl 1916), so the diagonal average from x0 tends to

    (1/q) sum_{j<q} prod_{rational i} f_i({x0 + j a_i}) prod_m G_m[j mod q_m],
    G_m[r] = int_0^1 prod_{i over m} f_i(x0 + r a_i + c_i t) dt,

with q_m the lcm of the a-denominators over m, one quadrature per residue
of the period p of G_m: the lcm over member pairs of the denominators of
a_i*c_j - a_j*c_i, a divisor of q_m (``_shift_period``).  A literal
constant is the rational of its shortest round-trip decimal, so 0.1 has
q = 10.  The prediction is not applicable when q exceeds MAX_PERIOD or the
quadratures of a class exceed the panel budget of ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _dd
from .engine import AverageTrace, check_family, rational_points
from .observables import QuadratureBudgetError, evaluate_array, integrate
from .unitmath import UnitPoint

MAX_PERIOD = 1 << 20
# Periods from here up are not written out in decimal: int-to-str
# conversion may refuse more than 640 digits (the least limit that
# sys.set_int_max_str_digits takes).
_PRINTABLE = 1 << 2048


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


def _shift_period(ts) -> int:
    """The least p with p*a_i = c_i*tau (mod 1) for one tau and every member,
    so that t -> t + tau gives G_m[r + p] = G_m[r]: the lcm over member
    pairs of the denominators of a_i*c_j - a_j*c_i.  Such a tau makes each
    p*(a_i*c_j - a_j*c_i) = c_j*(p*a_i - c_i*tau) - c_i*(p*a_j - c_j*tau)
    an integer.  Conversely the c_i are coprime (beta_m is the gcd of their
    coefficients), so sum_j u_j*c_j = 1 for integers u_j, and then
    tau = sum_j u_j*p*a_j is common to every member."""
    return math.lcm(*((s.a * t.c - t.a * s.c).denominator
                      for s, t in combinations(ts, 2)))


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
