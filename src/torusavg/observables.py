"""Bounded observables on the circle with discontinuity metadata.

Each constructor works out, once per observable, what quadrature and the
parser read: the breakpoints, so panel quadrature can split exactly at
discontinuities; the exact Haar integral where it is known in closed form;
a (min, max) enclosure of the values (``bounds``); and, between
breakpoints, the largest frequency (``frequency``) and the degree of the
polynomial (``degree``).  Values at breakpoints follow the right-limit
convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _dd

# factors of a product: a scenario's 8 members and its periodic factor
MAX_PRODUCT_FACTORS = 9
# largest |frequency| of a trig_poly (see trig_poly)
MAX_FREQUENCY = 1 << 20
# points per Horner pass, for three complex buffers of 128 KB: the fastest of
# 2**11 to 2**14 and of whole 2**16-point blocks
_HORNER_CHUNK = 1 << 13
# largest power_of_frac exponent: policy, as with engine.MAX_N
MAX_POWER = 1 << 53
# quadrature (integrate): Gauss-Legendre nodes per panel, exact for
# polynomials of degree 2 * _NODES - 1, and the most panels of one call
_NODES = 8
_PANEL_BUDGET = 1 << 20


class QuadratureBudgetError(RuntimeError):
    """Raised when breakpoint refinement would exceed the panel budget."""


@dataclass(frozen=True)
class Observable:
    kind: str
    params: tuple = ()
    breakpoints: tuple[float, ...] = ()
    exact_integral: float | None = None
    bounds: tuple[float, float] = (0.0, 1.0)
    frequency: int = 0
    degree: int = 0


def frac_part() -> Observable:
    """x -> {x}."""
    return Observable("frac_part", breakpoints=(0.0,), exact_integral=0.5,
                      degree=1)


def power_of_frac(p: int) -> Observable:
    """x -> {x}**p, for integers 1 <= p <= MAX_POWER = 2**53."""
    p = operator.index(p)
    if not 1 <= p <= MAX_POWER:
        raise ValueError(f"power must be an integer in [1, {MAX_POWER}]")
    return Observable("power_of_frac", params=(p,), breakpoints=(0.0,),
                      exact_integral=1.0 / (p + 1), degree=p)


def indicator(a: float, b: float) -> Observable:
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("indicator needs 0 <= a < b <= 1")
    # b = 1 jumps back to 0 where {x} wraps, at 0 = 1 % 1
    return Observable("indicator", params=(float(a), float(b)),
                      breakpoints=tuple(sorted({float(a), float(b) % 1.0})),
                      exact_integral=b - a)


def trig_poly(coeffs) -> Observable:
    """x -> sum of c*cos(2*pi*k*x) + s*sin(2*pi*k*x) over the rows (k, c, s).

    Repeated frequencies add up, and the sine amplitude of k = 0 is ignored.
    Frequencies are integers with |k| <= MAX_FREQUENCY = 2**20.  Quadrature
    takes at least two panels per period, so |k| > 2**19 is past its panel
    budget already; at 2**20 the phase 2*pi*k*x is still good to about
    7e-10 per unit amplitude.  Values come from Horner's rule in
    e^{2*pi*i*x}, within the bound given in evaluate_array."""
    coeffs = tuple((operator.index(k), float(c), float(s)) for k, c, s in coeffs)
    if any(abs(k) > MAX_FREQUENCY for k, _, _ in coeffs):
        raise ValueError(f"frequency must be an integer in "
                         f"[-{MAX_FREQUENCY}, {MAX_FREQUENCY}]")
    const = sum(c for k, c, s in coeffs if k == 0)
    amp = sum(math.hypot(c, s) for k, c, s in coeffs if k != 0)
    return Observable("trig_poly", params=coeffs, exact_integral=const,
                      bounds=(const - amp, const + amp),
                      frequency=max((abs(k) for k, _, _ in coeffs), default=0))


def piecewise_linear(knots) -> Observable:
    """Linear interpolation between knots, wrapping back to the first knot
    at 1; the first knot must sit at position 0.  Every slope must be a
    finite float: np.interp computes values from the slopes, and an
    infinite one gives infinite values between finite knots."""
    knots = tuple((float(p), float(v)) for p, v in knots)
    if not knots or knots[0][0] != 0.0:
        raise ValueError("first knot must be at position 0.0")
    pos = [p for p, _ in knots]
    if any(b <= a for a, b in zip(pos, pos[1:])) or pos[-1] >= 1.0:
        raise ValueError("knot positions must be strictly increasing in [0, 1)")
    xs = pos + [1.0]
    vs = [v for _, v in knots] + [knots[0][1]]
    segments = list(zip(xs, xs[1:], vs, vs[1:]))
    if not all(math.isfinite((v1 - v0) / (x1 - x0)) for x0, x1, v0, v1 in segments):
        raise ValueError("knot slopes must be finite")
    # halves first, so that no sum of two knot values overflows
    integral = sum((x1 - x0) * (v0 / 2.0 + v1 / 2.0) for x0, x1, v0, v1 in segments)
    return Observable("piecewise_linear", params=knots,
                      breakpoints=tuple(pos), exact_integral=integral,
                      bounds=(min(vs), max(vs)), degree=1)


def product(*factors: Observable) -> Observable:
    """Pointwise product wrapper; breakpoints are the union of the factors',
    its bounds the extreme products of theirs, and its frequency and degree
    the sums of theirs."""
    if not 1 <= len(factors) <= MAX_PRODUCT_FACTORS:
        raise ValueError(f"product takes 1..{MAX_PRODUCT_FACTORS} factors")
    bps = sorted({b for f in factors for b in f.breakpoints})
    lo, hi = 1.0, 1.0
    for glo, ghi in (f.bounds for f in factors):
        corners = (lo * glo, lo * ghi, hi * glo, hi * ghi)
        lo, hi = min(corners), max(corners)
    return Observable("product", params=tuple(factors), breakpoints=tuple(bps),
                      bounds=(lo, hi), frequency=sum(f.frequency for f in factors),
                      degree=sum(f.degree for f in factors))


def evaluate_array(f: Observable, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs, a 1-D float64 array of points in [0, 1).

    A trig_poly is evaluated by Horner's rule in z = e^{2*pi*i*x}
    (_trig_poly_values): one cos and one sin per point for each change of
    gap between its frequencies, none per harmonic.  The error per point is
    of order (2*pi*max|k| + distinct |k|) * 2**-53 * sum(|c| + |s|), also
    near x = 0 and 1/2."""
    return _VALUES[f.kind](f.params, xs)


def _trig_poly_values(coeffs, xs: np.ndarray) -> np.ndarray:
    """Re sum_k a_k z^k at z = e^{2*pi*i*x}; a_|k| folds the rows (k, c, s)
    as c - i*s for k > 0, c + i*s for k < 0 and c for k = 0.  Horner runs
    over the distinct |k| in descending order, p <- p * z^g + a_k with g
    the gap to the next one (0 last).  z^g is cos + i*sin of 2*pi*g*x,
    recomputed when g changes and never squared up from z: |z| = 1 +- eps
    grows like e^{g*eps}, and each kept power costs 16 bytes a point.
    Points go through in chunks of _HORNER_CHUNK, so p and z^g stay in
    cache and the only array as long as xs is the result.  Each multiply
    runs out of place, into the other buffer, which then takes p's role:
    numpy rounds an in-place complex multiply of a one-element array
    through a scalar path that can differ from the array path in the last
    bit, and a value must not depend on the length of the array it is
    evaluated in (the engine repeats one period of values)."""
    a = {0: 0j}
    for k, c, s in coeffs:
        a[abs(k)] = a.get(abs(k), 0j) + complex(c, -s if k > 0 else s if k else 0.0)
    ks = sorted(a, reverse=True)
    out = np.empty_like(xs)
    pbuf = np.empty(min(xs.size, _HORNER_CHUNK), complex)
    zbuf, tbuf = np.empty_like(pbuf), np.empty_like(pbuf)
    for i in range(0, xs.size, _HORNER_CHUNK):
        x = xs[i:i + _HORNER_CHUNK]
        p, zg, t = pbuf[:x.size], zbuf[:x.size], tbuf[:x.size]
        p.fill(a[ks[0]])
        gap = 0
        for hi, lo in zip(ks, ks[1:]):
            if hi - lo != gap:
                gap = hi - lo
                np.multiply(x, 2.0 * np.pi * gap, out=zg.imag)
                np.cos(zg.imag, out=zg.real)
                np.sin(zg.imag, out=zg.imag)
            np.multiply(p, zg, out=t)
            t += a[lo]
            p, t = t, p
        out[i:i + x.size] = p.real
    return out


def _piecewise_linear_values(knots, xs: np.ndarray) -> np.ndarray:
    xp = [p for p, _ in knots] + [1.0]
    fp = [v for _, v in knots] + [knots[0][1]]
    return np.interp(xs, xp, fp)


def _product_values(factors, xs: np.ndarray) -> np.ndarray:
    out = evaluate_array(factors[0], xs)
    for g in factors[1:]:
        out = out * evaluate_array(g, xs)
    return out


# kind -> values(params, xs), for evaluate_array
_VALUES = {
    "frac_part": lambda params, xs: xs,
    "power_of_frac": lambda params, xs: xs ** params[0],
    "indicator": lambda params, xs: (
        (xs >= params[0]) & (xs < params[1])).astype(np.float64),
    "trig_poly": _trig_poly_values,
    "piecewise_linear": _piecewise_linear_values,
    "product": _product_values,
}


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _preimages(b: float, s: float, c: int):
    """The t in (0, 1) with {s + c*t} = b, for an integer c."""
    if c == 0:
        return ()
    u = b - s
    ks = range(math.floor(min(0, c) - u), math.ceil(max(0, c) - u) + 1)
    return (t for t in ((k + u) / c for k in ks) if 0.0 < t < 1.0)


def integrate(fs, maps=None):
    """Integral over t in [0, 1] of prod_i f_i({s_i + c_i*t}), by
    Gauss-Legendre panels of _NODES nodes.  [0, 1] splits into pieces at 0,
    1 and every breakpoint mapped back through t -> s_i + c_i*t, and on a
    piece each factor is a polynomial of its degree in t, or a trig
    polynomial.  So when the degree D = sum_i deg_i is at most
    2*_NODES - 1 and no factor has a frequency, one panel a piece is exact
    up to rounding.  Otherwise a piece of width w takes ceil(w*rate)
    panels: two per period of the highest frequency sum_i |c_i| k_i, plus
    sum_i |c_i| deg_i / 2, at which a power {s + c*t}**deg falls by at most
    e**2 a panel; a polynomial beside a frequency is not integrated exactly
    either, so then the second term counts at any D.  ``maps`` gives one
    (s_i, c_i), c_i an integer, per observable; the default (0, 1)
    integrates the product itself.  Shifts s_i given as arrays of one
    length p give the p integrals as an array; the panel budget bounds the
    panels of all p together, so that no call does more than one budget of
    work."""
    fs = list(fs)
    if not 1 <= len(fs) <= MAX_PRODUCT_FACTORS:
        raise ValueError(f"integrate takes 1..{MAX_PRODUCT_FACTORS} observables")
    maps = [(0.0, 1)] * len(fs) if maps is None else list(maps)
    shifts = np.array([s for s, _ in maps], dtype=np.float64)
    cs = [c for _, c in maps]
    rate = 2 * sum(abs(c) * f.frequency for f, c in zip(fs, cs))
    if rate or sum(f.degree for f in fs) >= 2 * _NODES:
        rate += sum(abs(c) * f.degree for f, c in zip(fs, cs)) / 2
    # at most sum_i |c_i| breakpoints mapped into (0, 1), and the sum of
    # ceil(w*rate) over the pieces is below rate + pieces
    panels = max(1, math.ceil(rate)) + sum(
        abs(c) * len(f.breakpoints) for f, c in zip(fs, cs))
    total = panels * shifts[0].size
    if total > _PANEL_BUDGET:
        raise QuadratureBudgetError(
            f"up to {total} panels after refinement exceeds {_PANEL_BUDGET}")
    out = [_integrate_panels(fs, rate, ss, cs)
           for ss in shifts.reshape(len(fs), -1).T]
    return out[0] if shifts.ndim == 1 else np.array(out)


def _integrate_panels(fs, rate: float, shifts, cs) -> float:
    # not np.unique, whose first call adds about 0.5 MB of resident memory
    edges = np.sort(np.concatenate(
        [(0.0, 1.0)] + [np.fromiter(_preimages(b, s, c), float)
                        for f, s, c in zip(fs, shifts, cs) for b in f.breakpoints]))
    edges = edges[np.diff(edges, prepend=-1.0) > 0.0]
    width = np.diff(edges)
    n = np.maximum(np.ceil(width * rate), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(n.size), n)
    k = np.arange(piece.size) - (np.cumsum(n) - n)[piece]
    half = (width / (2 * n))[piece]
    mid = edges[piece] + (2 * k + 1) * half
    x, w = _gl_nodes(_NODES)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.ones_like(pts)
    xs = np.empty_like(pts)
    for f, s, c in zip(fs, shifts, cs):
        np.multiply(pts, c, out=xs)
        xs += s
        vals *= evaluate_array(f, np.mod(xs, 1.0, out=xs))
    wts = (half[:, None] * w[None, :]).ravel()
    return _dd.v_sum(vals * wts)
