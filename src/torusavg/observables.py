"""Bounded observables on the circle with discontinuity metadata.

Each kind records its breakpoints so panel quadrature can split exactly at
discontinuities, and carries the exact Haar integral where it is known in
closed form.  Values at breakpoints follow the right-limit convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _dd
from .dynsys import TransformSpec, apply, finite_order
from .unitmath import UnitPoint

MAX_PRODUCT_FACTORS = 8
_PANEL_BUDGET = 1 << 20


class QuadratureBudgetError(RuntimeError):
    """Raised when breakpoint refinement would exceed the panel budget."""


@dataclass(frozen=True)
class Observable:
    kind: str
    params: tuple = ()
    breakpoints: tuple[float, ...] = ()
    exact_integral: float | None = None


def frac_part() -> Observable:
    """x -> {x}."""
    return Observable("frac_part", breakpoints=(0.0,), exact_integral=0.5)


def power_of_frac(p: int) -> Observable:
    """x -> {x}**p."""
    p = operator.index(p)
    if p < 1:
        raise ValueError("power must be a positive integer")
    return Observable("power_of_frac", params=(p,), breakpoints=(0.0,),
                      exact_integral=1.0 / (p + 1))


def indicator(a: float, b: float) -> Observable:
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("indicator needs 0 <= a < b <= 1")
    return Observable("indicator", params=(float(a), float(b)),
                      breakpoints=(float(a),) + ((float(b),) if b < 1.0 else ()),
                      exact_integral=b - a)


def trig_poly(coeffs) -> Observable:
    """Finite sum of cos/sin harmonics; coeffs are (freq, cos_amp, sin_amp)."""
    coeffs = tuple((operator.index(k), float(c), float(s)) for k, c, s in coeffs)
    const = sum(c for k, c, s in coeffs if k == 0)
    return Observable("trig_poly", params=coeffs, exact_integral=const)


def constant(c: float) -> Observable:
    return trig_poly([(0, c, 0.0)])


def piecewise_linear(knots) -> Observable:
    """Linear interpolation between knots, wrapping back to the first knot
    at 1; the first knot must sit at position 0."""
    knots = tuple((float(p), float(v)) for p, v in knots)
    if not knots or knots[0][0] != 0.0:
        raise ValueError("first knot must be at position 0.0")
    pos = [p for p, _ in knots]
    if any(b <= a for a, b in zip(pos, pos[1:])) or pos[-1] >= 1.0:
        raise ValueError("knot positions must be strictly increasing in [0, 1)")
    xs = pos + [1.0]
    vs = [v for _, v in knots] + [knots[0][1]]
    integral = sum((x1 - x0) * (v0 + v1) / 2.0
                   for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]))
    return Observable("piecewise_linear", params=knots,
                      breakpoints=tuple(pos), exact_integral=integral)


def product(*factors: Observable) -> Observable:
    """Pointwise product wrapper; breakpoints are the union of the factors'."""
    if not 1 <= len(factors) <= MAX_PRODUCT_FACTORS:
        raise ValueError("product takes 1..8 factors")
    bps = sorted({b for f in factors for b in f.breakpoints})
    return Observable("product", params=tuple(factors), breakpoints=tuple(bps))


def evaluate_array(f: Observable, xs: np.ndarray) -> np.ndarray:
    if f.kind == "frac_part":
        return xs
    if f.kind == "power_of_frac":
        return xs ** f.params[0]
    if f.kind == "indicator":
        a, b = f.params
        return ((xs >= a) & (xs < b)).astype(np.float64)
    if f.kind == "trig_poly":
        out = np.zeros_like(xs)
        for k, c, s in f.params:
            if k == 0:
                out += c
            else:
                w = 2.0 * np.pi * k * xs
                out += c * np.cos(w) + s * np.sin(w)
        return out
    if f.kind == "piecewise_linear":
        xp = [p for p, _ in f.params] + [1.0]
        fp = [v for _, v in f.params] + [f.params[0][1]]
        return np.interp(xs, xp, fp)
    if f.kind == "product":
        out = evaluate_array(f.params[0], xs)
        for g in f.params[1:]:
            out = out * evaluate_array(g, xs)
        return out
    raise ValueError(f"unknown observable kind {f.kind!r}")


def evaluate(f: Observable, x) -> float:
    """Pointwise value at x (UnitPoint or float in [0, 1))."""
    v = x.value if isinstance(x, UnitPoint) else float(x)
    return float(evaluate_array(f, np.array([v]))[0])


def value_bounds(f: Observable):
    """Conservative (min, max) enclosure of the observable's range."""
    if f.kind in ("frac_part", "indicator"):
        return 0.0, 1.0
    if f.kind == "power_of_frac":
        return 0.0, 1.0
    if f.kind == "trig_poly":
        const = sum(c for k, c, _ in f.params if k == 0)
        amp = sum(math.hypot(c, s) for k, c, s in f.params if k != 0)
        return const - amp, const + amp
    if f.kind == "piecewise_linear":
        vs = [v for _, v in f.params]
        return min(vs), max(vs)
    if f.kind == "product":
        lo, hi = 1.0, 1.0
        for g in f.params:
            glo, ghi = value_bounds(g)
            corners = (lo * glo, lo * ghi, hi * glo, hi * ghi)
            lo, hi = min(corners), max(corners)
        return lo, hi
    raise ValueError(f"unknown observable kind {f.kind!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    panels: int = 4096
    nodes_per_panel: int = 8

    def __post_init__(self):
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("panels and nodes must be positive")
        if self.panels * self.nodes_per_panel > 1 << 24:
            raise ValueError("quadrature spec exceeds node budget")


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def integrate(fs, q: QuadratureSpec | None = None) -> float:
    """Integral over [0, 1] of the product of the given observables, by
    Gauss-Legendre panels split at every breakpoint."""
    fs = list(fs)
    if not 1 <= len(fs) <= MAX_PRODUCT_FACTORS:
        raise ValueError("integrate takes 1..8 observables")
    if q is None:
        q = QuadratureSpec()
    edges = {i / q.panels for i in range(q.panels + 1)}
    for f in fs:
        edges.update(b for b in f.breakpoints if 0.0 < b < 1.0)
    edges = np.array(sorted(edges))
    if len(edges) - 1 > _PANEL_BUDGET:
        raise QuadratureBudgetError(
            f"{len(edges) - 1} panels after refinement exceeds {_PANEL_BUDGET}")
    x, w = _gl_nodes(q.nodes_per_panel)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.ones_like(pts)
    for f in fs:
        vals *= evaluate_array(f, pts)
    wts = (half[:, None] * w[None, :]).ravel()
    return _dd.v_sum(vals * wts)


def periodic_orbit_mean(g: Observable, s: TransformSpec, x) -> float:
    """(1/k) sum_{r<k} g(S^r x) for a finite-order map S."""
    k = finite_order(s)
    x = UnitPoint.from_real(x)
    return math.fsum(evaluate(g, apply(s, x, r)) for r in range(k)) / k
