"""Seeded scenario generators for the three benchmark workloads.

Only the standard library is used, so generating inputs never imports the
package under test.  Every workload is a list of *rounds*.  A round fixes
the structure of its jobs (family size, observable kinds, harmonic counts,
periodic factor, and for `mixed` the transform and constant kinds); the
seed draws everything else: constants, observable parameters, x0, the
order of the round, and for `predict` the transform kinds.  A fixed
structure keeps the cost of a round, and the share of `mixed` families
that meet the oracle defects, nearly the same for every seed, so runs with
different seeds are comparable; the seed still decides which families are
exercised.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

N_MAX = 10 ** 6
OBS_KINDS = ("frac_part", "power_of_frac", "indicator", "trig_poly",
             "piecewise_linear")
TRANSFORM_KINDS = ("rotation", "rotation_power", "finite_rotation")
CONSTANT_KINDS = ("rational", "surd", "literal")

# mixed: 16 families per round, d = 1..4 four times each; every fourth
# family carries a periodic factor.
MIXED_ROUND = 16
MIXED_ROUNDS = 16
# predict: 1024 families per round, d = 1..8 equally often; the round is
# repeated for the whole run.  Predict jobs take milliseconds, so the round
# is large enough that the slowest families (several coupled groups, each
# needing quadrature) are sampled in stable proportion.
PREDICT_ROUND = 1024
# Small constant pool for predict, so members share constants and coupled
# groups (which need quadrature) are common.  The literals drive the
# relation search: sqrt2-1 is dependent on the surd sqrt2 (relation found),
# 0.25 is rational, and the golden-ratio literal is dependent on the surd
# golden ratio up to an integer.
PREDICT_POOL = (
    {"surd": {"a": 0, "b": 1, "m": 2}},
    {"surd": {"a": 0, "b": 1, "m": 3}},
    {"surd": {"a": "1/2", "b": "1/2", "m": 5}},
    {"rational": {"p": 1, "q": 3}},
    {"literal": 0.41421356237309503},
    {"literal": 0.25},
    {"literal": 0.6180339887498949},
)


def tolerance_rule(obs_bounds) -> float:
    """Tolerance of a generated family (it matters for `mixed` only):
    2e-3 times the product over all factors (members and periodic g) of
    max(|lo|, |hi|), where (lo, hi) is the value enclosure that
    observables.value_bounds gives at the seed commit."""
    return 2e-3 * math.prod(max(abs(lo), abs(hi)) for lo, hi in obs_bounds)


def _value_bounds(obs: dict):
    """Seed-state observables.value_bounds, restated here so the rule does
    not change when the package does."""
    kind = obs["kind"]
    if kind == "trig_poly":
        const = sum(c for k, c, _ in obs["coeffs"] if k == 0)
        amp = sum(math.hypot(c, s) for k, c, s in obs["coeffs"] if k != 0)
        return const - amp, const + amp
    if kind == "piecewise_linear":
        vs = [v for _, v in obs["knots"]]
        return min(vs), max(vs)
    return 0.0, 1.0


def _observable(rng: random.Random, kind: str, harmonics: int) -> dict:
    if kind == "frac_part":
        return {"kind": "frac_part"}
    if kind == "power_of_frac":
        return {"kind": "power_of_frac", "p": rng.randint(1, 4)}
    if kind == "indicator":
        a = round(rng.uniform(0.0, 0.8), 6)
        return {"kind": "indicator", "a": a,
                "b": round(a + rng.uniform(0.05, 1.0 - a), 6)}
    if kind == "trig_poly":
        coeffs = [[0, round(rng.uniform(-1, 1), 6), 0.0]]
        coeffs += [[k, round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]
                   for k in range(1, harmonics + 1)]
        return {"kind": "trig_poly", "coeffs": coeffs}
    knots = sorted({round(rng.uniform(0.01, 0.99), 6) for _ in range(3)})
    return {"kind": "piecewise_linear",
            "knots": [[0.0, round(rng.uniform(-1, 1), 6)]]
                     + [[p, round(rng.uniform(-1, 1), 6)] for p in knots]}


def _constant(rng: random.Random, kind: str) -> dict:
    if kind == "rational":
        q = rng.randint(2, 12)
        return {"rational": {"p": rng.randrange(1, q), "q": q}}
    if kind == "surd":
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        b = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        return {"surd": {"a": str(a), "b": str(b),
                         "m": rng.choice((2, 3, 5, 6, 7))}}
    return {"literal": rng.random()}


def _transform(rng: random.Random, kind: str, alpha: dict) -> dict:
    if kind == "rotation":
        return {"kind": "rotation", "alpha": alpha}
    if kind == "rotation_power":
        return {"kind": "rotation_power", "alpha": alpha, "p": rng.randint(1, 4)}
    return {"kind": "finite_rotation", "q": rng.randint(2, 12)}


def _family_scenario(rng, name, slot, members, periodic, n_max) -> dict:
    """One average-job scenario; ``slot`` fixes the observable kinds."""
    d = len(members)
    obs = [_observable(rng, OBS_KINDS[(slot + j) % 5], 1 + (slot + j) % 6)
           for j in range(d)]
    sc = {"name": name, "job": "average", "family": members,
          "observables": obs, "x0": round(rng.random(), 9),
          "schedule": {"n_max": n_max}}
    factors = list(obs)
    if periodic:
        g = _observable(rng, OBS_KINDS[(slot + 2) % 5], 1 + slot % 6)
        sc["periodic"] = {"g": g, "k": rng.randint(2, 7)}
        factors.append(g)
    sc["tolerance"] = tolerance_rule(_value_bounds(f) for f in factors)
    return sc


def mixed(rng: random.Random, n_max: int = N_MAX) -> list[list[dict]]:
    """Rounds of random average families at workers = 1 spanning the whole
    scenario format.

    Round r, slot s fixes the kinds: member j is transform kind
    (s + j + r) mod 3 on constant j mod 2 of the family's two-constant
    pool, whose kinds are (s + r) mod 3 and (2s + r) mod 3.  Members 0 and
    2 therefore share a constant (repeated and same-radicand members), and
    the share of each kind, which decides how many families meet the
    oracle defects, is the same for every seed.  The values are drawn.
    """
    rounds = []
    for r in range(MIXED_ROUNDS):
        deck = []
        for slot in range(MIXED_ROUND):
            pool = [_constant(rng, CONSTANT_KINDS[(slot * (i + 1) + r) % 3])
                    for i in range(2)]
            members = [_transform(rng, TRANSFORM_KINDS[(slot + j + r) % 3],
                                  pool[j % 2])
                       for j in range(1 + slot // 4)]
            deck.append(_family_scenario(rng, f"mixed-{r:02d}-{slot:02d}",
                                         slot, members, slot % 4 == 3, n_max))
        rng.shuffle(deck)
        rounds.append(deck)
    return rounds


def predict(rng: random.Random, n_max: int = N_MAX) -> list[list[dict]]:
    """One round of families with d = 1..8 over a small constant pool."""
    deck = []
    for slot in range(PREDICT_ROUND):
        members = []
        for _ in range(1 + slot % 8):
            alpha = rng.choice(PREDICT_POOL)
            members.append(_transform(rng, rng.choice(TRANSFORM_KINDS), alpha))
        deck.append(_family_scenario(rng, f"predict-{slot:04d}", slot, members,
                                     slot % 3 == 0, n_max))
    rng.shuffle(deck)
    return [deck]


def shipped(rng: random.Random, n_max: int = N_MAX) -> list[list[dict]]:
    """The six shipped scenarios at workers = 2, order and x0 from the seed."""
    here = Path(__file__).resolve().parent / "shipped"
    deck = []
    for path in sorted(here.glob("*.json")):
        sc = json.loads(path.read_text())
        sc["x0"] = round(rng.random(), 9)
        sc["workers"] = 2
        sc["schedule"] = {"n_max": n_max}
        deck.append(sc)
    rng.shuffle(deck)
    return [deck]


WORKLOADS = {"shipped": shipped, "mixed": mixed, "predict": predict}
