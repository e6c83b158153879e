"""Batch experiment runner.

Parses JSON scenario files, executes the corresponding average job, runs
the limit-prediction comparison, and writes a CSV trace plus a JSON report.
``torusavg verify`` reproduces the built-in verification table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import dynsys, engine, observables, oracle
from .engine import Schedule
from .observables import Observable, integrate
from .oracle import Prediction, compare, predict, predict_intersection
from .unitmath import ScalarConstant, frac

# each job and the indicator keys it reads: an intersection job pulls back
# one key per member, and its last key stays put
JOBS = {"average": "", "correlation": "AB", "triple": "ABC"}
# n_max * prod_i max(1, max|f_i|) stays below this, so that every term,
# every partial product of the factors and every sum of terms is finite
MAX_SCALE = 2.0 ** 1023


class ScenarioError(ValueError):
    """Carries every validation failure found in a scenario file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    job: str
    family: tuple[ScalarConstant, ...]
    observables: tuple[Observable, ...]
    x0: float
    schedule: Schedule
    indicators: tuple[Observable, ...]
    tolerance: float
    expected_override: float | None


# ---------------------------------------------------------------------------
# scenario decoding
#
# A kind table maps each kind to its public constructor and the
# constructor's parameters as (name, type, default).  A type is a JSON type
# name, "fraction" (an integer or a 'p/q' string), [t] for an array of t, a
# tuple of types for a fixed-length array, a kind table for a nested record,
# or a decoder function.  The decoder checks JSON types itself (an integer
# is never a bool or a float; a number is never a bool, and is at most
# sys.float_info.max in magnitude, so 10**400 and 1e400, which json reads as
# inf, are refused alike) and leaves value ranges to the constructors.

_REQUIRED = object()
_FRACTION = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")
_JSON_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max),
    "string": lambda v: isinstance(v, str),
    "fraction": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                           or isinstance(v, str)
                           and _FRACTION.fullmatch(v) is not None),
}

# Constants are tagged by their only key, {"surd": {"m": 2}}; the body of a
# literal is the number itself, {"literal": 0.5}.
CONSTANTS = {
    "rational": (ScalarConstant.rational,
                 (("p", "integer", _REQUIRED), ("q", "integer", 1))),
    "surd": (ScalarConstant.surd,
             (("a", "fraction", 0), ("b", "fraction", 1),
              ("m", "integer", _REQUIRED))),
    "literal": (ScalarConstant.literal, "number"),
}


def _unlabelled(make):
    """make, with a transform's "label" field decoded and dropped."""
    return lambda label, **args: make(**args)


_LABEL = ("label", "string", "")
# Transforms and observables are tagged by their "kind" field.
TRANSFORMS = {
    "rotation": (_unlabelled(dynsys.rotation),
                 (("alpha", CONSTANTS, _REQUIRED), _LABEL)),
    "rotation_power": (_unlabelled(dynsys.rotation_power),
                       (("alpha", CONSTANTS, _REQUIRED),
                        ("p", "integer", _REQUIRED), _LABEL)),
    "finite_rotation": (_unlabelled(dynsys.finite_rotation),
                        (("q", "integer", _REQUIRED), _LABEL)),
}
OBSERVABLES = {
    "frac_part": (observables.frac_part, ()),
    "power_of_frac": (observables.power_of_frac, (("p", "integer", _REQUIRED),)),
    "indicator": (observables.indicator,
                  (("a", "number", _REQUIRED), ("b", "number", _REQUIRED))),
    "trig_poly": (observables.trig_poly,
                  (("coeffs", [("integer", "number", "number")], _REQUIRED),)),
    "piecewise_linear": (observables.piecewise_linear,
                         (("knots", [("number", "number")], _REQUIRED),)),
}
_INDICATOR = {"indicator": OBSERVABLES["indicator"]}


def _at(path, key):
    return f"{path}.{key}" if path else key


def _typed(v, typ, path, errs):
    """v decoded as typ, or None after logging why not."""
    if isinstance(typ, dict):
        return _tagged(typ, v, path, errs)
    if callable(typ):
        return typ(v, path, errs)
    if isinstance(typ, str):
        if _JSON_TYPES[typ](v):
            return v
        errs.append(f"{path}: expected {typ}, got {v!r}")
        return None
    # [t] is an array of t; a tuple of types is an array of that length
    if isinstance(v, list) and (isinstance(typ, list) or len(v) == len(typ)):
        types = typ * len(v) if isinstance(typ, list) else typ
        n = len(errs)
        out = [_typed(x, t, f"{path}[{i}]", errs)
               for i, (x, t) in enumerate(zip(v, types))]
        return out if len(errs) == n else None
    length = f" of {len(typ)}" if isinstance(typ, tuple) else ""
    errs.append(f"{path}: expected an array{length}, got {v!r}")
    return None


def _tagged(table, v, path, errs):
    """One record of a kind table."""
    kind = body = None
    if isinstance(v, dict) and table is CONSTANTS:
        if len(v) == 1:
            (kind, body), = v.items()
    elif isinstance(v, dict):
        kind = v.get("kind")
        body = {k: x for k, x in v.items() if k != "kind"}
    if not isinstance(kind, str) or kind not in table:
        errs.append(f"{path}: expected a {' | '.join(table)} record, got {v!r}")
        return None
    make, fields = table[kind]
    if table is CONSTANTS:
        path = f"{path}.{kind}"
    if isinstance(fields, str):  # the body is the value itself
        value = _typed(body, fields, path, errs)
        return None if value is None else _call(lambda: make(value), path, errs)
    return _record(make, fields, body, path, errs)


def _record(make, fields, body, path, errs):
    """make(**fields decoded from the JSON object body), or None after
    logging why not; keys that are not fields are errors."""
    if not isinstance(body, dict):
        errs.append(f"{path}: expected an object, got {body!r}")
        return None
    n = len(errs)
    names = [name for name, _, _ in fields]
    errs.extend(f"{_at(path, k)}: unknown field" for k in body if k not in names)
    args = {}
    for name, typ, default in fields:
        if name in body:
            args[name] = _typed(body[name], typ, _at(path, name), errs)
        elif default is _REQUIRED:
            errs.append(f"{_at(path, name)}: required")
        else:
            args[name] = default
    return _call(lambda: make(**args), path, errs) if len(errs) == n else None


def _call(build, path, errs):
    try:
        return build()
    except (ValueError, OverflowError) as exc:
        errs.append(f"{path}: {exc}")
        return None


def _schedule(v, path, errs):
    """Either {"checkpoints": [...]} or {"n_max": N, "ratio": r}."""
    if isinstance(v, dict) and "checkpoints" in v:
        return _record(lambda checkpoints: Schedule(tuple(checkpoints)),
                       (("checkpoints", ["integer"], _REQUIRED),), v, path, errs)
    return _record(Schedule.geometric,
                   (("n_max", "integer", _REQUIRED),
                    ("ratio", "number", 10.0 ** 0.125)), v, path, errs)


def _periodic(v, path, errs):
    return _record(lambda g, k: (g, dynsys.finite_rotation(k)),
                   (("g", OBSERVABLES, _REQUIRED), ("k", "integer", _REQUIRED)),
                   v, path, errs)


def _indicators(v, path, errs):
    return _record(lambda **named: named,
                   tuple((key, _INDICATOR, None) for key in "ABC"), v, path, errs)


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


_SCENARIO_KEYS = ("name", "job", "family", "observables", "x0", "schedule",
                  "periodic", "indicators", "tolerance", "workers",
                  "expected_override")


def parse_scenario(text) -> Scenario:
    """Parse and fully validate a scenario; raises ScenarioError listing
    every violation found, not just the first."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:
        raise ScenarioError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(obj, dict):
        raise ScenarioError(["top level must be an object"])
    errs = [f"unknown field {key!r}" for key in obj if key not in _SCENARIO_KEYS]

    def get(key, typ, default=_REQUIRED):
        if key in obj:
            return _typed(obj[key], typ, key, errs)
        if default is _REQUIRED:
            errs.append(f"{key}: required")
            return None
        return default

    def size(key, lo, hi):
        """Length of a list-valued field, checked against [lo, hi]."""
        v = obj.get(key)
        if isinstance(v, list) and not lo <= len(v) <= hi:
            errs.append(f"{key}: need {lo} to {hi} entries, got {len(v)}")
        return len(v) if isinstance(v, list) else None

    name = get("name", "string")
    if name == "":
        errs.append("name: required nonempty string")
    elif name in (".", "..") or set(name or "") & {"/", "\\", "\0"}:
        errs.append(f"name: {name!r} is not a file name: no '/', '\\' or NUL, "
                    "and not '.' or '..'")
    job = get("job", "string", "average")
    if job is not None and job not in JOBS:
        errs.append(f"job: must be one of {tuple(JOBS)}, got {job!r}")
    family = get("family", [TRANSFORMS])
    d = size("family", 1, dynsys.MAX_FAMILY_SIZE)
    obs = get("observables", [OBSERVABLES], None)
    n_obs = size("observables", 1, dynsys.MAX_FAMILY_SIZE)
    indicators = get("indicators", _indicators, None)
    x0 = get("x0", "number", 0.0)
    if x0 is not None and not 0 <= x0 < 1:
        errs.append(f"x0: must be a real in [0, 1), got {x0!r}")
    schedule = get("schedule", _schedule)
    periodic = get("periodic", _periodic, None)
    tol = get("tolerance", "number")
    if tol is not None and not tol > 0:
        errs.append(f"tolerance: must be a positive real, got {tol!r}")
    # accepted for older scenario files; blocks run in one thread
    workers = get("workers", "integer", 1)
    if workers is not None and workers < 1:
        errs.append(f"workers: must be a positive integer, got {workers!r}")
    override = get("expected_override", "number", None)

    want = JOBS.get(job, "")
    if want:
        if d is not None and d != len(want) - 1:
            errs.append(f"family: {job} jobs need exactly {len(want) - 1} "
                        f"transform(s), got {d}")
        if "indicators" not in obj:
            errs.append(f"indicators: required for {job} jobs")
        elif indicators is not None:
            errs.extend(f"indicators.{key}: required for {job} jobs"
                        for key in want if indicators[key] is None)
            if "C" not in want and indicators["C"] is not None:
                errs.append("indicators.C: only valid for triple jobs")
        errs.extend(f"{key}: only valid for average jobs"
                    for key in ("observables", "periodic") if key in obj)
    elif "observables" not in obj:
        errs.append("observables: required nonempty list for average jobs")
    elif None not in (d, n_obs) and d != n_obs:
        errs.append(f"observables: length {n_obs} does not match family "
                    f"length {d}")
    if not want and "indicators" in obj:
        errs.append("indicators: only valid for correlation and triple jobs")

    if errs:
        raise ScenarioError(errs)
    if not want:
        indicators = ()
        if periodic is not None:  # one more member, the finite rotation
            g, s_map = periodic
            family, obs = family + [s_map], obs + [g]
        scale = schedule.checkpoints[-1] * math.prod(
            max(1.0, *map(abs, f.bounds)) for f in obs)
        if not scale < MAX_SCALE:
            raise ScenarioError([
                f"observables: n_max times the product of each factor's "
                f"largest |value| (taken as at least 1) must be below "
                f"2**1023, got {scale:.4g}"])
    else:
        obs, indicators = (), tuple(indicators[key] for key in want)
    return Scenario(name, job, tuple(family), tuple(obs), float(x0), schedule,
                    indicators, float(tol),
                    None if override is None else float(override))


# ---------------------------------------------------------------------------
# execution


def _prediction_for(sc: Scenario) -> Prediction:
    if sc.indicators:
        return predict_intersection(sc.family, sc.indicators)
    return predict(sc.family, sc.observables, sc.x0)


def _prediction_json(pred: Prediction) -> dict:
    return {"value": pred.value, "applicable": pred.applicable,
            "caveats": list(pred.caveats),
            "derivation": [dataclasses.asdict(f) for f in pred.derivation]}


def _trace_for(sc: Scenario):
    if sc.indicators:
        return engine.intersection_average(sc.family, sc.indicators,
                                           sc.schedule)
    return engine.multiple_average(sc.family, sc.observables, sc.x0,
                                   sc.schedule)


def trace_csv(trace) -> str:
    lines = ["N,value,est_tail"]
    prev = None
    for n, v in zip(trace.schedule.checkpoints, trace.values):
        tail = 0.0 if prev is None else abs(v - prev)
        lines.append(f"{n},{v!r},{tail!r}")
        prev = v
    return "\n".join(lines) + "\n"


def run_scenario(sc: Scenario, outdir=".") -> int:
    """Execute a scenario, write <name>.trace.csv and <name>.report.json,
    and return the process exit status."""
    pred = _prediction_for(sc)
    if sc.expected_override is not None:  # compared whatever the oracle said
        pred = dataclasses.replace(pred, value=sc.expected_override)
    trace = _trace_for(sc)
    report = {
        "name": sc.name,
        "job": sc.job,
        "n_max": sc.schedule.checkpoints[-1],
        "prediction": _prediction_json(pred),
        "measured": trace.final,
        "est_tail": trace.est_tail,
        "tolerance": sc.tolerance,
    }
    if pred.value is not None:
        rep = compare(pred, trace, sc.tolerance)
        report["final_error"] = rep.final_error
        report["passed"] = rep.passed
        status = 0 if rep.passed else 1
    else:
        report["final_error"] = None
        report["passed"] = None
        status = 0
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{sc.name}.trace.csv").write_text(trace_csv(trace))
        (outdir / f"{sc.name}.report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error writing artifacts: {exc}", file=sys.stderr)
        return 2
    return status


# ---------------------------------------------------------------------------
# verification table
#
# Each criterion takes (schedule, tol_scale) and returns its rows.
# ``torusavg verify`` prints the whole table and tests/test_acceptance.py
# asserts it, so the checks and their expected values live here only.
# tol_scale relaxes only the finite-N statistical tolerances, never the
# exact identities.


_SQRT2 = ScalarConstant.surd(0, 1, 2)
_SQRT3 = ScalarConstant.surd(0, 1, 3)
_R2 = dynsys.rotation(_SQRT2)
_R3 = dynsys.rotation(_SQRT3)
_FP = observables.frac_part()


def _row(name, measured, expected, tol):
    return {"name": name, "measured": measured, "expected": expected,
            "tol": tol, "passed": abs(measured - expected) <= tol}


def distinct_rotations(sched, tol_scale):
    fam = (_R2, _R3)
    return [_row(f"distinct-rotations x0={x0}",
                 engine.multiple_average(fam, [_FP, _FP], x0, sched).final,
                 0.25, 2e-3 * tol_scale) for x0 in (0.0, 0.3, 0.77)]


def repeated_rotation(sched, tol_scale):
    fam = (_R2, _R2)
    return [_row(f"repeated-rotation x0={x0}",
                 engine.multiple_average(fam, [_FP, _FP], x0, sched).final,
                 1 / 3, 2e-3 * tol_scale) for x0 in (0.0, 0.3, 0.77)]


def periodic_factor(sched, tol_scale):
    return [_row(f"periodic-factor k={k} x0={x0}",
                 engine.multiple_average((_R2, dynsys.finite_rotation(k)),
                                         (_FP, _FP), x0, sched).final,
                 frac(k * x0) / (2 * k) + (k - 1) / (4 * k), 2e-3 * tol_scale)
            for k in (2, 3, 5) for x0 in (0.1, 0.37)]


def birkhoff_frac_part(sched, tol_scale):
    tr = engine.multiple_average((_R2,), (_FP,), 0.3, sched)
    return [_row("birkhoff frac-part", tr.final, 0.5, 1e-3 * tol_scale)]


def shifted_frac_identity(sched, tol_scale):
    # predict averages {x0 + r/k} over r < k for the finite member, and
    # sum_{r<k} {x + r/k} = {kx} + (k - 1)/2 gives the closed form
    xs = [i / 20 for i in range(20)] + [1 / 3, 0.37, 1.0 - 2.0 ** -53]
    worst = max(abs(predict((_R2, dynsys.finite_rotation(k)), (_FP, _FP),
                            x0).value
                    - (frac(k * x0) / (2 * k) + (k - 1) / (4 * k)))
                for k in range(1, 65) for x0 in xs)
    return [_row("shifted-frac identity in predict (max dev)", worst, 0.0,
                 1e-12)]


def correlation_diagnostic(sched, tol_scale):
    A, B = observables.indicator(0.0, 0.3), observables.indicator(0.2, 0.7)
    tr = engine.intersection_average((_R2,), (A, B), sched)
    # refutation path: the identity map keeps len(A n B) = 0.5, far from the
    # product 0.25 that an ergodic limit would demand
    half = observables.indicator(0.0, 0.5)
    ctl = engine.intersection_average((dynsys.identity(),), (half,) * 2, sched)
    return [_row("correlation sqrt2", tr.final, 0.15, 5e-3 * tol_scale),
            _row("identity-map control (non-ergodic)", ctl.final, 0.5, 1e-12)]


def triple_intersection(sched, tol_scale):
    half = observables.indicator(0.0, 0.5)
    tr = engine.intersection_average((_R2, _R3), (half,) * 3, sched)
    return [_row("triple intersection", tr.final, 0.125, 5e-3 * tol_scale)]


def _random_member(rng, radicands):
    """A rotation by a surd with a rational part, a power of a surd rotation,
    or a finite rotation; surds draw from the family's radicands."""
    m = rng.choice(radicands)
    return rng.choice((
        lambda: dynsys.rotation(ScalarConstant.surd(
            rng.choice((0, "1/2", "1/3")), rng.choice((1, -1, "1/2")), m)),
        lambda: dynsys.rotation_power(ScalarConstant.surd(0, 1, m),
                                      rng.randint(1, 3)),
        lambda: dynsys.finite_rotation(rng.randint(2, 4))))()


def randomized_oracle_cross_validation(sched, tol_scale):
    rng = random.Random(20240824)
    worst = 0.0
    for _ in range(10):
        radicands = rng.sample((2, 3, 5), 2)
        fam = tuple(_random_member(rng, radicands)
                    for _ in range(rng.choice((2, 3))))
        fs = [observables.trig_poly(
            [(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(6)])
            for _ in fam]
        for x0 in (rng.random(), rng.random()):
            pred = predict(fam, fs, x0)
            tr = engine.multiple_average(fam, fs, x0, sched)
            worst = max(worst, abs(tr.final - pred.value) if pred.applicable
                        else math.inf)
    return [_row("randomized oracle cross-validation (max dev)", worst, 0.0,
                 5e-3 * tol_scale)]


def _random_observable(rng):
    """One of the five kinds, drawn uniformly, with random parameters."""
    def indicator():
        a = rng.uniform(0.0, 0.8)
        return observables.indicator(a, a + rng.uniform(0.05, 1.0 - a))

    def piecewise_linear():
        knots = sorted(rng.uniform(0.01, 0.99) for _ in range(3))
        return observables.piecewise_linear(
            [(0.0, rng.uniform(-1, 1))] + [(p, rng.uniform(-1, 1)) for p in knots])

    return rng.choice((
        observables.frac_part,
        lambda: observables.power_of_frac(rng.randint(1, 4)),
        indicator,
        lambda: observables.trig_poly(
            [(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(4)]),
        piecewise_linear))()


def group_collapse_equivalence(sched, tol_scale):
    rng = random.Random(99)
    worst = 0.0
    for _ in range(50):
        f1, f2 = _random_observable(rng), _random_observable(rng)
        p_pair = predict((_R2, _R2), (f1, f2))
        p_prod = predict((_R2,), (observables.product(f1, f2),))
        worst = max(worst, abs(p_pair.value - p_prod.value))
    return [_row("group-collapse equivalence (max dev)", worst, 0.0, 1e-12)]


def repeat_run_determinism(sched, tol_scale):
    jobs = (
        lambda: engine.multiple_average((_R2, _R3), (_FP, _FP), 0.3, sched),
        lambda: engine.multiple_average((_R2, _R2), (_FP, _FP), 0.3, sched),
        lambda: engine.multiple_average((_R2, dynsys.finite_rotation(3)),
                                        (_FP, _FP), 0.37, sched),
    )
    repeats = all(job().values == job().values for job in jobs)
    return [_row("repeat-run determinism", 0.0 if repeats else 1.0, 0.0, 0.0)]


def weyl_form_resolution(sched, tol_scale):
    cases = (
        ("weyl form literal 0.5 -> a = 1/2",
         [dynsys.rotation(ScalarConstant.literal(0.5))],
         (oracle.WeylTerm(Fraction(1, 2), 0, 1),)),
        ("weyl form (sqrt2, sqrt8) -> c = (1, 2) over sqrt2",
         [_R2, dynsys.rotation(ScalarConstant.surd(0, 1, 8))],
         (oracle.WeylTerm(0, 1, 2), oracle.WeylTerm(0, 2, 2))),
        ("weyl form (sqrt2, sqrt3) -> distinct radicands", [_R2, _R3],
         (oracle.WeylTerm(0, 1, 2), oracle.WeylTerm(0, 1, 3))),
    )
    return [_row(name, 0.0 if oracle.weyl_form(specs) == want else 1.0,
                 0.0, 0.0) for name, specs, want in cases]


def quadrature(sched, tol_scale):
    return [_row("quadrature int {x}", integrate([_FP]), 0.5, 1e-12),
            _row("quadrature int {x}^2", integrate([_FP, _FP]), 1 / 3, 1e-12)]


CRITERIA = (distinct_rotations, repeated_rotation, periodic_factor,
            birkhoff_frac_part, shifted_frac_identity, correlation_diagnostic,
            triple_intersection, randomized_oracle_cross_validation,
            group_collapse_equivalence, repeat_run_determinism,
            weyl_form_resolution, quadrature)


def verify_builtin(n_max: int = 10 ** 6, tol_scale: float = 1.0):
    """Run the verification table; returns (rows, all_passed)."""
    sched = Schedule.geometric(n_max)
    rows = [row for criterion in CRITERIA
            for row in criterion(sched, tol_scale)]
    return rows, all(r["passed"] for r in rows)


def print_rows(rows):
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"{mark}  {r['name']:<{width}}  measured={r['measured']:< .12g} "
              f"expected={r['expected']:< .12g} tol={r['tol']:.1e}")


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusavg",
        description="Diagonal ergodic averages on the circle: run scenario "
                    "files, predict limits, verify the built-in suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--outdir", default=".", help="artifact directory")

    p_pred = sub.add_parser("predict", help="print the oracle prediction only")
    p_pred.add_argument("scenario")

    p_ver = sub.add_parser("verify", help="run the built-in verification suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="N=1e5 with 3x relaxed tolerances")
    p_ver.add_argument("--nmax", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command in ("run", "predict"):
        try:
            sc = parse_scenario(Path(args.scenario).read_bytes())
        except OSError as exc:
            print(f"cannot read scenario: {exc}", file=sys.stderr)
            return 2
        except ScenarioError as exc:
            print("scenario is invalid:", file=sys.stderr)
            for e in exc.errors:
                print(f"  - {e}", file=sys.stderr)
            return 2
        if args.command == "predict":
            pred = _prediction_for(sc)
            print(json.dumps({"name": sc.name, **_prediction_json(pred)},
                             indent=2, sort_keys=True))
            return 0
        return run_scenario(sc, args.outdir)

    n_max = args.nmax if args.nmax is not None else (10 ** 5 if args.quick
                                                     else 10 ** 6)
    if not 1 <= n_max <= engine.MAX_N:
        print(f"--nmax must be in [1, {engine.MAX_N}], got {n_max}",
              file=sys.stderr)
        return 2
    tol_scale = 3.0 if args.quick else 1.0
    rows, ok = verify_builtin(n_max=n_max, tol_scale=tol_scale)
    print_rows(rows)
    print(f"{sum(r['passed'] for r in rows)}/{len(rows)} checks passed "
          f"at N={n_max}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
