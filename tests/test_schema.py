"""The shipped JSON schema and ``parse_scenario`` accept the same scenarios.

Generated documents mix well-formed fields with mistyped, missing and unknown
ones.  A few rules relate several fields, so JSON Schema cannot state them
(the schema's description lists them); the parser must refuse every
document that breaks one, and on all other documents the two must agree.
"""

import json
import math
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusavg.cli import JOBS, ScenarioError, parse_scenario
from torusavg.engine import MAX_N, MIN_RATIO, _orbit, _orbit_block
from torusavg.observables import MAX_FREQUENCY, MAX_POWER
from torusavg.oracle import predict
from torusavg.unitmath import MAX_RADICAND, UnitPoint

SCENARIOS = resources.files("torusavg") / "scenarios"
SCHEMA = json.loads((SCENARIOS / "scenario.schema.json").read_text())
# JSON Schema counts 1.0 as an integer; scenario integers are integer
# literals, as the schema's description says.
Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))


def test_shipped_scenarios_match_schema():
    Validator.check_schema(SCHEMA)
    names = [p.name for p in SCENARIOS.iterdir() if p.name.endswith(".json")
             and p.name != "scenario.schema.json"]
    assert len(names) >= 6
    for n in names:
        jsonschema.validate(json.loads((SCENARIOS / n).read_text()), SCHEMA,
                            cls=Validator)


@pytest.mark.parametrize("name, key, donor", [
    ("correlation-sqrt2", "indicators", "triple-intersection"),
    ("birkhoff-frac-part", "indicators", "triple-intersection"),
    ("triple-intersection", "observables", "distinct-rotations"),
])
def test_fields_the_job_does_not_read_are_refused(name, key, donor):
    # a shipped scenario with another's field that its job does not read
    # (for correlation-sqrt2, indicator C); generated documents draw these
    # rarely, so each case is also checked here
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc[key] = json.loads((SCENARIOS / f"{donor}.json").read_text())[key]
    assert not Validator(SCHEMA).is_valid(doc)
    with pytest.raises(ScenarioError, match="only valid"):
        parse_scenario(json.dumps(doc))


def test_benchmark_inputs_parse_at_any_worker_count():
    # the benchmark writes "workers": 2 into its shipped jobs and 1 into
    # their check variants; the field is validated and has no effect
    here = Path(__file__).resolve().parents[1] / "perfbench" / "shipped"
    paths = sorted(here.glob("*.json"))
    assert len(paths) == 6
    for path in paths:
        doc = json.loads(path.read_text())
        parsed = []
        for workers in (1, 2):
            doc["workers"] = workers
            parsed.append(parse_scenario(json.dumps(doc)))
        assert parsed[0] == parsed[1], path.name
        doc["workers"] = 0
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))


# ---------------------------------------------------------------------------
# generated documents


def rarely(good, bad, one_in=25):
    # the simplest draw, 0, picks good: hypothesis falls back to simplest
    # draws when an example grows large
    return st.integers(0, one_in - 1).flatmap(
        lambda i: bad if i == one_in - 1 else good)


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-1, 2),
                 st.sampled_from([0.5, 2.5, 1000.9, 3.0, -1.5]),
                 st.sampled_from(["", "x", "1", "1/2"]), st.just([]),
                 st.just({}))


def typo(good):
    """good, now and then replaced by a value of some other JSON type."""
    return rarely(good, JUNK)


def record(required, optional=None):
    """A JSON object; now and then keys go missing or an unknown one joins."""
    req = {k: typo(v) for k, v in required.items()}
    opt = {k: typo(v) for k, v in (optional or {}).items()}
    return rarely(st.fixed_dictionaries(req, optional=opt),
                  st.fixed_dictionaries({}, optional={**req, **opt,
                                                      "extra": JUNK}))


def row(*types):
    return rarely(st.tuples(*map(typo, types)).map(list),
                  st.lists(st.integers(0, 2), max_size=4))


COUNT = rarely(st.integers(1, 12), st.integers(-1, 0))
RADICAND = st.one_of(COUNT, st.sampled_from([MAX_RADICAND, MAX_RADICAND + 1]))
POWER = st.one_of(COUNT, st.sampled_from([MAX_POWER, MAX_POWER + 1, 10 ** 400]))
FREQUENCY = st.one_of(st.integers(-3, 6), st.sampled_from(
    [MAX_FREQUENCY, -MAX_FREQUENCY, MAX_FREQUENCY + 1, -MAX_FREQUENCY - 1]))
# numbers beyond float range, which the schema's real and the parser refuse
HUGE = st.sampled_from([10 ** 400, -10 ** 400])
UNIT = rarely(st.floats(0, 1, exclude_max=True),
              st.one_of(st.floats(-0.25, 1.25), HUGE))
NUM = rarely(st.one_of(st.floats(-2, 2), st.integers(-2, 2)), HUGE)
FRACTION = st.one_of(st.integers(-3, 3), rarely(
    st.sampled_from(["1/2", "-3/4", "7"]),
    st.sampled_from(["2/0", "0.5", "abc", "", "1/2/3", "+1", " 1"]), 3))
constant = rarely(st.one_of(
    st.fixed_dictionaries({"rational": record({"p": st.integers(-3, 3)},
                                              {"q": COUNT})}),
    st.fixed_dictionaries({"surd": record({"m": RADICAND},
                                          {"a": FRACTION, "b": FRACTION})}),
    st.fixed_dictionaries({"literal": typo(NUM)})),
    st.just({"rational": {"p": 1}, "literal": 0.5}))
label = {"label": st.sampled_from(["", "R"])}
transform = st.one_of(
    record({"kind": st.just("rotation"), "alpha": constant}, label),
    record({"kind": st.just("rotation_power"), "alpha": constant, "p": COUNT},
           label),
    record({"kind": st.just("finite_rotation"), "q": COUNT}, label))
knots = rarely(
    st.tuples(st.lists(st.floats(0.01, 0.99), unique=True, max_size=2),
              st.lists(NUM, min_size=3, max_size=3)).map(
        lambda t: [[p, v] for p, v in zip([0.0, *sorted(t[0])], t[1])]),
    st.lists(row(UNIT, NUM), max_size=3), 8)
indicator = rarely(
    st.tuples(st.floats(0, 0.5), st.floats(0.5, 1)).flatmap(
        lambda ab: record({"kind": st.just("indicator"), "a": st.just(ab[0]),
                           "b": st.just(ab[1])})),
    record({"kind": st.just("indicator"), "a": UNIT, "b": UNIT}), 8)
observable = st.one_of(
    record({"kind": st.just("frac_part")}),
    record({"kind": st.just("power_of_frac"), "p": POWER}),
    indicator,
    record({"kind": st.just("trig_poly"),
            "coeffs": st.lists(row(FREQUENCY, NUM, NUM),
                               max_size=3)}),
    record({"kind": st.just("piecewise_linear"), "knots": knots}))
# Ratios from the floor upward, plus the floor, the float just below it,
# a few values far below and one beyond float range.
ratio = st.one_of(st.floats(MIN_RATIO, 1e308),
                  st.sampled_from([MIN_RATIO, math.nextafter(MIN_RATIO, 0),
                                   0.5, 1, 10 ** 400]))
schedule = rarely(st.one_of(
    record({"n_max": rarely(st.integers(1, 10 ** 6), st.sampled_from(
        [-1, 0, 2 ** 53, 2 ** 53 + 1]))}, {"ratio": ratio}),
    record({"checkpoints": rarely(
        st.lists(st.integers(1, 10 ** 6), unique=True, min_size=1,
                 max_size=3).map(sorted),
        st.lists(st.one_of(st.integers(-1, 3), st.just(2 ** 53 + 1)),
                 max_size=3), 8)})),
    st.just({"n_max": 100, "checkpoints": [100]}))


@st.composite
def scenario(draw):
    job = draw(rarely(st.sampled_from(tuple(JOBS)), st.just("other")))
    # an intersection job has one member fewer than its indicator keys
    keys = JOBS.get(job)
    d = len(keys) - 1 if keys else draw(st.integers(1, 3))
    want = keys or "ABC"
    family = draw(rarely(st.lists(transform, min_size=d, max_size=d),
                         st.lists(transform, max_size=9), 8))
    obs = draw(rarely(st.lists(observable, min_size=d, max_size=d),
                      st.lists(observable, max_size=9), 8))
    indicators = record({key: indicator for key in want})
    periodic = record({"g": observable, "k": COUNT})
    # now and then, fields that the job does not read, which both refuse
    stray = {"indicators": record({key: indicator for key in "ABC"})}
    required = {"name": rarely(st.just("s"), st.sampled_from(
                    ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b", "..."])),
                "family": st.just(family), "schedule": schedule,
                "tolerance": rarely(st.floats(1e-3, 1),
                                    st.one_of(st.floats(-0.5, 0), HUGE))}
    optional = {"x0": UNIT, "workers": COUNT, "expected_override": NUM}
    if job == "average":
        required["observables"] = st.just(obs)
        optional.update(job=st.just(job), periodic=periodic)
    else:
        required.update(job=st.just(job), indicators=indicators)
        stray.update(observables=st.just(obs), periodic=periodic)
    return {**draw(record(required, optional)), **draw(rarely(
        st.just({}), st.fixed_dictionaries({}, optional=stray), 8))}


def _nodes(node):
    yield node
    children = node.values() if isinstance(node, dict) else (
        node if isinstance(node, list) else ())
    for child in children:
        yield from _nodes(child)


def _number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _breaks_cross_field_rule(doc) -> bool:
    """Indicator a < b; an average job has as many observables as
    transforms; checkpoints strictly increase; knots strictly increase from
    position 0, with finite slopes.  The rule on n_max times the factors'
    largest values is never broken here, as every drawn number is within
    2 of 0 or beyond float range, which both refuse."""
    def increasing(xs):
        return all(map(_number, xs)) and all(a < b for a, b in zip(xs, xs[1:]))

    def steep(kts):
        if (not all(len(k) == 2 and all(map(_number, k)) for k in kts)
                or kts[-1][0] >= 1):
            return False
        xs, vs = zip(*kts, (1.0, kts[0][1]))
        return not all(math.isfinite((float(v1) - v0) / (float(x1) - x0))
                       for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]))

    for r in filter(lambda n: isinstance(n, dict), _nodes(doc)):
        a, b, kts, cps = (r.get(k) for k in ("a", "b", "knots", "checkpoints"))
        if r.get("kind") == "indicator" and _number(a) and _number(b) and a >= b:
            return True
        if (r.get("kind") == "piecewise_linear" and isinstance(kts, list)
                and all(isinstance(k, list) and k for k in kts)):
            pos = [k[0] for k in kts]
            if not (pos and pos[0] == 0 and increasing(pos)) or steep(kts):
                return True
        if isinstance(cps, list) and all(map(_number, cps)) and not increasing(cps):
            return True
    fam, obs = doc.get("family"), doc.get("observables")
    return (doc.get("job", "average") == "average" and isinstance(fam, list)
            and isinstance(obs, list) and len(fam) != len(obs))


@settings(max_examples=500, deadline=None)
@given(scenario())
def test_schema_and_parser_agree(doc):
    try:
        parse_scenario(json.dumps(doc))
        parsed = True
    except ScenarioError:
        parsed = False
    if _breaks_cross_field_rule(doc):
        assert not parsed
    else:
        assert parsed == Validator(SCHEMA).is_valid(doc)


@pytest.mark.parametrize("p, ok", [(MAX_POWER, True), (MAX_POWER + 1, False),
                                   (10 ** 400, False)],
                         ids=["2**53", "2**53+1", "10**400"])
def test_power_cap_agrees(p, ok):
    doc = {"name": "p", "family": [{"kind": "finite_rotation", "q": 2}],
           "observables": [{"kind": "power_of_frac", "p": p}],
           "schedule": {"n_max": 10}, "tolerance": 0.1}
    assert Validator(SCHEMA).is_valid(doc) == ok
    try:
        parse_scenario(json.dumps(doc))
        parsed = True
    except ScenarioError:
        parsed = False
    assert parsed == ok


# ---------------------------------------------------------------------------
# constants across the schema's range

BIG = 10 ** 400
FRACTION_TEXT = st.one_of(
    st.integers(-BIG, BIG),
    st.builds("{}/{}".format, st.integers(-BIG, BIG), st.integers(0, BIG)))
CONSTANT = st.one_of(
    st.builds(lambda p, q: {"rational": {"p": p, "q": q}},
              st.integers(-BIG, BIG), st.integers(-1, BIG)),
    st.builds(lambda v: {"literal": v}, st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, -0.0, 1e300, 12.0, 0.1, 10 ** 400,
                         -10 ** 400]))),
    st.builds(lambda a, b, m: {"surd": {"a": a, "b": b, "m": m}},
              FRACTION_TEXT, FRACTION_TEXT, st.one_of(
                  st.integers(0, 10 ** 6),
                  st.sampled_from([MAX_RADICAND, MAX_RADICAND + 1,
                                   2 ** 61 - 1]))))


@settings(max_examples=300, deadline=None)
@given(CONSTANT)
def test_parsed_constant_runs_in_engine_and_oracle(alpha):
    """A constant the parser accepts never crashes predict or the orbit
    kernel, from the start of an orbit or at its length limit."""
    doc = {"name": "c", "family": [
        {"kind": "rotation", "alpha": alpha},
        {"kind": "rotation_power", "alpha": alpha, "p": 2}],
        "observables": [{"kind": "frac_part"},
                        {"kind": "indicator", "a": 0.2, "b": 0.7}],
        "x0": 0.3, "schedule": {"n_max": 17}, "tolerance": 0.1}
    try:
        sc = parse_scenario(json.dumps(doc))
    except ScenarioError:
        return
    pred = predict(sc.family, sc.observables, sc.x0)
    assert pred.applicable == (pred.value is not None)
    x0, ws = UnitPoint.from_real(sc.x0), np.empty((2, 17))
    for alpha in sc.family:
        for n0 in (0, MAX_N - 17):
            pts = _orbit_block(x0, _orbit(alpha), n0, n0 + 17, ws)
            assert np.all((pts >= 0.0) & (pts < 1.0))
