import json
import math
import time
from importlib import resources
from pathlib import Path

import pytest

from torusavg.cli import (ScenarioError, _prediction_for, main,
                          parse_scenario, run_scenario, trace_csv,
                          verify_builtin)
from torusavg.dynsys import finite_rotation
from torusavg.engine import MIN_RATIO, Schedule
from torusavg.unitmath import ScalarConstant

MINIMAL = json.dumps({
    "name": "minimal",
    "family": [{"kind": "rotation", "alpha": {"surd": {"m": 2}}}],
    "observables": [{"kind": "frac_part"}],
    "schedule": {"checkpoints": [10, 100, 1000]},
    "tolerance": 0.01,
})


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_scenario():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "minimal"
    assert sc.job == "average"
    assert len(sc.family) == 1
    assert sc.family[0] == ScalarConstant.surd(0, 1, 2)
    assert sc.observables[0].kind == "frac_part"
    assert sc.schedule.checkpoints == (10, 100, 1000)
    assert sc.x0 == 0.0
    assert sc.tolerance == 0.01


def test_parse_collects_all_errors():
    bad = json.dumps({
        "name": "",
        "family": [{"kind": "teleport"}],
        "observables": [{"kind": "frac_part"}, {"kind": "frac_part"}],
        "schedule": {"checkpoints": [5, 5]},
        "tolerance": -1,
        "mystery": 0,
    })
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(bad)
    msgs = exc.value.errors
    assert any("name" in m for m in msgs)
    assert any("teleport" in m for m in msgs)
    assert any("length 2" in m and "length 1" in m for m in msgs)
    assert any("schedule" in m for m in msgs)
    assert any("tolerance" in m for m in msgs)
    assert any("mystery" in m for m in msgs)


def test_parse_length_mismatch_names_both_lengths():
    bad = json.loads(MINIMAL)
    bad["observables"] = [{"kind": "frac_part"}, {"kind": "frac_part"},
                          {"kind": "frac_part"}]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(bad))
    assert any("length 3" in m and "length 1" in m for m in exc.value.errors)


@pytest.mark.parametrize("d", [0, 9])
def test_parse_refuses_family_sizes(d):
    # at most 8 members: a periodic factor is a ninth inside the program
    doc = dict(json.loads(MINIMAL),
               family=[{"kind": "rotation", "alpha": {"surd": {"m": 2}}}] * d,
               observables=[{"kind": "frac_part"}] * d)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert f"family: need 1 to 8 entries, got {d}" in exc.value.errors


def test_parse_refuses_orbits_beyond_float64_indices():
    for schedule in ({"n_max": 2 ** 53 + 1}, {"checkpoints": [10, 2 ** 53 + 1]}):
        bad = json.loads(MINIMAL)
        bad["schedule"] = schedule
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(bad))
    ok = json.loads(MINIMAL)
    ok["schedule"] = {"n_max": 2 ** 53}
    assert parse_scenario(json.dumps(ok)).schedule.checkpoints[-1] == 2 ** 53


def test_parse_ratio_floor():
    # the longest geometric schedule: n_max = 2**53 at the ratio floor
    doc = json.loads(MINIMAL)
    doc["schedule"] = {"n_max": 2 ** 53, "ratio": MIN_RATIO}
    cps = parse_scenario(json.dumps(doc)).schedule.checkpoints
    assert cps[-1] == 2 ** 53 and len(cps) < 300_000
    doc["schedule"]["ratio"] = math.nextafter(MIN_RATIO, 0)
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(doc))


def test_parse_invalid_json():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("{not json")
    assert any("invalid JSON" in m for m in exc.value.errors)


def test_parse_correlation_scenario():
    sc = parse_scenario(json.dumps({
        "name": "corr",
        "job": "correlation",
        "family": [{"kind": "rotation", "alpha": {"surd": {"m": 2}}}],
        "indicators": {"A": {"kind": "indicator", "a": 0.0, "b": 0.3},
                       "B": {"kind": "indicator", "a": 0.2, "b": 0.7}},
        "schedule": {"n_max": 1000},
        "tolerance": 0.05,
    }))
    assert sc.job == "correlation"
    assert len(sc.indicators) == 2
    assert sc.schedule.checkpoints[-1] == 1000


def test_parse_correlation_requires_indicators():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps({
            "name": "corr",
            "job": "correlation",
            "family": [{"kind": "rotation", "alpha": {"surd": {"m": 2}}}],
            "schedule": {"n_max": 100},
            "tolerance": 0.05,
        }))
    assert any("indicators" in m for m in exc.value.errors)


def test_parse_surd_fraction_coefficients():
    sc = parse_scenario(json.dumps({
        "name": "s",
        "family": [{"kind": "rotation",
                    "alpha": {"surd": {"a": "1/2", "b": "2/3", "m": 5}}}],
        "observables": [{"kind": "frac_part"}],
        "schedule": {"checkpoints": [10]},
        "tolerance": 0.1,
    }))
    assert sc.family[0] == ScalarConstant.surd("1/2", "2/3", 5)


def test_shipped_scenarios_parse():
    pkg = resources.files("torusavg") / "scenarios"
    names = [p.name for p in pkg.iterdir() if p.name.endswith(".json")
             and p.name != "scenario.schema.json"]
    assert len(names) >= 6
    for n in names:
        parse_scenario((pkg / n).read_text())


TYPED = {
    "name": "typed",
    "family": [{"kind": "rotation_power", "alpha": {"surd": {"m": 2}}, "p": 1,
                "label": "R"},
               {"kind": "rotation", "alpha": {"rational": {"p": 1, "q": 3}}}],
    "observables": [{"kind": "power_of_frac", "p": 2},
                    {"kind": "trig_poly", "coeffs": [[1, 1.0, 0.0]]}],
    "periodic": {"g": {"kind": "frac_part"}, "k": 3},
    "schedule": {"n_max": 1000},
    "tolerance": 0.01,
    "workers": 1,
}


@pytest.mark.parametrize("path, value", [
    (("observables", 0, "p"), 2.5),
    (("observables", 0, "p"), True),
    (("schedule",), {"checkpoints": [10.7]}),
    (("schedule", "n_max"), "1000"),
    (("schedule", "n_max"), 1000.9),
    (("observables", 1, "coeffs", 0, 0), 1.5),
    (("family", 1, "alpha", "rational", "p"), True),
    (("family", 0, "label"), 5),
    (("family", 0, "alpha", "surd", "m"), True),
    (("family", 0, "p"), True),
    (("periodic", "k"), True),
    (("workers",), True),
])
def test_parse_refuses_mistyped_values(path, value):
    parse_scenario(json.dumps(TYPED))
    doc = json.loads(json.dumps(TYPED))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    assert any(m.startswith(where.lstrip(".")) for m in exc.value.errors)


def test_parse_refuses_a_large_radicand_at_once():
    # 2**61 - 1 is prime: trial division would take about 2**30 steps
    doc = json.loads(MINIMAL)
    doc["family"][0]["alpha"] = {"surd": {"m": 2 ** 61 - 1}}
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.errors == [
        "family[0].alpha.surd: surd radicand must be an integer in "
        "[1, 4294967296]"]


@pytest.mark.parametrize("k", [0, -1])
def test_parse_refuses_nonpositive_periodic_order(k):
    # the periodic factor is a finite rotation of order k
    doc = dict(TYPED, periodic={"g": {"kind": "frac_part"}, "k": k})
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert any(m.startswith("periodic") for m in exc.value.errors)


def test_shipped_example_family():
    pkg = resources.files("torusavg") / "scenarios"
    sc = parse_scenario((pkg / "distinct-rotations.json").read_text())
    assert sc.family == (ScalarConstant.surd(0, 1, 2), ScalarConstant.surd(0, 1, 3))


# ---------------------------------------------------------------------------
# execution / artifacts


def small(sc_dict, **extra):
    d = dict(sc_dict, **extra)
    return parse_scenario(json.dumps(d))


def test_run_scenario_writes_artifacts(tmp_path):
    sc = small(json.loads(MINIMAL), name="artifacts",
               schedule={"checkpoints": [10, 100, 20000]}, tolerance=0.01)
    status = run_scenario(sc, tmp_path)
    assert status == 0
    csv = (tmp_path / "artifacts.trace.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "N,value,est_tail"
    assert len(lines) == 4
    n, v, tail = lines[1].split(",")
    assert int(n) == 10 and 0.0 <= float(v) <= 1.0 and float(tail) == 0.0
    report = json.loads((tmp_path / "artifacts.report.json").read_text())
    assert report["passed"] is True
    assert report["prediction"]["value"] == pytest.approx(0.5, abs=1e-15)
    assert report["final_error"] <= 0.01
    assert report["n_max"] == 20000


INAPPLICABLE = json.dumps({
    "name": "inapplicable",
    "family": [{"kind": "rotation", "alpha": {"surd": {"m": 2}}},
               {"kind": "rotation", "alpha": {"literal": 0.41421356237309503}}],
    "observables": [{"kind": "frac_part"}, {"kind": "frac_part"}],
    "schedule": {"checkpoints": [1000]},
    "tolerance": 0.01,
})


def test_run_scenario_negative_control_fails(tmp_path):
    # an override is compared whether or not the oracle applies; the
    # inapplicable family measures about 0.333
    minimal = dict(json.loads(MINIMAL), schedule={"checkpoints": [10, 20000]})
    for doc, applicable, override, status in (
            (minimal, True, 0.75, 1),
            (json.loads(INAPPLICABLE), False, 0.9, 1),
            (json.loads(INAPPLICABLE), False, 0.333, 0)):
        sc = small(doc, name="control", expected_override=override,
                   tolerance=0.01)
        assert run_scenario(sc, tmp_path) == status
        report = json.loads((tmp_path / "control.report.json").read_text())
        assert report["passed"] is (status == 0)
        assert report["final_error"] == abs(report["measured"] - override)
        pred = report["prediction"]
        assert pred["value"] == override
        assert pred["applicable"] is applicable
        assert bool(pred["caveats"]) is not applicable


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def test_run_scenario_inapplicable_reports_null(tmp_path):
    # the literal is 41421356237309503/10**17, a period above 2**20
    sc = parse_scenario(INAPPLICABLE)
    assert run_scenario(sc, tmp_path) == 0
    text = (tmp_path / "inapplicable.report.json").read_text()
    report = _strict_json(text)
    assert report["passed"] is None and report["final_error"] is None
    assert report["prediction"]["applicable"] is False
    assert report["prediction"]["value"] is None
    assert '"value": null' in text


@pytest.mark.parametrize("alpha", [
    # p*q >= 2**62, beyond exact int64 residues
    {"rational": {"p": 3, "q": 2 ** 61 + 2}},
    {"literal": 0.6180339887498949},
    {"rational": {"p": 3, "q": 10 ** 400}},
])
def test_main_run_constant_with_a_large_period(tmp_path, alpha):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({
        "name": "big", "family": [{"kind": "rotation", "alpha": alpha}],
        "observables": [{"kind": "frac_part"}],
        "schedule": {"checkpoints": [10, 1000]}, "tolerance": 0.01}))
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    report = _strict_json((tmp_path / "big.report.json").read_text())
    assert report["prediction"]["applicable"] is False
    assert 0.0 <= report["measured"] < 1.0


def test_main_period_beyond_int_to_str_limit(tmp_path, capsys):
    # the period (10**2500 + 1)*(10**2500 + 3) has 5,001 digits, more than
    # an int converts to text by default
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({
        "name": "huge",
        "family": [{"kind": "rotation",
                    "alpha": {"rational": {"p": 1, "q": 10 ** 2500 + k}}}
                   for k in (1, 3)],
        "observables": [{"kind": "frac_part"}, {"kind": "frac_part"}],
        "schedule": {"checkpoints": [10, 1000]}, "tolerance": 0.01}))
    assert main(["predict", str(p)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["applicable"] is False and out["value"] is None
    assert out["caveats"] == ["period of 16610 bits exceeds 1048576"]
    assert out["derivation"][0]["period"] is None
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    report = _strict_json((tmp_path / "huge.report.json").read_text())
    assert report["prediction"]["applicable"] is False
    assert report["passed"] is None


def test_main_refuses_an_unbounded_frequency(tmp_path, capsys):
    p = tmp_path / "sc.json"
    doc = json.loads(MINIMAL)
    doc["observables"] = [{"kind": "trig_poly", "coeffs": [[10 ** 400, 1, 0]]}]
    p.write_text(json.dumps(doc))
    # schema-valid before the cap: run crashed with OverflowError, predict
    # printed 0.0
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 2
    assert main(["predict", str(p)]) == 2
    assert capsys.readouterr().err.count(
        "observables[0]: frequency must be an integer in [-1048576, 1048576]") == 2


def knots(*values):
    return {"kind": "piecewise_linear",
            "knots": [[i / len(values), v] for i, v in enumerate(values)]}


@pytest.mark.parametrize("obs, message", [
    # before the rule: run exited 1 with OverflowError in fsum, and
    # predict said applicable with value Infinity
    ([knots(1e308, 1e308)], "must be below 2**1023, got inf"),
    # before: run exited 1 with "compensated sum: term must be finite"
    ([knots(1e308, 1e308)] * 2, "must be below 2**1023, got inf"),
    # before: run exited 1, a value between the first two knots was inf
    ([{"kind": "piecewise_linear", "knots": [[0.0, 0.0], [1e-310, 1.0]]}],
     "observables[0]: knot slopes must be finite"),
])
def test_main_refuses_overflowing_observables(tmp_path, capsys, obs, message):
    doc = {"name": "big", "x0": 5e-311,
           "family": [{"kind": "rotation", "alpha": {"surd": {"m": m}}}
                      for m in (2, 3)[:len(obs)]],
           "observables": obs, "schedule": {"n_max": 1000}, "tolerance": 0.01}
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 2
    assert main(["predict", str(p)]) == 2
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "big.trace.csv").exists()


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
def test_main_refuses_names_that_are_not_file_names(tmp_path, capsys, name):
    # before: "../escaped" wrote escaped.trace.csv and escaped.report.json
    # next to --outdir and exited 0; a NUL exited 1 with a ValueError
    doc = json.loads(MINIMAL)
    doc["name"] = name
    p = tmp_path / "in" / "sc.json"
    p.parent.mkdir()
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(p), "--outdir", str(out)]) == 2
    assert main(["predict", str(p)]) == 2
    assert capsys.readouterr().err.count("is not a file name") == 2
    assert sorted(tmp_path.rglob("*")) == [p.parent, p]


_ARCS = {k: {"kind": "indicator", "a": 0.0, "b": b}
         for k, b in zip("ABC", (0.5, 0.3, 0.2))}


@pytest.mark.parametrize("fields, message", [
    ({"job": "correlation", "indicators": _ARCS, "observables": None},
     "indicators.C: only valid for triple jobs"),
    ({"indicators": {"A": _ARCS["A"]}},
     "indicators: only valid for correlation and triple jobs"),
    ({"job": "triple", "indicators": _ARCS, "family": [
        {"kind": "rotation", "alpha": {"surd": {"m": m}}} for m in (2, 3)]},
     "observables: only valid for average jobs"),
], ids=["correlation-C", "average-indicators", "triple-observables"])
def test_main_refuses_fields_the_job_does_not_read(tmp_path, capsys, fields,
                                                   message):
    # before: each ran with the field dropped; the correlation job measured
    # about len(A)*len(B) = 0.15 and exited 0
    doc = {k: v for k, v in {**json.loads(MINIMAL), **fields}.items()
           if v is not None}
    p = tmp_path / "in" / "sc.json"
    p.parent.mkdir()
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
    assert main(["predict", str(p)]) == 2
    assert capsys.readouterr().err.count(message) == 2
    assert sorted(tmp_path.rglob("*")) == [p.parent, p]


@pytest.mark.parametrize("field", ["tolerance", "expected_override"])
@pytest.mark.parametrize("text", ["1e400", "1" + "0" * 400])
def test_main_refuses_numbers_beyond_float_range(tmp_path, capsys, field, text):
    # schema-valid before the range rule: 1e400 read as inf was accepted,
    # and run wrote "tolerance": Infinity into its report, which is not
    # JSON; float() of 10**400 raised OverflowError out of parse_scenario
    doc = json.loads(MINIMAL)
    doc.pop(field, None)
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc)[:-1] + f', "{field}": {text}}}')
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 2
    assert main(["predict", str(p)]) == 2
    assert capsys.readouterr().err.count(f"{field}: expected number") == 2
    assert not list(tmp_path.glob("*.report.json"))


@pytest.mark.parametrize("obs", [
    [knots(2.0 ** 1013, 2.0 ** 1013)],
    [knots(2.0 ** 506, -2.0 ** 506), knots(2.0 ** 507, 2.0 ** 507)]])
def test_main_runs_observables_just_below_the_overflow_rule(tmp_path, obs):
    # n_max * prod max|f_i| = 1000 * 2**1013 < 2**1023; at n_max = 1024 it
    # reaches 2**1023
    doc = {"name": "edge",
           "family": [{"kind": "rotation", "alpha": {"surd": {"m": m}}}
                      for m in (2, 3)[:len(obs)]],
           "observables": obs, "schedule": {"n_max": 1000}, "tolerance": 1e308}
    sc = parse_scenario(json.dumps(doc))
    assert run_scenario(sc, tmp_path) == 0
    report = _strict_json((tmp_path / "edge.report.json").read_text())
    assert report["prediction"]["applicable"] is True
    assert math.isfinite(report["prediction"]["value"])
    assert math.isfinite(report["measured"])
    doc["schedule"] = {"n_max": 1024}
    with pytest.raises(ScenarioError, match="below 2"):
        parse_scenario(json.dumps(doc))


def test_main_predict_inapplicable_prints_null(tmp_path, capsys):
    p = tmp_path / "sc.json"
    p.write_text(INAPPLICABLE)
    assert main(["predict", str(p)]) == 0
    text = capsys.readouterr().out
    out = _strict_json(text)
    assert out["value"] is None and out["applicable"] is False
    assert '"value": null' in text


def test_correlation_with_finite_rotation_is_inapplicable(tmp_path):
    # x -> x + 1/2 is not ergodic: the average of len(T^-n A ∩ A) for
    # A = [0, 0.3) is (0.3 + 0)/2 = 0.15, not len(A)**2 = 0.09
    sc = parse_scenario(json.dumps({
        "name": "corr-finite",
        "job": "correlation",
        "family": [{"kind": "finite_rotation", "q": 2}],
        "indicators": {"A": {"kind": "indicator", "a": 0.0, "b": 0.3},
                       "B": {"kind": "indicator", "a": 0.0, "b": 0.3}},
        "schedule": {"checkpoints": [1000]},
        "tolerance": 0.01,
    }))
    assert run_scenario(sc, tmp_path) == 0
    report = _strict_json((tmp_path / "corr-finite.report.json").read_text())
    assert report["prediction"]["applicable"] is False
    assert report["prediction"]["value"] is None and report["passed"] is None
    assert report["measured"] == pytest.approx(0.15, abs=1e-15)


@pytest.mark.parametrize("job, family, applicable", [
    ("correlation", [{"kind": "rotation", "alpha": {"surd": {"a": "1/2", "m": 2}}}],
     True),
    ("correlation", [{"kind": "rotation", "alpha": {"literal": 0.25}}], False),
    ("triple", [{"kind": "rotation", "alpha": {"surd": {"m": 2}}},
                {"kind": "rotation", "alpha": {"surd": {"m": 3}}}], True),
    ("triple", [{"kind": "rotation", "alpha": {"surd": {"m": 2}}},
                {"kind": "rotation_power", "alpha": {"surd": {"m": 2}}, "p": 2}],
     False),
    ("triple", [{"kind": "rotation", "alpha": {"surd": {"m": 2}}},
                {"kind": "finite_rotation", "q": 3}], False),
])
def test_intersection_prediction_needs_distinct_radicands(job, family,
                                                          applicable):
    half = {"kind": "indicator", "a": 0.0, "b": 0.5}
    sc = parse_scenario(json.dumps({
        "name": "arcs", "job": job, "family": family,
        "indicators": {k: half for k in "ABC"[:len(family) + 1]},
        "schedule": {"checkpoints": [10]}, "tolerance": 0.01}))
    pred = _prediction_for(sc)
    assert pred.applicable is applicable
    assert pred.value == (0.5 ** len(sc.indicators) if applicable else None)


def test_largest_family_with_periodic_factor(tmp_path):
    # eight members plus the periodic factor make nine inside the program
    doc = {
        "name": "nine",
        "family": [{"kind": "rotation", "alpha": {"surd": {"m": m}}}
                   for m in (2, 3, 5, 6, 7, 10, 11, 13)],
        "observables": [{"kind": "frac_part"}] * 8,
        "periodic": {"g": {"kind": "frac_part"}, "k": 3},
        "x0": 0.1,
        "schedule": {"n_max": 20000},
        "tolerance": 0.01,
    }
    sc = parse_scenario(json.dumps(doc))
    assert len(sc.family) == len(sc.observables) == 9
    assert sc.family[-1] == finite_rotation(3)
    pred = _prediction_for(sc)
    # 2**-8 times the orbit mean of {x} over {0.1, 0.4333, 0.7667}
    assert pred.applicable
    assert pred.value == pytest.approx(0.43333333333333335 / 256, abs=1e-15)
    assert run_scenario(sc, tmp_path) == 0
    assert _strict_json((tmp_path / "nine.report.json").read_text())["passed"]


def test_trace_csv_byte_identical(tmp_path):
    sc = small(json.loads(MINIMAL), name="det",
               schedule={"checkpoints": [10, 100, 5000]})
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    assert ((tmp_path / "a" / "det.trace.csv").read_bytes()
            == (tmp_path / "b" / "det.trace.csv").read_bytes())


def test_trace_csv_floats_round_trip():
    sc = small(json.loads(MINIMAL), schedule={"checkpoints": [10, 1000]})
    from torusavg.cli import _trace_for
    tr = _trace_for(sc)
    rows = trace_csv(tr).strip().split("\n")[1:]
    for row, v in zip(rows, tr.values):
        assert float(row.split(",")[1]) == v  # repr round-trips exactly


# ---------------------------------------------------------------------------
# entry point


def test_main_run_and_exit_codes(tmp_path):
    p = tmp_path / "sc.json"
    p.write_text(MINIMAL)
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "minimal.trace.csv").exists()


def test_main_predict(tmp_path, capsys):
    p = tmp_path / "sc.json"
    p.write_text(MINIMAL)
    assert main(["predict", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.5, abs=1e-15)
    assert out["applicable"] is True


def test_main_invalid_scenario_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert main(["run", str(p)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_main_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_builtin_small_n():
    rows, ok = verify_builtin(n_max=2000, tol_scale=30.0)
    assert len(rows) == 25
    # exact checks hold at any N
    by_name = {r["name"]: r for r in rows}
    assert by_name["shifted-frac identity in predict (max dev)"]["passed"]
    assert by_name["group-collapse equivalence (max dev)"]["passed"]
    assert by_name["repeat-run determinism"]["passed"]
    assert by_name["weyl form literal 0.5 -> a = 1/2"]["passed"]
    assert by_name["weyl form (sqrt2, sqrt8) -> c = (1, 2) over sqrt2"]["passed"]
    assert by_name["weyl form (sqrt2, sqrt3) -> distinct radicands"]["passed"]
    assert by_name["quadrature int {x}"]["passed"]


@pytest.mark.parametrize("n", [0, 2 ** 53 + 1])
def test_main_verify_refuses_nmax_out_of_range(capsys, n):
    assert main(["verify", "--nmax", str(n)]) == 2
    err = capsys.readouterr().err
    assert err == f"--nmax must be in [1, {2 ** 53}], got {n}\n"


def test_main_verify_quick_smoke(capsys):
    assert main(["verify", "--nmax", "2000"]) in (0, 1)
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert out.count("\n") >= 25
