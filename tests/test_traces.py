"""Trace CSV bytes pinned by sha256.

Faster evaluation must not change what a run writes: these digests were
taken before the rational members were evaluated once per period and
tiled, and each must stay as it is.  A pinned digest may change only in a
change that states why its trace bytes changed.
"""

import hashlib
import json
from importlib import resources

import pytest

from torusavg.cli import parse_scenario, run_scenario

N_MAX = 10 ** 5
SHIPPED = resources.files("torusavg") / "scenarios"

TRIG = {"kind": "trig_poly", "coeffs": [[1, 0.5, 0.25], [-3, -1.0, 0.5],
                                         [4, 0.125, -0.75]]}


def rotation(alpha):
    return {"kind": "rotation", "alpha": alpha}


# one rational member of each period beside surd members
RATIONAL = {
    "period-1": {
        "family": [rotation({"rational": {"p": 3}}),
                   rotation({"surd": {"m": 2}})],
        "observables": [TRIG, {"kind": "frac_part"}], "x0": 0.05},
    "period-5": {
        "family": [{"kind": "finite_rotation", "q": 5},
                   rotation({"surd": {"a": "1/3", "m": 3}})],
        "observables": [TRIG, {"kind": "indicator", "a": 0.2, "b": 0.7}],
        "x0": 0.37},
    "period-7": {
        "family": [rotation({"rational": {"p": -3, "q": 7}}),
                   {"kind": "rotation_power", "alpha": {"surd": {"m": 2}},
                    "p": 2}],
        "observables": [TRIG, {"kind": "power_of_frac", "p": 2}],
        "x0": 0.123456789},
    "period-12": {
        "family": [rotation({"surd": {"b": -1, "m": 5}})],
        "observables": [{"kind": "piecewise_linear",
                         "knots": [[0.0, 1.0], [0.25, -2.0], [0.6, 0.5]]}],
        "periodic": {"g": TRIG, "k": 12}, "x0": 0.9},
}

PINNED = {
    "birkhoff-frac-part":
        "dcef95463c2528b402bf182b170460a144031d7dd106c4a24b36245d9808af30",
    "correlation-sqrt2":
        "7730cfd2ab01f5c1941049c3f7ffb5a35f7aaf4350d597595025acf8d6eb4a3c",
    "distinct-rotations":
        "0cfdf50c15567c4c99093745eb0bdeaac8680fa33deef3af3a71236607b9b279",
    "periodic-factor-k5":
        "5344c47daa8c31d2f7bfdc9042f75a583bd941f5f4cf3d77e3f68e91c9a00dee",
    "repeated-rotation":
        "b1ddf18c28b4f9cc7fd8d599e32cd78b8741b6916c4d9cd175053e19eadb21c2",
    "triple-intersection":
        "79b552649d959b8be34069b259c9ee47e348323b8b11a65639b0e2fcba2e48e3",
    "period-1":
        "ce170d0fb4bc99fcc06fc32ecf7720772830a9bc5fd53244aff11c4b3e07e0fa",
    "period-5":
        "4d96af5c650915f3c47ab49d4bc1f3af90ea744639fe442d2fb0acee7db0e034",
    "period-7":
        "74ebc39a48578eb8655f40757618e96047072b2d6eaec1f85c67a5580cf7cc65",
    "period-12":
        "f871fbf1e26182121c3e26e3a32fa5b3db57b76f1c51a97a3ba9f780338695e7",
}


def scenario_doc(name):
    if name in RATIONAL:
        doc = dict(RATIONAL[name], name=name, tolerance=1.0)
    else:
        doc = json.loads((SHIPPED / f"{name}.json").read_text())
    return dict(doc, schedule={"n_max": N_MAX})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_bytes_are_pinned(tmp_path, name):
    run_scenario(parse_scenario(json.dumps(scenario_doc(name))), tmp_path)
    data = (tmp_path / f"{name}.trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]
