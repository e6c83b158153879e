"""Trace CSV bytes pinned by sha256.

Faster evaluation and summation must not change what a run writes: these
digests were taken before the rational members were evaluated once per
period and tiled, (for the cancelling families) before block sums were
certified after one ExtractVector pass, and (for ``periods-5-12`` and
``shared-sqrt2``) before each job planned its members once and shared the
orbits of equal constants, (for ``all-zero-8-12``) before all-zero
block sums were taken without fsum and rational members multiplied
through a period view, and (for ``correlation-finite-4`` and
``triple-sqrt2-finite-2``) before the correlation and triple jobs became
one intersection average; each must stay as it is.  A pinned
digest may change only in a change that states why its trace bytes changed.
"""

import hashlib
import json
from importlib import resources

import pytest

from torusavg import _dd
from torusavg.cli import parse_scenario, run_scenario

N_MAX = 10 ** 5
SHIPPED = resources.files("torusavg") / "scenarios"

def indicator(a, b):
    return {"kind": "indicator", "a": a, "b": b}


TRIG = {"kind": "trig_poly", "coeffs": [[1, 0.5, 0.25], [-3, -1.0, 0.5],
                                         [4, 0.125, -0.75]]}


def rotation(alpha):
    return {"kind": "rotation", "alpha": alpha}


# rational members of several periods beside surd members, and members that
# share a constant
FAMILIES = {
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
    "periods-5-12": {
        "family": [rotation({"rational": {"p": 2, "q": 5}}),
                   rotation({"surd": {"a": "1/5", "m": 3}}),
                   {"kind": "finite_rotation", "q": 12}],
        "observables": [{"kind": "indicator", "a": 0.1, "b": 0.6}, TRIG,
                        {"kind": "power_of_frac", "p": 3}],
        "x0": 0.61},
    # members with one constant share an orbit; frac_part first, as its
    # values are its points
    "shared-sqrt2": {
        "family": [rotation({"surd": {"m": 2}}), rotation({"surd": {"m": 3}}),
                   rotation({"surd": {"m": 2}}), rotation({"surd": {"m": 2}})],
        "observables": [{"kind": "frac_part"}, TRIG,
                        {"kind": "power_of_frac", "p": 2},
                        {"kind": "indicator", "a": 0.25, "b": 0.8}],
        "x0": 0.3},
    # the product is 0 at every point, so every block sum is of zeros
    # (``mixed-01-02`` of the benchmark's seed-101 deck)
    "all-zero-8-12": {
        "family": [rotation({"rational": {"p": 8, "q": 12}})],
        "observables": [{"kind": "indicator", "a": 0.776689, "b": 0.952912}],
        "x0": 0.684331936},
    # intersection jobs with a rational member
    "correlation-finite-4": {
        "job": "correlation", "family": [{"kind": "finite_rotation", "q": 4}],
        "indicators": {"A": indicator(0.0, 0.25), "B": indicator(0.0, 0.25)}},
    "triple-sqrt2-finite-2": {
        "job": "triple",
        "family": [rotation({"surd": {"m": 2}}),
                   {"kind": "finite_rotation", "q": 2}],
        "indicators": {"A": indicator(0.1, 0.6), "B": indicator(0.0, 0.3),
                       "C": indicator(0.0, 0.5)}},
}

# mean-zero trig_poly members on surd rotations: block sums cancel to O(1),
# so the sum of the 65,535-term block lies too near a rounding midpoint to
# certify and takes ``_dd._sum_passes``, while the later blocks certify
CANCELLING = {
    "cancel-sqrt2": {
        "family": [rotation({"surd": {"m": 2}})],
        "observables": [{"kind": "trig_poly",
                         "coeffs": [[1, 1.0, 0.5], [3, -0.25, 0.75]]}],
        "x0": 0.2},
    "cancel-sqrt3-sqrt5": {
        "family": [rotation({"surd": {"m": 3}}),
                   rotation({"surd": {"a": "1/7", "b": -1, "m": 5}})],
        "observables": [{"kind": "trig_poly", "coeffs": [[1, 0.5, -1.0]]},
                        {"kind": "trig_poly",
                         "coeffs": [[2, 1.0, 0.0], [-1, 0.0, 0.5]]}],
        "x0": 0.7},
    "cancel-power-sqrt7": {
        "family": [{"kind": "rotation_power", "alpha": {"surd": {"m": 7}},
                    "p": 3}],
        "observables": [{"kind": "trig_poly",
                         "coeffs": [[2, 0.75, -0.5], [5, 0.125, 0.25]]}],
        "x0": 0.41},
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
    "cancel-sqrt2":
        "5d74e5938594772282acd4f1ee9f23555c29c30b6ce8629ff74382de94466a56",
    "cancel-sqrt3-sqrt5":
        "1aa6df0c183405bcdd1cb74a0073d309a5db8a68eba733c3440969be2d6f48a7",
    "cancel-power-sqrt7":
        "d3e7b4666f2176b6e8f5849595a9b96ee15fc39cb9ebb739a67b71d5a8bddf6a",
    "periods-5-12":
        "7173833f611b8b639b2734bd1a1fcade1d59c5e4fb9fa8db52e0245e283647e1",
    "shared-sqrt2":
        "bf65607f52046f0c8a6f56721ac80c39b638b3f46b66fe0491711754ec798f1a",
    "all-zero-8-12":
        "0acf29702aeb44d1330690c4dffe985a480753a773501591cc0774c17cc6e733",
    "correlation-finite-4":
        "c619dc89551d749c789e36d59efb9b7ea0c2e00b1b2d08d21204098a086ee7bf",
    "triple-sqrt2-finite-2":
        "c31997f4e8752a31fe3201c7009760eea0fa25b2492891ebc5ab06be2dc17849",
}


def scenario_doc(name):
    if name in CANCELLING:
        # a first checkpoint at 1 leaves one 65,535-term block, the length
        # whose error bound is largest against an O(1) sum
        return dict(CANCELLING[name], name=name, tolerance=1.0,
                    schedule={"checkpoints": [1, 65536, 75000, N_MAX]})
    if name in FAMILIES:
        doc = dict(FAMILIES[name], name=name, tolerance=1.0)
    else:
        doc = json.loads((SHIPPED / f"{name}.json").read_text())
    return dict(doc, schedule={"n_max": N_MAX})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_bytes_are_pinned(tmp_path, name):
    run_scenario(parse_scenario(json.dumps(scenario_doc(name))), tmp_path)
    data = (tmp_path / f"{name}.trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


@pytest.mark.parametrize("name", sorted(CANCELLING))
def test_cancelling_families_take_both_block_sum_paths(tmp_path, monkeypatch,
                                                       name):
    blocks, fallbacks = [], []
    v_sum, passes = _dd.v_sum, _dd._sum_passes

    def counted_v_sum(a):
        blocks.append(len(a) >= _dd._SUM_MIN_VECTOR)
        return v_sum(a)

    def counted_passes(s, r):
        fallbacks.append(len(r))
        return passes(s, r)

    monkeypatch.setattr(_dd, "v_sum", counted_v_sum)
    monkeypatch.setattr(_dd, "_sum_passes", counted_passes)
    run_scenario(parse_scenario(json.dumps(scenario_doc(name))), tmp_path)
    assert 0 < len(fallbacks) < sum(blocks)
