"""``_dd.v_sum`` is ``math.fsum(a.tolist())``, bit for bit, or raises what
fsum raises.  Sums near a rounding midpoint take the fallback passes, and
engine blocks do not."""

import math
import struct
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusavg import _dd, cli, engine
from torusavg._dd import v_sum
from torusavg.observables import trig_poly
from torusavg.unitmath import ScalarConstant, UnitPoint

BIG = np.finfo(np.float64).max
TINY = 5e-324


def outcome(fn, a):
    try:
        v = fn(a)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return struct.pack("<d", v)


def assert_same_as_fsum(a):
    assert outcome(v_sum, a) == outcome(lambda a: math.fsum(a.tolist()), a)


@st.composite
def vectors(draw):
    """Up to 2**17 floats, of mixed or of one sign, with exponents drawn
    across the whole double range; some entries are replaced by drawn specials (subnormals, -0.0, NaN, inf,
    the largest finite) and some cancel others exactly."""
    n = draw(st.one_of(st.integers(0, 64), st.integers(0, 1 << 17)))
    lo, hi = sorted(draw(st.integers(-1074, 1024)) for _ in range(2))
    specials = draw(st.lists(st.one_of(
        st.floats(width=64), st.sampled_from([-0.0, TINY, -TINY, BIG, -BIG])),
        min_size=1, max_size=8))
    n_special = draw(st.integers(0, n))
    n_cancel = draw(st.integers(0, n // 2))
    low = draw(st.sampled_from([-1.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.ldexp(rng.uniform(low, 1.0, n), rng.integers(lo, hi + 1, n))
    a[rng.integers(0, max(n, 1), n_special)] = rng.choice(specials, n_special)
    a[n - n_cancel:] = -a[:n_cancel]
    rng.shuffle(a)
    return a


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_v_sum_is_fsum(a):
    assert_same_as_fsum(a)


@pytest.mark.parametrize("reps", [1, 600])  # short and long vectors
@pytest.mark.parametrize("pattern", [
    [], [0.0], [-0.0], [0.0, -0.0], [1.0, -1.0], [TINY], [TINY, -TINY],
    [1.0, 1e100, 1.0, -1e100], [2.0 ** -1022, -TINY], [1e16, 1.0, -1e16],
    [0.1], [BIG, BIG], [BIG, BIG, -BIG], [BIG, -BIG, BIG], [BIG, 2.0 ** 970],
    [2.0 ** 1000], [1.5 * 2.0 ** 1012], [1.5 * 2.0 ** 1013],
    [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
    [-math.inf, BIG, BIG],
], ids=repr)
def test_v_sum_edge_cases(pattern, reps):
    assert_same_as_fsum(np.tile(np.array(pattern, dtype=np.float64), reps))


@pytest.mark.parametrize("pattern", [
    [1.0, 2.0 ** -53, 2.0 ** -110], [1.0, -2.0 ** -54, -2.0 ** -110],
    [3.0, 2.0 ** -52, 2.0 ** -100],
    [1.0, -1.0, 2.0 ** -200, -2.0 ** -200, 2.0 ** -400, -2.0 ** -400,
     2.0 ** -600, -2.0 ** -600, 2.0 ** -800, 2.0 ** -1000],
], ids=repr)
def test_v_sum_parts_in_separate_passes(pattern):
    # adding the pass sums in turn would round twice; cancelling pairs give
    # zero pass sums and leave residues after the last pass
    padded = np.array(pattern + [0.0] * 600)
    assert_same_as_fsum(padded)


def midpoint_vector(parts, seed):
    """1,024 random pairs x, -x that cancel exactly and ``parts``,
    shuffled; the exact sum is sum(parts)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, 1024)
    a = np.concatenate([x, -x, np.array(parts, dtype=np.float64)])
    rng.shuffle(a)
    return a


U = 2.0 ** -52  # ulp of 1.0
TIE = 2.0 ** -90  # far below the error bound delta = 2**(e+3m-105) >= 2**-72


@pytest.mark.parametrize("parts", [
    [3.0, U, TIE], [3.0, U, -TIE],  # either side of 3 + ulp/2
    [3.0, U], [3.0 + 2 * U, U],  # exact ties, which round to even
    [4.0, -U, TIE], [4.0, -U, -TIE],  # below the power of two 4
    [4.0, 2 * U, TIE], [4.0, 2 * U, -TIE],  # above it
    [-3.0, -U, TIE], [-3.0, -U, -TIE],  # negative sums
    [], [TIE, -TIE],  # zero sums
    [TIE], [-TIE],  # sums near 0
], ids=repr)
def test_v_sum_near_a_rounding_midpoint_falls_back(monkeypatch, parts):
    a = midpoint_vector(parts, len(parts))
    taken = []
    passes = _dd._sum_passes

    def counted(s, r):
        taken.append(len(r))
        return passes(s, r)

    monkeypatch.setattr(_dd, "_sum_passes", counted)
    got = v_sum(a)
    assert taken == [len(a)]
    exact = float(sum(map(Fraction, a.tolist())))
    assert struct.pack("<d", got) == struct.pack("<d", exact)
    assert_same_as_fsum(a)


@pytest.mark.parametrize("n", [320, 4096, 1 << 16])
@pytest.mark.parametrize("signs", [(0.0,), (-0.0,), (0.0, -0.0)])
def test_v_sum_of_zeros_is_plus_zero_directly(monkeypatch, n, signs):
    a = np.resize(np.array(signs), n)
    expected = struct.pack("<d", math.fsum(a.tolist()))

    def unused(*args):
        raise AssertionError("an all-zero sum needs neither fsum nor passes")

    monkeypatch.setattr(_dd.math, "fsum", unused)
    monkeypatch.setattr(_dd, "_sum_passes", unused)
    assert struct.pack("<d", v_sum(a)) == expected == struct.pack("<d", 0.0)


def raising(s, r):
    raise AssertionError("this sum should certify after one pass")


SHIPPED = resources.files("torusavg") / "scenarios"
BLOCK = 1 << 16


def shipped_job(name, monkeypatch):
    """The engine job of a shipped scenario, taken from ``run_job``."""
    sc = cli.parse_scenario((SHIPPED / f"{name}.json").read_text())
    jobs = []
    with monkeypatch.context() as m:
        m.setattr(engine, "run_job", jobs.append)
        cli._trace_for(sc)
    return jobs[0]


@pytest.mark.parametrize("name,kind", [
    ("birkhoff-frac-part", engine.DiagonalJob),
    ("distinct-rotations", engine.DiagonalJob),
    ("periodic-factor-k5", engine.DiagonalJob),
    ("repeated-rotation", engine.DiagonalJob),
    ("correlation-sqrt2", engine.ArcJob),
    ("triple-intersection", engine.ArcJob),
])
def test_engine_blocks_certify_after_one_pass(monkeypatch, name, kind):
    # the speed of v_sum rests on this; a fallback here would be slow, not
    # wrong, so only this test can see it
    job = shipped_job(name, monkeypatch)
    assert isinstance(job, kind)
    monkeypatch.setattr(_dd, "_sum_passes", raising)
    for n0 in range(0, 16 * BLOCK, BLOCK):
        v_sum(job.terms(n0, n0 + BLOCK))


def test_common_vectors_certify_after_one_pass(monkeypatch):
    monkeypatch.setattr(_dd, "_sum_passes", raising)
    # uniform draws are multiples of 2**-53, so the exact sum of n of them
    # is itself a rounding midpoint about once in 2**(bit_length(n) - 1)
    # vectors (once in 256 at n = 320); such a sum rightly falls back
    rng = np.random.default_rng(2)
    for n in [4096, 5000, BLOCK, 1 << 17]:
        for _ in range(8):
            v_sum(rng.uniform(0.0, 1.0, n))
    # signed terms with mean 0.25 * -0.5
    job = engine.DiagonalJob(
        (ScalarConstant.surd(0, 1, 2), ScalarConstant.surd(0, 1, 3)),
        (trig_poly([(0, 0.25, 0.0), (1, 1.0, 0.5)]),
         trig_poly([(0, -0.5, 0.0), (2, 0.75, -1.0)])),
        UnitPoint.from_real(0.1), engine.Schedule((1,)))
    for n0 in range(0, 16 * BLOCK, BLOCK):
        v_sum(job.terms(n0, n0 + BLOCK))
