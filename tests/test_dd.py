"""``_dd.v_sum`` is ``math.fsum(a.tolist())``, bit for bit, or raises what
fsum raises; ``v_sum_rows`` is the same row by row."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusavg._dd import v_sum, v_sum_rows

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


def row_outcomes(a):
    """fsum of every row, or what the first row that raises raises."""
    sums = []
    for row in a:
        got = outcome(lambda r: math.fsum(r.tolist()), row)
        if not isinstance(got, bytes):
            return got
        sums.append(got)
    return b"".join(sums)


@settings(max_examples=100, deadline=None)
@given(vectors(), st.integers(1, 40))
def test_v_sum_rows_are_fsum(a, rows):
    a = a[:len(a) // rows * rows].reshape(rows, -1)
    try:
        got = v_sum_rows(a).astype("<f8").tobytes()
    except (ValueError, OverflowError) as exc:
        got = type(exc), str(exc)
    assert got == row_outcomes(a)


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
    rows = np.array([pattern, pattern[::-1], [0.0] * (len(pattern) - 1) + [1.0]])
    assert v_sum_rows(rows).tobytes() == row_outcomes(rows)
