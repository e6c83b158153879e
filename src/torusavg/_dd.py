"""Error-free float transforms and double-double helpers.

Scalar functions work on (hi, lo) pairs of Python floats.  The ``v_``
prefixed variants are numpy-vectorized: ``v_two_sum`` is error-free, and
``v_sum`` is an exactly rounded sum.

``v_sum`` certifies most sums after one ExtractVector pass.  With
sigma = 2**(e+m) above 2**m * max|a|, the split a = q + r,
q = (a + sigma) - sigma, is exact; the q sum exactly in any order, and
each |r| <= 2**(e+m-53), so the float sum of the r is within
delta = 2**(e+3m-105) of their exact sum (the gamma_{n-1} bound).  The
rounded total y of the two sums is the correctly rounded sum when its
rounding error plus delta is below half the gap from y to its nearer
neighbour: half an ulp, or a quarter ulp at a power of two.  A delta that
underflows to 0 is still a bound, as a sum of multiples of 2**-1074 whose
error is below 2**-1074 is exact.  Sums near a rounding midpoint take
further passes.
"""

import math

import numpy as np


def two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def fast_two_sum(a, b):
    # valid only when |a| >= |b|
    s = a + b
    return s, b - (s - a)


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return fast_two_sum(s, e)


def dd_from_ratio(p, q):
    """p/q for ints q > 0, correctly rounded and so the same for any form of
    the ratio: hi = p/q, lo = the remainder (int true division rounds so)."""
    h = p / q
    n, d = h.as_integer_ratio()
    return h, (p * d - n * q) / (q * d)


def dd_frac(x, _depth=0):
    """Reduce a double-double into [0, 1), keeping the residue in lo."""
    # x[0] - floor(x[0]) rounds for x[0] in (-1, 0): keep its error
    h, e = two_sum(x[0], -math.floor(x[0]))
    h, l = two_sum(h, x[1] + e)
    if h >= 1.0:
        h, l = two_sum(h - 1.0, l)
    elif h < 0.0:
        h, l2 = two_sum(h, 1.0)
        l += l2
    if h >= 1.0 or h < 0.0:
        if _depth < 2:
            return dd_frac((h, l), _depth + 1)
        # value hugs an integer to below one ulp; collapse to the boundary
        return 0.0, 0.0
    return h, l


# ---------------------------------------------------------------------------
# vectorized variants


def v_two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


_SUM_PASSES = 4
# below this length fsum over a list beats the vector sum's fixed numpy cost
_SUM_MIN_VECTOR = 320


def v_sum(a) -> float:
    """Exactly rounded sum of a float64 vector: ``math.fsum(a.tolist())``,
    bit for bit, from element-wise IEEE operations.

    One ExtractVector pass (Rump, Ogita and Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), 2008) splits a = q + r
    exactly with q = (a + sigma) - sigma, sigma = 2**(e+m), 2**e > max|a|
    and 2**m >= n + 2 for n = len(a):

    - the q are multiples of 2**(e+m-53) with |q| <= 2**e, so every partial
      sum is below 2**(e+m) and s = sum(q) is exact in any order;
    - each |r| <= 2**(e+m-53), half an ulp of sigma;
    - t = fl(sum(r)) is within gamma_{n-1} * sum|r| of sum(r) in any
      summation order (Higham, "Accuracy and Stability of Numerical
      Algorithms", 2002, section 4.2); gamma_{n-1} < 2(n-1) * 2**-53 and
      (n-1) * n < 2**(2m), so that is below delta = 2**(e+3m-105).

    Then (y, err) = two_sum(s, t) has y + err = s + t exactly, and the
    true sum lies within |err| + delta of y.  When that is strictly below
    half the gap from y to its nearer neighbour, y is the correctly rounded
    sum, which fsum returns.  The nearer neighbour lies toward 0: half an
    ulp(y) away, or a quarter ulp when |y| is a power of two.  The test is
    made as 2*(|err| + delta) < gap in floats: doubling is exact and
    rounding is monotone, so it never passes where the exact test fails.
    A delta that underflows to 0 is still a bound: the r and fl(sum(r))
    are multiples of 2**-1074, so an error below 2**-1074 is 0.

    Otherwise (the sum lies near a rounding midpoint, or is 0) the passes
    go on from the residues r (``_sum_passes``).  All zeros sum to +0.0, as
    in fsum for any signs.  Short vectors, non-finite input and input near
    the overflow threshold go to fsum, which keeps its NaN/inf and errors.
    """
    n = len(a)
    if n < _SUM_MIN_VECTOR:
        return math.fsum(a.tolist())
    m = (n + 1).bit_length()
    # the ufunc reductions skip the array methods' wrappers: a fixed cost
    # that matters for short vectors
    big = max(float(np.maximum.reduce(a)), -float(np.minimum.reduce(a)))
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    if not math.isfinite(big) or e + m > 1023:
        return math.fsum(a.tolist())
    sigma = math.ldexp(1.0, e + m)
    r = np.add(a, sigma)
    r -= sigma
    s = float(np.add.reduce(r))
    np.subtract(a, r, out=r)
    y, err = two_sum(s, float(np.add.reduce(r)))
    delta = math.ldexp(1.0, e + 3 * m - 105)
    if 2.0 * (abs(err) + delta) < abs(y - math.nextafter(y, 0.0)):
        return y
    return _sum_passes(s, r)


def _sum_passes(s: float, r) -> float:
    """fsum of s and the vector r, exactly: further ExtractVector passes
    over r, in place, as in ``v_sum``; the pass sums and the residues left
    after the last pass go to fsum."""
    m, q, sums = (len(r) + 1).bit_length(), np.empty_like(r), [s]
    big = float(np.abs(r, out=q).max())
    while big and len(sums) < _SUM_PASSES:
        sigma = math.ldexp(1.0, math.frexp(big)[1] + m)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        sums.append(float(q.sum()))
        big = float(np.abs(r, out=q).max())
    return math.fsum(sums + r[r != 0].tolist())
