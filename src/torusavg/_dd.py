"""Error-free float transforms, exact ratios and exactly rounded sums.

``two_sum`` is error-free on Python floats and on numpy arrays alike.
``dd_mod1`` rounds an exact integer ratio p/q, modulo 1, once to a
double-double (hi, lo) pair.  ``v_sum`` is an exactly rounded sum of a
numpy vector.

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


def dd_mod1(p, q):
    """p/q modulo 1 for ints q > 0 as a double-double rounded once: hi the
    float nearest it, lo the float nearest the rest (int true division
    rounds so), and so the same for any form of the ratio.  A value whose hi
    rounds up to 1.0 lies on the circle at 0: (0.0, 0.0)."""
    p %= q
    h = p / q
    if h == 1.0:
        return 0.0, 0.0
    n, d = h.as_integer_ratio()
    return h, (p * d - n * q) / (q * d)


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
