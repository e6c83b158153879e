"""Diagonal ergodic averages for commuting circle rotations.

Measures time averages (1/N) sum_n f1(T1^n x) ... fd(Td^n x) along orbits,
predicts their limits in closed form, and compares the two.  With each
constant written as a_i + c_i * beta_m * sqrt(m) and q the lcm of the
a-denominators, Weyl equidistribution gives the limit

    (1/q) sum_{j<q} prod_{rational i} f_i({x0 + j a_i}) prod_m G_m[j mod q_m]

with G_m[r] the integral over t of prod_{i over m} f_i(x0 + r a_i + c_i t).
A literal constant is the rational of its shortest round-trip decimal, so
the literal 0.1 is exactly 1/10.  A prediction is not applicable when q
exceeds 2**20 or when the quadratures of a class (one Gauss-Legendre panel
per polynomial piece of degree up to 15) exceed the panel budget.
"""

from .dynsys import finite_rotation, identity, rotation, rotation_power
from .engine import (AverageTrace, Schedule, intersection_average,
                     multiple_average, run_job)
from .observables import (Observable, frac_part, indicator, integrate,
                          piecewise_linear, power_of_frac, product, trig_poly)
from .oracle import (ComparisonReport, Prediction, compare, predict,
                     predict_intersection, weyl_form)
from .unitmath import (CompensatedSum, ScalarConstant, UnitPoint, frac,
                       orbit_point)

__version__ = "0.1.0"
