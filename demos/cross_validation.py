"""
Two roads to the same recurrence time
=====================================

A Sturmian word codes an irrational rotation, so the recurrence time of
a prefix cylinder can be computed twice: combinatorially, by scanning
the word for the smallest occurrence gap, and geometrically, as the
first return time of the matching orbit interval under the rotation.
The two must agree exactly, digit for digit, with no floats involved.
"""

from subrec import QuadraticReal, RotationSpec, cross_check, tau_length
from subrec.presets import GOLDEN_CF, SQRT2_CF

spec = RotationSpec(GOLDEN_CF)
rep = cross_check(spec, 40)

print("alpha      :", rep.alpha)
print("depths     :", rep.depth)
print("mismatches :", len(rep.mismatches))

print("\n  n  symbolic  geometric")
for row in rep.rows[:12]:
    print("%3d  %8d  %9d" % (row.n, row.tau_symbolic, row.tau_geometric))

# the geometric side alone answers "how long until the orbit returns to
# within eps of its start" for any eps, via the three-distance ladder
from fractions import Fraction

print()
for den in (2, 10, 100, 1000):
    eps = QuadraticReal(Fraction(1, den))
    print("return within 1/%-4d : %d steps" % (den, tau_length(spec, eps)))

# the sqrt(2) rotation gives a different word, same exact agreement
rep2 = cross_check(RotationSpec(SQRT2_CF), 40)
print("\nsqrt2 mismatches:", len(rep2.mismatches))
