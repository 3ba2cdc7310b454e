"""
Exact arithmetic behind the scenes
==================================

All geometric quantities live in a quadratic number field, so the
library never compares floats.  This walks through the pieces: field
elements, continued fractions, convergents, and the exact cylinder
measures they produce.
"""

from fractions import Fraction
from itertools import islice

from subrec import CFExpansion, QuadraticReal, cylinder_measure, mu_tower_values
from subrec.contfrac import ladder
from subrec.presets import golden_kappa_steps, rotation_spec

# the golden angle 1/phi = (sqrt(5) - 1) / 2, as an exact field element
alpha = QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)
print("alpha            :", alpha, "=", float(alpha))
print("alpha**2 + alpha :", alpha * alpha + alpha)  # == 1, exactly
print("1/alpha - alpha  :", QuadraticReal(1, 0, 5) / alpha - alpha)

# values are stored as integers (p + q*sqrt(d)) / r; square factors of a
# radicand move into the coefficient at construction (all of them below
# 10**9), and equal numbers compare equal whatever they were built from
print("sqrt(8) == 2*sqrt(2):", QuadraticReal(0, 1, 8) == QuadraticReal(0, 2, 2))

# floor is exact integer work (math.isqrt), with no float guess to correct,
# so even alpha * 10**400, far beyond any float, floors at once
print("floor(alpha * 10**400) mod 10**6:", (alpha * 10**400).floor() % 10**6)

# its continued fraction has all digits 1; convergents are Fibonacci
cf = CFExpansion((), (1,))
print("\nconvergents:", list(islice(ladder(cf), 1, 9)))

# fractional parts k*alpha mod 1 order themselves with at most three
# distinct gap lengths; comparisons below are exact, not float
pts = sorted((alpha * k).mod1() for k in range(8))
gaps = {b - a for a, b in zip(pts, pts[1:])}
print("\ndistinct gaps among {k alpha}, k < 8:")
for g in sorted(gaps):
    print("  ", g, "=", float(g))

# cylinder measures of short factors, exact and summing to 1 per length
spec = rotation_spec("fibonacci")
for w in ("0", "1", "01", "10", "11"):
    print("measure[%s] = %s" % (w, cylinder_measure(spec, w)))

# Kac's theorem: length-weighted return cylinder measures sum to 1,
# and the identity holds exactly at every tower depth
for n in range(1, 7):
    m0, m1 = mu_tower_values(spec, golden_kappa_steps(n))
    assert m0 + m1 == QuadraticReal(1, 0, 5)
    print("depth %d weights: %s + %s" % (n, m0, m1))
