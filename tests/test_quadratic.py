import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import ONE, ZERO, CFExpansion, QuadraticReal, quadratic_of_cf
from guards import within
from oracles import cf_value, floor_quadratic, nearest_int_distance

GOLDEN = QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)
SQRT2M1 = QuadraticReal(-1, 1, 2)


def test_basic_values():
    assert float(GOLDEN) == pytest.approx((math.sqrt(5) - 1) / 2)
    assert float(SQRT2M1) == pytest.approx(math.sqrt(2) - 1)
    assert ZERO == 0
    assert ONE == 1
    assert QuadraticReal(Fraction(3, 7)) == Fraction(3, 7)


def test_radicand_reduction():
    assert QuadraticReal(0, 1, 8) == QuadraticReal(0, 2, 2)
    assert QuadraticReal(0, 1, 45) == QuadraticReal(0, 3, 5)
    # cofactors left after trial division: a large prime squared, and two
    # large distinct primes
    p, q = 1000003, 1000033
    assert QuadraticReal(0, 1, 7 * p * p) == QuadraticReal(0, p, 7)
    assert QuadraticReal(0, 1, 4 * p * q).d == p * q
    assert QuadraticReal(0, 1, p * p * q) == QuadraticReal(0, p, q)
    assert QuadraticReal(0, 1, p * p).is_rational


def test_perfect_square_radicand_folds_to_rational():
    x = QuadraticReal(1, 1, 4)
    assert x.is_rational
    assert x == 3
    assert QuadraticReal(0, 2, 9) == 6
    assert QuadraticReal(Fraction(1, 2), Fraction(1, 2), 1) == 1


def test_arithmetic_golden_identity():
    # x = (sqrt(5)-1)/2 satisfies x^2 + x - 1 = 0
    assert GOLDEN * GOLDEN + GOLDEN - 1 == 0
    assert 1 / GOLDEN == GOLDEN + 1
    assert SQRT2M1 * (SQRT2M1 + 2) == 1


def test_mixed_radicand_needs_rational_operand():
    s2 = QuadraticReal(0, 1, 2)
    s3 = QuadraticReal(0, 1, 3)
    with pytest.raises(ValueError):
        s2 + s3
    assert s2 + Fraction(1, 2) == QuadraticReal(Fraction(1, 2), 1, 2)


@pytest.mark.parametrize(
    "op",
    [operator.add, operator.sub, operator.mul, operator.truediv,
     operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne],
    ids=lambda op: op.__name__,
)
def test_floats_are_refused_on_either_side(op):
    # a float is no exact operand: 1.5 / x used to come back as an exact
    # value built from the float
    with pytest.raises(TypeError):
        op(GOLDEN, 1.5)
    with pytest.raises(TypeError):
        op(1.5, QuadraticReal(2))


def test_equality_with_a_non_number_is_not_implemented():
    # a float raises (above); anything else that is no number is unequal
    assert ONE.__eq__("1") is NotImplemented
    assert ONE != "1" and ONE == 1


@pytest.mark.parametrize("args", [(0.1,), (0, 0.5, 5), (Fraction(1, 2), 1.0, 2), (0, 1, 2.5)])
def test_constructor_refuses_floats(args):
    # QuadraticReal(0.1) used to store 3602879701896397/36028797018963968,
    # and a radicand of 2.5 was truncated to 2
    with pytest.raises(TypeError, match="not floats"):
        QuadraticReal(*args)


def test_comparisons_near_ties():
    # sqrt(2) vs 1.41421356...: rational splits that need exact signs
    s2 = QuadraticReal(0, 1, 2)
    assert s2 > Fraction(141421356, 100000000)
    assert s2 < Fraction(141421357, 100000000)
    assert GOLDEN < Fraction(618034, 1000000)
    assert GOLDEN > Fraction(618033, 1000000)


def test_floor_and_mod1():
    assert (GOLDEN + 3).floor() == 3
    assert (-GOLDEN).floor() == -1
    assert QuadraticReal(Fraction(7, 2)).floor() == 3
    assert QuadraticReal(-2).floor() == -2
    x = (GOLDEN + 3).mod1()
    assert x == GOLDEN
    y = (-GOLDEN).mod1()
    assert y == 1 - GOLDEN


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
radicands = st.sampled_from([2, 3, 5, 7, 10])


@st.composite
def quads(draw, d=None, coeffs=rationals):
    if d is None:
        d = draw(radicands)
    return QuadraticReal(draw(coeffs), draw(coeffs), d)


@given(radicands.flatmap(lambda d: st.tuples(quads(d=d), quads(d=d))))
def test_field_axioms_same_radicand(pair):
    x, y = pair
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)
    if y != 0:
        assert (x / y) * y == x


@given(quads())
def test_floor_bracket(x):
    f = x.floor()
    assert isinstance(f, int)
    assert QuadraticReal(f) <= x < QuadraticReal(f + 1)
    m = x.mod1()
    assert ZERO <= m < ONE
    assert x - m == f


@given(radicands.flatmap(lambda d: st.tuples(quads(d=d), quads(d=d))))
def test_float_agrees_with_exact_comparison(pair):
    # when floats are clearly apart the exact order must agree
    x, y = pair
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)


def test_long_period_radicand_is_fast():
    cf = CFExpansion((), (3, 7, 11, 13, 17, 19, 23))
    with within(2):
        alpha = quadratic_of_cf(cf)
    assert alpha.d > 10**14
    assert float(alpha) == pytest.approx(float(cf_value([cf.coefficient(i) for i in range(1, 41)])))


def test_long_period_with_large_prime_factors_is_fast():
    # the 30-digit radicand is 181 * 147229 * 121496491297 * 195626444821:
    # trial division below 1000 takes out 181, and the cofactor, no perfect
    # square, stays in d whole (it happens to be squarefree)
    with within(2):
        alpha = quadratic_of_cf(CFExpansion((), tuple(range(1, 18))))
    den = 89622746262146
    assert (alpha.a, alpha.b) == (Fraction(-733314246835689, den), Fraction(1, den))
    assert alpha.d == 181 * 147229 * 121496491297 * 195626444821


def assert_solves_tail_equation(period, alpha):
    # alpha = [0; y] with y = [b1; b2, ..., bm, b1, ...] purely periodic, so
    # q*y*y + (q' - p)*y - p' = 0 for the period's matrix (p, p'; q, q')
    p, p2, q, q2 = 1, 0, 0, 1
    for a in period:
        p, p2, q, q2 = p * a + p2, p, q * a + q2, q
    y = 1 / alpha
    assert q * y * y + (q2 - p) * y - p2 == 0


@pytest.mark.parametrize("n", [19, 21])
def test_radicands_past_any_factoring_give_exact_values(n):
    # 4 * 33381897457322573 * 557081824272174937 (n = 19) and a 41-digit
    # radicand (n = 21) used to be refused after seconds of rho steps
    period = tuple(range(1, n + 1))
    with within(2):
        alpha = quadratic_of_cf(CFExpansion((), period))
    assert_solves_tail_equation(period, alpha)
    digits = [period[(i - 1) % n] for i in range(1, 62)]
    for k in range(1, 61):
        lo, hi = sorted((cf_value(digits[:k]), cf_value(digits[: k + 1])))
        assert lo < alpha < hi


def test_every_period_up_to_40_is_fast_and_exact():
    for n in range(1, 41):
        period = tuple(range(1, n + 1))
        with within(2):
            alpha = quadratic_of_cf(CFExpansion((), period))
        assert_solves_tail_equation(period, alpha)


@pytest.mark.parametrize("e", [20, 30, 400])
def test_floor_of_huge_multiples_is_fast(e):
    k = 10**e
    with within(2):
        f = (GOLDEN * k).floor()
        dist = nearest_int_distance(GOLDEN, k)
    assert f == floor_quadratic(-k, k, 5, 2)
    frac = GOLDEN * k - f
    assert dist == min(frac, 1 - frac)


big_rationals = st.builds(Fraction, st.integers(-10**50, 10**50), st.integers(1, 10**50))
big_radicands = st.one_of(
    st.integers(2, 10**12),
    # square factors, large and small, including perfect squares (m = 1)
    st.builds(lambda k, m: k * k * m, st.integers(2, 10**4), st.integers(1, 10**4)),
)
multipliers = st.integers(-10**400, 10**400)


def big_quads(d):
    return quads(d=d, coeffs=big_rationals)


@settings(deadline=None)
@given(big_rationals, big_rationals, big_radicands, multipliers)
def test_floor_matches_isqrt_oracle(a, b, d, k):
    x = QuadraticReal(a, b, d) * k
    den = math.lcm(a.denominator, b.denominator)
    expected = floor_quadratic(
        a.numerator * (den // a.denominator) * k, b.numerator * (den // b.denominator) * k, d, den
    )
    assert x.floor() == math.floor(x) == expected
    m = x.mod1()
    assert ZERO <= m < ONE
    assert x - m == expected
    assert x.sign() == (-1 if expected < 0 else 0 if x == 0 else 1)


@settings(deadline=None)
@given(big_radicands.flatmap(lambda d: st.tuples(big_quads(d), big_quads(d), big_quads(d))))
def test_field_axioms_large(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ZERO and x + (-x) == 0
    if x != 0:
        assert x * (1 / x) == ONE
        assert (y / x) * x == y
    # the integer form against the textbook formulas on a and b
    d = x.d or y.d
    assert (x + y).a == x.a + y.a and (x + y).b == x.b + y.b
    assert (x * y).a == x.a * y.a + x.b * y.b * d
    assert (x * y).b == x.a * y.b + x.b * y.a


@given(st.integers(-10**50, 10**50).filter(bool), st.integers(2, 10**6), st.integers(1, 10**6))
def test_square_factors_move_into_the_coefficient(k, m, j):
    assert QuadraticReal(0, k, m * j * j) == QuadraticReal(0, k * j, m)


PRIMES_ABOVE_1000 = st.sampled_from([1009, 1013, 7919, 1000003, 1000033, 10**9 + 7, 2**61 - 1])
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@settings(deadline=None)
@given(PRIMES_ABOVE_1000, PRIMES_ABOVE_1000, small_rationals, small_rationals.filter(bool),
       st.tuples(small_rationals, small_rationals.filter(bool)))
@example(1000003, 1000033, Fraction(0), Fraction(1), (Fraction(1), Fraction(1)))
def test_radicands_split_differently_hold_one_value(p, q, a, c, other):
    # p*p*q is past 10**9 and no prime of it is below 1000, so its square
    # factor stays in d; the two splits must still be one number
    x = QuadraticReal(a, c, p * p * q)
    y = QuadraticReal(a, c * p, q)
    assert (x.d, y.d) == (p * p * q, q)
    assert x == y and y == x and hash(x) == hash(y)
    assert not (x < y or y < x) and x <= y <= x
    z = QuadraticReal(other[0], other[1], q)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(x, z) == op(y, z) and op(z, x) == op(z, y)
        assert repr(op(x, z)) == repr(op(y, z))  # both land on radicand q
    assert (x < z) == (y < z) and (z < x) == (z < y)
    assert repr(x + y) == repr(y + x) == repr(2 * y)
    assert x * y == y * y and x / y == 1 and x - y == 0
    assert x + 1 != y and hash(x + 1) == hash(y + 1)
    stranger = QuadraticReal(0, 1, 2 * q)  # 2*p*p*q*q is no square
    assert x != stranger and stranger != y
    for op in (operator.add, operator.mul, operator.truediv, operator.lt):
        with pytest.raises(ValueError, match="mixed radicands"):
            op(x, stranger)
        with pytest.raises(ValueError, match="mixed radicands"):
            op(stranger, x)


@given(big_rationals, st.integers(0, 10**6))
def test_rational_hash_matches_fraction(f, j):
    assert hash(QuadraticReal(f)) == hash(f)
    folded = QuadraticReal(f, 1, j * j)  # perfect-square radicand
    assert folded == f + j
    assert hash(folded) == hash(f + j)


@settings(deadline=None)
@given(big_radicands.flatmap(big_quads))
def test_components_round_trip(x):
    assert isinstance(x.a, Fraction) and isinstance(x.b, Fraction)
    y = QuadraticReal(x.a, x.b, x.d)
    assert y == x
    assert (y.a, y.b, y.d) == (x.a, x.b, x.d)
    assert hash(y) == hash(x)


# each ordering as a test on the sign of x - y
ORDERINGS = {
    operator.lt: lambda s: s < 0,
    operator.le: lambda s: s <= 0,
    operator.gt: lambda s: s > 0,
    operator.ge: lambda s: s >= 0,
}


@st.composite
def ordered_pairs(draw):
    """(x, y): x a QuadraticReal over a radicand up to 10**12 (or a
    rational), y in the same field, near x, rational, an int or a Fraction."""
    d = draw(big_radicands)
    coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    x = QuadraticReal(draw(coeffs), draw(st.sampled_from([0, 1])) * draw(coeffs), d)
    kind = draw(st.sampled_from(["field", "near", "same b", "rational", "int", "fraction"]))
    if kind == "field":
        y = QuadraticReal(draw(coeffs), draw(coeffs), d)
    elif kind == "near":
        y = x + Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 10**30)))
    elif kind == "same b":
        y = QuadraticReal(draw(coeffs), x.b, x.d)
    elif kind == "rational":
        y = QuadraticReal(draw(coeffs))
    elif kind == "int":
        y = draw(st.integers(-10**6, 10**6))
    else:
        y = draw(coeffs)
    return x, y


@settings(deadline=None, max_examples=300)
@given(ordered_pairs())
def test_comparisons_agree_with_the_sign_of_the_difference(pair):
    x, y = pair
    sign = (x - y).sign()
    for op, holds in ORDERINGS.items():
        assert op(x, y) == holds(sign)
        assert op(y, x) == holds(-sign)  # an int or Fraction on the left
    assert (x == y) == (sign == 0)
    for other in (float(x), str(x), None):
        for op in ORDERINGS:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    if x.d:
        stranger = QuadraticReal(0, 1, 3 if x.d == 2 else 2)
        for op in ORDERINGS:
            with pytest.raises(ValueError, match="mixed radicands"):
                op(x, stranger)
