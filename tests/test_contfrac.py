import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subrec import CFExpansion, InsufficientCoefficients, QuadraticReal, parse_cf, quadratic_of_cf
from subrec.contfrac import ladder
from oracles import cf_value, mobius_quadratic, nearest_int_distance

GOLDEN_CF = CFExpansion((), (1,))
SQRT2_CF = CFExpansion((), (2,))


def test_coefficient_indexing():
    cf = CFExpansion((1, 2), (3, 4))
    assert [cf.coefficient(i) for i in range(1, 8)] == [1, 2, 3, 4, 3, 4, 3]
    finite = CFExpansion((5, 6))
    assert [finite.coefficient(i) for i in (1, 2)] == [5, 6]
    with pytest.raises(InsufficientCoefficients):
        finite.coefficient(3)


def test_parse_round_trip():
    for text in ["[0; 1,2 (3,4)]", "[0; (1)]", "[0; 2,2,2]"]:
        cf = parse_cf(text)
        assert parse_cf(str(cf)) == cf
    assert parse_cf("[0; (1)]") == GOLDEN_CF
    with pytest.raises(ValueError):
        parse_cf("1,2,3")


def test_golden_convergents():
    assert list(islice(ladder(GOLDEN_CF), 1, 7)) == [
        (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13),
    ]


def test_sqrt2_convergents():
    assert list(islice(ladder(SQRT2_CF), 1, 5)) == [(1, 2), (2, 5), (5, 12), (12, 29)]


def test_ladder_starts_at_zero_over_one():
    assert list(islice(ladder(GOLDEN_CF), 6)) == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]
    finite = ladder(CFExpansion((3, 1)))
    assert [next(finite) for _ in range(3)] == [(0, 1), (1, 3), (1, 4)]
    with pytest.raises(InsufficientCoefficients, match="a_3 requested"):
        next(finite)


def test_convergents_stop_at_the_last_coefficient():
    finite = CFExpansion((3, 1))
    assert list(islice(ladder(finite), 1, 3)) == [(1, 3), (1, 4)]
    assert list(islice(ladder(finite), 1, 1)) == []
    with pytest.raises(InsufficientCoefficients, match="only 2 coefficients, a_3 requested"):
        list(islice(ladder(finite), 1, 4))


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
def test_convergents_match_fraction_folding(digits):
    cs = list(islice(ladder(CFExpansion(tuple(digits))), 1, len(digits) + 1))
    assert Fraction(*cs[-1]) == cf_value(digits)
    # consecutive convergents satisfy p q' - p' q = +-1
    for (p, q), (p2, q2) in zip(cs, cs[1:]):
        assert abs(p * q2 - p2 * q) == 1


def test_quadratic_of_cf_known_values():
    assert quadratic_of_cf(GOLDEN_CF) == QuadraticReal(
        Fraction(-1, 2), Fraction(1, 2), 5
    )
    assert quadratic_of_cf(SQRT2_CF) == QuadraticReal(-1, 1, 2)
    # [0; 1 (2)] = sqrt(2)/2
    assert quadratic_of_cf(CFExpansion((1,), (2,))) == QuadraticReal(
        0, Fraction(1, 2), 2
    )


@given(
    st.tuples(
        st.lists(st.integers(1, 6), max_size=4),
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
    )
)
def test_quadratic_of_cf_matches_deep_truncation(parts):
    pre, per = parts
    cf = CFExpansion(tuple(pre), tuple(per))
    alpha = quadratic_of_cf(cf)
    approx = cf_value([cf.coefficient(i) for i in range(1, 61)])
    assert abs(float(alpha) - float(approx)) < 1e-12


def test_nearest_int_distance_golden():
    alpha = quadratic_of_cf(GOLDEN_CF)
    assert nearest_int_distance(alpha, 1) == 1 - alpha
    assert nearest_int_distance(alpha, 2) == QuadraticReal(-2, 1, 5)
    assert float(nearest_int_distance(alpha, 3)) == pytest.approx(
        abs(3 * (math.sqrt(5) - 1) / 2 - 2)
    )


def test_convergent_denominators_are_best_approximations():
    for cf in [GOLDEN_CF, SQRT2_CF, CFExpansion((1,), (2,))]:
        alpha = quadratic_of_cf(cf)
        qs = {q for _, q in islice(ladder(cf), 1, 9)}
        best = QuadraticReal(1)
        for k in range(1, max(qs) + 1):
            d = nearest_int_distance(alpha, k)
            if d < best:
                best = d
                assert k in qs or k == 1


quotients = st.integers(1, 10**6)


@given(st.lists(quotients, max_size=4), st.lists(quotients, min_size=1, max_size=6))
def test_quadratic_of_cf_keeps_the_mobius_integer_form(pre, per):
    # the ladder's last two convergents give the Mobius products' entries,
    # so the value comes out in the very integer form, radicand split included
    cf = CFExpansion(tuple(pre), tuple(per))
    assert quadratic_of_cf(cf)._v == mobius_quadratic(pre, per, QuadraticReal)._v
