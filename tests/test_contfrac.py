import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subrec import (
    CFExpansion,
    InsufficientCoefficients,
    QuadraticReal,
    convergents,
    nearest_int_distance,
    parse_cf,
    quadratic_of_cf,
)
from subrec.contfrac import ladder
from oracles import cf_value

GOLDEN_CF = CFExpansion((), (1,))
SQRT2_CF = CFExpansion((), (2,))


def test_coefficient_indexing():
    cf = CFExpansion((1, 2), (3, 4))
    assert [cf.coefficient(i) for i in range(1, 8)] == [1, 2, 3, 4, 3, 4, 3]
    finite = CFExpansion((5, 6))
    assert finite.coefficients(2) == [5, 6]
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
    cs = convergents(GOLDEN_CF, 6)
    assert [(c.p, c.q) for c in cs] == [
        (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13),
    ]


def test_sqrt2_convergents():
    cs = convergents(SQRT2_CF, 4)
    assert [(c.p, c.q) for c in cs] == [(1, 2), (2, 5), (5, 12), (12, 29)]


def test_ladder_starts_at_zero_over_one():
    assert list(islice(ladder(GOLDEN_CF), 6)) == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]
    finite = ladder(CFExpansion((3, 1)))
    assert [next(finite) for _ in range(3)] == [(0, 1), (1, 3), (1, 4)]
    with pytest.raises(InsufficientCoefficients, match="a_3 requested"):
        next(finite)


def test_convergents_stop_at_the_last_coefficient():
    finite = CFExpansion((3, 1))
    assert [(c.index, c.p, c.q) for c in convergents(finite, 2)] == [(1, 1, 3), (2, 1, 4)]
    assert convergents(finite, 0) == []
    with pytest.raises(InsufficientCoefficients, match="only 2 coefficients, a_3 requested"):
        convergents(finite, 3)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
def test_convergents_match_fraction_folding(digits):
    cs = convergents(CFExpansion(tuple(digits)), len(digits))
    assert cs[-1].value == cf_value(digits)
    # consecutive convergents satisfy p q' - p' q = +-1
    for a, b in zip(cs, cs[1:]):
        assert abs(a.p * b.q - b.p * a.q) == 1


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
    approx = cf_value(cf.coefficients(60))
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
        qs = {c.q for c in convergents(cf, 8)}
        best = QuadraticReal(1)
        for k in range(1, max(qs) + 1):
            d = nearest_int_distance(alpha, k)
            if d < best:
                best = d
                assert k in qs or k == 1
