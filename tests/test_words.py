from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import (
    CFExpansion,
    EmptyPattern,
    FixedPointSource,
    InsufficientWindow,
    StandardWordSource,
    fractional_power,
    max_power_witness,
    occurrences,
    return_words,
    tau_cylinder,
    thue_morse,
    word_counts,
)
from subrec.presets import GOLDEN_CF, SQRT2_CF
from subrec.words import _codes, prefix_match
from oracles import (
    naive_max_power,
    naive_max_power_witness,
    naive_min_gap,
    naive_occurrences,
    naive_prefix_match,
    naive_return_words,
)

TM256 = FixedPointSource(thue_morse(), "0").prefix(256)

binary = st.text(alphabet="01", min_size=0, max_size=60)
binary1 = st.text(alphabet="01", min_size=1, max_size=60)


def test_occurrences_frozen():
    assert occurrences("0", "0100101") == [0, 2, 3, 5]
    assert occurrences("aa", "aaa") == [0, 1]
    assert occurrences("ab", "ba") == []
    with pytest.raises(EmptyPattern):
        occurrences("", "01")


def test_return_words_frozen():
    assert return_words("0", "00100") == {"0", "01"}
    assert return_words("01", "0101101") == {"01", "011"}
    with pytest.raises(InsufficientWindow):
        return_words("0010010", "00100100")  # single occurrence


def test_thue_morse_prefix_gaps():
    # "01" occurs in TM at gaps never below 2
    assert tau_cylinder(TM256, 2).tau == naive_min_gap("01", TM256) == 2
    assert tau_cylinder(TM256, 4).tau == naive_min_gap("0110", TM256) == 4


def test_fractional_power_frozen():
    assert fractional_power("011", Fraction(5, 3)) == "01101"
    assert fractional_power("01", 3) == "010101"
    assert fractional_power("ab", Fraction(1, 2)) == "a"
    with pytest.raises(EmptyPattern):
        fractional_power("", 2)


def test_max_power_frozen():
    assert max_power_witness("0101").exponent == 2
    assert max_power_witness("010").exponent == Fraction(3, 2)
    assert max_power_witness("01").exponent == 1
    assert max_power_witness(TM256).exponent == 2


def test_max_power_witness_round_trip():
    w = max_power_witness("0110110")
    assert w.exponent == Fraction(7, 3)
    assert w.base == "011"
    assert w.position == 0
    assert w.factor == "0110110"


def test_word_counts_frozen():
    assert word_counts("0110", 2) == {"01": 1, "11": 1, "10": 1}
    assert word_counts("0000", 1) == {"0": 4}
    assert word_counts("01", 5) == {}
    counts = word_counts(TM256, 3)
    assert sum(counts.values()) == 254
    assert "000" not in counts and "111" not in counts


@given(binary1, binary)
def test_occurrences_match_oracle(pattern, text):
    assert occurrences(pattern, text) == naive_occurrences(pattern, text)


@given(binary1, binary)
def test_return_words_match_oracle(pattern, text):
    if len(naive_occurrences(pattern, text)) < 2:
        return
    assert return_words(pattern, text) == naive_return_words(pattern, text)


@given(binary1)
@settings(max_examples=60)
def test_max_power_matches_oracle(text):
    assert max_power_witness(text).exponent == naive_max_power(text)


@settings(max_examples=150)
@given(binary1 | st.text(alphabet="abé€", min_size=1, max_size=40))
@example("0" * 40)
@example("01" * 20 + "0")
@example("0110110")
@example("a€a€a")
def test_max_power_witness_matches_oracle(text):
    # the early exit must keep the exponent and the tie rule: smallest
    # period, then leftmost position
    w = max_power_witness(text)
    assert (w.exponent, w.base, w.position) == naive_max_power_witness(text)
    assert w.analyzed_length == len(text)


@given(binary1, st.integers(min_value=1, max_value=4))
def test_power_witness_is_a_factor(text, _k):
    w = max_power_witness(text)
    assert w.factor in text
    assert text[w.position : w.position + len(w.factor)] == w.factor


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="01", min_size=1, max_size=300)
    # "€" is not latin-1, so these texts may come as uint32 codes, 2 a word
    | st.text(alphabet="a\u00e9\u20ac", min_size=1, max_size=120)
    # a periodic text matches its prefix to the end from every period
    | st.tuples(st.text(alphabet="01", min_size=1, max_size=5), st.integers(1, 300)).map(
        lambda bn: (bn[0] * 300)[: bn[1]]
    ),
    st.integers(1, 300),
)
@example("0", 1)
@example("0110", 300)  # shorter than one packed word
@example("\u20ac", 300)  # one uint32 code, half a packed word
@example("01" * 1000, 300)  # dense: every even start outlives the first block
@example("a\u20ac" * 40 + "a\u00e9", 100)  # mismatches in the second code of a word
def test_prefix_match_matches_oracle(text, last):
    z = prefix_match(_codes(text), last)
    assert z.dtype == np.min_scalar_type(last)
    assert z.tolist() == naive_prefix_match(text, last)


@given(binary1, st.integers(min_value=1, max_value=6))
def test_word_counts_total(text, length):
    counts = word_counts(text, length)
    expected = max(0, len(text) - length + 1)
    assert sum(counts.values()) == expected
    for w, c in counts.items():
        assert len(occurrences(w, text)) == c


def return_word_counts(text: str, max_len: int) -> dict[str, int]:
    """{factor: number of distinct return words in text}, lengths 1..max_len.

    The occurrences of the length-n factors split those of length n - 1 by
    their n-th symbol, so each length costs one numpy pass over the text.
    """
    arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    groups = [np.arange(len(arr))]
    out = {}
    for n in range(1, max_len + 1):
        groups = [g[g + n <= len(arr)] for g in groups]
        groups = [g[arr[g + n - 1] == s] for g in groups for s in b"01"]
        groups = [g for g in groups if len(g)]
        for pos in groups:
            starts, gaps = pos[:-1], np.diff(pos)
            count = 0
            for gap in np.unique(gaps):
                rows = arr[starts[gaps == gap][:, None] + np.arange(gap)]
                count += 1 if (rows == rows[0]).all() else len({r.tobytes() for r in rows})
            out[text[pos[0] : pos[0] + n]] = count
    return out


periodic_cfs = st.tuples(
    st.lists(st.integers(1, 5), max_size=3),
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
).map(lambda t: CFExpansion(tuple(t[0]), tuple(t[1])))


@settings(max_examples=8, deadline=None)
@given(periodic_cfs)
@example(GOLDEN_CF)
@example(SQRT2_CF)
def test_sturmian_factors_have_exactly_two_return_words(cf):
    # Vuillon (2001): a binary word is Sturmian iff every factor has
    # exactly two return words
    text = StandardWordSource(cf).prefix(100_000)
    head = text[:2000]
    counts = return_word_counts(text, 20)
    for n in range(1, 21):
        factors = {head[i : i + n] for i in range(len(head) - n + 1)}
        assert len(factors) == n + 1
        assert all(counts[u] == 2 for u in factors)
    for u in (head[:1], head[:7], head[5:25]):
        assert len(return_words(u, text)) == counts[u]
