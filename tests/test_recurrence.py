import copy
import pickle
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import (
    CFExpansion,
    FixedTextSource,
    KappaSource,
    PeriodicSource,
    RateSeries,
    ReturnTableRow,
    ShiftedSource,
    StandardWordSource,
    TauResult,
    WindowCapExceeded,
    WindowPolicy,
    lr_constant_estimate,
    power_report,
    rate_series,
    return_table,
    tau_cylinder,
    word_counts,
)
from subrec import presets
from subrec.cli import SUITES, build_parser, main
from subrec.generators import gamma, rho
from subrec.presets import get_preset, golden_kappa_steps, preset_names
from subrec import recurrence
from subrec.recurrence import DEFAULT_POLICY, _deepest_pair
from subrec.rotation import RotationSpec
from subrec.words import (
    EmptyPattern,
    InsufficientWindow,
    PowerWitness,
    _codes,
    factor_keys,
    prefix_match,
)
from guards import within
from oracles import (
    NaiveWindowError,
    naive_factor_stats,
    naive_occurrences,
    naive_rate_csv,
    naive_return_words,
    naive_running_min,
    naive_tail_extremes,
    naive_tau,
    naive_windowed_tau,
)


def test_window_policy_schedule():
    pol = WindowPolicy(base=10_000, cap=1_000_000)
    assert pol.initial(1) == 10_000
    assert pol.initial(300) == 15_000
    assert pol.initial(100_000) == 1_000_000
    assert pol.grow(600_000) == 1_000_000
    assert WindowPolicy(base=5000, cap=100).initial(1) == 100  # the cap wins over base
    ns = np.array([1, 300, 100_000])
    assert pol.initial(ns).tolist() == [10_000, 15_000, 1_000_000]
    assert pol.grow(np.array([1, 600_000])).tolist() == [2, 1_000_000]


@pytest.mark.parametrize("call", [
    lambda: WindowPolicy(10**20, 10**20).initial(5),
    lambda: rate_series(get_preset("fibonacci"), 5, WindowPolicy(10_000, 10**20)),
    lambda: WindowPolicy(2**63, 5),
    lambda: WindowPolicy(10_000, 2**62),  # grow would double a window past int64
], ids=["initial", "rate_series", "base-above-cap", "cap-at-2-62"])
def test_window_policy_refuses_windows_beyond_int64(call):
    with pytest.raises(ValueError, match=r"^words are limited to 2\*\*62 symbols, \d+ requested$"):
        call()


def test_window_policy_takes_the_largest_window_it_can_double():
    policy = WindowPolicy(2**62 - 1, 2**62 - 1)
    assert policy.initial(5) == 2**62 - 1 and policy.grow(policy.initial(5)) == 2**62 - 1
    assert WindowPolicy(base=2**62 - 1, cap=100).initial(5) == 100  # base > cap stays allowed


def test_the_sweep_reads_no_symbol_past_the_window_cap():
    # no depth at or past the cap recurs in a cap-window; reading 30000000
    # symbols first took 2.5 s and 921 MB, and building the finite
    # unbounded word to that depth 3.4 s and 394 MB
    policy = WindowPolicy(1000, 2000)
    fib = get_preset("fibonacci")
    tracemalloc.start()
    try:
        with within(1):
            with pytest.raises(WindowCapExceeded, match="^prefix of depth 987 of fibonacci recurs"):
                rate_series(fib, 30_000_000, policy)
            with pytest.raises(WindowCapExceeded, match="^prefix of depth 10000000000 of fibonacci "
                               "recurs less than twice in a 2000-window$"):
                tau_cylinder(fib, 10**10, policy)
            with pytest.raises(WindowCapExceeded, match="^prefix of depth 30000000 of unbounded "
                               "recurs less than twice in a 2000-window$"):
                tau_cylinder(get_preset("unbounded"), 3 * 10**7, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a word's max_length, known before any symbol is read, decides the error
    short = StandardWordSource(CFExpansion((3,)))
    with pytest.raises(WindowCapExceeded, match="^source standard .* ends after 4 symbols, cylinder depth 10"):
        tau_cylinder(short, 10, WindowPolicy(1, 2))
    with pytest.raises(WindowCapExceeded, match="^prefix of depth 10 of shift of fibonacci recurs"):
        tau_cylinder(ShiftedSource(fib), 10, WindowPolicy(1, 2))


def test_the_sweep_matches_no_further_than_its_text():
    # the prefix match is capped at the text read, 2**20 symbols, not at the
    # depth, so its arrays are uint32: a traced peak of 77.4 MiB, against
    # 82.4 MiB when they were uint64
    tracemalloc.start()
    try:
        with pytest.raises(WindowCapExceeded, match="^prefix of depth 534348 of fibonacci "
                           "recurs less than twice in a 1048576-window$"):
            rate_series(get_preset("fibonacci"), 10**15, WindowPolicy(1000, 2**20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 << 20


def test_the_sweep_sizes_its_columns_to_the_depths_with_two_starts():
    # the text read reaches the cap, so no depth past the deepest prefix
    # with two starts (534347 here) can recur: the depth columns stop one
    # past it, not at the text length. A traced peak of 33.3 MiB, against
    # 77.4 MiB with columns for all 2**20 depths
    tracemalloc.start()
    try:
        with pytest.raises(WindowCapExceeded, match="^prefix of depth 534348 of fibonacci "):
            rate_series(get_preset("fibonacci"), 10**15, WindowPolicy(1000, 2**20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_the_block_walk_holds_no_index_array_while_a_block_is_worked_on():
    # the first block's starts are every position with z >= 1, 10**7 of
    # them: a traced peak of 108.4 MiB, against 137.5 MiB when the walk
    # kept their int64 index array alive across the block's rounds
    fib = get_preset("fibonacci")
    fib.prefix(10**7)  # the sweep reads 10**7 symbols; the source holds them already
    tracemalloc.start()
    try:
        rate_series(fib, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 120 << 20


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=60) | st.sampled_from(["0", "00", "0" * 40, "01" * 20]),
       st.integers(1, 70))
def test_deepest_pair_matches_oracle(text, last):
    def lcp(p):
        return next((m for m in range(len(text) - p) if text[p + m] != text[m]), len(text) - p)

    want = max(map(lcp, range(1, len(text))), default=0)
    last = min(last, len(text))
    z = prefix_match(_codes(text), last)
    assert min(_deepest_pair(z, last), last) == min(want, last)


class CapFirst(WindowPolicy):
    def initial(self, n):
        return np.full_like(n, self.cap)


class Quadruple(WindowPolicy):
    def grow(self, window):
        return np.minimum(4 * window, self.cap)


def test_the_sweep_takes_its_windows_from_the_policy():
    fib = get_preset("fibonacci")
    rs = rate_series(fib, 300, CapFirst(100, 1600))
    assert (rs.window == 1600).all() and not rs.stabilized.any()
    assert tau_cylinder(fib, 300, CapFirst(100, 1600)) == TauResult(300, 233, 1600, False)
    doubled = rate_series(fib, 300, WindowPolicy(1, 10**6))
    quadrupled = rate_series(fib, 300, Quadruple(1, 10**6))
    assert quadrupled.tau.tolist() == doubled.tau.tolist()
    assert quadrupled.stabilized.all() and doubled.stabilized.all()
    for n, w in zip(quadrupled.n.tolist(), quadrupled.window.tolist()):
        assert w in {50 * n * 4**k for k in range(5)}
    assert not np.array_equal(quadrupled.window, doubled.window)


def test_periodic_tau_is_period():
    src = PeriodicSource("01")
    for n in (1, 2, 7, 50):
        r = tau_cylinder(src, n)
        assert r.tau == 2
        assert r.stabilized
        assert r.ratio == Fraction(2, n)


def test_thue_morse_small_tau():
    src = get_preset("thue-morse")
    # "0" recurs immediately at 00; "01" at positions 10 and 12
    assert tau_cylinder(src, 1).tau == 1
    assert tau_cylinder(src, 2).tau == 2
    assert tau_cylinder(src, 3).tau == 4
    assert naive_tau(src.prefix(64), 2) == 2


@pytest.mark.parametrize(
    "name", ["periodic01", "fibonacci", "sqrt2", "thue-morse", "golden-rotation"]
)
def test_tau_matches_naive_oracle(name):
    src = get_preset(name)
    text = src.prefix(10_000)
    for n in range(1, 13):
        assert tau_cylinder(src, n).tau == naive_tau(text, n)


@pytest.mark.parametrize("name", ["fibonacci", "thue-morse", "sqrt2"])
def test_tau_nondecreasing_in_depth(name):
    src = get_preset(name)
    taus = [tau_cylinder(src, n).tau for n in range(1, 31)]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_tau_raises_when_prefix_never_recurs():
    src = FixedTextSource("01" + "0" * 200)
    with pytest.raises(WindowCapExceeded):
        tau_cylinder(src, 2)


def test_rate_series_frozen_periodic():
    rs = rate_series(PeriodicSource("01"), 100)
    assert rs.depth == 100
    assert rs.tail_start == 51
    assert rs.tail_min() == Fraction(1, 50)
    assert rs.tail_max() == Fraction(2, 51)
    assert rs.stabilized_fraction() == 1
    mins = rs.running_min()
    assert mins[0] == 2 and mins[-1] == Fraction(1, 50)
    assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_rate_series_csv_round_trip():
    rs = rate_series(PeriodicSource("01"), 5)
    lines = rs.to_csv().strip().splitlines()
    assert lines[0] == "n,tau,ratio_num,ratio_den,window,stabilized"
    assert len(lines) == 6
    n, tau, num, den, window, stab = lines[3].split(",")
    assert (int(n), int(tau)) == (3, 2)
    assert Fraction(int(num), int(den)) == Fraction(2, 3)
    assert int(window) > 0 and stab == "1"


def series(source, depth, rows):
    """The RateSeries of rows (n, tau, window, stabilized), its tau column
    holding Python ints when a tau does not fit int64."""
    n, tau, window, stabilized = zip(*rows) if rows else ((),) * 4
    big = any(t >= 2**63 for t in tau)
    columns = np.array(n, np.int64), np.array(tau, object if big else np.int64)
    return RateSeries(source, depth, *columns, np.array(window, np.int64), np.array(stabilized, bool))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 60) | st.integers(1, 10**12)),
        max_size=30,
    ),
)
def test_rate_summaries_match_their_fraction_definitions(depth, pairs):
    # small n and tau make equal ratios in lowest and in higher terms
    rows = [(n, tau, 100, True) for n, tau in pairs]
    entries = [TauResult(*r) for r in rows]
    rs = series("x", depth, rows)
    ratios = [Fraction(e.tau, e.n) for e in entries]
    tail = [r for e, r in zip(entries, ratios) if e.n >= depth // 2 + 1]
    for got, want in ((rs.tail_min, min), (rs.tail_max, max)):
        if tail:
            assert got() == want(tail) and type(got()) is Fraction
        else:
            with pytest.raises(ValueError):
                got()
    assert rs.running_min() == [min(ratios[: i + 1]) for i in range(len(ratios))]
    rows = rs.to_csv().splitlines()[1:]
    assert rows == [
        "%d,%d,%d,%d,100,1" % (e.n, e.tau, r.numerator, r.denominator)
        for e, r in zip(entries, ratios)
    ]


@st.composite
def rate_rows(draw):
    """(depth, rows) with rows (n, tau, window, stabilized); in some draws
    tau runs to 2**70, so tau * n passes 2**63 and the tau column holds
    Python ints."""
    depth = draw(st.integers(1, 40))
    taus = st.integers(1, 60) | st.integers(1, 10**12)
    if draw(st.booleans()):
        taus = taus | st.integers(2**53, 2**70)
    row = st.tuples(st.integers(1, 40), taus, st.integers(1, 10**7), st.booleans())
    return depth, draw(st.lists(row, max_size=30))


@settings(max_examples=300, deadline=None)
@given(rate_rows())
@example((10, [(6, 2**61, 100, True), (7, 2**61 + 1, 100, False)]))  # int64 tau, tau * n >= 2**63
@example((4, [(3, 3 * 2**53 + 1, 1, True), (3, 3 * 2**53, 1, True), (4, 4 * 2**53 + 1, 1, True)]))
@example((40, [(1, 2, 3, True), (20, 7, 3, False)]))  # no row in the tail
# the second ratio is the smaller, though its float is equal, then greater
@example((1, [(2**30, 2**30 + 1, 1, True), (2**30 + 1, 2**30 + 2, 1, True)]))
@example((1, [(40, 9007199255480685, 1, True), (27, 6079859497449462, 1, True)]))
def test_rate_columns_match_the_row_references(case):
    # ratios that floats cannot tell apart must still be ordered exactly
    depth, rows = case
    entries = [TauResult(*r) for r in rows]
    rs = series("x", depth, rows)
    assert rs.entries == entries
    assert rs.to_csv() == naive_rate_csv(rows)
    assert rs.running_min() == naive_running_min(rows)
    try:
        want = naive_tail_extremes(rows, depth)
    except ValueError:
        for got in (rs.tail_min, rs.tail_max):
            with pytest.raises(ValueError):
                got()
    else:
        assert (rs.tail_min(), rs.tail_max()) == want
    assert (rs == series("x", depth, rows)) is True
    assert rs != series("y", depth, rows)
    assert pickle.loads(pickle.dumps(rs)) == rs == copy.deepcopy(rs)


def test_a_swept_series_reads_like_its_entries():
    rs = rate_series(get_preset("fibonacci"), 300, WindowPolicy(100, 1600))
    rows = [(e.n, e.tau, e.window, e.stabilized) for e in rs.entries]
    assert not all(r[3] for r in rows)  # the cap leaves some depths unstabilized
    assert series(rs.source, 300, rows) == rs
    assert repr(rs) == "RateSeries(source='fibonacci', depth=300, rows=300)"
    assert rs.to_csv() == naive_rate_csv(rows)
    assert rs.running_min() == naive_running_min(rows)
    assert (rs.tail_min(), rs.tail_max()) == naive_tail_extremes(rows, 300)


def test_rate_series_on_finite_kappa_source():
    src = KappaSource(golden_kappa_steps(8))
    assert src.max_length == 2584
    rs = rate_series(src, 10)
    assert all(e.stabilized for e in rs.entries)
    assert [e.tau for e in rs.entries[:4]] == [2, 2, 5, 5]


def suite_on(word, depth, policy=DEFAULT_POLICY):
    """The checks of the sub-invariance suite with word as its one preset."""
    with mock.patch.object(presets, "preset_names", lambda: [word.name]), \
            mock.patch.object(presets, "get_preset", lambda name: word):
        return list(SUITES["sub-invariance"](depth, policy))


def test_sub_invariance_on_presets():
    checks = list(SUITES["sub-invariance"](depth=100))
    assert [name for name, _, _ in checks] == preset_names()
    assert all(passed and detail == "checked 99, skipped 0" for _, passed, detail in checks)
    with pytest.raises(ValueError, match="^need depth >= 2$"):
        suite_on(get_preset("fibonacci"), 1)


def test_lr_estimate_periodic_frozen():
    rep = lr_constant_estimate(PeriodicSource("01"), 4, 64)
    assert rep.k_estimate == 2
    assert rep.k_witness == "0"
    assert rep.k_lower_gap == Fraction(1, 2)
    assert rep.gap_witness == "0101"
    assert rep.window == 64


def test_lr_estimate_fibonacci():
    rep = lr_constant_estimate(get_preset("fibonacci"), 20, 5000)
    # golden-angle words are linearly recurrent with constant 3
    assert rep.k_estimate == 3
    assert 1 <= rep.k_estimate <= 3


def test_power_report_periodic():
    rep = power_report(PeriodicSource("01"), 64)
    assert rep.exponent == 32
    assert rep.analyzed_length == 64
    assert rep.base == "01"
    assert rep.position == 0
    assert rep.factor == "01" * 32
    with pytest.raises(ValueError):
        power_report(PeriodicSource("01"), 8)


def test_return_table_fibonacci():
    rows = return_table(get_preset("fibonacci"), 3, 2000)
    assert [r.tau for r in rows] == [2, 2, 5]
    assert rows[2].prefix == "010"
    assert rows[2].words == ("01011", "01011011")
    for r in rows:
        assert r.tau == len(r.words[0])
    with pytest.raises(EmptyPattern):
        return_table(get_preset("fibonacci"), 3, 0)


def factor_gap_rows(text, length):
    """(min gap, max gap, first position) per distinct key of the
    length-`length` factors, in key order; gaps are None for a key met once."""
    for keys in factor_keys(text, length):
        pass
    starts = {}
    for i, key in enumerate(keys.tolist()):
        starts.setdefault(key, []).append(i)
    rows = []
    for key in sorted(starts):
        occ = starts[key]
        gaps = [b - a for a, b in zip(occ, occ[1:])]
        rows.append((min(gaps, default=None), max(gaps, default=None), occ[0]))
    return rows


def check_factor_stats(text, length):
    want = naive_factor_stats(text, length)
    assert word_counts(text, length) == {w: c for w, (c, _, _) in want.items()}
    rows = factor_gap_rows(text, length)
    assert len(rows) == len(want)
    got = {text[p : p + length]: (lo, hi) for lo, hi, p in rows}
    assert got == {w: (lo, hi) for w, (_, lo, hi) in want.items()}
    assert list(got) == sorted(got)


@pytest.mark.parametrize("length", [61, 62, 63, 64, 65])
def test_factor_gaps_and_counts_match_oracle(length):
    # lengths around 62, where packed binary keys would pass 2**62; every
    # level is a dense rank, and groups come in lexicographic order at each
    rng = random.Random(length)
    texts = [
        get_preset("fibonacci").prefix(400),
        get_preset("thue-morse").prefix(400),
        "0" * 100,
        "".join(rng.choice("01") for _ in range(40)) * 6,
        "".join(rng.choice("01") for _ in range(200)),
    ]
    for text in texts:
        check_factor_stats(text, length)


# largest length whose packed keys k**length would stay below 2**62, per
# alphabet size k: the lengths around it and past it still have to work
PACKING_LIMIT = {1: 300, 2: 62, 3: 39, 4: 31}


@pytest.mark.parametrize("alphabet", ["x", "01", "a\u00e9\u20ac", "0\u0434\u20ac\U0001d11e"])
def test_factor_keys_across_re_ranks_match_oracle(alphabet):
    # a mutated periodic text keeps long factors repeating, so groups at
    # three times that length still hold more than one start
    limit = PACKING_LIMIT[len(alphabet)]
    rng = random.Random(alphabet)
    block = "".join(rng.choice(alphabet) for _ in range(23))
    text = list(block * (3 * min(limit, 100) // len(block) + 3))
    for i in rng.sample(range(len(text)), 4):
        text[i] = rng.choice(alphabet)
    text = "".join(text)
    lengths = {1, 2, limit - 1, limit, limit + 1, 2 * limit, 3 * limit}
    for length in sorted(n for n in lengths if n <= len(text)):
        check_factor_stats(text, length)
    rows = list(factor_keys(text, len(text)))
    assert [len(keys) for keys in rows] == list(range(len(text), 0, -1))


def test_factor_keys_on_a_wide_alphabet():
    # 300 symbols: ranks need two bytes, and a bincount over 300 times the
    # distinct factors would outgrow the text, so levels past the first
    # rank by sorting
    block = [chr(0x100 + i) for i in range(300)]
    random.Random(300).shuffle(block)
    text = "".join(block) * 2 + "".join(block[:50])
    for length in (1, 2, 7, 8, 9):
        check_factor_stats(text, length)


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="01", min_size=1, max_size=80)
    | st.text(alphabet="a\u00e9\u20ac\U0001d11e", min_size=1, max_size=60)
    | st.text(alphabet=[chr(0x100 + i) for i in range(300)], min_size=1, max_size=400),
)
@example("0" * 70)
@example(get_preset("fibonacci").prefix(200))
def test_factor_keys_are_dense_lexicographic_ranks(text):
    # each level holds exactly 0..distinct-1 in the narrowest unsigned dtype,
    # ranked like the sorted distinct factors
    for length, keys in enumerate(factor_keys(text, len(text)), 1):
        factors = [text[i : i + length] for i in range(len(text) - length + 1)]
        rank = {w: r for r, w in enumerate(sorted(set(factors)))}
        assert keys.tolist() == [rank[w] for w in factors]
        assert keys.dtype == np.min_scalar_type(len(rank) - 1)
        assert keys.dtype.kind == "u"


def naive_lr(text, max_len):
    """(K, min gap ratio, K witness, gap witness) over lengths 1..max_len;
    the shortest length, then the lexicographically first factor, wins a
    tie. The error text instead if some factor occurs once."""
    k_est = k_low = None
    for length in range(1, max_len + 1):
        stats = naive_factor_stats(text, length)
        for w in sorted(stats):
            count, lo, hi = stats[w]
            if count < 2:
                return "factor %r occurs only once in a %d-window; enlarge it" % (w, len(text))
            if k_est is None or Fraction(hi, length) > k_est[0]:
                k_est = (Fraction(hi, length), w)
            if k_low is None or Fraction(lo, length) < k_low[0]:
                k_low = (Fraction(lo, length), w)
    return k_est[0], k_low[0], k_est[1], k_low[1]


# a periodic text has every short factor recur; a free one mostly does not
lr_texts = st.one_of(
    st.text(alphabet="01", min_size=2, max_size=40),
    st.text(alphabet="a\u00e9\u20ac", min_size=2, max_size=30),
    st.one_of(
        st.text(alphabet="01", min_size=1, max_size=8),
        st.text(alphabet="a\u00e9\u20ac", min_size=1, max_size=5),
    ).map(lambda block: block * (60 // len(block)) + block[:1]),
)


@settings(max_examples=80, deadline=None)
@given(lr_texts, st.integers(1, 12))
@example("aaccbb", 1)  # the gap from the last a to the first b is no return
@example("0100101", 3)  # "00" occurs once
@example("bb" + "ab" * 3 + "aa", 2)  # "bb" and "aa" occur once; "aa" is named
@example("001011" * 10 + "0", 2)  # K is 3 at lengths 1 and 2; length 1 wins
@example("001" * 20 + "0", 3)  # the least ratio is 1 at lengths 1 and 3; 1 wins
# lengths past 62, where packed binary keys would pass 2**62
@example(get_preset("fibonacci").prefix(300), 65)
@example(get_preset("thue-morse").prefix(600), 65)
def test_lr_estimate_matches_oracle(text, max_len):
    if len(text) <= max_len:
        return
    want = naive_lr(text, max_len)
    if isinstance(want, str):
        with pytest.raises(InsufficientWindow) as info:
            lr_constant_estimate(text, max_len, len(text))
        assert str(info.value) == want
    else:
        rep = lr_constant_estimate(text, max_len, len(text))
        assert (rep.k_estimate, rep.k_lower_gap, rep.k_witness, rep.gap_witness) == want


# one example per window-end case of return_table: in a window of L
# symbols the starts of depth n are the p <= L - n, so the last start
# leaves at depth L - p + 1 and takes its pair with it. "001" is given by
# the pairs at 0 and 3; the later stops fitting at depth 4, the word stays
KEEPS_A_WORD_OF_TWO_PAIRS = ("001001001", 6)
# "011" is given only by the last pair, at 6 and 9, and leaves with it
LOSES_THE_LAST_PAIRS_WORD = ("0101010110", 2)
# the depths 2 to 9 share the starts 0, 3, 6, 9: 9 leaves at depth 4 and 6
# at depth 7, and "001" stays both times
TWO_STARTS_LEAVE_ONE_BLOCK = ("001" * 4, 9)
# a window of 4 symbols holds no depth past 3; "010" recurs in none
WINDOW_SHORTER_THAN_DEPTH = ("0101", 5)


@settings(max_examples=60, deadline=None)
@given(
    st.text(alphabet="01", min_size=1, max_size=80)
    | st.text(alphabet="a\u00e9\u20ac", min_size=1, max_size=40),
    st.integers(1, 12),
)
@example(*KEEPS_A_WORD_OF_TWO_PAIRS)
@example(*LOSES_THE_LAST_PAIRS_WORD)
@example(*TWO_STARTS_LEAVE_ONE_BLOCK)
@example(*WINDOW_SHORTER_THAN_DEPTH)
@example("0ab0ba0ab0", 1)  # two return words of length 3
@example("0010001000010010110", 3)  # gaps 1, 2, 3 at depth 1 and 3, 4, 5 at depth 3
@example("a\u20ac\u00e9a\u20aca\u20ac\u00e9\u00e9a\u20ac\U0001d11ea\u20ac", 2)  # not latin-1
@example(get_preset("thue-morse").prefix(80), 8)  # depths 6 to 8 drop no start
def test_return_table_matches_oracle_at_every_depth(text, depth):
    rows = []
    for n in range(1, depth + 1):
        words = sorted(naive_return_words(text[:n], text), key=lambda w: (len(w), w))
        if not words:
            break
        rows.append((n, text[:n], len(words[0]), tuple(words)))
    if len(rows) == depth:
        assert return_table(text, depth, len(text)) == [ReturnTableRow(*r) for r in rows]
        return
    n = len(rows) + 1
    with pytest.raises(InsufficientWindow) as info:
        return_table(text, depth, len(text))
    found = len(naive_occurrences(text[:n], text))
    assert str(info.value) == "need at least 2 occurrences of %r, found %d" % (text[:n], found)


def test_return_table_examples_reach_every_window_end_case():
    def starts_and_words(text, n):
        return naive_occurrences(text[:n], text), naive_return_words(text[:n], text)

    text = KEEPS_A_WORD_OF_TWO_PAIRS[0]
    assert starts_and_words(text, 3) == ([0, 3, 6], {"001"})
    assert starts_and_words(text, 4) == ([0, 3], {"001"})
    text = LOSES_THE_LAST_PAIRS_WORD[0]
    assert starts_and_words(text, 1) == ([0, 2, 4, 6, 9], {"01", "011"})
    assert starts_and_words(text, 2) == ([0, 2, 4, 6], {"01"})
    text, depth = TWO_STARTS_LEAVE_ONE_BLOCK
    assert [starts_and_words(text, n) for n in (2, 3, 4, 6, 7, 9)] == [
        ([0, 3, 6, 9], {"001"}), ([0, 3, 6, 9], {"001"}), ([0, 3, 6], {"001"}),
        ([0, 3, 6], {"001"}), ([0, 3], {"001"}), ([0, 3], {"001"}),
    ]
    assert [r.words for r in return_table(text, depth, len(text))] == [("0", "01")] + [("001",)] * 8
    text, depth = WINDOW_SHORTER_THAN_DEPTH
    assert len(text) < depth and starts_and_words(text, 2) == ([0, 2], {"01"})
    with pytest.raises(InsufficientWindow, match="^need at least 2 occurrences of '010', found 1$"):
        return_table(text, depth, len(text))


def test_return_table_holds_no_window_long_int64_array():
    # the match array, its start filters and the word groups set the peak:
    # 19.9 MiB, against 29.9 MiB with the window-long int64 reach and
    # position arrays and the partition of reach
    tm = get_preset("thue-morse")
    tm.prefix(10**6)  # the source builds its window before tracing starts
    tracemalloc.start()
    try:
        rows = return_table(tm, 8, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.n for r in rows] == list(range(1, 9))
    assert peak < 25 << 20


def test_power_report_refuses_a_witness_outside_the_window(monkeypatch):
    import subrec.recurrence as recurrence

    monkeypatch.setattr(
        recurrence,
        "max_power_witness",
        lambda text: PowerWitness(Fraction(2), "11", 0, len(text)),
    )
    with pytest.raises(RuntimeError, match="not in the window"):
        power_report(PeriodicSource("01"), 64)


# A word is drawn as a spec, so a failing example prints readably; build()
# makes a fresh source from it for each side of a comparison.
periodic_specs = st.tuples(
    st.just("periodic"),
    # a sparse block recurs late, so windows outgrow the text read up front
    st.text(alphabet="01", min_size=1, max_size=6)
    | st.integers(1, 150).map(lambda k: "1" + "0" * k),
)
kappa_specs = st.tuples(
    st.just("kappa"),
    st.lists(st.tuples(st.sampled_from("rg"), st.integers(1, 3)), min_size=1, max_size=5),
)
source_specs = st.one_of(
    periodic_specs,
    # "é" is one byte in latin-1 and "€" is not, so both encodings are reached
    st.tuples(
        st.just("text"),
        st.text(alphabet="01", max_size=300) | st.text(alphabet="aé€", max_size=120),
    ),
    kappa_specs,
    st.tuples(st.just("cf"), st.lists(st.integers(1, 5), min_size=1, max_size=6)),
    # the periodic part of a rotation angle: the coding xcheck sweeps
    st.tuples(st.just("rotation"), st.lists(st.integers(1, 5), min_size=1, max_size=4)),
    st.tuples(st.just("preset"), st.sampled_from(preset_names())),
)
# a deep prefix far rarer than the shallower ones makes the text grow at a
# depth whose filter dropped no start: two runs of zeros in a periodic
# block, or a large partial quotient
carry_specs = st.one_of(
    periodic_specs,
    st.tuples(
        st.just("periodic"),
        st.tuples(st.integers(0, 150), st.integers(0, 150)).map(
            lambda ab: "1" + "0" * ab[0] + "1" + "0" * ab[1]
        ),
    ),
    kappa_specs,
    st.tuples(st.just("cf"), st.lists(st.integers(1, 100), min_size=1, max_size=6)),
)

# small caps stop the doubling early, large ones let windows agree
caps = st.integers(1, 400) | st.integers(400, 3000)


def build(spec):
    kind, arg = spec
    if kind == "periodic":
        return PeriodicSource(arg)
    if kind == "text":
        return FixedTextSource(arg)
    if kind == "kappa":
        return KappaSource([(rho if r == "r" else gamma)(i) for r, i in arg])
    if kind == "cf":
        return StandardWordSource(CFExpansion(tuple(arg)))
    if kind == "rotation":
        return RotationSpec(CFExpansion((), tuple(arg))).coding
    return get_preset(arg)


def naive_taus(spec, base, cap, depth, shift=False):
    """The naive window loop at depths 1..depth: a TauResult, or the text of
    the error it stops with."""
    src = build(spec)
    if shift:
        src = ShiftedSource(src)
    out = []
    for n in range(1, depth + 1):
        try:
            out.append(TauResult(n, *naive_windowed_tau(src.prefix, src.name, n, base, cap)))
        except NaiveWindowError as exc:
            out.append(str(exc))
    return out


def expect_series(got, want):
    """got() returns a list of TauResults or raises WindowCapExceeded; it
    must match want up to and including its first error."""
    failure = next((w for w in want if isinstance(w, str)), None)
    if failure is None:
        assert got() == want
    else:
        with pytest.raises(WindowCapExceeded) as info:
            got()
        assert str(info.value) == failure


# one example per branch of the window loop and of the sub-invariance check
EXHAUSTED = (("text", "0110" * 30), 300, 2000, 10)
UNSTABILIZED_THEN_NO_RETURN = (("preset", "fibonacci"), 64, 64, 32)
ENDS_BEFORE_DEPTH = (("text", "000"), 5, 100, 5)
GROWS_PAST_FIRST_READ = (("periodic", "1" + "0" * 150), 1, 3000, 3)
# the sweep reads 100 symbols first; the closest pair starts at 100, the
# first start position it checks after growing
GAP_AT_FIRST_NEW_POSITION = (("text", "1" + "0" * 59 + "1" + "0" * 39 + "11" + "0" * 48), 1, 3000, 1)
# depth 1 stabilizes on 39 at window 200, the text first read; depth 2
# filters out no start but only sees the start at 99 at window 200, so it
# grows the text, and the closest pair starts at the new positions 300, 310
GROWS_AFTER_UNCHANGED_DEPTH = (
    ("text", "1" + "0" * 59 + "1" + "0" * 38 + "1" + "0" * 200 + "1" + "0" * 9 + "1" + "0" * 589),
    1, 3000, 2,
)
# as above, with a start at 199, the last one that fits depth 1: depth 2
# only trims it, then finds it again among the new positions, 31 before 230
TRIMS_ONLY = (
    ("text", "1" + "0" * 59 + "1" + "0" * 38 + "1" + "0" * 99 + "1" + "0" * 30 + "1" + "0" * 669),
    1, 3000, 2,
)
# depth 1 meets its closest pair at 50, 51; depth 2 drops the one start 50
DROPS_ONE_START = (("text", "1" + "0" * 49 + "11" + "0" * 68 + "1" + "0" * 79), 1, 3000, 2)
# the shifted word stabilizes at window 100 on 30; the word itself only
# meets its gap of 5 at window 200, so the finite-window check fails
LATE_SHORT_GAP = (("text", "01" + "0" * 28 + "01" + "0" * 88 + "01000" + "01" + "0" * 873), 1, 3000, 2)
# the sub-invariance suite sweeps x at 1..depth, then Sx at 1..depth - 1,
# and the first refusal ends it. Both fail at depth 3 here, on "000" and on
# its shift "00"; the message of x comes first
BOTH_FAIL_AT_ONE_DEPTH = (("text", "000"), 5, 100, 5)
# the violation at n = 2 is not reported: x fails at depth 32, which ends
# the suite
VIOLATION_BEFORE_FAILURE = (LATE_SHORT_GAP[0], 1, 3000, 32)
# x and its shift both fail at depth 1, in a 1-symbol window
REFUSED_UP_FRONT = (("preset", "fibonacci"), 1, 1, 2)
# The sweep settles a depth without window rounds when its two windows
# w1 < w2 fit the text read and w1 holds the later start of the closest
# pair in the block's widest second window; at base 1, w1 = 50 n, w2 = 100 n.
# Depths 1 and 2 share their starts 0, 40, 150, 160: the closest pair lies
# in depth 2's second window (starts up to 198) and past depth 1's (up to
# 99), so a gap minimum taken only up to 99 would settle depth 2 on 40
CLOSEST_PAIR_PAST_SHALLOW_SECOND_WINDOW = (
    ("text", "1" + "0" * 39 + "1" + "0" * 109 + "1" + "0" * 9 + "1" + "0" * 339), 1, 3000, 2,
)
# the later start of the closest pair at 49 = w1 - n, the last start in the
# first window, then one symbol past it, where only the second window sees it
CLOSEST_PAIR_AT_FIRST_WINDOW_EDGE = (("text", "1" + "0" * 38 + "1" + "0" * 9 + "1" + "0" * 350), 1, 3000, 1)
CLOSEST_PAIR_PAST_FIRST_WINDOW_EDGE = (("text", "1" + "0" * 39 + "1" + "0" * 9 + "1" + "0" * 349), 1, 3000, 1)
# the word ends between the two windows, 50 and 100: the value stands on
# the whole word, 70 symbols, not on a second window of 100
ENDS_BEFORE_SECOND_WINDOW = (("text", "1" + "0" * 29 + "1" + "0" * 9 + "1" + "0" * 29), 1, 3000, 1)
# depth 2's first window is the cap, so it settles there unstabilized
FIRST_WINDOW_AT_CAP = (("text", "1" + "0" * 29 + "1" + "0" * 9 + "1" + "0" * 359), 1, 100, 2)


def test_examples_reach_every_window_branch():
    exhausted = naive_taus(*EXHAUSTED)
    assert all(r.stabilized and r.window == 120 for r in exhausted)
    capped = naive_taus(*UNSTABILIZED_THEN_NO_RETURN)
    assert not capped[0].stabilized
    assert capped[-1] == "prefix of depth 32 of fibonacci recurs less than twice in a 64-window"
    short = naive_taus(*ENDS_BEFORE_DEPTH)
    assert short[2] == "prefix of depth 3 of text recurs less than twice in a 3-window"
    assert short[3] == "source text ends after 3 symbols, cylinder depth 4 unreachable"
    # the sweep first reads 2 * 50 * depth symbols, 300 here; the series
    # needs 400 at depth 1, and tau_cylinder at depth 3 alone needs 600
    sparse = naive_taus(*GROWS_PAST_FIRST_READ)
    assert [(r.tau, r.window) for r in sparse] == [(151, 400), (151, 400), (151, 600)]
    assert naive_taus(*GAP_AT_FIRST_NEW_POSITION) == [TauResult(1, 1, 150, True)]
    assert naive_taus(*LATE_SHORT_GAP)[1] == TauResult(2, 5, 400, True)
    assert naive_taus(*LATE_SHORT_GAP[:3], 1, shift=True) == [TauResult(1, 30, 100, True)]
    # the sweep first reads 200 symbols for depth 2
    first, second = naive_taus(*GROWS_AFTER_UNCHANGED_DEPTH)
    assert first == TauResult(1, 39, 200, True) and second == TauResult(2, 10, 800, True)
    assert [r.tau for r in naive_taus(*DROPS_ONE_START)] == [1, 51]
    first, second = naive_taus(*TRIMS_ONLY)
    assert first == TauResult(1, 39, 200, True) and second == TauResult(2, 31, 800, True)
    assert naive_taus(*CLOSEST_PAIR_PAST_SHALLOW_SECOND_WINDOW) == [
        TauResult(1, 40, 100, True), TauResult(2, 10, 400, True)
    ]
    assert naive_taus(*CLOSEST_PAIR_AT_FIRST_WINDOW_EDGE) == [TauResult(1, 10, 100, True)]
    assert naive_taus(*CLOSEST_PAIR_PAST_FIRST_WINDOW_EDGE) == [TauResult(1, 10, 200, True)]
    assert naive_taus(*ENDS_BEFORE_SECOND_WINDOW) == [TauResult(1, 10, 70, True)]
    assert naive_taus(*FIRST_WINDOW_AT_CAP) == [TauResult(1, 10, 100, True), TauResult(2, 10, 100, False)]


@settings(max_examples=100, deadline=None)
@given(source_specs, st.integers(1, 300), caps, st.integers(1, 16))
@example(*EXHAUSTED)
@example(*UNSTABILIZED_THEN_NO_RETURN)
@example(*ENDS_BEFORE_DEPTH)
@example(*GROWS_PAST_FIRST_READ)
@example(*GAP_AT_FIRST_NEW_POSITION)
@example(*CLOSEST_PAIR_PAST_SHALLOW_SECOND_WINDOW)
@example(*CLOSEST_PAIR_AT_FIRST_WINDOW_EDGE)
@example(*CLOSEST_PAIR_PAST_FIRST_WINDOW_EDGE)
@example(*ENDS_BEFORE_SECOND_WINDOW)
@example(*FIRST_WINDOW_AT_CAP)
@example(("preset", "fibonacci"), 10_000, 2**31, 16)  # a cap of 2**31 switches to int64 starts
def test_sweep_matches_naive_window_loop(spec, base, cap, depth):
    policy = WindowPolicy(base, cap)
    want = naive_taus(spec, base, cap, depth)
    expect_series(lambda: rate_series(build(spec), depth, policy).entries, want)
    for n, w in enumerate(want, 1):
        expect_series(lambda: [tau_cylinder(build(spec), n, policy)], [w])


class ShallowFirst(WindowPolicy):
    """Wider first windows for shallower depths, so a shallow depth's second
    window passes the text the sweep reads for the deepest one."""

    def initial(self, n):
        return np.clip(self.base // n, 1, self.cap)


def test_a_second_window_past_the_text_read_grows_it():
    # depths 1 and 2 share the starts 0, 30, 120, 125; the sweep first
    # reads grow(initial(2)) = 100 symbols, but depth 1's second window is
    # 200 and meets the closest pair only past the text read
    spec = ("text", "1" + "0" * 29 + "1" + "0" * 89 + "1" + "0" * 4 + "1" + "0" * 874)
    policy = ShallowFirst(100, 3000)
    want = [TauResult(1, 5, 400, True), TauResult(2, 30, 100, True)]
    assert rate_series(build(spec), 2, policy).entries == want
    assert [tau_cylinder(build(spec), n, policy) for n in (1, 2)] == want


@settings(max_examples=60, deadline=None)
@given(carry_specs, st.integers(1, 40), caps | st.integers(3000, 20000), st.integers(1, 64))
@example(*GROWS_AFTER_UNCHANGED_DEPTH)
@example(*TRIMS_ONLY)
@example(*DROPS_ONE_START)
@example(("cf", [17, 74, 9]), 3, 20000, 41)  # depths 18 to 21 drop no start; 21 grows
def test_sweep_carries_the_gap_minimum_only_while_it_holds(spec, base, cap, depth):
    want = naive_taus(spec, base, cap, depth)
    expect_series(lambda: rate_series(build(spec), depth, WindowPolicy(base, cap)).entries, want)


@settings(max_examples=25, deadline=None)
@given(source_specs, st.integers(1, 300), caps, st.integers(2, 12))
@example(*UNSTABILIZED_THEN_NO_RETURN)
@example(*LATE_SHORT_GAP)
@example(*BOTH_FAIL_AT_ONE_DEPTH)
@example(*VIOLATION_BEFORE_FAILURE)
@example(*REFUSED_UP_FRONT)
def test_sub_invariance_matches_naive_window_loop(spec, base, cap, depth):
    right = naive_taus(spec, base, cap, depth)
    left = naive_taus(spec, base, cap, depth - 1, shift=True)
    policy = WindowPolicy(base, cap)
    expect_series(lambda: rate_series(ShiftedSource(build(spec)), depth - 1, policy).entries, left)
    failure = next((w for w in right + left if isinstance(w, str)), None)
    if failure is None:
        pairs = [(r.n, lt.tau, r.tau) for lt, r in zip(left, right[1:]) if lt.stabilized and r.stabilized]
        bad = [pair for pair in pairs if pair[1] > pair[2]]
        detail = "checked %d, skipped %d" % (len(pairs), depth - 1 - len(pairs))
        if bad:
            detail += ", first violation n=%d: %d > %d" % bad[0]
    want = [failure] if failure else [(build(spec).name, not bad, detail)]
    expect_series(lambda: suite_on(build(spec), depth, policy), want)


def test_sub_invariance_examples_reach_every_failure_order():
    both = naive_taus(*BOTH_FAIL_AT_ONE_DEPTH)[2], naive_taus(*BOTH_FAIL_AT_ONE_DEPTH[:3], 4, shift=True)[1]
    assert both == (
        "prefix of depth 3 of text recurs less than twice in a 3-window",
        "prefix of depth 2 of shift of text recurs less than twice in a 2-window",
    )
    with pytest.raises(WindowCapExceeded, match="depth 3 of text "):
        suite_on(build(BOTH_FAIL_AT_ONE_DEPTH[0]), 5, WindowPolicy(5, 100))
    late = naive_taus(*VIOLATION_BEFORE_FAILURE)
    assert late[-1] == "prefix of depth 32 of text recurs less than twice in a 1000-window"
    with pytest.raises(WindowCapExceeded, match="^%s$" % late[-1]):
        suite_on(build(VIOLATION_BEFORE_FAILURE[0]), 32, WindowPolicy(1, 3000))
    with pytest.raises(WindowCapExceeded, match="^prefix of depth 1 of fibonacci .* 1-window$"):
        suite_on(get_preset("fibonacci"), 2, WindowPolicy(1, 1))


def test_the_sub_invariance_suite_names_the_first_violation(monkeypatch, capsys):
    # the shift settles on 30 at n = 1, the word only on 5 at n = 2
    build_parser()  # cached: built before the patch, its help names the real presets
    monkeypatch.setattr(presets, "preset_names", lambda: ["late-short-gap"])
    monkeypatch.setattr(presets, "get_preset", lambda name: build(LATE_SHORT_GAP[0]))
    checks = list(SUITES["sub-invariance"](2, WindowPolicy(1, 3000)))
    assert checks == [("late-short-gap", False, "checked 1, skipped 0, first violation n=2: 30 > 5")]
    assert main(["verify", "sub-invariance", "-N", "2", "--window-base", "1", "--window-cap", "3000"]) == 3
    assert "late-short-gap: FAIL (checked 1, skipped 0, first violation n=2: 30 > 5)" in capsys.readouterr().err


def test_sub_invariance_raises_the_shift_failure_when_it_comes_first(monkeypatch):
    # under one window policy the shift answers every depth its word does
    # (a return of x[0:n] is one of x[1:n]), so the naive loop never fails
    # on the shift first; a sweep stubbed to give up early pins that order
    real = recurrence._tau_sweep

    def sweep(source, first, last, policy):
        columns, failure = real(source, first, last, policy)
        if isinstance(source, ShiftedSource):
            return tuple(c[:3] for c in columns), "the shift gives up at depth 4"
        return columns, failure

    monkeypatch.setattr(recurrence, "_tau_sweep", sweep)
    with pytest.raises(WindowCapExceeded, match="^the shift gives up at depth 4$"):
        suite_on(get_preset("fibonacci"), 10)


def test_long_sweep_table_and_fixed_point_finish_fast():
    with within(2):
        rs = rate_series(get_preset("fibonacci"), 2000)
    with within(2):
        rows = return_table(get_preset("fibonacci"), 16, 65536)
    with within(2):
        text = get_preset("thue-morse").prefix(2**20)
    assert len(rs.entries) == 2000 and all(e.stabilized for e in rs.entries)
    assert [r.n for r in rows] == list(range(1, 17)) and len(rows[-1].words) == 2
    assert len(text) == 2**20
    assert all(text[k] == "01"[bin(k).count("1") % 2] for k in range(0, 2**20, 4099))


def per_row(*args):
    raise AssertionError("a record built per depth")


def test_a_deep_rate_series_pays_per_block_not_per_row(monkeypatch):
    # 0.75-0.9 s with its CSV and tail summaries, 1.1-1.3 s with a TauResult
    # per depth and rows compared and formatted one by one; the bound only
    # fails a doubling, so building a TauResult at all fails the test
    monkeypatch.setattr("subrec.recurrence.TauResult", per_row)
    with within(1.8):
        rs = rate_series(get_preset("fibonacci"), 100_000)
        csv = rs.to_csv()
        low, high = rs.tail_min(), rs.tail_max()
    assert len(rs.n) == 100_000 and rs.stabilized.all()
    assert (low, high) == (Fraction(3001, 4000), Fraction(75025, 50001))
    assert csv.count("\n") == 100_001 and csv.endswith("\n100000,75025,3001,4000,10000000,1\n")


def test_power_report_on_a_long_thue_morse_prefix_finishes_fast():
    # every period up to half the window is scanned before the early exit
    with within(2):
        rep = power_report(get_preset("thue-morse"), 2**14)
    assert (rep.exponent, rep.base, rep.position) == (2, "1", 1)


def test_dense_periodic_word_finishes_fast():
    # every position of a periodic word is an occurrence at every depth
    with within(2):
        rs = rate_series(PeriodicSource("01"), 1000)
        checks = suite_on(get_preset("periodic01"), 500)
    assert [e.tau for e in rs.entries] == [2] * 1000
    assert all(e.stabilized for e in rs.entries)
    assert checks == [("periodic 01", True, "checked 499, skipped 0")]
