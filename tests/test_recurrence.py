import random
from fractions import Fraction

import pytest

from subrec import (
    FixedTextSource,
    KappaSource,
    PeriodicSource,
    WindowCapExceeded,
    WindowPolicy,
    lr_constant_estimate,
    power_report,
    rate_series,
    return_table,
    sub_invariance_check,
    tau_cylinder,
    word_counts,
)
from subrec.presets import get_preset, golden_kappa_steps
from subrec.recurrence import _factor_gap_extremes
from oracles import naive_factor_stats, naive_tau


def test_window_policy_schedule():
    pol = WindowPolicy(base=10_000, cap=1_000_000)
    assert pol.initial(1) == 10_000
    assert pol.initial(300) == 15_000
    assert pol.initial(100_000) == 1_000_000
    assert pol.grow(600_000) == 1_000_000


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


def test_rate_series_on_finite_kappa_source():
    src = KappaSource(golden_kappa_steps(8))
    assert src.max_length == 2584
    rs = rate_series(src, 10)
    assert all(e.stabilized for e in rs.entries)
    assert [e.tau for e in rs.entries[:4]] == [2, 2, 5, 5]


def test_sub_invariance_on_presets():
    for name in ("fibonacci", "thue-morse"):
        rep = sub_invariance_check(get_preset(name), 100)
        assert rep.ok
        assert rep.checked > 0
        assert rep.first_violation is None


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


@pytest.mark.parametrize("length", [61, 62, 63, 64, 65])
def test_factor_gaps_and_counts_match_oracle(length):
    # binary codes of length 61 pack into int64; from 62 on factors are
    # ranked by string, and groups come in lexicographic order either way
    rng = random.Random(length)
    texts = [
        get_preset("fibonacci").prefix(400),
        get_preset("thue-morse").prefix(400),
        "0" * 100,
        "".join(rng.choice("01") for _ in range(40)) * 6,
        "".join(rng.choice("01") for _ in range(200)),
    ]
    for text in texts:
        want = naive_factor_stats(text, length)
        assert word_counts(text, length) == {w: c for w, (c, _, _) in want.items()}
        rows = _factor_gap_extremes(text, length)
        assert len(rows) == len(want)
        got = {text[p : p + length]: (lo, hi) for lo, hi, p in rows}
        assert got == {w: (lo, hi) for w, (_, lo, hi) in want.items()}
        assert list(got) == sorted(got)
