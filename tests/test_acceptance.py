"""Acceptance checks, one per numbered criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Criteria 1-4, 6 and 7 run the `subrec verify` suites (`subrec.cli.SUITES`),
so the CLI and this module share one definition of each bound.
Three checks (3, 6, 8) encode target bounds the implemented systems
provably miss; they print FAIL with the true values and then assert,
on purpose.  The library is not bent to make them pass.
"""

import pytest

from subrec import (
    RotationSpec,
    cylinder_measure,
    lr_constant_estimate,
    mu_tower_values,
    rate_series,
    word_counts,
)
from subrec.cli import SUITES
from subrec.presets import (
    GOLDEN_CF,
    SQRT2_CF,
    get_preset,
    golden_kappa_steps,
)

GOLDEN = RotationSpec(GOLDEN_CF)


def report(num: int, name: str, clauses: list[tuple[str, bool]]) -> bool:
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(
        "%s:%s" % (text, "ok" if flag else "VIOLATED") for text, flag in clauses
    )
    print("ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    return ok


def suite_clauses(suite: str, **params) -> list[tuple[str, bool]]:
    """Clauses of one `subrec verify` suite, run in process."""
    return [
        ("%s (%s)" % (name, detail), passed)
        for name, passed, detail in SUITES[suite](**params)
    ]


@pytest.fixture(scope="module")
def golden_text_1m():
    return get_preset("golden-rotation").prefix(1_000_000)


def test_criterion_1_dual_oracle_tau():
    clauses = [
        ("%s %s" % (label, text), ok)
        for label, cf in (("golden", GOLDEN_CF), ("sqrt2", SQRT2_CF))
        for text, ok in suite_clauses("xcheck-rotation", cf=cf)
    ]
    assert report(1, "symbolic tau equals geometric tau exactly", clauses)


def test_criterion_2_bounded_cf_dichotomy():
    clauses = suite_clauses("bounded-cf")
    assert report(2, "liminf and limsup straddle one (tail proxy)", clauses)


def test_criterion_3_unbounded_cf_trend():
    # the running-minimum clause needs depths near q_20 ~ 1e19; at n=300
    # the true running minimum is 43/224.  Finite-tail proxy, reported as such.
    clauses = suite_clauses("unbounded-cf")
    assert report(3, "unbounded-coefficient decay trend (finite proxy)", clauses)


def test_criterion_4_morse_counterexample():
    clauses = suite_clauses("morse-delta")
    assert report(4, "Morse word: squares but no higher powers", clauses)


def test_criterion_5_lr_sandwich():
    clauses = []
    for name in ("fibonacci", "thue-morse"):
        k = lr_constant_estimate(get_preset(name), 50, 100_000).k_estimate
        rs = rate_series(get_preset(name), 200)
        tail = [e for e in rs.entries if e.stabilized and e.n > 100]
        inside = all(1 / k <= e.ratio <= k for e in tail)
        clauses.append(
            (
                "%s: %d tail ratios within [%s, %s]" % (name, len(tail), 1 / k, k),
                inside,
            )
        )
    assert report(5, "stabilized rates inside the [1/K, K] sandwich", clauses)


def test_criterion_6_kappa_ratio_bound():
    # any gamma_1 after the first step provably pushes the exact length
    # ratio out of the interval, and towers that generate the golden angle
    # do exactly that, so the bound cannot hold over random towers.
    clauses = suite_clauses("kappa-ratio")
    assert report(6, "composed image length ratios stay in the interval", clauses)


def test_criterion_7_sub_invariance_all_presets():
    clauses = suite_clauses("sub-invariance")
    assert report(7, "shifted cylinder recurrence never beats the parent", clauses)


def test_criterion_8_measure_identities(golden_text_1m):
    text = golden_text_1m
    worst_gap = 0.0
    for n in range(1, 11):
        counts = word_counts(text, n)
        slots = len(text) - n + 1
        for w, c in counts.items():
            gap = abs(c / slots - float(cylinder_measure(GOLDEN, w)))
            worst_gap = max(worst_gap, gap)
    towers = [mu_tower_values(GOLDEN, golden_kappa_steps(n)) for n in range(1, 9)]
    sums_exact = all(sum(t) == 1 for t in towers)
    mu_min = min(min(t) for t in towers)
    clauses = [
        ("freq vs measure gap %.2e <= 1e-3 for |w|<=10" % worst_gap, worst_gap <= 1e-3),
        ("mu_n(0)+mu_n(1) == 1 exactly for n<=8", sums_exact),
        (
            "min mu_n(a) = %.10f >= 1/2 - 1e-3" % float(mu_min),
            float(mu_min) >= 0.5 - 1e-3,
        ),
    ]
    # the true lower bound for this angle is 2/(3K+1) with K=3, i.e. 1/5;
    # the minimum above sits near 0.276 > 1/5, far below 1/2.
    assert report(8, "empirical vs exact measures and tower weights", clauses)


def test_criterion_9_generator_agreement():
    clauses = []
    for name, rot in (("fibonacci", "golden-rotation"), ("sqrt2", "sqrt2-rotation")):
        a = get_preset(name).prefix(10_000)
        b = get_preset(rot).prefix(10_000)
        same = all(
            {a[i : i + n] for i in range(len(a) - n + 1)}
            == {b[i : i + n] for i in range(len(b) - n + 1)}
            for n in range(1, 21)
        )
        clauses.append(("%s vs %s factor sets to length 20" % (name, rot), same))
    assert report(9, "standard-word and rotation codings share factors", clauses)
