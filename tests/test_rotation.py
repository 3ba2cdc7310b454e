import copy
import pickle
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import (
    ONE,
    ZERO,
    CFExpansion,
    IntervalAtom,
    NonPeriodic,
    QuadraticReal,
    RotationSpec,
    SequenceTooShort,
    WindowPolicy,
    atom_lengths,
    atom_of,
    cross_check,
    cylinder_measure,
    kappa_images,
    mu_tower_values,
    occurrences,
    quadratic_of_cf,
    tau_cylinder,
    tau_length,
    tau_length_linear,
)
from subrec.presets import (
    GOLDEN_CF,
    SQRT2_CF,
    get_preset,
    golden_kappa_steps,
    sqrt2_kappa_steps,
)
from subrec.rotation import _circle_order, _cylinder_ends, _extremes
from guards import within
from oracles import exact_atom_lengths, exact_sorted_orbit, naive_atom, naive_cylinder, naive_xcheck_csv

GOLDEN = RotationSpec(GOLDEN_CF)
SQRT2 = RotationSpec(SQRT2_CF)
ALPHA = GOLDEN.alpha  # (sqrt(5)-1)/2


def partition_points(spec, n):
    """The endpoints e_j = (-j*alpha) mod 1, 0 <= j <= n, ascending."""
    return list(map(spec._point, _circle_order(spec, n).tolist()))


def cylinder_interval(spec, word):
    """The cylinder [e_i, e_r) of word as an atom, r = 0 standing for 1, or
    None when word is not a factor."""
    ends = _cylinder_ends(spec, word)
    if ends is None:
        return None
    i, r = ends
    return IntervalAtom(spec._point(i), spec._point(r) if r else ONE, len(word))


def test_spec_validation():
    with pytest.raises(NonPeriodic):
        RotationSpec(CFExpansion((3,)))  # finite expansion, rational angle
    with pytest.raises(TypeError):
        RotationSpec(SQRT2_CF, QuadraticReal(-1, 1, 2))  # alpha is derived
    spec = RotationSpec.from_cf(SQRT2_CF)
    assert spec == RotationSpec(SQRT2_CF)
    assert spec.cf == SQRT2_CF
    assert spec.alpha == QuadraticReal(-1, 1, 2)


def test_partition_points_depth_one():
    pts = partition_points(GOLDEN, 1)
    assert pts[0] == 0
    assert 1 - ALPHA in pts


def test_atom_lengths_sum_to_one_exactly():
    for spec in (GOLDEN, SQRT2):
        for n in (1, 2, 3, 10, 40, 120):
            lens = atom_lengths(spec, n)
            total = sum(lens[1:], lens[0])
            assert total == 1


def periodic_cfs(top: int = 6):
    """Expansions with preperiod <= 3, period 1..3 and digits 1..top;
    a_1 = 1 puts alpha above 1/2, any other first digit below it."""
    digits = st.integers(1, top)
    return st.tuples(
        st.lists(digits, max_size=3), st.lists(digits, min_size=1, max_size=3)
    ).map(lambda t: CFExpansion(tuple(t[0]), tuple(t[1])))


@settings(max_examples=60, deadline=None)
@given(periodic_cfs(), st.integers(1, 300))
@example(GOLDEN_CF, 143)
@example(SQRT2_CF, 50)
@example(SQRT2_CF, 5)
def test_three_distance(cf, n):
    # Sos (1958): the n points {-j alpha} cut the circle into arcs of at
    # most three lengths, and with three the largest is the sum of the others
    lengths = sorted(set(atom_lengths(RotationSpec.from_cf(cf), n)))
    assert len(lengths) <= 3
    if len(lengths) == 3:
        assert lengths[2] == lengths[0] + lengths[1]


# a partial quotient 2**66 puts alpha within 2**-66 of a rational with a
# small denominator, so circle neighbours lie closer than 64-bit fixed
# point can tell apart
NEAR_RATIONAL = CFExpansion((2, 3), (2**66,))


def large_quotient_cfs():
    """periodic_cfs with one partial quotient in 2**60..2**70 put in front
    of the period."""
    return st.tuples(periodic_cfs(), st.integers(60, 70)).map(
        lambda t: CFExpansion(t[0].preperiod, (2 ** t[1],) + t[0].period)
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(periodic_cfs(9), large_quotient_cfs()), st.integers(0, 300))
@example(GOLDEN_CF, 0)
@example(NEAR_RATIONAL, 300)
def test_atom_order_matches_the_exact_sort(cf, n):
    spec = RotationSpec(cf)
    assert partition_points(spec, n) == exact_sorted_orbit(spec.alpha, n)
    assert atom_lengths(spec, n) == exact_atom_lengths(spec.alpha, n)


@pytest.mark.parametrize("cf", [NEAR_RATIONAL, CFExpansion((), (2**62, 1)), CFExpansion((1,), (2**60, 2))])
def test_near_ties_in_the_orbit_are_sorted_exactly(cf):
    spec = RotationSpec(cf)
    assert atom_lengths(spec, 100) == exact_atom_lengths(spec.alpha, 100)


@settings(max_examples=60, deadline=None)
@given(st.one_of(periodic_cfs(9), large_quotient_cfs()), st.integers(1, 300))
@example(GOLDEN_CF, 1)  # alpha > 1/2: q_0 = q_1 = 1
@example(GOLDEN_CF, 300)
@example(CFExpansion((), (2**62, 1)), 300)
@example(NEAR_RATIONAL, 300)
def test_extremes_are_the_least_and_the_greatest_endpoint(cf, n):
    spec = RotationSpec(cf)
    points = [spec._point(j) for j in range(n + 1)]
    want, least, greatest = [], 1, 1
    for j in range(1, n + 1):
        least = min(least, j, key=points.__getitem__)
        greatest = max(greatest, j, key=points.__getitem__)
        want.append((least, greatest))
    a, b = _extremes(spec, np.arange(1, n + 1))
    assert list(zip(a.tolist(), b.tolist())) == want
    assert tuple(map(int, _extremes(spec, n))) == want[-1]


def test_the_atoms_of_an_angle_near_a_rational_take_no_exact_sort():
    # a 64-bit fixed-point order settled 114,285 of these points exactly, in 0.7 s
    spec = RotationSpec(NEAR_RATIONAL)
    with within(1):
        lengths = atom_lengths(spec, 10**5)
    counts = Counter(lengths)
    assert len(lengths) == 10**5 + 1 and len(counts) <= 3
    assert sum((length * k for length, k in counts.items()), ZERO) == 1


def test_no_depth_of_the_atoms_takes_seconds():
    # an exact sort of these endpoints takes about 1.8 s
    spec = RotationSpec(GOLDEN_CF)
    with within(1):
        lengths = atom_lengths(spec, 10**5)
    assert len(lengths) == 10**5 + 1 and len(set(lengths)) <= 3


def test_atom_of_zero_shrinks():
    prev = None
    for n in range(1, 30):
        atom = atom_of(GOLDEN, QuadraticReal(0), n)
        assert atom.left <= QuadraticReal(0) < atom.right
        if prev is not None:
            assert atom.length <= prev
        prev = atom.length


def test_tau_length_golden_frozen():
    assert tau_length(GOLDEN, QuadraticReal(Fraction(1, 2))) == 1
    assert tau_length(GOLDEN, QuadraticReal(Fraction(1, 5))) == 3
    assert tau_length(GOLDEN, QuadraticReal(Fraction(1, 100))) == 55
    # lengths just above/below ||3 alpha|| = 2 - 3 alpha flip between 3 and 5
    gap3 = 2 - 3 * ALPHA
    eps = QuadraticReal(Fraction(1, 10**9))
    assert tau_length(GOLDEN, gap3 + eps) == 3
    assert tau_length(GOLDEN, gap3) == 5


@settings(max_examples=60, deadline=None)
@given(periodic_cfs(9), st.integers(1, 200), st.integers(1, 2000))
@example(GOLDEN_CF, 143, 4096)
@example(SQRT2_CF, 50, 1001)
def test_tau_length_ladder_matches_linear_scan(cf, n, k):
    # atoms take at most three lengths (three-distance theorem), so the
    # distinct ones cover every atom
    spec = RotationSpec.from_cf(cf)
    lengths = set(atom_lengths(spec, n)) | {QuadraticReal(Fraction(1, k))}
    for length in lengths:
        assert tau_length(spec, length) == tau_length_linear(spec, length)


def _pair(x: QuadraticReal):
    return x.a, x.b


@st.composite
def atom_queries(draw):
    """(cf, t, n, on_cut) with t = 0, {k alpha}, a rational, an endpoint
    {-j alpha}, or a point within 10**-15 of one (closer than the 2**-64
    fixed-point step at 10**-20 and below); on_cut when t is the endpoint
    of a depth 1..n. A partial quotient near 2**64 puts alpha within
    2**-64 of a rational, which brings fixed-point near-ties down to the
    first depths."""
    cf = draw(st.one_of(periodic_cfs(), large_quotient_cfs()))
    alpha = quadratic_of_cf(cf)
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["zero", "orbit", "rational", "endpoint", "near"]))
    j = 0
    if kind == "zero":
        t = QuadraticReal(0)
    elif kind == "orbit":
        t = (alpha * draw(st.integers(1, 300))).mod1()
    elif kind == "rational":
        q = draw(st.integers(1, 1000))
        t = QuadraticReal(Fraction(draw(st.integers(0, q - 1)), q))
    elif kind == "endpoint":
        j = draw(st.integers(0, n + 5))
        t = (-alpha * j).mod1()
    else:
        shift = Fraction(draw(st.sampled_from([-1, 1])), 10 ** draw(st.integers(15, 25)))
        t = (-alpha * draw(st.integers(1, n + 5)) + shift).mod1()
    return cf, t, n, 1 <= j <= n


@settings(max_examples=80, deadline=None)
@given(atom_queries())
@example((SQRT2_CF, QuadraticReal(0), 0, False))
@example((GOLDEN_CF, (-GOLDEN.alpha * 5).mod1(), 5, True))
@example((GOLDEN_CF, (-GOLDEN.alpha * 300).mod1(), 300, True))
@example((NEAR_RATIONAL, QuadraticReal(Fraction(1, 3)), 30, False))
def test_atom_of_matches_sorted_partition(query):
    cf, t, n, on_cut = query
    spec = RotationSpec.from_cf(cf)
    atom = atom_of(spec, t, n)
    alpha = (spec.alpha.a, spec.alpha.b, spec.alpha.d)
    assert (_pair(atom.left), _pair(atom.right)) == naive_atom(alpha, _pair(t), n)
    assert atom.left <= t < atom.right
    assert atom.depth == n
    if on_cut:
        assert atom.left == t


@pytest.mark.parametrize("j", [0, 777])
def test_a_deep_atom_is_found_in_fixed_point(j):
    spec = RotationSpec(GOLDEN_CF)
    t = (-spec.alpha * j).mod1()
    with within(2):
        deep = atom_of(spec, t, 10**6)
    assert deep.left <= t < deep.right and deep.depth == 10**6
    ends = partition_points(spec, 20_000)
    atom = atom_of(spec, t, 20_000)
    assert atom.left == max(e for e in ends if e <= t)
    assert atom.right == min((e for e in ends if e > t), default=ONE)
    assert deep.right - deep.left < atom.right - atom.left


@pytest.mark.parametrize("t", [ZERO, QuadraticReal(Fraction(1, 3)), (-GOLDEN.alpha * 777).mod1()],
                         ids=["zero", "third", "cut-777"])
def test_an_atom_at_depth_10_18_is_found_by_bisection(t):
    spec = RotationSpec(GOLDEN_CF)
    with within(1):
        deep = atom_of(spec, t, 10**18)
    assert deep.left <= t < deep.right and deep.depth == 10**18
    shallow = atom_of(spec, t, 10**6)
    assert shallow.left <= deep.left and deep.right <= shallow.right
    assert deep.right - deep.left < shallow.right - shallow.left
    if t == shallow.left:
        assert deep.left == t


def test_a_depth_at_or_above_2_62_is_refused_without_overflow():
    # a + b <= 2n must stay below 2**63; past it numpy warned and raised
    # OverflowError
    spec = RotationSpec(GOLDEN_CF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert atom_of(spec, ZERO, 2**62 - 1).left == ZERO
        for n in (2**62, 2**63 - 1, 10**30):
            refusal = "^words are limited to 2\\*\\*62 symbols, %d requested$" % n
            with pytest.raises(ValueError, match=refusal):
                atom_of(spec, ZERO, n)
        for read in (atom_lengths, partition_points):
            with pytest.raises(ValueError, match="2\\*\\*62"):
                read(spec, 10**30)


def test_atom_of_refuses_a_point_outside_the_field():
    with pytest.raises(ValueError, match="same quadratic field"):
        atom_of(GOLDEN, QuadraticReal(-1, 1, 3), 10)  # sqrt(3) - 1
    t = QuadraticReal(Fraction(2, 7))
    atom = atom_of(GOLDEN, t, 40)
    alpha = (ALPHA.a, ALPHA.b, ALPHA.d)
    assert (_pair(atom.left), _pair(atom.right)) == naive_atom(alpha, _pair(t), 40)


# sqrt(1013) - 31 = [0; (1,4,1,4,15,1,2,2,2,2,1,15,4,1,4,1,62)]; its alpha keeps
# the radicand 85193**2 * 1013 unreduced, above the trial-division range
SPLIT = RotationSpec(CFExpansion((), (1, 4, 1, 4, 15, 1, 2, 2, 2, 2, 1, 15, 4, 1, 4, 1, 62)))


def test_atom_of_takes_a_point_of_the_field_whatever_its_radicand_split():
    assert SPLIT.alpha.d == 85193**2 * 1013
    for k in (2, 3):
        t = (QuadraticReal(0, 1, 1013) - 31) / k
        assert t.d == 1013 and t == SPLIT.alpha / k
        assert atom_of(SPLIT, t, 5000) == atom_of(SPLIT, SPLIT.alpha / k, 5000)
    with pytest.raises(ValueError, match="t0 must live in the same quadratic field as alpha"):
        atom_of(SPLIT, QuadraticReal(-1, 1, 3), 10)  # sqrt(3) - 1


def test_tau_interval_nondecreasing():
    taus = [
        tau_length(GOLDEN, atom_of(GOLDEN, QuadraticReal(0), n).length)
        for n in range(1, 40)
    ]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_cylinder_measures_golden():
    assert cylinder_measure(GOLDEN, "0") == 1 - ALPHA
    assert cylinder_measure(GOLDEN, "1") == ALPHA
    assert cylinder_measure(GOLDEN, "11") == 2 * ALPHA - 1
    assert cylinder_measure(GOLDEN, "00") == 0
    assert cylinder_measure(GOLDEN, "01") == 1 - ALPHA


def test_cylinder_measures_sum_over_factors():
    # factors of one length tile the circle
    text = get_preset("golden-rotation").prefix(4000)
    for n in (1, 2, 3, 6):
        factors = {text[i : i + n] for i in range(len(text) - n + 1)}
        assert len(factors) == n + 1
        total = sum(
            (cylinder_measure(GOLDEN, f) for f in factors), QuadraticReal(0)
        )
        assert total == 1


def test_cylinder_interval_matches_word():
    # "10": symbol 1 on [1 - alpha, 1), then symbol 0 up to {-2 alpha}
    atom = cylinder_interval(GOLDEN, "10")
    assert atom == IntervalAtom(1 - ALPHA, 2 - 2 * ALPHA, 2)
    assert atom.length == cylinder_measure(GOLDEN, "10")
    assert cylinder_interval(GOLDEN, "") == IntervalAtom(ZERO, ONE, 0)
    assert cylinder_interval(GOLDEN, "00") is None
    with pytest.raises(ValueError, match="symbols must be 0 or 1, got 'a'"):
        cylinder_interval(GOLDEN, "1a")


def test_a_long_non_factor_is_refused_without_building_its_orbit():
    # "00" is no factor of the golden coding; the table grows only as far
    # as the word is read, and a stray symbol is refused before any of it
    spec = RotationSpec(GOLDEN_CF)
    zeros, stray = "0" * 10**6, "1" * 10**6 + "x"
    tracemalloc.start()
    try:
        assert cylinder_interval(spec, zeros) is None
        with pytest.raises(ValueError, match="got 'x'"):
            cylinder_interval(spec, stray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_a_long_cylinder_is_read_in_fixed_point():
    # an exact endpoint per symbol takes about 0.4 s here
    spec = RotationSpec(GOLDEN_CF)
    word = RotationSpec(GOLDEN_CF).coding.prefix(10**5 + 100)[100:]
    with within(1):
        measure = cylinder_measure(spec, word)
    assert cylinder_interval(spec, word) == atom_of(spec, (spec.alpha * 100).mod1(), 10**5)
    assert measure == cylinder_interval(spec, word).length


@st.composite
def cylinder_queries(draw):
    """(cf, word): a factor of length 1..40 of the coding of 0, that factor
    with one symbol flipped, or a random binary word."""
    cf = draw(periodic_cfs(9))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["factor", "flipped", "random"]))
    if kind == "random":
        return cf, draw(st.text("01", min_size=n, max_size=n))
    i = draw(st.integers(0, 400))
    word = RotationSpec(cf).coding.prefix(i + n)[i:]
    if kind == "flipped":
        j = draw(st.integers(0, n - 1))
        word = word[:j] + "10"[int(word[j])] + word[j + 1 :]
    return cf, word


@settings(max_examples=150, deadline=None)
@given(cylinder_queries())
@example((GOLDEN_CF, "10"))
@example((GOLDEN_CF, "0110"))
@example((SQRT2_CF, "1" * 3))
@example((CFExpansion((1,), (9,)), "1" * 12))
@example((NEAR_RATIONAL, RotationSpec(NEAR_RATIONAL).coding.prefix(37)[7:]))
def test_cylinder_interval_matches_sorted_partition(query):
    cf, word = query
    spec = RotationSpec.from_cf(cf)
    atom = cylinder_interval(spec, word)
    expected = naive_cylinder((spec.alpha.a, spec.alpha.b, spec.alpha.d), word)
    if expected is None:
        assert atom is None
        assert cylinder_measure(spec, word) == 0
    else:
        assert (_pair(atom.left), _pair(atom.right)) == expected
        assert atom.depth == len(word)
        assert cylinder_measure(spec, word) == atom.length


def test_mu_tower_refuses_an_empty_composition():
    # at depth 0, u = "1" is no prefix of v = "0": the Kac tiling fails
    with pytest.raises(SequenceTooShort, match="^empty composition$"):
        mu_tower_values(GOLDEN, [])


@pytest.mark.parametrize(
    "call",
    [lambda: atom_of(GOLDEN, ZERO, -1), lambda: atom_lengths(GOLDEN, -1)],
    ids=["atom_of", "atom_lengths"],
)
def test_negative_depth_is_refused(call):
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        call()


def test_mu_tower_exact_kac_sums():
    for spec, step_fn in ((GOLDEN, golden_kappa_steps), (SQRT2, sqrt2_kappa_steps)):
        for n in range(1, 7):
            m0, m1 = mu_tower_values(spec, step_fn(n))
            assert m0 + m1 == 1
            assert m0 > 0 and m1 > 0


def test_mu_tower_golden_depth_one_frozen():
    m0, m1 = mu_tower_values(GOLDEN, golden_kappa_steps(1))
    # 3*measure([01101]) and 2*measure([0101])
    assert m1 == 4 - 6 * ALPHA
    assert m0 == 6 * ALPHA - 3
    assert float(min(m0, m1)) == pytest.approx(0.2917960675, abs=1e-9)


def test_mu_tower_empirical_close_to_exact():
    # occurrence frequencies of the aligned cylinders in a long coding
    # approach their exact measures
    text = get_preset("golden-rotation").prefix(200_000)
    for n in (1, 2, 3):
        v, u = kappa_images(golden_kappa_steps(n))
        exact = mu_tower_values(GOLDEN, golden_kappa_steps(n))
        for w, value in zip((v, u), exact):
            pattern = w + u
            freq = len(occurrences(pattern, text)) / (len(text) - len(pattern) + 1)
            assert abs(len(w) * freq - float(value)) < 1e-3


@pytest.mark.parametrize("cf", [GOLDEN_CF, CFExpansion((3,), (1, 4))], ids=["golden", "3-1-4"])
def test_cross_check_atom_lengths_match_the_sorted_partition(cf):
    spec = RotationSpec(cf)
    alpha = (spec.alpha.a, spec.alpha.b, spec.alpha.d)
    for row in cross_check(spec, 150).rows:
        (lx, ly), (rx, ry) = naive_atom(alpha, (0, 0), row.n)
        assert row.atom_length == QuadraticReal(rx - lx, ry - ly, alpha[2])


def test_cross_check_golden():
    report = cross_check(GOLDEN, 60)
    assert report.ok
    assert report.mismatches == []
    assert len(report.rows) == 60
    taus = {r.n: r.tau_symbolic for r in report.rows}
    assert taus[1] == 2 and taus[2] == 2 and taus[3] == 5
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "n,tau_symbolic,tau_geometric,atom_len_num_approx,match"
    assert len(lines) == 61


@settings(max_examples=25, deadline=None)
@given(periodic_cfs(9), st.integers(1, 300))
@example(GOLDEN_CF, 300)
@example(CFExpansion((9,), (1, 9)), 300)
def test_cross_check_rows_agree_with_one_length_ladder(cf, depth):
    # cross_check resumes one ladder walk from depth to depth; each row
    # must read what a fresh walk, and at small depths the linear scan, reads
    spec = RotationSpec.from_cf(cf)
    report = cross_check(spec, depth)
    assert [r.n for r in report.rows] == list(range(1, depth + 1))
    for row in report.rows:
        assert row.tau_geometric == tau_length(spec, row.atom_length)
        if row.n <= 30:
            assert row.tau_geometric == tau_length_linear(spec, row.atom_length)


@settings(max_examples=40, deadline=None)
@given(periodic_cfs(9), st.integers(1, 300))
@example(CFExpansion((), (1, 1, 1, 1)), 300)
def test_cross_check_columns_match_a_row_by_row_csv(cf, depth):
    report = cross_check(RotationSpec(cf), depth)
    rows = report.rows
    want = [(r.n, r.tau_symbolic, r.tau_geometric, float(r.atom_length), r.match) for r in rows]
    assert report.to_csv() == naive_xcheck_csv(want)
    assert report.mismatches == [r for r in rows if not r.match]
    assert report.ok == all(r.match for r in rows)


def test_cross_check_reports_a_mismatch_from_its_columns():
    report = cross_check(RotationSpec(GOLDEN_CF), 40)
    report.tau_geometric = report.tau_geometric.copy()
    report.tau_geometric[[6, 20]] += 1
    assert not report.ok
    assert [r.n for r in report.mismatches] == [7, 21]
    assert repr(report) == "CrossCheckReport(alpha=%r, depth=40, rows=40, ok=False)" % str(GOLDEN_CF)
    assert [r.match for r in report.rows].count(False) == 2
    assert report.to_csv().splitlines()[7].endswith(",0")
    assert report != cross_check(RotationSpec(GOLDEN_CF), 40)


def test_a_deep_cross_check_pays_per_block_not_per_row(monkeypatch):
    # about 0.85 s; with a row object per depth it took about 2.2 s
    def per_row(*args):
        raise AssertionError("a record built per depth")

    monkeypatch.setattr("subrec.recurrence.TauResult", per_row)
    monkeypatch.setattr("subrec.rotation.CrossCheckRow", per_row)
    spec = RotationSpec(CFExpansion((), (1, 1, 1, 1)))
    with within(1.8):
        report = cross_check(spec, 200_000, WindowPolicy(base=1000))
    assert report.ok and len(report.n) == 200_000 and len(report.lengths) == 13
    assert report.to_csv().count("\n") == 200_001


CLONES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_values_round_trip_through_pickle_and_copies(clone):
    cf = CFExpansion((3,), (1, 4))
    spec = RotationSpec(cf)
    atom_lengths(spec, 40)  # fills the spec's arc table
    atom = atom_of(spec, ZERO, 40)
    report = cross_check(spec, 30)
    for value in (spec.alpha, atom, report, QuadraticReal(Fraction(2, 3))):
        twin = clone(value)
        assert twin == value and type(twin) is type(value)
    assert clone(spec.alpha).d == spec.alpha.d
    twin, fresh = clone(spec), RotationSpec(cf)
    assert twin == spec and twin.alpha == fresh.alpha
    t = QuadraticReal(Fraction(1, 3))
    for n in (1, 7, 40, 120):
        assert atom_of(twin, t, n) == atom_of(fresh, t, n)
        length = atom_of(fresh, ZERO, n).length
        assert tau_length(twin, length) == tau_length(fresh, length)
    assert atom_of(spec, ZERO, 40) == atom


def test_cross_check_row_agrees_with_tau_cylinder():
    src = get_preset("sqrt2-rotation")
    default = cross_check(SQRT2, 30)
    # a cap of 2**31 switches the sweep to int64 starts
    for policy in (WindowPolicy(), WindowPolicy(10_000, 2**31)):
        report = cross_check(SQRT2, 30, policy)
        assert report.ok and report == default
        assert [r.n for r in report.rows] == list(range(1, 31))
        for row in report.rows:
            assert row.tau_symbolic == tau_cylinder(src, row.n, policy).tau


@st.composite
def warm_queries(draw):
    """(cf, queries): geometric questions on one spec, sizes largest first,
    so that long words come before short ones and deep atoms before
    shallow ones, and the kinds in a drawn order."""
    cf = draw(periodic_cfs(9))
    alpha = quadratic_of_cf(cf)
    sizes = sorted(draw(st.lists(st.integers(0, 100), min_size=2, max_size=6)), reverse=True)
    queries = []
    for n in sizes:
        kind = draw(st.sampled_from(["cylinder", "tau", "atoms", "atom_of"]))
        if kind == "cylinder":
            i = draw(st.integers(0, 300))
            word = RotationSpec(cf).coding.prefix(i + n)[i:]
            if word and draw(st.booleans()):
                j = draw(st.integers(0, n - 1))
                word = word[:j] + "10"[int(word[j])] + word[j + 1 :]
            queries.append((kind, word))
        elif kind == "atom_of":
            t = (-alpha * draw(st.integers(0, n + 5))).mod1()
            if draw(st.booleans()):
                t = (alpha * draw(st.integers(1, 300))).mod1()
            queries.append((kind, (t, n)))
        else:
            queries.append((kind, n))
    return cf, queries


def geometry_answer(spec, kind, arg):
    if kind == "cylinder":
        return cylinder_interval(spec, arg)
    if kind == "atom_of":
        return atom_of(spec, *arg)
    lengths = atom_lengths(spec, arg)
    return lengths if kind == "atoms" else [tau_length(spec, x) for x in lengths]


@settings(max_examples=60, deadline=None)
@given(warm_queries())
@example((GOLDEN_CF, [("cylinder", "01" * 30), ("tau", 40), ("atoms", 3), ("cylinder", "1")]))
@example((SQRT2_CF, [("atom_of", ((-SQRT2.alpha * 50).mod1(), 50)), ("cylinder", "0"), ("atoms", 0)]))
@example((NEAR_RATIONAL, [("atoms", 100), ("cylinder", RotationSpec(NEAR_RATIONAL).coding.prefix(67)[7:]),
                          ("atom_of", (QuadraticReal(Fraction(1, 3)), 30))]))
def test_a_warmed_spec_answers_like_a_fresh_one_and_the_oracles(query):
    # the spec memoises its tables up to the largest size asked;
    # every later, smaller question must read the same as on a fresh spec
    cf, queries = query
    warm = RotationSpec(cf)
    alpha = (warm.alpha.a, warm.alpha.b, warm.alpha.d)
    for kind, arg in queries:
        got = geometry_answer(warm, kind, arg)
        assert got == geometry_answer(RotationSpec(cf), kind, arg)
        if kind == "cylinder":
            expected = naive_cylinder(alpha, arg)
            assert (got if got is None else (_pair(got.left), _pair(got.right))) == expected
        elif kind == "atom_of":
            t, n = arg
            assert (_pair(got.left), _pair(got.right)) == naive_atom(alpha, _pair(t), n)
        elif kind == "tau":
            lengths = atom_lengths(warm, arg)
            assert got == [tau_length_linear(warm, x) for x in lengths]
        else:
            assert len(got) == arg + 1 and sum(got, ZERO) == 1
            (lx, ly), (rx, ry) = naive_atom(alpha, (0, 0), arg)
            assert got[0] == QuadraticReal(rx - lx, ry - ly, alpha[2])
    assert warm == RotationSpec(cf)
    assert hash(warm) == hash(RotationSpec(cf))
    assert repr(warm) == repr(RotationSpec(cf))
