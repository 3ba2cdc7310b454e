import tracemalloc
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import (
    ONE,
    ZERO,
    CFExpansion,
    FixedPointSource,
    FixedTextSource,
    KappaSource,
    Morphism,
    NotProlongable,
    PeriodicSource,
    QuadraticReal,
    RotationCodingSource,
    RotationSpec,
    SequenceTooShort,
    ShiftedSource,
    StandardWordSource,
    gamma,
    kappa_image_lengths,
    kappa_images,
    kappa_prefix,
    parse_kappa,
    quadratic_of_cf,
    rho,
    tau_cylinder,
    thue_morse,
)
from subrec import generators
from subrec.presets import get_preset, golden_kappa_steps, preset_names, sqrt2_kappa_steps
from guards import within
from oracles import (
    beatty_coding,
    naive_kappa_word,
    naive_standard_word,
    naive_thue_morse,
    translate_apply,
)

GOLDEN_CF = CFExpansion((), (1,))
SQRT2_CF = CFExpansion((), (2,))


def integer_form(alpha):
    """alpha as (A + B sqrt(d))/den with integer A, B, den."""
    den = lcm(alpha.a.denominator, alpha.b.denominator)
    return (
        int(alpha.a * den),
        int(alpha.b * den),
        alpha.d,
        den,
    )


def test_morphism_tables():
    assert rho(1).images == {"0": "011", "1": "01"}
    assert rho(2).images == {"0": "0111", "1": "011"}
    assert gamma(1).images == {"0": "100", "1": "10"}
    assert gamma(3).images == {"0": "10000", "1": "1000"}
    assert rho(1).label == "r1" and gamma(3).label == "g3"
    with pytest.raises(ValueError):
        rho(0)


def test_morphism_apply_checks_domain():
    m = thue_morse()
    assert m.apply("0110") == "01101001"
    with pytest.raises(ValueError):
        m.apply("012")


def test_thue_morse_fixed_point():
    assert FixedPointSource(thue_morse(), "0").prefix(8) == "01101001"
    long = FixedPointSource(thue_morse(), "0").prefix(64)
    assert long[:8] == "01101001"
    assert FixedPointSource(thue_morse(), "0").prefix(32) == long[:32]


def naive_fixed_point(m, seed, n):
    """First n symbols of the fixed point, applying m to the whole word."""
    w = seed
    while len(w) < n:
        w = translate_apply(m.images, w)
    return w[:n]


# latin-1 and wide symbols, one outside the basic plane
SYMBOLS = "01ab\u00e9\u20ac\u0434\U0001d11e"
images_st = st.dictionaries(
    st.sampled_from(SYMBOLS), st.text(SYMBOLS, min_size=1, max_size=5), min_size=1, max_size=8
)
WIDE = {"a": "a\u00e9", "\u00e9": "\u20ac", "\u20ac": "a"}
LONG = "a\u00e9\u20ac" * (generators._BLOCK // 3 + 5)  # over one block


@settings(max_examples=150, deadline=None)
@given(
    images_st.flatmap(
        lambda images: st.tuples(
            st.just(images),
            st.text(st.sampled_from(sorted(images)), max_size=60)
            | st.text(st.sampled_from(SYMBOLS), max_size=20),
        )
    )
)
@example((WIDE, LONG))
@example((WIDE, LONG[: generators._BLOCK]))
@example((WIDE, LONG + "0" + LONG + "x"))  # outside symbols in two blocks
@example(({"0": "001", "1": "1"}, "0" * generators._BLOCK + "1"))
@example(({"0": "01"}, ""))
@example(({"0": "0\U0010ffff", "\U0010ffff": "1"}, "0\U0010ffff0"))  # the widest code's table
# 2 reads the table's last entry, and \u20ac lies past it
@example(({"0": "01", "1": "0"}, "0\u20ac12" * generators._BLOCK))
def test_apply_matches_translate(case):
    images, word = case
    m = Morphism(images)
    try:
        want = translate_apply(images, word)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            m.apply(word)
        assert str(info.value) == str(exc)
    else:
        assert m.apply(word) == want


def test_one_long_image_does_not_swell_the_blocks_of_short_ones():
    # padded to the long image, a block of _BLOCK short symbols would gather
    # over 800 MB
    images = {"0": "0" + "1" * 100_000, "1": "1"}
    word = "1" * 2000 + "0"
    tracemalloc.start()
    try:
        got = Morphism(images).apply(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == translate_apply(images, word)
    assert peak < 1 << 23


def test_thue_morse_source_matches_oracle_across_extensions():
    # each extension doubles the word; these lengths cross 17 of them
    lengths = [1, 2, 3, 4, 5, 17, 64, 65, 1000, 4097, 2**16, 2**16 + 3, 100_000]
    want = naive_thue_morse(max(lengths))
    for n in lengths:
        assert get_preset("thue-morse").prefix(n) == want[:n]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [thue_morse(), rho(1), Morphism({"0": "001", "1": "10"}), Morphism({"0": "01", "1": "02", "2": "0"})]
    ),
    st.lists(st.integers(0, 3 * generators._BLOCK), min_size=1, max_size=10),
)
def test_fixed_point_prefixes_nest_across_resumed_calls(m, lengths):
    src = FixedPointSource(m, "0")
    want = naive_fixed_point(m, "0", max(lengths))
    for n in lengths:
        assert src.prefix(n) == want[:n] == FixedPointSource(m, "0").prefix(n)


def test_fixed_point_refuses_an_outside_symbol_on_the_same_extension():
    # m^2(0) = 012 brings in 2, and m^3(0) = 0122x brings in x: the word is
    # good up to 5 symbols, and the extension to m^4(0) must apply m to x
    m = Morphism({"0": "01", "1": "2", "2": "2x"})
    src = FixedPointSource(m, "0")
    assert src.prefix(5) == "0122x"
    with pytest.raises(ValueError, match=r"symbols outside domain: \['x'\]"):
        src.prefix(6)
    assert src.prefix(5) == "0122x"
    with pytest.raises(ValueError, match=r"symbols outside domain: \['x'\]"):
        FixedPointSource(m, "0").prefix(6)
    # the first image already holds x, so only the seed's image is served
    src = FixedPointSource(Morphism({"0": "0x"}), "0")
    assert src.prefix(2) == "0x"
    with pytest.raises(ValueError, match="symbols outside domain"):
        src.prefix(3)


def test_fixed_point_needs_prolongable_seed():
    with pytest.raises(NotProlongable):
        FixedPointSource(gamma(1), "0")
    with pytest.raises(NotProlongable):
        # the image equals the seed, so no longer prefix is ever reached
        FixedPointSource(Morphism({"0": "0", "1": "1"}), "01")
    assert FixedPointSource(gamma(1), "1").prefix(5) == "10100"


def test_kappa_images_frozen():
    assert kappa_images([gamma(1)]) == ("100", "10")
    assert kappa_images([rho(1), rho(1)]) == ("0110101", "01101")
    assert kappa_images([rho(1), gamma(1)]) == ("01011011", "01011")


@pytest.mark.parametrize("images", [{"0": "012", "1": "0"}, {"0": "01", "1": "0a"}])
def test_a_step_with_a_symbol_other_than_0_or_1_is_refused(images):
    step = Morphism(images, "odd")
    with pytest.raises(ValueError, match="kappa step odd has an image symbol other than 0 or 1"):
        kappa_images([step])
    with pytest.raises(ValueError, match="kappa step odd"):
        KappaSource(lambda i: rho(1) if i < 3 else step).prefix(100)


def test_kappa_image_lengths_frozen():
    assert kappa_image_lengths([rho(1), gamma(1)]) == [(3, 2), (8, 5)]
    assert kappa_image_lengths([gamma(2), gamma(1)]) == [(4, 3), (11, 7)]


def test_kappa_prefix_frozen():
    assert kappa_prefix([gamma(1)], 3) == "100"
    assert kappa_prefix([rho(1), rho(1)], 7) == "0110101"
    with pytest.raises(SequenceTooShort):
        kappa_prefix([rho(1)], 4)


def test_length_ratio_frozen():
    def ratio(steps, k):
        return Fraction(*kappa_image_lengths(steps)[k - 1])

    assert ratio([rho(1)], 1) == Fraction(3, 2)
    assert ratio([rho(1), gamma(1)], 2) == Fraction(8, 5)
    assert ratio([gamma(2), gamma(1)], 2) == Fraction(11, 7)
    assert ratio(golden_kappa_steps(20), 20) == Fraction(267914296, 165580141)
    for m in range(1, 6):
        assert ratio([rho(m)], 1) == Fraction(m + 2, m + 1)
        assert ratio([gamma(m)], 1) == Fraction(m + 2, m + 1)


def test_parse_kappa():
    steps = parse_kappa("r1,g2")
    assert [s.label for s in steps] == ["r1", "g2"]
    assert steps[1].images == gamma(2).images
    with pytest.raises(ValueError):
        parse_kappa("x3")


kappa_steps = st.lists(
    st.tuples(st.sampled_from("rg"), st.integers(1, 5)).map(
        lambda t: rho(t[1]) if t[0] == "r" else gamma(t[1])
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: kappa_image_lengths(s)[-1][0] <= 20000)


@given(kappa_steps)
def test_second_image_is_prefix_of_first(steps):
    v, u = kappa_images(steps)
    assert v.startswith(u)
    assert (len(v), len(u)) == kappa_image_lengths(steps)[-1]


@given(kappa_steps, st.sampled_from([rho(1), gamma(1), rho(3), gamma(2)]))
def test_tower_extension_is_blockwise(steps, extra):
    # appending a step rebuilds the deeper image from blocks of the old one
    v, u = kappa_images(steps)
    v2, u2 = kappa_images(steps + [extra])
    blocks = {"0": v, "1": u}
    assert v2 == "".join(blocks[c] for c in extra.images["0"])
    assert u2 == "".join(blocks[c] for c in extra.images["1"])


kappa_steps_any = st.lists(
    st.tuples(st.sampled_from("rg"), st.integers(1, 5)).map(
        lambda t: rho(t[1]) if t[0] == "r" else gamma(t[1])
    ),
    min_size=1,
    max_size=30,
)


@given(kappa_steps_any)
def test_ratio_bound_holds_iff_no_late_gamma1(steps):
    ratios = [Fraction(a, b) for a, b in kappa_image_lengths(steps)]
    late_g1 = any(s.label == "g1" for s in steps[1:])
    if late_g1:
        assert any(r > Fraction(3, 2) for r in ratios)
    else:
        assert all(1 < r <= Fraction(3, 2) for r in ratios)


def test_standard_word_frozen():
    assert StandardWordSource(GOLDEN_CF).prefix(8) == "01011010"
    assert StandardWordSource(SQRT2_CF).prefix(8) == "00101001"


@pytest.mark.parametrize(
    "cf",
    [
        GOLDEN_CF,
        SQRT2_CF,
        CFExpansion((1,), (2,)),
        CFExpansion((1, 2), (3,)),
    ],
    ids=str,
)
def test_codings_match_beatty_oracle(cf):
    n = 2000
    alpha = quadratic_of_cf(cf)
    expected = beatty_coding(*integer_form(alpha), n)
    assert RotationCodingSource(alpha, 0).prefix(n) == expected
    assert StandardWordSource(cf).prefix(n) == expected
    assert naive_standard_word([cf.coefficient(i) for i in range(1, 26)], n) == expected


BLOCK = generators._BLOCK

periodic_cfs = st.builds(
    CFExpansion,
    st.lists(st.integers(1, 9), max_size=2).map(tuple),
    st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
)


def start_form(t0):
    """t0 as (A, B, den), the start point form beatty_coding takes."""
    a, b, _, den = integer_form(t0)
    return a, b, den


def start_points(alpha):
    """0, p/q, {m alpha}, {-m alpha} and 1 - alpha: rationals, and points
    whose orbit runs exactly onto a cut of the partition."""
    return st.one_of(
        st.just(ZERO),
        st.fractions(0, 1, max_denominator=60).filter(lambda f: f < 1).map(QuadraticReal),
        st.integers(1, 3 * BLOCK).map(lambda m: (alpha * m).mod1()),
        st.integers(1, 3 * BLOCK).map(lambda m: (-(alpha * m)).mod1()),
        st.just(ONE - alpha),
    )


@settings(max_examples=40, deadline=None)
@given(periodic_cfs, st.data())
def test_rotation_coding_matches_oracle_at_any_start(cf, data):
    # lengths reach past two block boundaries, and prefixes are asked for
    # in random order from one source
    alpha = quadratic_of_cf(cf)
    t0 = data.draw(start_points(alpha), label="t0")
    lengths = data.draw(st.lists(
        st.one_of(st.integers(0, 2 * BLOCK + 64), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])),
        min_size=1, max_size=6,
    ), label="lengths")
    n = max(lengths)
    expected = beatty_coding(*integer_form(alpha), n, t0=start_form(t0))
    assert RotationCodingSource(alpha, t0).prefix(n) == expected
    src = RotationCodingSource(alpha, t0)
    for m in lengths:
        assert src.prefix(m) == expected[:m]


@pytest.mark.parametrize("m", [37, 2 * BLOCK + 5])
def test_orbit_onto_a_cut_is_decided_exactly(m):
    # from t0 = {-m alpha} the orbit hits 0 at step m: no fixed-point
    # bound can settle that symbol, the exact floors must
    alpha = quadratic_of_cf(GOLDEN_CF)
    t0 = (-(alpha * m)).mod1()
    src = RotationCodingSource(alpha, t0)
    n = m + 100
    assert src.prefix(n) == beatty_coding(*integer_form(alpha), n, t0=start_form(t0))
    assert src.exact_fallbacks >= 1


def test_rotation_source_refuses_bad_input():
    alpha = quadratic_of_cf(SQRT2_CF)
    with pytest.raises(ValueError, match="t0"):
        RotationCodingSource(alpha, 1)
    with pytest.raises(ValueError, match="irrational"):
        RotationCodingSource(QuadraticReal(Fraction(1, 3)))
    with pytest.raises(ValueError, match="same quadratic field"):
        RotationCodingSource(alpha, quadratic_of_cf(GOLDEN_CF))


def test_rotation_source_takes_a_start_of_the_field_whatever_its_radicand_split():
    # alpha = sqrt(1013) - 31 keeps the radicand 85193**2 * 1013 unreduced
    alpha = quadratic_of_cf(CFExpansion((), (1, 4, 1, 4, 15, 1, 2, 2, 2, 2, 1, 15, 4, 1, 4, 1, 62)))
    t0 = (QuadraticReal(0, 1, 1013) - 31) / 2
    assert alpha.d != t0.d and t0 == alpha / 2
    assert RotationCodingSource(alpha, t0).prefix(10**5) == RotationCodingSource(alpha, alpha / 2).prefix(10**5)
    with pytest.raises(ValueError, match="t0 must live in the same quadratic field as alpha"):
        RotationCodingSource(alpha, QuadraticReal(-1, 1, 3))


def test_rotation_length_beyond_the_fixed_point_bound_is_refused_before_allocating():
    src = RotationCodingSource(quadratic_of_cf(GOLDEN_CF))
    src.prefix(10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*62"):
            src.prefix(2**62 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert src.prefix(10) == beatty_coding(*integer_form(src.alpha), 10)


@pytest.mark.parametrize("preset", ["fibonacci", "thue-morse", "periodic01", "golden-kappa"])
def test_every_source_refuses_a_length_beyond_2_62_before_allocating(preset):
    # each of these used to build until the process was killed
    src = get_preset(preset)
    head = src.prefix(10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^words are limited to 2\\*\\*62 symbols, "):
            src.prefix(99999999999999999999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert src.prefix(10) == head


def test_a_finite_source_below_the_limit_answers_any_length():
    assert FixedTextSource("0110").prefix(2**63) == "0110"
    assert ShiftedSource(FixedTextSource("0110")).prefix(2**63) == "110"
    assert KappaSource([rho(1)]).prefix(2**63) == kappa_images([rho(1)])[0]


def test_sturmian_source_methods_agree():
    # the standard word and the spec's coding of 0: the two --method roads
    coding = RotationSpec(GOLDEN_CF).coding
    assert StandardWordSource(GOLDEN_CF).prefix(300) == coding.prefix(300)
    assert coding.name == "rotation %s" % GOLDEN_CF


@pytest.mark.parametrize("name", preset_names())
def test_source_prefixes_nest(name):
    # short requests first: a source must not hand out a short prefix that
    # a later, longer request contradicts
    src = get_preset(name)
    short = [src.prefix(n) for n in (1, 2, 3, 5, 8, 13, 21, 55, 150)]
    long = src.prefix(400)
    assert len(long) == 400
    assert all(s == long[: len(s)] for s in short)
    assert long == get_preset(name).prefix(400)
    with pytest.raises(ValueError):
        src.prefix(-1)


def test_golden_kappa_short_prefix_is_stable():
    src = get_preset("golden-kappa")
    assert src.prefix(3) == "010"
    assert src.prefix(8) == "01011010"
    assert tau_cylinder(get_preset("golden-kappa"), 8).tau == 13


def rule_word(steps, n):
    """First n symbols of an endless tower: the first image of '0' that is
    longer than n pins them down."""
    k = 1
    while len(naive_kappa_word(steps(k))) <= n:
        k += 1
    return naive_kappa_word(steps(k))[:n]


SOURCE_ORACLES = {
    "golden-rotation": lambda n: beatty_coding(*integer_form(quadratic_of_cf(GOLDEN_CF)), n),
    "sqrt2-rotation": lambda n: beatty_coding(*integer_form(quadratic_of_cf(SQRT2_CF)), n),
    "fibonacci": lambda n: naive_standard_word([1] * 40, n),
    "sqrt2": lambda n: naive_standard_word([2] * 30, n),
    "unbounded": lambda n: naive_standard_word(list(range(1, 31)), n),
    "thue-morse": naive_thue_morse,
    "golden-kappa": lambda n: rule_word(golden_kappa_steps, n),
    "sqrt2-kappa": lambda n: rule_word(sqrt2_kappa_steps, n),
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(SOURCE_ORACLES)),
    st.lists(st.integers(0, 3000), min_size=1, max_size=12),
)
def test_prefix_call_sequence_matches_fresh_source_and_oracle(name, lengths):
    src = get_preset(name)
    expected = SOURCE_ORACLES[name](max(lengths))
    for n in lengths:
        got = src.prefix(n)
        assert got == get_preset(name).prefix(n)
        assert got == expected[:n]


def test_standard_source_extends_without_rebuilding():
    asked = []

    class CountingCF(CFExpansion):
        def coefficient(self, i):
            asked.append(i)
            return super().coefficient(i)

    src = StandardWordSource(CountingCF((), (1,)))
    for n in (5, 50, 20, 500, 5000, 100):
        src.prefix(n)
    # each partial quotient is read once: every extension resumes from the
    # recursion state instead of starting again from a_1
    assert sorted(asked) == list(range(1, max(asked) + 1))


def test_standard_source_keeps_one_copy_of_its_word():
    src = get_preset("unbounded")
    src.prefix(100000)
    held = sum(len(v) for v in vars(src).values() if isinstance(v, str))
    assert held < 2 * len(src._buf)
    assert src.prefix(100000) == naive_standard_word(list(range(1, 31)), 100000)


def test_standard_source_on_finite_expansion():
    word = "01101101101"  # "0" + s_3 for [0; 1, 2, 3]
    src = StandardWordSource(CFExpansion((1, 2, 3)))
    assert src.prefix(100) == word
    assert src.max_length == len(word)
    assert src.prefix(100) == word
    assert src.prefix(4) == word[:4]

    src = StandardWordSource(CFExpansion((1, 2, 3)))
    assert src.max_length == 11  # q_3 + 1, before any symbol is read
    assert src.prefix(5) == word[:5] and src.max_length == 11
    assert src.prefix(11) == word and src.max_length == 11
    assert src.prefix(12) == word and src.max_length == 11

    t = tau_cylinder(StandardWordSource(CFExpansion((1, 2, 3))), 2)
    assert (t.tau, t.window, t.stabilized) == (3, 11, True)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 6) | st.integers(50, 3000), min_size=1, max_size=6),
    st.lists(st.integers(0, 4000), min_size=1, max_size=6),
)
@example([2, 3000], [10, 2500, 3003, 7000])
def test_standard_source_builds_part_steps_that_match_the_oracle(digits, lengths):
    # a step whose repetitions cover a request is built only in part; the
    # parts nest, and a finite word still ends where its digits do
    src = StandardWordSource(CFExpansion(tuple(digits)))
    for n in lengths:
        assert src.prefix(n) == naive_standard_word(digits, n)
    if src.max_length <= max(lengths):
        assert src.max_length == len(naive_standard_word(digits, src.max_length + 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 6) | st.integers(50, 3000), min_size=1, max_size=6).filter(
        lambda digits: prod(a + 1 for a in digits) <= 100_000  # bounds q_K
    )
)
def test_a_finite_standard_word_knows_its_length_when_built(digits):
    # "0" + s_K has q_K + 1 symbols, read off the convergent ladder
    word = naive_standard_word(digits, 10**6)
    src = StandardWordSource(CFExpansion(tuple(digits)))
    assert src.max_length == len(word) and src._buf == ""
    shifted = ShiftedSource(StandardWordSource(CFExpansion(tuple(digits))))
    assert shifted.max_length == len(word) - 1
    assert src.prefix(len(word) + 5) == word
    assert shifted.prefix(len(word) + 5) == word[1:]


@pytest.mark.parametrize(
    "cf, lead, block, length",
    [
        (CFExpansion((10**12,)), "", "0", 10**12 + 1),  # "0" + 0^(a_1 - 1) 1
        (CFExpansion((10**12,), (1,)), "", "0", None),
        (CFExpansion((1, 10**12)), "0", "1", 10**12 + 2),  # "0" + s_1^(a_2) s_0, s_1 = 1
        (CFExpansion((3,), (10**12,)), "0", "001", None),  # s_1 = 001
        (CFExpansion((1, 10**20)), "0", "1", 10**20 + 2),  # s_1 * a_2 overflowed a str repeat
    ],
    ids=["a1", "a1-periodic", "a2", "a2-periodic", "a2-beyond-int64"],
)
def test_a_huge_partial_quotient_costs_only_the_symbols_read(cf, lead, block, length):
    # building the whole step asked for about 10**12 symbols
    src = StandardWordSource(cf)
    tracemalloc.start()
    try:
        with within(1):
            words = [src.prefix(n) for n in (10, 5000, 7)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert words == [(lead + block * n)[:n] for n in (10, 5000, 7)]
    assert src.max_length == length


@settings(max_examples=60, deadline=None)
@given(kappa_steps, st.lists(st.integers(0, 25000), min_size=1, max_size=8))
def test_finite_tower_matches_oracle_and_fresh_source(steps, lengths):
    word = naive_kappa_word(steps)
    src = KappaSource(steps)
    assert src.max_length == len(word)
    for n in lengths:
        got = src.prefix(n)
        assert got == word[:n]
        assert got == KappaSource(steps).prefix(n)
    assert kappa_images(steps) == (word, naive_kappa_word(steps, "1"))


def test_tower_rule_is_asked_each_index_once():
    asked = []

    def rule(i):
        asked.append(i)
        return rho(1) if i == 1 else gamma(1)

    src = KappaSource(rule, "counting")
    for n in (5, 50, 20, 500, 5000, 100, 0, 20000):
        assert src.prefix(n) == rule_word(golden_kappa_steps, n)
    # each extension folds the next step into the pair it keeps instead of
    # composing the tower again from its first step
    assert asked == list(range(1, max(asked) + 1))


def test_tower_source_keeps_the_pinned_word_and_u_only():
    src = get_preset("golden-kappa")
    src.prefix(100000)
    held = {k: len(v) for k, v in vars(src).items() if isinstance(v, str) and k != "name"}
    assert sum(held.values()) <= len(src._buf) + len(src._u) + 1
    assert len(src._u) < len(src._buf)


def test_kappa_sources_share_language_with_rotation():
    # every 10-factor of the tower prefix occurs in the rotation coding
    text = KappaSource(golden_kappa_steps(14)).prefix(2000)
    coding = get_preset("golden-rotation").prefix(4000)
    factors = {text[i : i + 10] for i in range(len(text) - 9)}
    assert all(f in coding for f in factors)

    text = KappaSource(sqrt2_kappa_steps(10)).prefix(2000)
    coding = get_preset("sqrt2-rotation").prefix(4000)
    factors = {text[i : i + 10] for i in range(len(text) - 9)}
    assert all(f in coding for f in factors)


def test_kappa_source_is_finite():
    src = KappaSource([rho(1), gamma(1)])
    assert src.max_length == 8
    assert src.prefix(8) == "01011011"
    # finite sources return what they have; scanners detect exhaustion
    assert src.prefix(9) == "01011011"
    with pytest.raises(SequenceTooShort):
        KappaSource([])


def test_shifted_and_fixed_text_sources():
    src = FixedTextSource("0100101")
    assert src.prefix(3) == "010"
    shifted = ShiftedSource(PeriodicSource("01"))
    assert shifted.prefix(5) == "10101" and shifted.max_length is None
    # a shift of a finite source knows its length when built
    for inner in (src, KappaSource([rho(1), gamma(1)]), StandardWordSource(CFExpansion((1, 2, 3)))):
        shifted = ShiftedSource(inner)
        assert shifted.max_length == inner.max_length - 1
        word = shifted.prefix(100)
        assert len(word) == shifted.max_length and word == inner.prefix(100)[1:]
