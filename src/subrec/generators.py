"""Word generators: substitutions, composition towers, Sturmian codings.

Every word comes from a WordSource, whose prefix(n) hands out the first n
symbols of a single well-defined word, so a length-L request is always a
prefix of the length-2L request. Sources keep what they have produced and
extend it on demand from the state they carry.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .contfrac import CFExpansion, _last_two, quadratic_of_cf
from .quadratic import ONE, ZERO, QuadraticReal
from .words import _codes, _text


# No source builds more than _MAX_LENGTH symbols: a longer request could
# never be held, and is refused before anything is allocated. Below it the
# error bound j + 1 of RotationCodingSource's fixed-point orbit, in units
# of 2**-64 over blocks of _BLOCK points, stays far inside the 64-bit range.
_MAX_LENGTH = 1 << 62
_TOO_LONG = "words are limited to 2**62 symbols, %d requested"
_FIXED_ONE = 1 << 64
_BLOCK = 1 << 13


class NotProlongable(ValueError):
    """seed is not a proper prefix of its image, no fixed point grows."""


class SequenceTooShort(ValueError):
    """The composed images cannot reach the requested length."""


class Morphism:
    """Map from symbols to nonempty words, applied letter by letter."""

    def __init__(self, images: dict[str, str], label: str | None = None):
        for sym, img in images.items():
            if len(sym) != 1:
                raise ValueError("symbols must be single characters: %r" % sym)
            if not img:
                raise ValueError("image of %r is empty" % sym)
        self.images = dict(images)
        self.label = label or "{%s}" % ",".join(
            "%s>%s" % (s, w) for s, w in sorted(images.items())
        )

    @cached_property
    def _tables(self):
        """(domain codes, ascending; the images' codes end to end; where each
        image starts in them; its length)."""
        domain = sorted(self.images)
        sizes = np.array([len(self.images[s]) for s in domain], dtype=np.intp)
        return (
            np.array([ord(s) for s in domain], dtype=np.uint32),
            _codes("".join(self.images[s] for s in domain)),
            np.cumsum(sizes) - sizes,
            sizes,
        )

    def apply(self, word: str) -> str:
        """The images of word's symbols, end to end, looked up in blocks of
        _BLOCK symbols: a symbol with domain index d at output offset j
        within its image reads flat[start[d] + j]. Any symbol outside the
        domain raises, naming them all.
        """
        domain, flat, start, size = self._tables
        codes = _codes(word)
        out, bad = [], set()
        for lo in range(0, len(codes), _BLOCK):
            block = codes[lo : lo + _BLOCK]
            idx = np.minimum(np.searchsorted(domain, block), len(domain) - 1)
            miss = domain[idx] != block
            if miss.any():
                bad.update(map(chr, block[miss].tolist()))
                continue
            lens = size[idx]
            ends = np.cumsum(lens)
            at = np.repeat(start[idx] - ends + lens, lens)
            at += np.arange(ends[-1])
            out.append(_text(flat[at]))
        if bad:
            raise ValueError("symbols outside domain: %s" % sorted(bad))
        return "".join(out)

    def __repr__(self):
        return "Morphism(%s)" % self.label


def rho(n: int) -> Morphism:
    """0 -> 0 1^(n+1), 1 -> 0 1^n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return Morphism({"0": "0" + "1" * (n + 1), "1": "0" + "1" * n}, "r%d" % n)


def gamma(n: int) -> Morphism:
    """0 -> 1 0^(n+1), 1 -> 1 0^n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return Morphism({"0": "1" + "0" * (n + 1), "1": "1" + "0" * n}, "g%d" % n)


def thue_morse() -> Morphism:
    return Morphism({"0": "01", "1": "10"}, "tm")


# ---------------------------------------------------------------- kappa towers

def kappa_image_lengths(steps: list[Morphism]) -> list[tuple[int, int]]:
    """(|k_1..k_j(0)|, |k_1..k_j(1)|) for j = 1..len(steps).

    Lengths follow the symbol counts of each image, so no word is built.
    """
    out: list[tuple[int, int]] = []
    l0, l1 = 1, 1
    for m in steps:
        l0, l1 = (l1 * len(w) + (l0 - l1) * w.count("0") for w in map(m.images.get, "01"))
        out.append((l0, l1))
    return out


def _fold(v: str, u: str, m: Morphism) -> tuple[str, str]:
    """Images of '0' and '1' after appending m as the innermost step.

    k_1..k_j(m(a)) is m(a) with 0 -> v = k_1..k_j(0) and 1 -> u = k_1..k_j(1).
    translate would pass any other symbol through, so such a step is refused.
    """
    images = m.images["0"], m.images["1"]
    if any(img.count("0") + img.count("1") != len(img) for img in images):
        raise ValueError("kappa step %s has an image symbol other than 0 or 1" % m.label)
    return tuple(img.translate({48: v, 49: u}) for img in images)


def kappa_images(steps: list[Morphism]) -> tuple[str, str]:
    """Fully materialized words k_1..k_n(0) and k_1..k_n(1)."""
    v, u = "0", "1"
    for m in steps:
        v, u = _fold(v, u, m)
    return v, u


def kappa_prefix(steps: list[Morphism], length: int) -> str:
    """Prefix of k_1(k_2(...k_n("0"))).

    Raises SequenceTooShort when the composed image of "0" is shorter than
    requested; more steps would be needed to pin those symbols down.
    """
    src = KappaSource(steps)
    if length > src.max_length:
        raise SequenceTooShort(
            "composed image of '0' has length %d < %d" % (src.max_length, length)
        )
    return src.prefix(length)


def parse_kappa(text: str) -> list[Morphism]:
    """Parse "r1,g2,r3" into the corresponding morphism list."""
    steps = []
    for part in text.split(","):
        part = part.strip()
        if len(part) < 2 or part[0] not in "rg" or not part[1:].isdigit():
            raise ValueError("cannot parse kappa step %r" % part)
        n = int(part[1:])
        steps.append(rho(n) if part[0] == "r" else gamma(n))
    if not steps:
        raise ValueError("empty kappa sequence")
    return steps


# ----------------------------------------------------------------- sources

class WordSource:
    """Prefixes of one word; subclasses fill _extend.

    max_length is fixed when the source is built: None for an endless
    word, otherwise its exact length. prefix clips every request to it,
    so _extend(n) only has to leave at least n symbols in _buf. Sources
    resume from their own state, so prefixes always nest. They are not
    thread-safe.
    """

    name = "word"
    max_length: int | None = None

    def __init__(self):
        self._buf = ""

    def prefix(self, n: int) -> str:
        """First n symbols (fewer only if the source is finite)."""
        if n < 0:
            raise ValueError("length must be >= 0")
        m = n if self.max_length is None else min(n, self.max_length)
        if len(self._buf) < m:
            if m > _MAX_LENGTH:
                raise ValueError(_TOO_LONG % n)
            self._extend(m)
        return self._buf[:m]

    def _extend(self, n: int):
        raise NotImplementedError


class PeriodicSource(WordSource):
    def __init__(self, block: str):
        super().__init__()
        if not block:
            raise ValueError("empty block")
        self.block = block
        self.name = "periodic %s" % block

    def _extend(self, n: int):
        reps = n // len(self.block) + 1
        self._buf = self.block * reps


class FixedPointSource(WordSource):
    """Fixed point of m starting with seed."""

    def __init__(self, m: Morphism, seed: str, name: str | None = None):
        super().__init__()
        img = m.apply(seed)
        if not img.startswith(seed) or len(img) <= len(seed):
            raise NotProlongable(
                "image of %r is %r, need a proper extension of the seed" % (seed, img)
            )
        self.m = m
        self.seed = seed
        self.name = name or ("fixed-point %s seed %s" % (m.label, seed))
        # _buf is w_k = m^k(seed), k >= 1, and _half is len(w_{k-1})
        self._buf, self._half = img, len(seed)

    def _extend(self, n: int):
        # w_{k+1} = m(w_k) = m(w_{k-1}) m(w_k[len(w_{k-1}):]) = w_k m(new part)
        w, half = self._buf, self._half
        while len(w) < n:
            w, half = w + self.m.apply(w[half:]), len(w)
        self._buf, self._half = w, half


class StandardWordSource(WordSource):
    """The angle's coding at the origin, built combinatorially.

    Convention: "0" followed by the limit of the standard-word recurrence
    s_k = s_{k-1}^(a_k) s_{k-2} with seeds s_-1 = "1", s_0 = "0" and first
    step s_1 = s_0^(a_1 - 1) s_-1. A finite expansion [0; a_1..a_K] pins
    down only "0" + s_K, q_K + 1 symbols as |s_k| = q_k, the convergent
    denominator; the source ends there. A step whose
    repetitions of s_{k-1} already cover a request is built only as far
    as asked, so a huge partial quotient costs only the symbols read.
    """

    def __init__(self, cf: CFExpansion, name: str | None = None):
        super().__init__()
        self.cf = cf
        if not cf.is_periodic:
            self.max_length = _last_two(cf, len(cf.preperiod))[3] + 1
        self.name = name or ("standard %s" % cf)
        # (s_{i-1}, |s_i|, i); s_i is _buf[1 : 1 + |s_i|], the only copy
        # kept between extensions, or s_0 = "0" while _buf holds no s_i
        self._prev, self._size, self._i = "1", 1, 0

    def _extend(self, n: int):
        prev, cur, i = self._prev, self._buf[1 : 1 + self._size] or "0", self._i
        part = None
        while i == 0 or len(cur) < n - 1:
            a = self.cf.coefficient(i + 1) - (i == 0)
            if a * len(cur) >= n - 1:  # s_i^a alone covers the request
                part = (cur * -(-(n - 1) // len(cur)))[: n - 1]
                break
            prev, cur, i = cur, cur * a + prev, i + 1
        self._prev, self._size, self._i = prev, len(cur), i
        self._buf = "0" + (cur if part is None else part)


def _check_point(t0, alpha: QuadraticReal, name: str) -> QuadraticReal:
    """t0 as a QuadraticReal in [0, 1) and rational or in the field of the
    irrational alpha, as the arithmetic decides it: t0 - alpha raises when
    their radicands do not meet, however each value splits its radicand."""
    if not isinstance(t0, QuadraticReal):
        t0 = QuadraticReal(t0)
    if not (ZERO <= t0 < ONE):
        raise ValueError("%s must lie in [0, 1)" % name)
    try:
        t0 - alpha
    except ValueError:  # mixed radicands
        raise ValueError("t0 must live in the same quadratic field as alpha") from None
    return t0


class RotationCodingSource(WordSource):
    """Coding of the rotation orbit of t0 under t -> t + alpha mod 1.

    Symbol 0 on [0, 1-alpha), symbol 1 on [1-alpha, 1): symbol k is
    floor(t0 + (k+1)*alpha) - floor(t0 + k*alpha), which is 1 exactly when
    {t0 + (k+1)*alpha} < alpha. The symbols are computed in blocks of
    64-bit fixed point, each from k alone: with a = floor(alpha * 2**64),
    t = floor(t0 * 2**64) and j = k + 1, {t0 + j*alpha} * 2**64 lies in
    [x_j, x_j + j + 1) for x_j = (t + j*a) mod 2**64, so it lies surely
    below or above alpha unless that range holds a or reaches 2**64 (it
    wraps). Such a k is settled exactly and counted in exact_fallbacks.
    """

    def __init__(self, alpha: QuadraticReal, t0=0, name: str | None = None):
        super().__init__()
        if not (ZERO < alpha < ONE):
            raise ValueError("alpha must lie in (0, 1)")
        if alpha.is_rational:
            raise ValueError("rotation angle must be irrational")
        t0 = _check_point(t0, alpha, "t0")
        self.alpha = alpha
        self.t0 = t0
        self.name = name or ("rotation t0=%s" % t0)
        self.exact_fallbacks = 0
        self._a = np.uint64((alpha * _FIXED_ONE).floor())
        self._t = np.uint64((t0 * _FIXED_ONE).floor())

    def _extend(self, n: int):
        blocks = []
        for lo in range(len(self._buf), n, _BLOCK):
            j = np.arange(lo + 1, min(lo + _BLOCK, n) + 1, dtype=np.uint64)
            x = self._t + j * self._a  # uint64 wraps: this is the mod 1
            top = x + j + np.uint64(1)
            fits = top > x  # the range ends below 2**64
            one, zero = fits & (top <= self._a), fits & (x > self._a)
            sym = one.view(np.uint8) + np.uint8(48)
            for i in np.flatnonzero(one == zero).tolist():  # neither is sure
                self.exact_fallbacks += 1
                sym[i] = 48 + ((self.t0 + self.alpha * (lo + i + 1)).mod1() < self.alpha)
            blocks.append(sym.tobytes().decode("ascii"))
        self._buf += "".join(blocks)


class KappaSource(WordSource):
    """Composition tower k_1 k_2 ...(0), grown one innermost step at a time.

    steps is a list (a finite tower) or a rule i -> k_i for i >= 1 (an
    endless one). Towers one step apart can differ in the last symbol of
    the shorter image of '0', so the source hands out v = k_1..k_j(0)
    without its last symbol until a finite tower has all its steps in, and
    then all of v. It keeps only that word, the last symbol and
    u = k_1..k_j(1).
    """

    def __init__(self, steps, name: str | None = None):
        super().__init__()
        if callable(steps):
            self.rule, self.depth = steps, None
            self.name = name or "kappa rule %s" % getattr(steps, "__name__", steps)
        else:
            steps = list(steps)
            if not steps:
                raise SequenceTooShort("empty composition")
            self.rule, self.depth = (lambda i: steps[i - 1]), len(steps)
            self.max_length = kappa_image_lengths(steps)[-1][0]
            self.name = name or ("kappa [%s]" % ",".join(m.label for m in steps))
        self._j, self._last, self._u = 0, "0", "1"

    def _extend(self, n: int):
        while len(self._buf) < n:
            v, self._u = _fold(self._buf + self._last, self._u, self.rule(self._j + 1))
            self._j += 1
            if self._j == self.depth:
                self._buf, self._last = v, ""
            else:
                self._buf, self._last = v[:-1], v[-1]


class FixedTextSource(WordSource):
    """A plain string; windows clip at its end."""

    def __init__(self, text: str, name: str = "text"):
        super().__init__()
        self._buf = text
        self.max_length = len(text)
        self.name = name


class ShiftedSource(WordSource):
    """The same word with its first symbol dropped."""

    def __init__(self, inner: WordSource):
        super().__init__()
        self.inner = inner
        if inner.max_length is not None:
            self.max_length = max(inner.max_length - 1, 0)
        self.name = "shift of %s" % inner.name

    def _extend(self, n: int):
        self._buf = self.inner.prefix(n + 1)[1:]


def as_source(x) -> WordSource:
    if isinstance(x, WordSource):
        return x
    if isinstance(x, str):
        return FixedTextSource(x)
    raise TypeError("cannot treat %r as a word source" % type(x))


def sturmian_source(cf: CFExpansion, method: str = "standard") -> WordSource:
    """Sturmian word of the given angle, symbolic or geometric route."""
    if method == "standard":
        return StandardWordSource(cf)
    if method == "rotation":
        return RotationCodingSource(quadratic_of_cf(cf), 0, "rotation %s" % cf)
    raise ValueError("unknown method %r" % method)
