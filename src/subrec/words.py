"""Finite-word primitives: occurrences, return words, powers, factor keys.

Words are plain strings. Occurrence counting includes overlaps throughout,
exponents and length ratios are exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class EmptyPattern(ValueError):
    """Occurrence queries need a nonempty pattern."""


class InsufficientWindow(ValueError):
    """The analyzed window is too short to answer the query."""


def _codes(text: str) -> np.ndarray:
    """Symbols of text as integers, one byte each when they fit."""
    try:
        return np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _text(codes: np.ndarray) -> str:
    """The string whose _codes are codes."""
    return codes.tobytes().decode("latin-1" if codes.dtype == np.uint8 else "utf-32-le")


def _mismatches(words: np.ndarray, p: np.ndarray, offs: np.ndarray, item: int):
    """(hit, d): which starts p differ from the prefix in the words at the
    offsets offs (a column), and where the first difference lies for
    those; words[q] holds the 8 bytes from symbol q on. A function of its
    own, so the gathered block dies with it."""
    size = len(words) - 1  # reads past the text only meet starts that ran off
    x = words[np.minimum(offs + p, size)]  # one row per offset: long inner loops
    x ^= words[np.minimum(offs, size)]
    nz = x != 0
    hit = nz.any(axis=0)
    row = nz[:, hit].argmax(axis=0)
    x = x[row, np.flatnonzero(hit)].view(np.uint8).reshape(-1, 8)
    return hit, offs[row, 0] + (x != 0).argmax(axis=1) // item


def prefix_match(codes: np.ndarray, last: int) -> np.ndarray:
    """z[p] = min(lcp(codes, codes[p:]), last) for each start p, except
    that a match running off the end of codes counts as last: such a start
    only matters inside windows it fits. z comes in the smallest unsigned
    dtype that holds last.

    The first 8 offsets are compared over the whole text at once, one
    contiguous compare and a running AND each. The starts that survive
    them are compared 8 bytes at a time (8 uint8 symbols, or 2 uint32
    ones) through an unaligned little-endian uint64 view of the padded
    text, in blocks of words whose width doubles while survivors x width
    stays within half the text; their first differing symbol is the lowest
    nonzero byte of the XOR.
    """
    size, item = len(codes), codes.itemsize
    z = np.zeros(size, np.min_scalar_type(last))
    alive = np.ones(size, bool)
    for j in range(min(8, last)):
        m = size - j  # the starts with a symbol at offset j
        if m > 0:
            alive[:m] &= codes[j:] == codes[j]
        z += alive
    if last <= 8:
        return z
    index = np.int32 if 2 * size + 8 < 2**31 else np.int64  # holds p + offset
    live = np.flatnonzero(alive).astype(index)
    del alive
    buf = np.zeros((size + 8 // item) * item, np.uint8)  # one word of padding
    buf[: size * item] = codes.view(np.uint8)
    words = np.ndarray(size + 1, "<u8", buf, 0, (item,))
    spw, end, budget = 8 // item, min(last, size), max(size // 2, 1)
    for lo in range(0, len(live), budget):
        p, j, width = live[lo : lo + budget], 8, 1
        while len(p) and j < end:
            offs = np.arange(j, j + width * spw, spw, dtype=index)[:, None]
            hit, d = _mismatches(words, p, offs, item)
            q = p[hit]
            z[q] = np.where(q + d >= size, last, np.minimum(d, last))
            p = p[~hit]
            j += width * spw
            width = max(1, min(2 * width, budget // max(len(p), 1), -(-(end - j) // spw)))
        z[p] = last
    return z


def occurrences(pattern: str, text: str) -> list[int]:
    """All start positions of pattern in text, overlaps included."""
    if not pattern:
        raise EmptyPattern("empty pattern")
    out = []
    pos = text.find(pattern)
    while pos != -1:
        out.append(pos)
        pos = text.find(pattern, pos + 1)
    return out


def return_words(u: str, text: str) -> set[str]:
    """Words separating consecutive occurrences of u in text.

    For consecutive occurrence positions p < q the return word is
    text[p:q]; u is then a prefix of w*u and occurs in it exactly twice.
    """
    occ = occurrences(u, text)
    if len(occ) < 2:
        raise InsufficientWindow(
            "need at least 2 occurrences of %r, found %d" % (u, len(occ))
        )
    return {text[p:q] for p, q in zip(occ, occ[1:])}


def fractional_power(u: str, exponent) -> str:
    """Prefix of length floor(|u|*exponent) of the periodic word u u u ..."""
    if not u:
        raise EmptyPattern("empty base word")
    e = Fraction(exponent)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    length = int(len(u) * e)  # Fraction floor
    reps = length // len(u) + 1
    return (u * reps)[:length]


@dataclass(frozen=True)
class PowerWitness:
    exponent: Fraction
    base: str
    position: int
    analyzed_length: int

    @property
    def factor(self) -> str:
        return fractional_power(self.base, self.exponent)


def max_power_witness(text: str) -> PowerWitness:
    """Largest fractional power among factors of text, with a witness.

    Scans every period p: the factor starting at i with period p extends to
    length p + lce(i, i+p), giving exponent (p + ext)/p. The positions where
    text[i] != text[i+p], with sentinels at -1 and n - p, cut the text into
    match runs, and the longest run is the best factor of period p. Ties
    prefer the smallest period, then the leftmost position. A period p
    allows at most n/p, so the scan stops at the first p with n/p <= best:
    no later period can beat the best strictly.
    """
    if not text:
        raise EmptyPattern("empty text")
    n = len(text)
    if n == 1:
        return PowerWitness(Fraction(1), text, 0, n)

    arr = _codes(text)
    best_num, best_den, best_pos = 1, 1, 0
    for p in range(1, n):
        if n * best_den <= best_num * p:
            break
        cut = np.flatnonzero(arr[:-p] != arr[p:])
        bounds = np.concatenate(([-1], cut, [n - p]))
        runs = np.diff(bounds) - 1  # the match run after each cut
        j = int(np.argmax(runs))
        num = p + int(runs[j])
        # compare num/p with the running best exactly
        if num * best_den > best_num * p:
            best_num, best_den, best_pos = num, p, int(bounds[j]) + 1
    g = Fraction(best_num, best_den)
    return PowerWitness(g, text[best_pos : best_pos + best_den], best_pos, n)


def _dense(values: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """(rank of each value among the distinct values, how many there are),
    for values below bound; the ranks come in the smallest unsigned dtype
    that holds them. Only a wide alphabet makes bound far exceed the number
    of values, and then a sort ranks them in place of the bincount."""
    if bound <= 4 * len(values) + 256:
        rank = np.cumsum(np.bincount(values, minlength=bound) > 0) - 1
        distinct = int(rank[-1]) + 1
        rank = rank.astype(np.min_scalar_type(distinct - 1))[values]
    else:
        uniq, rank = np.unique(values, return_inverse=True)
        distinct = len(uniq)
        rank = rank.astype(np.min_scalar_type(distinct - 1))
    return rank, distinct


def factor_keys(text: str, max_len: int):
    """Integer keys of the factors of nonempty text, one array per length
    1..min(max_len, len(text)); the length-1 array comes first in any case.

    keys[i] stands for text[i:i + length]: equal factors get equal keys, and
    key order is lexicographic order. Every level holds the dense ranks
    0..distinct-1 of its factors, in the smallest unsigned dtype that fits,
    so a stable sort of them is a radix sort. Level L + 1 is the dense rank
    of level L times the alphabet size plus the rank of the next symbol,
    counted with one bincount and one cumsum (see _dense).
    """
    codes = _codes(text)
    sym, k = _dense(codes, int(codes.max()) + 1)
    keys, distinct = sym, k
    yield keys
    for length in range(2, min(max_len, len(text)) + 1):
        pair = keys[:-1].astype(np.intp)
        pair *= k
        pair += sym[length - 1 :]
        keys, distinct = _dense(pair, distinct * k)
        yield keys


def word_counts(text: str, length: int) -> dict[str, int]:
    """Occurrence counts of every length-`length` factor of text."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if len(text) < length:
        return {}
    for keys in factor_keys(text, length):
        pass  # the last level is the one asked for
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return {text[p : p + length]: c for p, c in zip(first.tolist(), counts.tolist())}
