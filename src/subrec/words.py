"""Finite-word primitives: occurrences, return words, powers, factor keys.

Words are plain strings. Occurrence counting includes overlaps throughout,
exponents and length ratios are exact fractions. One batched kernel, _lce,
answers every longest-common-extension question: prefix_match asks it how
far starts match the prefix, and max_power_witness how far sampled
repetitions run, forward and on the reversed text.
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


def _packed(codes: np.ndarray) -> np.ndarray:
    """words[q] = the 8 bytes from symbol q on, as a little-endian uint64:
    an unaligned view of codes padded with zeros to twice their length,
    as far as _lce reads."""
    size, item = len(codes), codes.itemsize
    buf = np.zeros((2 * size + 8 // item) * item, np.uint8)
    buf[: size * item] = codes.view(np.uint8)
    return np.ndarray(2 * size + 1, "<u8", buf, 0, (item,))


_BLOCK = 4096  # words: a round over fewer costs about its fixed overhead


def _lce(words: np.ndarray, i, j, cap) -> np.ndarray:
    """min(lcp(codes[i:], codes[j:]), cap) for each pair of starts, words
    being _packed(codes); i, j and cap are ints or arrays of the pairs,
    and where j is an int, so is i. The pairs are compared 8 bytes at a
    time, in blocks whose width doubles (or fills _BLOCK words) while
    pairs x width stays within half the text (or _BLOCK) and short of the
    largest cap; a pair's first differing symbol is the lowest set bit of
    the XOR."""
    size, item = len(words) // 2, words.strides[0]
    spw, budget = 8 // item, max(size // 2, _BLOCK)
    index = np.int32 if 2 * size + 16 < 2**31 else np.int64  # holds a start + offset
    i, j, cap = (np.asarray(a).astype(index) for a in (i, j, np.minimum(cap, size)))
    limit = np.atleast_1d(np.maximum(np.minimum(size - np.maximum(i, j), cap), 0))
    out = limit.copy()  # a pair that never differs matches to its limit
    for lo in range(0, len(out), budget):
        k = np.arange(lo, min(lo + budget, len(out)))
        k = k[limit[k] > 0]
        top, o, width = int(limit[k].max(initial=0)), 0, 0
        while len(k):
            width = max(1, min(max(2 * width, _BLOCK // len(k)), budget // len(k), -(-(top - o) // spw)))
            offs = np.arange(o, o + width * spw, spw, dtype=index)[:, None]
            x = words[offs + (j if j.ndim == 0 else j[k])]  # one row per offset: long inner loops
            x ^= words[offs + (i if i.ndim == 0 else i[k])]
            nz = x != 0
            hit = nz.any(axis=0)
            cols = np.flatnonzero(hit)
            row = nz[:, cols].argmax(axis=0) if width > 1 else 0  # the first differing word
            x = x[row, cols]
            x &= ~x + 1  # its lowest set bit, a power of 2 that a float holds exactly
            d = (np.frexp(x.astype(np.float64))[1] - 1) // (8 * item) + o + row * spw
            done = k[hit]
            out[done] = np.minimum(d, limit[done])
            o += width * spw
            k = k[~hit]
            k = k[limit[k] > o]
    return out


def prefix_match(codes: np.ndarray, last: int) -> np.ndarray:
    """z[p] = min(lcp(codes, codes[p:]), last) for each start p, except
    that a match running off the end of codes counts as last: such a start
    only matters inside windows it fits. z comes in the smallest unsigned
    dtype that holds last.

    The first 8 offsets are compared over the whole text at once. If the
    least surviving start s > 0 matches r symbols, the text up to s + r
    has period s, so the survivors p with p + 8 <= s + r are multiples of
    s matching s + r - p symbols (the Z-box rule, Gusfield 1997), and
    _lce compares only the others. The box is read only if it holds 16s:
    _lce takes fewer multiples of s as cheaply.
    """
    size = len(codes)
    z = np.zeros(size, np.min_scalar_type(last))
    alive = np.ones(size, bool)
    for j in range(min(8, last)):
        m = size - j  # the starts with a symbol at offset j
        if m > 0:
            alive[:m] &= codes[j:] == codes[j]
        z += alive
    if last <= 8:
        return z
    live = np.flatnonzero(alive)[1:]
    z[:1] = last  # start 0 matches the text to its end
    del alive
    words = _packed(codes)
    s = int(live[0]) if len(live) else 0
    if s and np.array_equal(codes[s : 17 * s + 8], codes[: 16 * s + 8]):
        box = s + int(_lce(words, 0, s, size)[0])
        inside = live[live + 8 <= box]
        z[inside] = last if box == size else np.minimum(box - inside, last)
        live = live[len(inside) :]
    d = _lce(words, 8, live + 8, last - 8)
    z[live] = d + 8
    z[live[live + 8 + d >= size]] = last
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

    The factor at i with period p extends to length p + lce(i, i + p).
    Ties prefer the smallest period, then the leftmost position, and no
    period p with n/p <= best can beat the best. Each period up to 16 is
    scanned whole: the positions where text[i] != text[i + p] cut the
    text into match runs, the longest being the period's best. Then
    _sampled_powers takes the later periods. Sampled too, the short
    periods would take steps of a few positions under a best exponent
    near 1, and cost more than their scan: about twice the time on the
    benchmark's power jobs. Bounds from 8 to 32 time alike.
    """
    if not text:
        raise EmptyPattern("empty text")
    n = len(text)
    if n == 1:
        return PowerWitness(Fraction(1), text, 0, n)

    arr = _codes(text)
    num, den, pos = 1, 1, 0
    p = 1
    while p < n and n * den > num * p and p <= 16:
        cut = np.flatnonzero(arr[:-p] != arr[p:])
        bounds = np.concatenate(([-1], cut, [n - p]))
        runs = np.diff(bounds) - 1  # the match run after each cut
        j = int(np.argmax(runs))
        # compare (p + run)/p with the running best exactly
        if (p + int(runs[j])) * den > num * p:
            num, den, pos = p + int(runs[j]), p, int(bounds[j]) + 1
        p += 1
    if p < n and n * den > num * p:
        num, den, pos = _sampled_powers(arr, p, num, den, pos)
    return PowerWitness(Fraction(num, den), text[pos : pos + den], pos, n)


def _sampled_powers(arr: np.ndarray, p: int, num: int, den: int, pos: int):
    """The best (num, den, pos) of max_power_witness from period p on,
    given the best num/den of the periods below p, found at pos.

    A period q beats b = num/den only with a run of s = floor((b - 1)q)
    + 1 or more positions i where arr[i] = arr[i + q], which the samples
    i = 0, s, 2s, ... meet (Main and Lorentz 1984; Kolpakov and Kucherov
    1999); while b is 1, that is every position. A forward _lce from
    each sample, capped at s, says whether its run reaches the next
    sample; each chain of samples so joined is one run, starting a
    backward _lce (below s) before its first sample. The periods go in
    batches of about n/2 (or _BLOCK) samples, b rising between them.
    """
    n = len(arr)
    fwd, back = _packed(arr), _packed(np.ascontiguousarray(arr[::-1]))
    budget = max(n // 2, _BLOCK)
    while True:
        stop = min(-(-n * den // num), n)  # no period from stop on can win
        if p >= stop:
            return num, den, pos
        per = np.arange(p, stop, dtype=np.int64)
        step = (num - den) * per // den + 1
        count = (n - per + step - 1) // step  # the samples below n - q
        total = np.cumsum(count)
        m = max(1, int(np.searchsorted(total, budget, side="right")))
        per, step, count, total = per[:m], step[:m], count[:m], total[:m]
        p = int(per[-1]) + 1
        k = np.arange(total[-1]) - np.repeat(total - count, count)  # sample number
        per, step = np.repeat(per, count), np.repeat(step, count)
        j = k * step
        f = _lce(fwd, j, j + per, step)
        head = np.flatnonzero(np.r_[True, (k[1:] == 0) | (f[:-1] < step[:-1])])
        tail = np.r_[head[1:], len(j)] - 1
        j0, q = j[head], per[head]
        left = j0 - _lce(back, n - j0, n - j0 - q, step[head])
        e = q + j[tail] + f[tail] - left  # each run's factor length, over its period q
        c = int(np.argmax(e / q))  # the largest e/q in floats, then exactly by integers
        above = np.flatnonzero(e * q[c] > e[c] * q)
        while len(above):
            c = int(above[np.argmax(e[above] / q[above])])
            above = above[e[above] * q[c] > e[c] * q[above]]
        c = int(np.flatnonzero(e * q[c] == e[c] * q)[0])  # the first of its ties
        if e[c] * den > num * q[c]:
            num, den, pos = int(e[c]), int(q[c]), int(left[c])


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
