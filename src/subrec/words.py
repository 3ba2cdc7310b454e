"""Finite-word primitives: occurrences, return words, fractional powers.

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


def min_return_length(u: str, text: str) -> int:
    """Length of the shortest return word of u seen in text."""
    occ = occurrences(u, text)
    if len(occ) < 2:
        raise InsufficientWindow(
            "need at least 2 occurrences of %r, found %d" % (u, len(occ))
        )
    return min(q - p for p, q in zip(occ, occ[1:]))


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


DEFAULT_POWER_CAP = 4096


def max_power_witness(text: str, cap: int | None = DEFAULT_POWER_CAP) -> PowerWitness:
    """Largest fractional power among factors of text, with a witness.

    Scans every period p: the factor starting at i with period p extends to
    length p + lce(i, i+p), giving exponent (p + ext)/p. Analysis is capped
    at `cap` symbols (None disables the cap); ties prefer the smallest
    period, then the leftmost position. A period p allows at most n/p, so
    the scan stops at the first p with n/p <= best: no later period can
    beat the best strictly.
    """
    if not text:
        raise EmptyPattern("empty text")
    if cap is not None and len(text) > cap:
        text = text[:cap]
    n = len(text)
    if n == 1:
        return PowerWitness(Fraction(1), text, 0, n)

    arr = _codes(text)
    best_num, best_den, best_pos = 1, 1, 0
    for p in range(1, n):
        if n * best_den <= best_num * p:
            break
        m = arr[:-p] == arr[p:]
        size = m.size
        idx = np.arange(size)
        mism = np.where(m, size, idx)
        nxt = np.minimum.accumulate(mism[::-1])[::-1]
        ext = nxt - idx  # match run starting at each position
        i = int(np.argmax(ext))
        num = p + int(ext[i])
        # compare num/p with the running best exactly
        if num * best_den > best_num * p:
            best_num, best_den, best_pos = num, p, i
    g = Fraction(best_num, best_den)
    return PowerWitness(g, text[best_pos : best_pos + best_den], best_pos, n)


def factor_groups(text: str, length: int) -> tuple[np.ndarray, list[int]]:
    """Start positions of the length-`length` factors of text, grouped.

    Returns (order, bounds): the i-th distinct factor starts at each of
    order[bounds[i]:bounds[i + 1]], ascending, and groups come in
    lexicographic order. Over k symbols, factors are packed into int64
    codes while k**length < 2**62; longer factors are keyed by their rank
    among the sorted distinct factors. Needs 1 <= length <= len(text).
    """
    m = len(text) - length + 1
    symbols = sorted(set(text))
    k = len(symbols)
    if k**length < 2**62:
        points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        arr = np.searchsorted(np.array([ord(c) for c in symbols]), points).astype(np.int64)
        keys = arr[:m].copy()
        for j in range(1, length):
            keys *= k
            keys += arr[j : j + m]
    else:
        factors = [text[i : i + length] for i in range(m)]
        rank = {w: r for r, w in enumerate(sorted(set(factors)))}
        keys = np.array([rank[w] for w in factors], dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    return order, [0] + (np.flatnonzero(sk[1:] != sk[:-1]) + 1).tolist() + [m]


def word_counts(text: str, length: int) -> dict[str, int]:
    """Occurrence counts of every length-`length` factor of text."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if len(text) < length:
        return {}
    order, bounds = factor_groups(text, length)
    return {
        text[order[lo] : order[lo] + length]: hi - lo
        for lo, hi in zip(bounds, bounds[1:])
    }
