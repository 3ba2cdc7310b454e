"""Cylinder recurrence times tau(z_n(x)) and local rate estimates.

tau of the depth-n cylinder is the length of the shortest return word to
the length-n prefix, read off as the minimum gap between consecutive
occurrences inside a finite window. Windows grow until the value stops
changing; a value is only trusted once it survives one doubling.

Every depth comes from one sweep over one encoded text: the occurrences of
the depth-n prefix are those of depth n - 1 whose symbol at offset n - 1
matches, so a single sorted position array is filtered once per depth, and
the occurrences inside any window are a prefix of it. The filter drops a
start at only a few depths in hundreds, so what a depth derives from the
array (the running minimum of its gaps in the sweep, the return words in
return_table) carries over to every depth that drops nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import numpy as np

from .generators import ShiftedSource, as_source
from .words import (
    EmptyPattern,
    InsufficientWindow,
    PowerWitness,
    _codes,
    factor_keys,
    max_power_witness,
)


class WindowCapExceeded(RuntimeError):
    """No value could be extracted before the window cap (or text end)."""


@dataclass(frozen=True)
class WindowPolicy:
    """The first window is max(base, 50 n) symbols for depth n; each
    round doubles it, never past cap."""

    base: int = 10_000
    cap: int = 10_000_000

    def initial(self, n: int) -> int:
        return min(max(self.base, 50 * n), self.cap)

    def grow(self, window: int) -> int:
        return min(2 * window, self.cap)


DEFAULT_POLICY = WindowPolicy()


@dataclass(frozen=True)
class TauResult:
    n: int
    tau: int
    window: int
    stabilized: bool

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.tau, self.n)


def _narrow(arr: np.ndarray, occ: np.ndarray, depth: int, n: int) -> np.ndarray:
    """The starts of the depth-n prefix of arr among occ, all starts of its
    depth-`depth` prefix: those that fit and match at offsets depth..n-1,
    ascending. The one prefix filter of _tau_sweep and return_table.

    Each offset j can trim only the last start, len(arr) - j, and occ itself
    is returned when no start is dropped, so a caller can keep what it
    derived from occ.
    """
    for j in range(depth, n):
        if len(occ) and occ[-1] > len(arr) - j - 1:
            occ = occ[:-1]
        hit = arr[j:][occ] == arr[j]
        if not hit.all():
            occ = occ[hit]
    return occ


def _tau_sweep(source, first: int, last: int, policy: WindowPolicy):
    """TauResult for each depth first..last, in order, as tau_cylinder
    defines it.

    occ holds the start positions p <= len(arr) - n of the depth-n prefix,
    ascending, so the occurrences inside a window of w symbols are occ[:k]
    with k = #(p <= w - n), and tau is least[k - 2], least being the running
    minimum of the gaps of occ. The text grows geometrically up to the cap
    when a window outruns it, and only the new start positions are checked.

    least is built when a round first needs it and carried over while occ
    stays a prefix of the array it was built from: through depths whose
    filter drops nothing or only trims the last start, len(arr) - n + 1. A
    mismatch dropped by the filter, or starts appended by growth, drop it.
    """
    target = max(last, policy.grow(policy.initial(last)))
    arr = _codes(source.prefix(target))
    done = len(arr) < target
    index = np.int32 if max(target, policy.cap) < 2**31 else np.int64
    occ = np.arange(len(arr), dtype=index)
    least = None
    for n in range(1, last + 1):
        if len(arr) < max(n, first):
            raise WindowCapExceeded(
                "source %s ends after %d symbols, cylinder depth %d unreachable"
                % (source.name, len(arr), max(n, first))
            )
        kept = _narrow(arr, occ, n - 1, n)
        trimmed = int(occ[-1]) > len(arr) - n
        if len(kept) < len(occ) - trimmed:
            least = None
        occ = kept
        if n < first:
            continue
        window = policy.initial(n)
        prev: int | None = None
        while True:
            if window > len(arr) and not done:
                size = min(max(window, 2 * len(arr)), policy.cap)
                text = source.prefix(size)
                done = len(text) < size
                new = np.arange(len(arr) - n + 1, len(text), dtype=index)
                arr = np.concatenate((arr, _codes(text[len(arr) :])))
                new = _narrow(arr, new, 0, n)
                if len(new):
                    occ = np.concatenate((occ, new))
                    least = None
            avail = min(window, len(arr))
            exhausted = avail < window
            k = int(occ.searchsorted(avail - n, "right"))
            if k < 2:
                if exhausted or window >= policy.cap:
                    raise WindowCapExceeded(
                        "prefix of depth %d of %s recurs less than twice in a %d-window"
                        % (n, source.name, avail)
                    )
            else:
                if least is None:
                    least = occ[1:] - occ[:-1]
                    np.minimum.accumulate(least, out=least)
                tau = int(least[k - 2])
                if exhausted:
                    yield TauResult(n, tau, avail, True)
                    break
                if tau == prev:
                    yield TauResult(n, tau, window, True)
                    break
                if window >= policy.cap:
                    yield TauResult(n, tau, window, False)
                    break
                prev = tau
            window = policy.grow(window)


def tau_cylinder(x, n: int, policy: WindowPolicy = DEFAULT_POLICY) -> TauResult:
    """Recurrence time of the depth-n cylinder of x.

    stabilized means the value was identical at two consecutive window
    sizes, or the source is finite and was scanned to its end.
    """
    if n < 1:
        raise ValueError("cylinder depth must be >= 1")
    return next(_tau_sweep(as_source(x), n, n, policy))


# orders TauResults by tau / n without building a Fraction (n > 0)
_BY_RATIO = cmp_to_key(lambda a, b: a.tau * b.n - b.tau * a.n)


@dataclass
class RateSeries:
    """tau(z_n)/n for n = 1..depth, with tail summaries.

    liminf/limsup are approximated by min/max of the ratio over the tail
    n > depth/2; the convention is part of the record so finite-depth
    summaries cannot be mistaken for limits.
    """

    source: str
    depth: int
    entries: list[TauResult] = field(default_factory=list)

    CSV_HEADER = "n,tau,ratio_num,ratio_den,window,stabilized"

    @property
    def tail_start(self) -> int:
        return self.depth // 2 + 1

    def tail(self) -> list[TauResult]:
        return [e for e in self.entries if e.n >= self.tail_start]

    def tail_min(self) -> Fraction:
        return min(self.tail(), key=_BY_RATIO).ratio

    def tail_max(self) -> Fraction:
        return max(self.tail(), key=_BY_RATIO).ratio

    def stabilized_fraction(self) -> Fraction:
        if not self.entries:
            return Fraction(0)
        good = sum(1 for e in self.entries if e.stabilized)
        return Fraction(good, len(self.entries))

    def running_min(self) -> list[Fraction]:
        out, cur, ratio = [], None, None
        for e in self.entries:
            if cur is None or e.tau * cur.n < cur.tau * e.n:
                cur, ratio = e, e.ratio
            out.append(ratio)
        return out

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for e in self.entries:
            g = gcd(e.tau, e.n)
            lines.append(
                "%d,%d,%d,%d,%d,%d"
                % (e.n, e.tau, e.tau // g, e.n // g, e.window, int(e.stabilized))
            )
        return "\n".join(lines) + "\n"


def rate_series(x, depth: int, policy: WindowPolicy = DEFAULT_POLICY) -> RateSeries:
    """tau and tau/n for every cylinder depth 1..depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    source = as_source(x)
    return RateSeries(source.name, depth, list(_tau_sweep(source, 1, depth, policy)))


@dataclass(frozen=True)
class SubInvarianceReport:
    ok: bool
    checked: int
    skipped: int
    first_violation: tuple[int, int, int] | None  # (n, tau_shifted, tau)


def sub_invariance_check(
    x, depth: int, policy: WindowPolicy = DEFAULT_POLICY
) -> SubInvarianceReport:
    """Check tau(z_{n-1}(Sx)) <= tau(z_n(x)) for n = 2..depth.

    Only pairs where both values stabilized are compared; the rest are
    counted as skipped.
    """
    if depth < 2:
        raise ValueError("need depth >= 2")
    source = as_source(x)
    # zip asks the right side first at each n, so errors surface in order
    pairs = zip(
        _tau_sweep(source, 2, depth, policy),
        _tau_sweep(ShiftedSource(source), 1, depth - 1, policy),
    )
    checked = skipped = 0
    for right, left in pairs:
        if not (left.stabilized and right.stabilized):
            skipped += 1
            continue
        checked += 1
        if left.tau > right.tau:
            return SubInvarianceReport(False, checked, skipped, (right.n, left.tau, right.tau))
    return SubInvarianceReport(True, checked, skipped, None)


@dataclass(frozen=True)
class LRReport:
    max_len: int
    window: int
    k_estimate: Fraction       # max over factors u of (max return length)/|u|
    k_lower_gap: Fraction      # min over factors u of (min return length)/|u|
    k_witness: str             # factor achieving k_estimate
    gap_witness: str           # factor achieving k_lower_gap


def _gap_extremes(text: str, length: int, keys: np.ndarray):
    """(greatest gap / length, its factor, least gap / length, its factor)
    over the gaps between consecutive starts of one length-`length` factor,
    with keys from factor_keys; the lexicographically first factor wins a
    tie. A function of its own, so each level's arrays die with it."""
    order = np.argsort(keys, kind="stable")
    head = np.r_[True, np.diff(keys[order]) != 0, True]  # a factor starts here
    lone = head[:-1] & head[1:]
    if lone.any():
        pos = order[np.argmax(lone)]  # the first factor seen once
        raise InsufficientWindow(
            "factor %r occurs only once in a %d-window; enlarge it"
            % (text[pos : pos + length], len(text))
        )
    between = head[1:-1]  # gaps between two factors never win
    gaps = np.diff(order)
    gaps[between] = 0
    g = int(np.argmax(gaps))
    most = int(gaps[g])
    gaps[between] = len(text)
    h = int(np.argmin(gaps))
    return (
        Fraction(most, length), text[order[g] : order[g] + length],
        Fraction(int(gaps[h]), length), text[order[h] : order[h] + length],
    )


def lr_constant_estimate(x, max_len: int, window: int) -> LRReport:
    """Estimate the linear-recurrence constant from a finite window.

    For every factor u with 1 <= |u| <= max_len the return-word lengths
    seen in the window bound K from below: every return word w satisfies
    |w| <= K |u|. The dual gap statistic tracks min |w| / |u|.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    text = as_source(x).prefix(window)
    if len(text) <= max_len:
        raise InsufficientWindow(
            "window of %d symbols cannot host factors of length %d"
            % (len(text), max_len)
        )
    k_est = k_low = None
    k_wit = gap_wit = ""
    for length, keys in enumerate(factor_keys(text, max_len), 1):
        top, top_wit, low, low_wit = _gap_extremes(text, length, keys)
        if k_est is None or top > k_est:
            k_est, k_wit = top, top_wit
        if k_low is None or low < k_low:
            k_low, gap_wit = low, low_wit
    return LRReport(max_len, len(text), k_est, k_low, k_wit, gap_wit)


def power_report(x, window: int) -> PowerWitness:
    """Largest fractional power among factors of the window, verified."""
    if window < 16:
        raise ValueError("window must be >= 16")
    text = as_source(x).prefix(window)
    w = max_power_witness(text)
    if text[w.position : w.position + len(w.factor)] != w.factor:
        raise RuntimeError("power witness %r at %d is not in the window" % (w.factor, w.position))
    return w


@dataclass(frozen=True)
class ReturnTableRow:
    n: int
    prefix: str
    tau: int
    words: tuple[str, ...]  # sorted by (length, lexicographic)


def _return_words(text: str, arr: np.ndarray, occ: np.ndarray) -> tuple[str, ...]:
    """The distinct words text[p:q] over consecutive starts p < q of occ,
    sorted by (length, lexicographic).

    The pairs are grouped by their gap g; a group's words are the rows
    arr[p:p + g], deduplicated exactly as byte strings, and text is sliced
    once per distinct row.
    """
    gaps = np.diff(occ)
    gaps = gaps.astype(np.min_scalar_type(int(gaps.max())))  # radix-sortable
    order = np.argsort(gaps, kind="stable")
    gaps, starts = gaps[order], occ[:-1][order]
    cuts = np.flatnonzero(np.diff(gaps)) + 1
    words = []
    for g, group in zip(gaps[np.r_[0, cuts]].tolist(), np.split(starts, cuts)):
        rows = arr[group[:, None] + np.arange(g)].view(np.dtype((np.void, g * arr.itemsize)))
        _, first = np.unique(rows, return_index=True)  # one byte string per row
        words += sorted(text[p : p + g] for p in group[first].tolist())
    return tuple(words)


def return_table(x, depth: int, window: int) -> list[ReturnTableRow]:
    """Return words to each prefix x[0:n], n = 1..depth, from one window.

    The starts of each prefix come from _narrow; a depth whose filter drops
    no start keeps the previous depth's words, any other reads them off
    its starts with _return_words.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    text = as_source(x).prefix(window)
    if not text:
        raise EmptyPattern("empty pattern")
    arr, occ = _codes(text), np.arange(len(text))
    rows = []
    for n in range(1, depth + 1):
        kept = _narrow(arr, occ, n - 1, n)
        if len(kept) < 2:
            raise InsufficientWindow(
                "need at least 2 occurrences of %r, found %d" % (text[:n], len(kept))
            )
        if kept is not occ or not rows:  # the same starts give the same words
            words = _return_words(text, arr, kept)
        occ = kept
        rows.append(ReturnTableRow(n, text[:n], len(words[0]), words))
    return rows
