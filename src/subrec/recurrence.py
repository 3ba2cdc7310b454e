"""Cylinder recurrence times tau(z_n(x)) and local rate estimates.

tau of the depth-n cylinder is the length of the shortest return word to
the length-n prefix, read off as the minimum gap between consecutive
occurrences inside a finite window. Windows grow until the value stops
changing; a value is only trusted once it survives one doubling.

Every depth comes from one encoded text and one array over it,
words.prefix_match: how far each start matches the prefix. The starts
of depth n are those matching n symbols or more, so all depths up to the
next match length share one start set, and the sweep and return_table
work once per such block of depths, not once per depth. The sweep
writes each block into tau, window and stabilized columns; the columns
are the record of a RateSeries, and its TauResults are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generators import _MAX_LENGTH, _TOO_LONG, ShiftedSource, as_source
from .words import (
    EmptyPattern,
    InsufficientWindow,
    PowerWitness,
    _codes,
    factor_keys,
    max_power_witness,
    prefix_match,
)


class WindowCapExceeded(RuntimeError):
    """No value could be extracted before the window cap (or text end)."""


_ENDS = "source %s ends after %d symbols, cylinder depth %d unreachable"
_FEW = "prefix of depth %d of %s recurs less than twice in a %d-window"
_QUOTED = 32  # the longest prefix a refusal quotes whole; a longer one by its head


@dataclass(frozen=True)
class WindowPolicy:
    """The first window is max(base, 50 n) symbols for depth n; each
    round doubles it, never past cap. Both rules take an int or an array
    of them, and give a numpy int or an array. The windows are int64, so a
    base or cap at or above 2**62 is refused, and grow's doubling stays in
    range; base > cap is allowed."""

    base: int = 10_000
    cap: int = 10_000_000

    def __post_init__(self):
        top = max(self.base, self.cap)
        if top >= _MAX_LENGTH:
            raise ValueError(_TOO_LONG % top)

    def initial(self, n):
        return np.clip(50 * n, self.base, self.cap)

    def grow(self, window):
        return np.minimum(2 * window, self.cap)


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


def _tau_sweep(source, first: int, last: int, policy: WindowPolicy):
    """The depths first..last as tau_cylinder defines them, in order, as
    column chunks (n, tau, window, stabilized): slices of arrays filled in
    place, one chunk per block of depths that share their starts. Every
    window comes from policy.initial and policy.grow.

    z = prefix_match(text, min(last, len(text))) holds each start's match
    with the prefix, so the starts of depth n are the p with z[p] >= n,
    ascending: those inside a window of w symbols are occ[:k] with
    k = #(p <= w - n), and tau is least[k - 1], least being the running
    minimum of their gaps after a leading 0 (no pair yet). A start whose
    match runs off the text never counts, as it lies past w - n. The
    depths up to the least z over occ share occ and least, so the Python
    loop runs once per such block and, inside it, once per window round
    for all its depths still pending; a failing depth ends the sweep after
    the depths before it are yielded. occ travels with its z values, so
    each block filters one pair of arrays. A window longer than the text
    grows it geometrically up to the cap, z is matched again over the
    whole text, and the block starts over from its first windows: a
    depth's value reads the text only up to its last window, so it does
    not change.
    No window passes the cap, so the text is never read past the cap or
    the word's max_length, and a first depth past either is refused
    before any symbol is read.
    """
    cap, length = policy.cap, source.max_length
    bound = cap if length is None else min(cap, length)  # no read goes past it
    if first > bound:
        if length is not None and length < first:
            raise WindowCapExceeded(_ENDS % (source.name, length, first))
        raise WindowCapExceeded(_FEW % (first, source.name, cap))
    arr = _codes(source.prefix(min(max(last, int(policy.grow(policy.initial(last)))), cap)))
    index = np.int32 if cap < 2**31 else np.int64  # holds any start
    z = prefix_match(arr, min(last, len(arr)))
    ns = np.arange(first, min(last, len(arr)) + 1)
    window = policy.initial(ns)  # grown per round, then the window read
    tau = np.zeros(len(ns), np.int64)  # tau in the last window; 0 for none
    stabilized = np.zeros(len(ns), bool)
    lo, stop, occ, failure = 0, len(ns), None, None
    while lo < stop:
        if occ is None:
            occ = np.flatnonzero(z >= ns[lo]).astype(index)
            zo = z[occ]
        else:
            keep = np.flatnonzero(zo >= ns[lo])  # cheaper than a boolean mask, twice
            occ, zo = occ[keep], zo[keep]
        hi = min(int(zo.min()) - first + 1, stop)  # ns[lo:hi] start at occ
        least = np.zeros(len(occ), index)
        np.subtract(occ[1:], occ[:-1], out=least[1:])  # the gaps, in place
        np.minimum.accumulate(least[1:], out=least[1:])
        todo = np.arange(lo, hi)
        while len(todo):
            w = window[todo]
            if w.max() > len(arr) and len(arr) < bound:
                arr = _codes(source.prefix(min(max(int(w.max()), 2 * len(arr)), cap)))
                z = prefix_match(arr, min(last, len(arr)))
                tau[lo:], window[lo:] = 0, policy.initial(ns[lo:])
                occ = None
                break
            n = ns[todo]
            avail = np.minimum(w, len(arr))
            exhausted = avail < w
            k = occ.searchsorted(np.maximum(avail - n, 0).astype(index), "right")
            t = least[k - 1]  # p = 0 always counts, so k >= 1
            stable = exhausted | (t == tau[todo])
            fail = (t == 0) & (exhausted | (w >= cap))
            settle = (t > 0) & (stable | (w >= cap))
            again = ~settle & ~fail
            if fail.any():
                m = int(np.argmax(fail))
                stop = int(todo[m])
                failure = _FEW % (n[m], source.name, avail[m])
                settle[m:] = again[m:] = False
            tau[todo] = t  # t > 0 stays > 0 as the window grows
            stabilized[todo] = stable
            window[todo] = np.where(settle, avail, policy.grow(w))
            todo = todo[again]
        else:
            end = min(hi, stop)
            if lo < end:
                yield ns[lo:end], tau[lo:end], window[lo:end], stabilized[lo:end]
            lo = hi
    if failure is not None:
        raise WindowCapExceeded(failure)


def _rows(chunks):
    """The (n, tau, window, stabilized) rows of the sweep's chunks, one
    chunk at a time, so an error surfaces after the rows before it."""
    for chunk in chunks:
        yield from zip(*(c.tolist() for c in chunk))


def tau_cylinder(x, n: int, policy: WindowPolicy = DEFAULT_POLICY) -> TauResult:
    """Recurrence time of the depth-n cylinder of x.

    stabilized means the value was identical at two consecutive window
    sizes, or the source is finite and was scanned to its end.
    """
    if n < 1:
        raise ValueError("cylinder depth must be >= 1")
    return TauResult(*next(_rows(_tau_sweep(as_source(x), n, n, policy))))


class RateSeries:
    """tau(z_n)/n for n = 1..depth, with tail summaries.

    The record is four columns: n, tau, window and stabilized, as the
    sweep fills them, and entries builds the TauResults on demand. tau is
    int64, or holds Python ints where a value does not fit.

    liminf/limsup are approximated by min/max of the ratio over the tail
    n > depth/2; the convention is part of the record so finite-depth
    summaries cannot be mistaken for limits.
    """

    CSV_HEADER = "n,tau,ratio_num,ratio_den,window,stabilized"

    def __init__(self, source: str, depth: int, n, tau, window, stabilized):
        self.source, self.depth = source, depth
        self.n, self.tau, self.window, self.stabilized = n, tau, window, stabilized

    @property
    def _columns(self) -> tuple:
        return self.n, self.tau, self.window, self.stabilized

    def __eq__(self, other) -> bool:
        fields = (self.source, self.depth)
        same = type(other) is type(self) and fields == (other.source, other.depth)
        return same and all(map(np.array_equal, self._columns, other._columns))

    def __repr__(self) -> str:
        return "RateSeries(source=%r, depth=%d, rows=%d)" % (self.source, self.depth, len(self.n))

    @property
    def entries(self) -> list[TauResult]:
        return [TauResult(*row) for row in _rows([self._columns])]

    @property
    def tail_start(self) -> int:
        return self.depth // 2 + 1

    def _extreme(self, least: bool) -> Fraction:
        """The least (or greatest) tau/n over the tail, compared exactly
        among the rows whose float ratio lies within a few ulps of the
        float extreme: each float ratio is within 3 ulps of its value."""
        tail = self.n >= self.tail_start
        tau, n = self.tau[tail], self.n[tail]
        if not len(n):
            raise ValueError("no depth n >= %d in the series" % self.tail_start)
        r = np.asarray(tau / n, float)
        best = r.min() if least else r.max()
        near = np.flatnonzero(abs(r - best) <= 8 * np.finfo(float).eps * best)
        ratios = map(Fraction, tau[near].tolist(), n[near].tolist())
        return min(ratios) if least else max(ratios)

    def tail_min(self) -> Fraction:
        return self._extreme(True)

    def tail_max(self) -> Fraction:
        return self._extreme(False)

    def stabilized_fraction(self) -> Fraction:
        if not len(self.n):
            return Fraction(0)
        return Fraction(int(self.stabilized.sum()), len(self.n))

    def running_min(self) -> list[Fraction]:
        """The least tau/n over the first i + 1 rows, for each row i."""
        out, least = [], None
        for tau, n in zip(self.tau.tolist(), self.n.tolist()):
            if least is None or tau * least.denominator < least.numerator * n:
                least = Fraction(tau, n)
            out.append(least)
        return out

    def to_csv(self) -> str:
        g = np.gcd(self.tau, self.n)
        cols = (self.n, self.tau, self.tau // g, self.n // g, self.window, self.stabilized)
        body = np.column_stack(cols).ravel().tolist()
        return self.CSV_HEADER + "\n" + "%d,%d,%d,%d,%d,%d\n" * len(self.n) % tuple(body)


def rate_series(x, depth: int, policy: WindowPolicy = DEFAULT_POLICY) -> RateSeries:
    """tau and tau/n for every cylinder depth 1..depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    source = as_source(x)
    chunks = list(_tau_sweep(source, 1, depth, policy))
    return RateSeries(source.name, depth, *map(np.concatenate, zip(*chunks)))


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
        _rows(_tau_sweep(source, 2, depth, policy)),
        _rows(_tau_sweep(ShiftedSource(source), 1, depth - 1, policy)),
    )
    checked = skipped = 0
    for (n, tau, _, stable), (_, shifted, _, shifted_stable) in pairs:
        if not (stable and shifted_stable):
            skipped += 1
            continue
        checked += 1
        if shifted > tau:
            return SubInvarianceReport(False, checked, skipped, (n, shifted, tau))
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


def _return_words(text: str, arr: np.ndarray, occ: np.ndarray) -> dict[str, int]:
    """{word: how many pairs give it} over the words text[p:q] of
    consecutive starts p < q of occ.

    The pairs are grouped by their gap g; a group's words are the rows
    arr[p:p + g], deduplicated and counted exactly as byte strings, and
    text is sliced once per distinct row.
    """
    gaps = np.diff(occ)
    gaps = gaps.astype(np.min_scalar_type(int(gaps.max())))  # radix-sortable
    order = np.argsort(gaps, kind="stable")
    gaps, starts = gaps[order], occ[:-1][order]
    cuts = np.flatnonzero(np.diff(gaps)) + 1
    counts = {}
    for g, group in zip(gaps[np.r_[0, cuts]].tolist(), np.split(starts, cuts)):
        rows = arr[group[:, None] + np.arange(g)].view(np.dtype((np.void, g * arr.itemsize)))
        _, first, many = np.unique(rows, return_index=True, return_counts=True)
        for p, c in zip(group[first].tolist(), many.tolist()):
            counts[text[p : p + g]] = c
    return counts


def return_table(x, depth: int, window: int) -> list[ReturnTableRow]:
    """Return words to each prefix x[0:n], n = 1..depth, from one window.

    Start p of the window serves the depths up to reach[p] =
    min(z[p], len(text) - p), z from prefix_match, so the first depth with
    fewer than two starts is refused before any row is built. The depths
    up to the next value of reach share their starts and words. A depth
    that drops only the last start drops only the last pair, and keeps
    the words unless that pair was the only one giving its word; any
    other drop reads the words again with _return_words.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    text = as_source(x).prefix(window)
    if not text:
        raise EmptyPattern("empty pattern")
    arr = _codes(text)
    reach = np.minimum(prefix_match(arr, min(depth, len(arr))), len(arr) - np.arange(len(arr)))
    second = int(np.partition(reach, -2)[-2]) if len(reach) > 1 else 0
    if second < depth:
        n = second + 1
        quoted = repr(text[:n]) if n <= _QUOTED else "%r... (length %d)" % (text[:_QUOTED], n)
        raise InsufficientWindow(
            "need at least 2 occurrences of %s, found %d" % (quoted, (reach >= n).sum())
        )
    occ = np.flatnonzero(reach)
    ends = reach[occ]
    counts = _return_words(text, arr, occ)
    rows, n = [], 1
    values, many = np.unique(ends, return_counts=True)
    for v, c in zip(values.tolist(), many.tolist()):
        words = tuple(sorted((w for w, k in counts.items() if k), key=lambda w: (len(w), w)))
        rows += [ReturnTableRow(m, text[:m], len(words[0]), words) for m in range(n, v + 1)]
        n = v + 1
        if n > depth:
            break
        if c == 1 and ends[-1] == v:  # only the last start leaves, and the last pair
            counts[text[occ[-2] : occ[-1]]] -= 1
            occ, ends = occ[:-1], ends[:-1]
        else:
            occ, ends = occ[ends > v], ends[ends > v]
            counts = _return_words(text, arr, occ)
    return rows
