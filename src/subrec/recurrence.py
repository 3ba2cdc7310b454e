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
settles most depths from their block's closest pair of starts, without
running the window rounds, and writes each block into tau, window and
stabilized columns; the columns are the record of a RateSeries, and its
TauResults are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generators import _MAX_LENGTH, _TOO_LONG, as_source
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


def _start_blocks(z: np.ndarray, first: int, last: int, index):
    """The depths first..last in blocks that share their starts, as
    (n, hi, occ): occ holds the starts p with z[p] >= n, ascending, in the
    dtype index, and hi is the least z over occ, at most last, so the
    depths n..hi all start at occ. z comes from prefix_match, whose start
    0 matches every depth. Each block filters the one before it, with its
    z values, and only when it is asked for."""
    occ, zo = None, z
    while first <= last:
        keep = np.flatnonzero(zo >= first)  # cheaper than a boolean mask, twice
        occ = keep.astype(index) if occ is None else occ[keep]
        zo = zo[keep]
        del keep  # as long as the block, in int64: not held while the block is worked on
        hi = min(int(zo.min()), last)
        yield first, hi, occ
        first = hi + 1


def _tau_sweep(source, first: int, last: int, policy: WindowPolicy):
    """The depths first..last as tau_cylinder defines them, as
    ((n, tau, window, stabilized), failure): the columns cover the depths
    before the first failing depth, and failure is that depth's refusal
    text, or None. Every window comes from policy.initial and policy.grow.

    The Python loop runs once per block of _start_blocks over
    z = prefix_match(text, min(last, len(text))); a failing depth ends the
    sweep. The starts of depth n inside a window of w symbols are occ[:k]
    with k = #(p <= w - n), and tau is least[k - 1], least being the
    running minimum of their gaps after a leading 0 (no pair yet). A start
    whose match runs off the text never counts, as it lies past w - n.
    A block first settles its plateau. Let w1 = policy.initial(n) and
    w2 = policy.grow(w1), and let occ[i], occ[i + 1] be the first closest
    pair among the starts up to the greatest w2 - n of the block, m apart.
    A depth with occ[i + 1] <= w1 - n and w1 < w2 <= len(text) reads tau = m
    in both windows, as no window of it holds a closer pair, so the rounds
    would settle it on its second window, stabilized, and the sweep writes
    (m, w2, True) at once: the columns are those of the rounds. Only the
    other depths (no pair in w1, w1 at the cap, w2 past the text read) build
    least and run the window rounds, once per round for all of them. A
    window longer than the text grows it geometrically up to the cap, z is
    matched again over the whole text, and a fresh walk over it starts
    over at the block's first depth, from its first windows: a depth's
    value reads the text only up to its last window, so it does not
    change.
    No window passes the cap, so the text is never read past the cap or
    the word's max_length, and a first depth past either is refused, with
    empty columns, before any symbol is read. When the first read already
    reaches that bound, no depth past D + 1 recurs in it (D from
    _deepest_pair), so the columns stop there, or at first.
    """
    cap, length = policy.cap, source.max_length
    bound = cap if length is None else min(cap, length)  # no read goes past it
    if first > bound:
        ended = length is not None and length < first
        failure = _ENDS % (source.name, length, first) if ended else _FEW % (first, source.name, cap)
        return (np.zeros(0, np.int64),) * 3 + (np.zeros(0, bool),), failure
    arr = _codes(source.prefix(min(max(last, int(policy.grow(policy.initial(last)))), cap)))
    index = np.int32 if cap < 2**31 else np.int64  # holds any start
    z = prefix_match(arr, min(last, len(arr)))
    top = min(last, len(arr))
    if len(arr) == bound:  # the text cannot grow, so depth D + 1 fails if it is reached
        top = max(first, min(top, _deepest_pair(z, top) + 1))
    ns = np.arange(first, top + 1)
    window = policy.initial(ns)  # grown per round, then the window read
    tau = np.zeros(len(ns), np.int64)  # tau in the last window; 0 for none
    stabilized = np.zeros(len(ns), bool)
    stop, failure = len(ns), None
    blocks = _start_blocks(z, first, top, index)
    while failure is None and (block := next(blocks, None)) is not None:
        d, e, occ = block
        lo, hi = d - first, e - first + 1  # ns[lo:hi] start at occ
        todo = np.arange(lo, hi)
        w1, w2 = window[lo:hi], policy.grow(window[lo:hi])
        k = occ.searchsorted(min(int((w2 - ns[lo:hi]).max()), len(arr)), "right")
        if k > 1:  # the plateau: occ[i], occ[i + 1] is the closest pair in any w2
            gaps = np.diff(occ[:k])
            i = int(gaps.argmin())
            flat = (occ[i + 1] <= w1 - ns[lo:hi]) & (w1 < w2) & (w2 <= len(arr))
            tau[lo:hi][flat], window[lo:hi][flat], stabilized[lo:hi][flat] = gaps[i], w2[flat], True
            todo = todo[~flat]
            del gaps, flat
        del w1, w2  # block-sized, like todo: free them before the rounds
        if len(todo):
            least = np.zeros(len(occ), index)
            np.subtract(occ[1:], occ[:-1], out=least[1:])  # the gaps, in place
            np.minimum.accumulate(least[1:], out=least[1:])
        while len(todo):
            w = window[todo]
            if w.max() > len(arr) and len(arr) < bound:
                arr = _codes(source.prefix(min(max(int(w.max()), 2 * len(arr)), cap)))
                z = prefix_match(arr, min(last, len(arr)))
                tau[lo:], window[lo:] = 0, policy.initial(ns[lo:])
                blocks = _start_blocks(z, d, top, index)  # the block starts over
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
    return (ns[:stop], tau[:stop], window[:stop], stabilized[:stop]), failure


def _deepest_pair(z: np.ndarray, last: int) -> int:
    """D = max over p >= 1 of min(z[p], len(z) - p), the deepest prefix
    with two starts in the text z was matched over (z from prefix_match,
    capped at last), or more where D reaches last. A start matching fewer
    than last symbols stopped inside the text; of the others, the first
    reaches furthest. Only boolean temporaries are as long as the text."""
    full = z == last
    full[0] = False  # start 0 is the prefix itself
    p = int(full.argmax())
    inside = int(z[1:].max(where=~full[1:], initial=0))
    return max(inside, len(z) - p) if full[p] else inside


def tau_cylinder(x, n: int, policy: WindowPolicy = DEFAULT_POLICY) -> TauResult:
    """Recurrence time of the depth-n cylinder of x.

    stabilized means the value was identical at two consecutive window
    sizes, or the source is finite and was scanned to its end.
    """
    if n < 1:
        raise ValueError("cylinder depth must be >= 1")
    columns, failure = _tau_sweep(as_source(x), n, n, policy)
    if failure is not None:
        raise WindowCapExceeded(failure)
    return TauResult(*(c[0].item() for c in columns))


TABLE_BLOCK = 1 << 12  # rows formatted at once: their values take about 8 times their text


class ColumnTable:
    """Equal-length columns (the attributes named in _COLUMNS) and the fields in
    _FIELDS. The CSV is CSV_HEADER, then _ROW * rows % _values(lo, hi), the flat
    values of rows lo..hi, for each block of TABLE_BLOCK rows."""

    @property
    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self._COLUMNS)

    def __eq__(self, other) -> bool:
        same = type(other) is type(self) and all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)
        return same and all(map(np.array_equal, self._columns, other._columns))

    def csv_chunks(self):
        yield self.CSV_HEADER + "\n"
        rows = len(self._columns[0])
        for lo in range(0, rows, TABLE_BLOCK):
            yield self._ROW * min(rows - lo, TABLE_BLOCK) % tuple(self._values(lo, lo + TABLE_BLOCK))

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


class RateSeries(ColumnTable):
    """tau(z_n)/n for n = 1..depth, with tail summaries.

    The record is four columns: n, tau, window and stabilized, as the
    sweep fills them (int64, and bool for stabilized), and entries
    builds the TauResults on demand.

    liminf/limsup are approximated by min/max of the ratio over the tail
    n > depth/2; the convention is part of the record so finite-depth
    summaries cannot be mistaken for limits.
    """

    _FIELDS = ("source", "depth")
    _COLUMNS = ("n", "tau", "window", "stabilized")
    CSV_HEADER = "n,tau,ratio_num,ratio_den,window,stabilized"
    _ROW = "%d,%d,%d,%d,%d,%d\n"

    def __init__(self, source: str, depth: int, n, tau, window, stabilized):
        self.source, self.depth = source, depth
        self.n, self.tau, self.window, self.stabilized = n, tau, window, stabilized

    def __repr__(self) -> str:
        return "RateSeries(source=%r, depth=%d, rows=%d)" % (self.source, self.depth, len(self.n))

    @property
    def entries(self) -> list[TauResult]:
        return [TauResult(*row) for row in zip(*(c.tolist() for c in self._columns))]

    @property
    def tail_start(self) -> int:
        return self.depth // 2 + 1

    def _extreme(self, least: bool) -> Fraction:
        """The least (or greatest) tau/n over the tail, compared exactly
        among the rows whose float ratio lies within a few ulps of their
        block's float extreme: each float ratio is within 3 ulps of its
        value. Blocks of TABLE_BLOCK rows, as the table is written."""
        found = []
        for lo in range(0, len(self.n), TABLE_BLOCK):
            tau, n = self.tau[lo : lo + TABLE_BLOCK], self.n[lo : lo + TABLE_BLOCK]
            tau, n = tau[n >= self.tail_start], n[n >= self.tail_start]
            r = np.asarray(tau / n, float)
            best = r.min(initial=np.inf) if least else r.max(initial=-np.inf)
            near = np.flatnonzero(abs(r - best) <= 8 * np.finfo(float).eps * best)
            found += map(Fraction, tau[near].tolist(), n[near].tolist())
        if not found:
            raise ValueError("no depth n >= %d in the series" % self.tail_start)
        return min(found) if least else max(found)

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

    def _values(self, lo: int, hi: int) -> list:
        n, tau, window, stabilized = (c[lo:hi] for c in self._columns)
        g = np.gcd(tau, n)
        return np.column_stack((n, tau, tau // g, n // g, window, stabilized)).ravel().tolist()


def rate_series(x, depth: int, policy: WindowPolicy = DEFAULT_POLICY) -> RateSeries:
    """tau and tau/n for every cylinder depth 1..depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    source = as_source(x)
    columns, failure = _tau_sweep(source, 1, depth, policy)
    if failure is not None:
        raise WindowCapExceeded(failure)
    return RateSeries(source.name, depth, *columns)


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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ReturnTableRow:
    """Return words to prefix = text[:n]. The rows of one table share its
    window as text, which is held once rather than once per depth; ==,
    hash and repr go by (n, prefix, tau, words)."""

    n: int
    text: str
    tau: int
    words: tuple[str, ...]  # sorted by (length, lexicographic)

    @property
    def prefix(self) -> str:
        return self.text[: self.n]

    def _key(self):
        return self.n, self.prefix, self.tau, self.words

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ReturnTableRow(n=%r, prefix=%r, tau=%r, words=%r)" % self._key()


def _return_words(text: str, arr: np.ndarray, occ: np.ndarray) -> dict[str, int]:
    """{word: the first p giving it} over the words text[p:q] of
    consecutive starts p < q of occ.

    The pairs are grouped by their gap g; a group's words are the rows
    arr[p:p + g], deduplicated exactly as byte strings, and text is sliced
    once per distinct row, at its first start.
    """
    gaps = np.diff(occ)
    gaps = gaps.astype(np.min_scalar_type(int(gaps.max())))  # radix-sortable
    order = np.argsort(gaps, kind="stable")
    gaps, starts = gaps[order], occ[:-1][order]
    cuts = np.flatnonzero(np.diff(gaps)) + 1
    found = {}
    for g, group in zip(gaps[np.r_[0, cuts]].tolist(), np.split(starts, cuts)):
        rows = arr[group[:, None] + np.arange(g)].view(np.dtype((np.void, g * arr.itemsize)))
        for p in group[np.unique(rows, return_index=True)[1]].tolist():
            found[text[p : p + g]] = p
    return found


def return_table(x, depth: int, window: int) -> list[ReturnTableRow]:
    """Return words to each prefix x[0:n], n = 1..depth, from one window.

    The depths come in the blocks of _start_blocks over the window's
    prefix_match array. In a window of L symbols the starts of depth n are
    the block's starts p <= L - n, a prefix of them, so a word whose first
    pair p < q gives it serves exactly the depths n <= L - q of its block.
    Each block reads its words once, with _return_words, and the depths
    with the same words share one tuple. The first depth with fewer than
    two starts, D + 1 with D from _deepest_pair, is refused before any row
    is built; only start 0 reaches it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    text = as_source(x).prefix(window)
    if not text:
        raise EmptyPattern("empty pattern")
    arr = _codes(text)
    size = len(arr)
    z = prefix_match(arr, min(depth, size))
    n = _deepest_pair(z, min(depth, size)) + 1
    if n <= depth:
        quoted = repr(text[:n]) if n <= _QUOTED else "%r... (length %d)" % (text[:_QUOTED], n)
        raise InsufficientWindow("need at least 2 occurrences of %s, found 1" % quoted)
    rows = []
    for n, hi, occ in _start_blocks(z, 1, depth, np.int32 if size < 2**31 else np.int64):
        found = _return_words(text, arr, occ[: occ.searchsorted(size - n, "right")])
        words = sorted(found, key=lambda w: (len(w), w))
        deepest = {w: min(size - found[w] - len(w), hi) for w in words}  # the last depth w serves
        for end in sorted(set(deepest.values())):
            kept = tuple(w for w in words if deepest[w] >= end)
            rows += [ReturnTableRow(m, text, len(kept[0]), kept) for m in range(n, end + 1)]
            n = end + 1
    return rows
