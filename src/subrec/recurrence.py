"""Cylinder recurrence times tau(z_n(x)) and local rate estimates.

tau of the depth-n cylinder is the length of the shortest return word to
the length-n prefix, read off as the minimum gap between consecutive
occurrences inside a finite window. Windows grow until the value stops
changing; a value is only trusted once it survives one doubling.

Every depth comes from one sweep over one encoded text: the occurrences of
the depth-n prefix are those of depth n - 1 whose symbol at offset n - 1
matches, so a single sorted position array is filtered once per depth, and
the occurrences inside any window are a prefix of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .generators import ShiftedSource, as_source
from .words import (
    InsufficientWindow,
    PowerWitness,
    _codes,
    factor_groups,
    max_power_witness,
    return_words,
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


def _tau_sweep(source, first: int, last: int, policy: WindowPolicy):
    """TauResult for each depth first..last, in order, as tau_cylinder
    defines it.

    occ holds the start positions p <= len(arr) - n of the depth-n prefix,
    ascending, so the occurrences inside a window of w symbols are occ[:k]
    with k = #(p <= w - n). The text grows geometrically up to the cap when
    a window outruns it, and only the new start positions are checked.
    """
    target = max(last, policy.grow(policy.initial(last)))
    arr = _codes(source.prefix(target))
    done = len(arr) < target
    index = np.int32 if max(target, policy.cap) < 2**31 else np.int64
    occ = np.arange(len(arr), dtype=index)
    for n in range(1, last + 1):
        if len(arr) < max(n, first):
            raise WindowCapExceeded(
                "source %s ends after %d symbols, cylinder depth %d unreachable"
                % (source.name, len(arr), max(n, first))
            )
        occ = occ[: np.searchsorted(occ, len(arr) - n, "right")]
        occ = occ[arr[occ + (n - 1)] == arr[n - 1]]
        if n < first:
            continue
        window = policy.initial(n)
        prev: int | None = None
        while True:
            if window > len(arr) and not done:
                size = min(max(window, 2 * len(arr)), policy.cap)
                text = source.prefix(size)
                done = len(text) < size
                new = np.arange(len(arr) - n + 1, len(text) - n + 1, dtype=index)
                arr = np.concatenate((arr, _codes(text[len(arr) :])))
                for j in range(n):
                    new = new[arr[new + j] == arr[j]]
                occ = np.concatenate((occ, new))
            avail = min(window, len(arr))
            exhausted = avail < window
            k = int(np.searchsorted(occ, avail - n, "right"))
            if k < 2:
                if exhausted or window >= policy.cap:
                    raise WindowCapExceeded(
                        "prefix of depth %d of %s recurs less than twice in a %d-window"
                        % (n, source.name, avail)
                    )
            else:
                tau = int(np.diff(occ[:k]).min())
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
        return min(e.ratio for e in self.tail())

    def tail_max(self) -> Fraction:
        return max(e.ratio for e in self.tail())

    def stabilized_fraction(self) -> Fraction:
        if not self.entries:
            return Fraction(0)
        good = sum(1 for e in self.entries if e.stabilized)
        return Fraction(good, len(self.entries))

    def running_min(self) -> list[Fraction]:
        out, cur = [], None
        for e in self.entries:
            cur = e.ratio if cur is None or e.ratio < cur else cur
            out.append(cur)
        return out

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for e in self.entries:
            r = e.ratio
            lines.append(
                "%d,%d,%d,%d,%d,%d"
                % (e.n, e.tau, r.numerator, r.denominator, e.window, int(e.stabilized))
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


def _factor_gap_extremes(text: str, length: int):
    """Per distinct length-`length` factor, in factor_groups order:
    (min gap, max gap, first position); gaps are None for a factor
    occurring once."""
    order, bounds = factor_groups(text, length)
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        first = int(order[lo])
        if hi - lo < 2:
            out.append((None, None, first))
        else:
            gaps = np.diff(order[lo:hi])
            out.append((int(gaps.min()), int(gaps.max()), first))
    return out


def lr_constant_estimate(x, max_len: int, window: int) -> LRReport:
    """Estimate the linear-recurrence constant from a finite window.

    For every factor u with 1 <= |u| <= max_len the return-word lengths
    seen in the window bound K from below: every return word w satisfies
    |w| <= K |u|. The dual gap statistic tracks min |w| / |u|.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    source = as_source(x)
    text = source.prefix(window)
    if len(text) <= max_len:
        raise InsufficientWindow(
            "window of %d symbols cannot host factors of length %d"
            % (len(text), max_len)
        )
    k_est = None
    k_low = None
    k_wit = gap_wit = ""
    for length in range(1, max_len + 1):
        for min_gap, max_gap, pos in _factor_gap_extremes(text, length):
            if min_gap is None:
                raise InsufficientWindow(
                    "factor %r occurs only once in a %d-window; enlarge it"
                    % (text[pos : pos + length], len(text))
                )
            hi = Fraction(max_gap, length)
            lo = Fraction(min_gap, length)
            if k_est is None or hi > k_est:
                k_est, k_wit = hi, text[pos : pos + length]
            if k_low is None or lo < k_low:
                k_low, gap_wit = lo, text[pos : pos + length]
    return LRReport(max_len, len(text), k_est, k_low, k_wit, gap_wit)


def power_report(x, window: int) -> PowerWitness:
    """Largest fractional power among factors of the window, verified."""
    if window < 16:
        raise ValueError("window must be >= 16")
    source = as_source(x)
    text = source.prefix(window)
    w = max_power_witness(text, cap=None)
    got = w.factor
    assert text[w.position : w.position + len(got)] == got, "witness must round-trip"
    return w


@dataclass(frozen=True)
class ReturnTableRow:
    n: int
    prefix: str
    tau: int
    words: tuple[str, ...]  # sorted by (length, lexicographic)


def return_table(x, depth: int, window: int) -> list[ReturnTableRow]:
    """Return words to each prefix x[0:n], n = 1..depth, from one window."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    source = as_source(x)
    text = source.prefix(window)
    rows = []
    for n in range(1, depth + 1):
        u = text[:n]
        ws = sorted(return_words(u, text), key=lambda w: (len(w), w))
        rows.append(ReturnTableRow(n, u, len(ws[0]), tuple(ws)))
    return rows
