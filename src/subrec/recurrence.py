"""Cylinder recurrence times tau(z_n(x)) and local rate estimates.

tau of the depth-n cylinder is the length of the shortest return word to
the length-n prefix, read off as the minimum gap between consecutive
occurrences inside a finite window. Windows grow until the value stops
changing; a value is only trusted once it survives one doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .generators import ShiftedSource, as_source
from .words import (
    InsufficientWindow,
    PowerWitness,
    factor_groups,
    max_power_witness,
    min_return_length,
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


def tau_cylinder(x, n: int, policy: WindowPolicy = DEFAULT_POLICY) -> TauResult:
    """Recurrence time of the depth-n cylinder of x.

    stabilized means the value was identical at two consecutive window
    sizes, or the source is finite and was scanned to its end.
    """
    if n < 1:
        raise ValueError("cylinder depth must be >= 1")
    source = as_source(x)
    u = source.prefix(n)
    if len(u) < n:
        raise WindowCapExceeded(
            "source %s ends after %d symbols, cylinder depth %d unreachable"
            % (source.name, len(u), n)
        )
    window = policy.initial(n)
    prev: int | None = None
    while True:
        text = source.prefix(window)
        exhausted = len(text) < window
        try:
            tau = min_return_length(u, text)
        except InsufficientWindow:
            if exhausted or window >= policy.cap:
                raise WindowCapExceeded(
                    "prefix of depth %d of %s recurs less than twice in a %d-window"
                    % (n, source.name, len(text))
                ) from None
        else:
            if exhausted:
                return TauResult(n, tau, len(text), True)
            if tau == prev:
                return TauResult(n, tau, window, True)
            if window >= policy.cap:
                return TauResult(n, tau, window, False)
            prev = tau
        window = policy.grow(window)


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
    # one extension up front rather than one per depth as windows grow
    source.prefix(policy.initial(depth))
    entries = [tau_cylinder(source, n, policy) for n in range(1, depth + 1)]
    return RateSeries(source.name, depth, entries)


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
    shifted = ShiftedSource(source)
    checked = skipped = 0
    for n in range(2, depth + 1):
        right = tau_cylinder(source, n, policy)
        left = tau_cylinder(shifted, n - 1, policy)
        if not (left.stabilized and right.stabilized):
            skipped += 1
            continue
        checked += 1
        if left.tau > right.tau:
            return SubInvarianceReport(False, checked, skipped, (n, left.tau, right.tau))
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
