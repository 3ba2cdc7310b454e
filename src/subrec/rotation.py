"""Exact geometric model: rotation by alpha with the two-cell partition.

The circle is [0, 1) with t -> t + alpha mod 1 and cells [0, 1-alpha),
[1-alpha, 1). Depth-n refinements have endpoints (-j*alpha) mod 1, so all
geometry lives in the quadratic field of alpha and every comparison is
exact: 64-bit fixed-point ranges decide it where they are apart, exact
arithmetic in the field where they are not. This is the independent oracle
for the symbolic computations.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .contfrac import CFExpansion, ladder, quadratic_of_cf
from .generators import _BLOCK, _FIXED_ONE, RotationCodingSource, SequenceTooShort, kappa_images
from .generators import _check_point, _exact_point, _fixed_orbit
from .quadratic import ONE, ZERO, QuadraticReal
from .recurrence import DEFAULT_POLICY, WindowPolicy, rate_series


@dataclass(frozen=True)
class RotationSpec:
    """Rotation by the angle of a periodic continued fraction.

    alpha is the exact value of cf. quadratic_of_cf refuses expansions with
    no period or a value outside (0, 1), so alpha is an irrational angle
    and its convergent denominators drive tau_length.

    Every geometric quantity reads tables extended on demand and kept for
    the life of the spec: the arcs {d*alpha} by index difference d, the
    ladder rungs (q_i, |q_i*alpha - p_i|), the taus of the lengths already
    asked for, and the coding of 0. The tables take part in no comparison,
    hash or repr, and, like a word source, a spec is not thread-safe.
    exact_fallbacks counts the points and depths that the fixed-point
    passes had to settle by exact comparison.
    """

    cf: CFExpansion
    alpha: QuadraticReal = field(init=False)
    _arcs: dict = field(init=False, compare=False, repr=False)
    _taus: dict = field(init=False, compare=False, repr=False)
    _rungs: list = field(init=False, compare=False, repr=False)
    _ladder: Iterator = field(init=False, compare=False, repr=False)
    exact_fallbacks: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        init = object.__setattr__
        init(self, "alpha", quadratic_of_cf(self.cf))
        init(self, "_arcs", {0: ONE})
        init(self, "_taus", {})
        init(self, "_rungs", [])
        init(self, "_ladder", ladder(self.cf))
        init(self, "exact_fallbacks", 0)

    @classmethod
    def from_cf(cls, cf: CFExpansion) -> "RotationSpec":
        return cls(cf)

    def __reduce__(self):
        # a copy is rebuilt from cf alone; the tables and the live ladder stay behind
        return RotationSpec, (self.cf,)

    @cached_property
    def _coding(self) -> RotationCodingSource:
        """The coding of 0: symbol k is 1 exactly when 1 - e_{k+1} < alpha."""
        return RotationCodingSource(self.alpha, ZERO, "rotation %s" % self.cf)

    @cached_property
    def _step(self) -> int:
        """b = floor((1 - alpha) * 2**64): e_j = {j*(1 - alpha)}, so e_j * 2**64
        lies in (x_j, x_j + j) for x_j = j*b mod 2**64, unless that range
        passes 2**64 (it wraps: e_j may lie near 0 or near 1)."""
        return _FIXED_ONE - 1 - self._coding._a

    def _point(self, j: int) -> QuadraticReal:
        """e_j = {-j*alpha}, exactly."""
        return _exact_point(self.alpha, ZERO, -j)

    def _arc(self, d: int) -> QuadraticReal:
        """{d*alpha}: the arc from e_i up to the next cut e_r when d = i - r,
        or up to 1 when r = 0; 1 for d = 0, the uncut circle."""
        arc = self._arcs.get(d)
        if arc is None:
            arc = self._arcs[d] = (self.alpha * d).mod1()
        return arc

    def _fallbacks(self, count: int):
        object.__setattr__(self, "exact_fallbacks", self.exact_fallbacks + count)

    def _rung(self, i: int) -> tuple[int, QuadraticReal]:
        """(q_i, |q_i*alpha - p_i|), the i-th rung of the convergent ladder."""
        rungs = self._rungs
        while len(rungs) <= i:
            p, q = next(self._ladder)
            gap = self.alpha * q - p
            rungs.append((q, -gap if gap.sign() < 0 else gap))
        return rungs[i]


@dataclass(frozen=True)
class IntervalAtom:
    left: QuadraticReal
    right: QuadraticReal
    depth: int

    @property
    def length(self) -> QuadraticReal:
        return self.right - self.left


def _circle_order(spec: RotationSpec, n: int) -> np.ndarray:
    """The j of e_j = {-j*alpha}, 0 <= j <= n, in ascending order of e_j.

    One stable argsort of the keys x_j of RotationSpec._step, after a point
    whose range wraps takes the exact floor of e_j * 2**64 as its range.
    Positions k and k + 1 are surely in order when every range up to k ends
    below the key at k + 1; each run of points that no such boundary parts
    is sorted exactly. Both kinds of point count in spec.exact_fallbacks.
    """
    if n < 0:
        raise ValueError("depth must be >= 0")
    j = np.arange(n + 1, dtype=np.uint64)
    x = j * np.uint64(spec._step)  # uint64 wraps: this is the mod 1
    top = x + j  # floor(e_j * 2**64) <= top
    wrapped = np.flatnonzero(top < x).tolist()
    for i in wrapped:
        x[i] = top[i] = (spec._point(i) * _FIXED_ONE).floor()
    order = np.argsort(x, kind="stable")
    x, top = x[order], top[order]
    edges = np.flatnonzero(np.maximum.accumulate(top)[:-1] >= x[1:])
    exact = len(wrapped)
    if len(edges):  # a run k..m of unsure boundaries joins positions k..m + 1
        for run in np.split(edges, np.flatnonzero(np.diff(edges) != 1) + 1):
            lo, hi = int(run[0]), int(run[-1]) + 2
            order[lo:hi] = sorted(order[lo:hi].tolist(), key=spec._point)
            exact += hi - lo
    spec._fallbacks(exact)
    return order


def partition_points(spec: RotationSpec, n: int) -> list[QuadraticReal]:
    """Endpoints (-j*alpha) mod 1 for 0 <= j <= n, sorted ascending."""
    return list(map(spec._point, _circle_order(spec, n).tolist()))


def atom_lengths(spec: RotationSpec, n: int) -> list[QuadraticReal]:
    """Lengths of all depth-n atoms, in circle order.

    The atom from e_i up to the next endpoint e_r is {(i - r)*alpha} long,
    and the last one, up to 1 (r = 0), {i*alpha}: by the three-distance
    theorem a depth adds at most three arcs to the spec's table."""
    order = _circle_order(spec, n)
    diffs, which = np.unique(order - np.roll(order, -1), return_inverse=True)
    arcs = [spec._arc(d) for d in diffs.tolist()]
    return list(map(arcs.__getitem__, which.tolist()))


def _atom_moves(spec: RotationSpec, t: QuadraticReal, n: int) -> list[tuple]:
    """(j, l, r) for j = 0 and each depth j <= n where the atom [l, r) of t
    changes.

    x_j = {t + j*alpha} is t - e_j if e_j <= t, else 1 + t - e_j, so l and
    r come from the least x_j <= t and the greatest x_j > t (x_0 = t on
    both sides). _fixed_orbit with the cut at t gives each x_j its side.
    Each side's record lies in [m, m + w) for its mark m and the block's
    widest range w (right keys are complemented: both sides seek a least
    key). A depth with no sure side, or near its side's mark, is settled
    exactly and counted in spec.exact_fallbacks.
    """
    alpha, ones = spec.alpha, _FIXED_ONE - 1
    low = (t * _FIXED_ONE).floor()
    marks, ends, moves = [low, ones - low], [ZERO, ONE], [(0, ZERO, ONE)]
    exact, j = 0, 1
    while j <= n:
        stop = min(j + _BLOCK, n + 1)
        x, below, above = _fixed_orbit(spec._coding._a, low, low, j, stop)
        sides = np.stack((below, above))
        keys = np.empty((2, len(x) + 1), dtype=np.uint64)
        keys[:, 0] = marks
        keys[:, 1:] = np.where(sides, (x, ~x), np.uint64(ones))
        prev = np.minimum.accumulate(keys, axis=1)[:, :-1]
        keys = keys[:, 1:]
        near = sides & (np.where(keys < prev, prev - keys, keys - prev) < np.uint64(stop))
        unsure = np.flatnonzero(~sides.any(axis=0) | near.any(axis=0))
        end = int(unsure[0]) if len(unsure) else len(x)
        for i in np.flatnonzero((keys < prev)[:, :end].any(axis=0)).tolist():
            side = int(keys[1, i] < prev[1, i])
            ends[side], marks[side] = _exact_point(alpha, ZERO, -j - i), int(keys[side, i])
            moves.append((j + i, *ends))
        j += end
        if j < stop:
            exact += 1
            point = _exact_point(alpha, t, j)
            side = int(point > t)
            e = t - point + side  # e_j
            if (e < ends[1]) if side else (ends[0] < e):
                mark = (point * _FIXED_ONE).floor()
                ends[side], marks[side] = e, (mark, ones - mark)[side]
                moves.append((j, *ends))
            j += 1
    spec._fallbacks(exact)
    return moves


def atom_of(spec: RotationSpec, t: QuadraticReal, n: int) -> IntervalAtom:
    """The depth-n atom [l, r) containing t in [0, 1), rational or in alpha's field."""
    t = _check_point(t, spec.alpha, "t")
    if n < 0:
        raise ValueError("depth must be >= 0")
    _, left, right = _atom_moves(spec, t, n)[-1]
    return IntervalAtom(left, right, n)


def _ladder_taus(spec: RotationSpec, lengths):
    """tau_length of each of a non-increasing sequence of lengths, from one
    walk up the convergent ladder.

    The first rung with |q_i*alpha - p_i| < length has every rung below it
    at or above length, hence at or above any shorter length too, so each
    length resumes the walk at the rung the previous one stopped on.
    """
    i = 0
    q, gap = spec._rung(0)
    for length in lengths:
        if length.sign() <= 0:
            raise ValueError("interval length must be positive")
        while not gap < length:
            i += 1
            q, gap = spec._rung(i)
        yield q


def tau_length(spec: RotationSpec, length: QuadraticReal) -> int:
    """min{k >= 1 : ||k*alpha|| < length}, i.e. when the shifted interval
    first overlaps itself.

    Only convergent denominators are tested, from q_0 = 1 up: the least
    k is a best approximation of alpha, hence some q_i, and
    |q_i*alpha - p_i| shrinks along the ladder. That is ||q_i*alpha|| except at q_0 when
    alpha > 1/2; then a_1 = 1, and q_1 = 1 tests 1 - alpha next.
    """
    taus = spec._taus  # keyed by the integer form: a hash of the value builds Fractions
    tau = taus.get(length._v)
    if tau is None:
        tau = taus[length._v] = next(_ladder_taus(spec, (length,)))
    return tau


def tau_length_linear(spec: RotationSpec, length: QuadraticReal) -> int:
    """tau_length by scanning k = 1, 2, ...; the reference the ladder is
    tested and benchmarked against, never called by the library."""
    frac = ZERO
    k = 0
    while True:
        k += 1
        frac = (frac + spec.alpha).mod1()
        if min(frac, ONE - frac) < length:
            return k


# ------------------------------------------------------------------ measures

_BINARY = frozenset("01")


def _cylinder_ends(spec: RotationSpec, word: str) -> tuple[int, int] | None:
    """(i, r) for the cylinder [e_i, e_r) of word, r = 0 standing for the
    right end 1; None when word is not a factor.

    Symbol j >= 1 of t is 1 on the arc [c, c + alpha) with c = e_j; its
    other end e_{j-1} is already a cut, so only c can split the atom: if
    e_i < c < e_r, symbol 0 keeps [e_i, c) and symbol 1 keeps [c, e_r);
    otherwise every point of the atom has the symbol of e_i: symbol
    j - i - 1 of the coding of 0, 1 when {e_i - c} = {(j-i)*alpha} < alpha.
    The test reads the fixed-point ranges of RotationSpec._step, and is
    settled exactly, and counted in spec.exact_fallbacks, where they overlap
    or c's wraps; an end's range is c's, or c's exact floor, so never wraps.
    The coding grows by doubling as the word is read, so a word that stops
    being a factor early never builds it in full.
    """
    if not _BINARY.issuperset(word):
        stray = next(sym for sym in word if sym not in _BINARY)
        raise ValueError("symbols must be 0 or 1, got %r" % stray)
    step, ones, bits = spec._step, _FIXED_ONE - 1, ""
    i = r = exact = 0
    lx = lt = 0  # e_i * 2**64 lies in [lx, lt + 1)
    rx = rt = _FIXED_ONE  # and e_r * 2**64 in [rx, rt + 1); 1 while r = 0
    for j, sym in enumerate(word, 1):
        if j > len(bits):  # a numpy pass takes as long for 64 symbols as for 2
            bits = spec._coding.prefix(max(2 * j, 64))
        x = j * step & ones
        top = x + j
        if lt < x and top < rx:
            inside = True
        elif top < lx or rt < x and top <= ones:
            inside = False
        else:
            exact += 1
            point = spec._point(j)
            inside = spec._point(i) < point < (spec._point(r) if r else ONE)
            x = top = (point * _FIXED_ONE).floor()
        if inside:
            if sym == "0":
                r, rx, rt = j, x, top
            else:
                i, lx, lt = j, x, top
        elif bits[j - i - 1] != sym:
            spec._fallbacks(exact)
            return None
    spec._fallbacks(exact)
    return i, r


def cylinder_interval(spec: RotationSpec, word: str) -> IntervalAtom | None:
    """The set {t : the coding of t starts with word}: the depth-len(word)
    atom with that coding, or None when word is not a factor. Only its two
    endpoints are built as exact values."""
    ends = _cylinder_ends(spec, word)
    if ends is None:
        return None
    i, r = ends
    return IntervalAtom(spec._point(i), spec._point(r) if r else ONE, len(word))


def cylinder_measure(spec: RotationSpec, word: str) -> QuadraticReal:
    """Exact measure of the cylinder of word; 0 when word is not a factor.
    The cylinder [e_i, e_r) is {(i - r)*alpha} long (see atom_lengths)."""
    ends = _cylinder_ends(spec, word)
    return ZERO if ends is None else spec._arc(ends[0] - ends[1])


def mu_tower_values(spec: RotationSpec, steps):
    """Weighted base measures of the composition tower at depth len(steps).

    The tower at depth n has two bases, reached by the composed images
    v = k_1..k_n(0) and u = k_1..k_n(1); a base is the set of points whose
    coding starts with the image word followed by u (u is a prefix of v,
    and both v and u are return words to u, so these aligned cylinders
    tile the space by Kac's theorem). Returns (value_0, value_1) with
    value_a = |image_a| * measure(aligned cylinder of a).
    """
    steps = list(steps)
    if not steps:
        raise SequenceTooShort("empty composition")
    v, u = kappa_images(steps)
    return len(v) * cylinder_measure(spec, v + u), len(u) * cylinder_measure(spec, u + u)


# --------------------------------------------------------------- cross-check

@dataclass(frozen=True)
class CrossCheckRow:
    n: int
    tau_symbolic: int
    tau_geometric: int
    atom_length: QuadraticReal
    match: bool


class CrossCheckReport:
    """The rows of cross_check as columns: n, tau_symbolic, tau_geometric,
    and move, the index into lengths, the distinct atom lengths in depth
    order. rows and mismatches build their CrossCheckRows on demand, and
    the CSV formats each distinct length once."""

    CSV_HEADER = "n,tau_symbolic,tau_geometric,atom_len_num_approx,match"

    def __init__(self, alpha: str, depth: int, n, tau_symbolic, tau_geometric, lengths, move):
        self.alpha, self.depth, self.n = alpha, depth, n
        self.tau_symbolic, self.tau_geometric = tau_symbolic, tau_geometric
        self.lengths, self.move = lengths, move

    @property
    def _columns(self) -> tuple:
        return self.n, self.tau_symbolic, self.tau_geometric, self.move

    def __eq__(self, other) -> bool:
        fields = (self.alpha, self.depth, self.lengths)
        same = type(other) is type(self) and fields == (other.alpha, other.depth, other.lengths)
        return same and all(map(np.array_equal, self._columns, other._columns))

    def __repr__(self) -> str:
        fields = (self.alpha, self.depth, len(self.n), self.ok)
        return "CrossCheckReport(alpha=%r, depth=%d, rows=%d, ok=%s)" % fields

    def _rows(self, which) -> list[CrossCheckRow]:
        return [
            CrossCheckRow(n, s, g, self.lengths[m], s == g)
            for n, s, g, m in zip(*(c[which].tolist() for c in self._columns))
        ]

    @property
    def rows(self) -> list[CrossCheckRow]:
        return self._rows(slice(None))

    @property
    def mismatches(self) -> list[CrossCheckRow]:
        return self._rows(self.tau_symbolic != self.tau_geometric)

    @property
    def ok(self) -> bool:
        return bool((self.tau_symbolic == self.tau_geometric).all())

    def to_csv(self) -> str:
        approx = ["%.12g" % float(length) for length in self.lengths]
        match = (self.tau_symbolic == self.tau_geometric).tolist()
        cols = (self.n.tolist(), self.tau_symbolic.tolist(), self.tau_geometric.tolist())
        body = chain.from_iterable(zip(*cols, map(approx.__getitem__, self.move.tolist()), match))
        return self.CSV_HEADER + "\n" + "%d,%d,%d,%s,%d\n" * len(self.n) % tuple(body)


def cross_check(
    spec: RotationSpec, depth: int, policy: WindowPolicy = DEFAULT_POLICY
) -> CrossCheckReport:
    """Symbolic vs geometric recurrence times at t = 0, depths 1..depth.

    Symbolic side: tau of the depth-n cylinder of the spec's coding of 0.
    Geometric side: tau of the depth-n atom of 0. The depths between two
    moves of that atom share its length and tau, and the atoms nest, so
    one ladder walk over the distinct lengths serves every depth, and one
    searchsorted maps each depth to its move.
    The two must agree exactly at every depth.
    """
    series = rate_series(spec._coding, depth, policy)
    moves = _atom_moves(spec, ZERO, depth)[1:]  # e_1 = 1 - alpha always cuts [0, 1)
    lengths = [r - l for _, l, r in moves]
    move = np.searchsorted([j for j, _, _ in moves], series.n, "right") - 1
    geo = np.array(list(_ladder_taus(spec, lengths)), np.int64)[move]
    return CrossCheckReport(str(spec.cf), depth, series.n, series.tau, geo, lengths, move)
