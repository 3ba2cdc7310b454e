"""Exact geometric model: rotation by alpha with the two-cell partition.

The circle is [0, 1) with t -> t + alpha mod 1 and cells [0, 1-alpha),
[1-alpha, 1). Depth-n refinements have endpoints (-j*alpha) mod 1, so all
geometry lives in the quadratic field of alpha and every comparison is
exact. This is the independent oracle for the symbolic computations.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

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

    Every geometric quantity reads one table, extended on demand up to the
    longest depth or word asked for and kept for the life of the spec:
    the endpoints e_j = {-j*alpha}, the ladder rungs
    (q_i, |q_i*alpha - p_i|) and the coding of 0. The table takes part in
    no comparison, hash or repr, and, like a word source, a spec is not
    thread-safe. exact_fallbacks counts the depths that atom_of and
    cross_check had to settle by exact comparison.
    """

    cf: CFExpansion
    alpha: QuadraticReal = field(init=False)
    _ends: list = field(init=False, compare=False, repr=False)
    _rungs: list = field(init=False, compare=False, repr=False)
    _ladder: Iterator = field(init=False, compare=False, repr=False)
    exact_fallbacks: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        init = object.__setattr__
        init(self, "alpha", quadratic_of_cf(self.cf))
        init(self, "_ends", [ZERO])
        init(self, "_rungs", [])
        init(self, "_ladder", ladder(self.cf))
        init(self, "exact_fallbacks", 0)

    @classmethod
    def from_cf(cls, cf: CFExpansion) -> "RotationSpec":
        return cls(cf)

    def __reduce__(self):
        # a copy is rebuilt from cf alone; the table and its live ladder stay behind
        return RotationSpec, (self.cf,)

    def _orbit(self, n: int) -> list:
        """The endpoint list, holding at least e_0..e_n."""
        ends = self._ends
        for _ in range(len(ends), n + 1):
            ends.append((ends[-1] - self.alpha).mod1())
        return ends

    @cached_property
    def _coding(self) -> RotationCodingSource:
        """The coding of 0: symbol k is 1 exactly when 1 - e_{k+1} < alpha."""
        return RotationCodingSource(self.alpha, ZERO, "rotation %s" % self.cf)

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


def partition_points(spec: RotationSpec, n: int) -> list[QuadraticReal]:
    """Endpoints (-j*alpha) mod 1 for 0 <= j <= n, sorted ascending."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    return sorted(spec._orbit(n)[: n + 1])


def atom_lengths(spec: RotationSpec, n: int) -> list[QuadraticReal]:
    """Lengths of all depth-n atoms, in circle order."""
    pts = partition_points(spec, n)
    out = [b - a for a, b in zip(pts, pts[1:])]
    out.append(ONE - pts[-1])
    return out


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
    object.__setattr__(spec, "exact_fallbacks", spec.exact_fallbacks + exact)
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
    return next(_ladder_taus(spec, (length,)))


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


def cylinder_interval(spec: RotationSpec, word: str) -> IntervalAtom | None:
    """The set {t : the coding of t starts with word}: the depth-len(word)
    atom with that coding, or None when word is not a factor.

    Symbol j >= 1 of t is 1 on the arc [c, c + alpha) with c = e_j; its
    other end e_{j-1} is already a cut, so only c can split the atom: if
    l < c < r, symbol 0 keeps [l, c) and symbol 1 keeps [c, r); otherwise
    every point of [l, r) has the symbol of l = e_i: symbol j - i - 1 of
    the coding of 0, 1 when {l - c} = {(j-i)*alpha} < alpha. The endpoints
    and that coding grow by doubling as the word is read, so a word that
    stops being a factor early never builds them in full.
    """
    if not _BINARY.issuperset(word):
        stray = next(sym for sym in word if sym not in _BINARY)
        raise ValueError("symbols must be 0 or 1, got %r" % stray)
    ends, bits = spec._orbit(0), ""
    i, right = 0, ONE
    for j, sym in enumerate(word, 1):
        if j == len(ends):
            spec._orbit(min(2 * j, len(word)))  # extends ends in place
        if j > len(bits):  # a numpy pass takes as long for 64 symbols as for 2
            bits = spec._coding.prefix(max(2 * j, 64))
        c = ends[j]
        if ends[i] < c < right:
            if sym == "0":
                right = c
            else:
                i = j
        elif bits[j - i - 1] != sym:
            return None
    return IntervalAtom(ends[i], right, len(word))


def cylinder_measure(spec: RotationSpec, word: str) -> QuadraticReal:
    """Exact measure of the cylinder of word; 0 when word is not a factor."""
    atom = cylinder_interval(spec, word)
    return ZERO if atom is None else atom.length


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


@dataclass
class CrossCheckReport:
    alpha: str
    depth: int
    rows: list[CrossCheckRow]

    CSV_HEADER = "n,tau_symbolic,tau_geometric,atom_len_num_approx,match"

    @property
    def mismatches(self) -> list[CrossCheckRow]:
        return [r for r in self.rows if not r.match]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        length = approx = None
        for r in self.rows:
            if r.atom_length is not length:  # rows of one atom share its length
                length, approx = r.atom_length, float(r.atom_length)
            lines.append(
                "%d,%d,%d,%.12g,%d" % (r.n, r.tau_symbolic, r.tau_geometric, approx, int(r.match))
            )
        return "\n".join(lines) + "\n"


def cross_check(
    spec: RotationSpec, depth: int, policy: WindowPolicy = DEFAULT_POLICY
) -> CrossCheckReport:
    """Symbolic vs geometric recurrence times at t = 0, depths 1..depth.

    Symbolic side: tau of the depth-n cylinder of the spec's coding of 0.
    Geometric side: tau of the depth-n atom of 0. The depths between two
    moves of that atom share its length and tau, and the atoms nest, so
    one ladder walk over the distinct lengths serves every depth.
    The two must agree exactly at every depth.
    """
    series = rate_series(spec._coding, depth, policy)
    moves = _atom_moves(spec, ZERO, depth)[1:]  # e_1 = 1 - alpha always cuts [0, 1)
    lengths = [r - l for _, l, r in moves]
    stops = [j for j, _, _ in moves[1:]] + [depth + 1]
    entries, rows = iter(series.entries), []
    for (j, _, _), stop, length, geo in zip(moves, stops, lengths, _ladder_taus(spec, lengths)):
        for entry in islice(entries, stop - j):
            rows.append(CrossCheckRow(entry.n, entry.tau, geo, length, entry.tau == geo))
    return CrossCheckReport(str(spec.cf), depth, rows)
