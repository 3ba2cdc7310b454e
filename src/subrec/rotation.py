"""Exact geometric model: rotation by alpha with the two-cell partition.

The circle is [0, 1) with t -> t + alpha mod 1 and cells [0, 1-alpha),
[1-alpha, 1). Depth-n refinements have endpoints e_j = (-j*alpha) mod 1,
j <= n, so all geometry lives in the quadratic field of alpha. By the
three-distance theorem the endpoints come in a permutation that two
integers off the convergent ladder determine (_extremes), so ordering
them is integer arithmetic and every value is exact. This is the
independent oracle for the symbolic computations.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, takewhile

import numpy as np

from .contfrac import CFExpansion, ladder, quadratic_of_cf
from .generators import (
    _MAX_LENGTH,
    _TOO_LONG,
    RotationCodingSource,
    SequenceTooShort,
    _check_point,
    kappa_images,
)
from .quadratic import ONE, ZERO, QuadraticReal
from .recurrence import DEFAULT_POLICY, ColumnTable, WindowPolicy, rate_series


@dataclass(frozen=True)
class RotationSpec:
    """Rotation by the angle of a periodic continued fraction.

    alpha is the exact value of cf. quadratic_of_cf refuses expansions with
    no period or a value outside (0, 1), so alpha is an irrational angle
    and its convergent denominators drive tau_length and the circle order.

    Every geometric quantity reads tables extended on demand and kept for
    the life of the spec: the arcs {d*alpha} by index difference d, the
    convergent denominators q_i, the taus of the lengths already asked
    for, the coding of 0, and j - a(j) for the depths j the cylinders have
    read (see _extremes). The tables take part in no comparison, hash or
    repr, and, like a word source, a spec is not thread-safe.
    """

    cf: CFExpansion
    alpha: QuadraticReal = field(init=False)
    _arcs: dict = field(init=False, compare=False, repr=False)
    _taus: dict = field(init=False, compare=False, repr=False)
    _denominators: list = field(init=False, compare=False, repr=False)
    _leads: list = field(init=False, compare=False, repr=False)
    _ladder: Iterator = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        init = object.__setattr__
        init(self, "alpha", quadratic_of_cf(self.cf))
        init(self, "_arcs", {0: ONE})
        init(self, "_taus", {})
        init(self, "_denominators", [])
        init(self, "_leads", [])
        init(self, "_ladder", ladder(self.cf))

    @classmethod
    def from_cf(cls, cf: CFExpansion) -> "RotationSpec":
        return cls(cf)

    def __reduce__(self):
        # a copy is rebuilt from cf alone; the tables and the live ladder stay behind
        return RotationSpec, (self.cf,)

    @cached_property
    def coding(self) -> RotationCodingSource:
        """The coding of 0: symbol k is 1 exactly when 1 - e_{k+1} < alpha."""
        return RotationCodingSource(self.alpha, ZERO, "rotation %s" % self.cf)

    def _point(self, j: int) -> QuadraticReal:
        """e_j = {-j*alpha}, exactly."""
        return (self.alpha * -j).mod1()

    def _arc(self, d: int) -> QuadraticReal:
        """{d*alpha}: the arc from e_i up to the next cut e_r when d = i - r,
        or up to 1 when r = 0; 1 for d = 0, the uncut circle."""
        arc = self._arcs.get(d)
        if arc is None:
            arc = self._arcs[d] = (self.alpha * d).mod1()
        return arc

    def _denominator(self, i: int) -> int:
        """q_i, the i-th convergent denominator of cf."""
        qs = self._denominators
        while len(qs) <= i:
            qs.append(next(self._ladder)[1])
        return qs[i]

    def _rung(self, i: int) -> tuple[int, QuadraticReal]:
        """(q_i, |q_i*alpha - p_i|), the i-th rung of the convergent ladder.
        q_i*alpha - p_i has the sign of (-1)**i, so the gap is an arc."""
        q = self._denominator(i)
        return q, self._arc(-q if i % 2 else q)


@dataclass(frozen=True)
class IntervalAtom:
    left: QuadraticReal
    right: QuadraticReal
    depth: int

    @property
    def length(self) -> QuadraticReal:
        return self.right - self.left


def _extremes(spec: RotationSpec, n):
    """(a, b): the j in 1..n of the least and of the greatest e_j, for a
    depth n >= 1 or an array of them, as numpy ints or arrays.

    With q_k the last ladder denominator <= n, q_{-1} = 0 and
    m = q_{k-1} + floor((n - q_{k-1}) / q_k) * q_k, (a, b) is (q_k, m) for
    odd k and (m, q_k) for even k. By the three-distance theorem
    (Alessandri and Berthe 1998) the successor of e_j on the circle is
    e_{j+a} for j < b and e_{j-b} otherwise, for every j < a + b, and
    n < a + b. So the values k*a mod (a + b), k = 0, 1, ..., less those
    above n, are the j in ascending order of e_j, and the new cut e_j lies
    just right of e_{j-a(j)}. a + b <= 2n stays in int64, as a depth at
    or above 2**62 is refused.
    """
    n = np.asarray(n)
    top = int(n.max())
    if top >= _MAX_LENGTH:
        raise ValueError(_TOO_LONG % top)
    denominators = map(spec._denominator, count())
    qs = np.array([0, *takewhile(top.__ge__, denominators)])  # q_{-1}, q_0, ..., q_k
    at = qs.searchsorted(n, "right") - 1  # q_k is qs[at], so k = at - 1
    q, prev = qs[at], qs[at - 1]
    m = prev + (n - prev) // q * q
    a = q + (m - q) * (at & 1)  # m for even k
    return a, m + q - a


def _circle_order(spec: RotationSpec, n: int) -> np.ndarray:
    """The j of e_j, 0 <= j <= n, in ascending order of e_j: k*a mod s
    for k = 0..s - 1 with s = a + b (see _extremes), less the values above
    n. The products are taken in blocks that keep them below 2**63."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    a, b = map(int, _extremes(spec, n)) if n else (0, 1)  # depth 0: e_0 alone
    s = a + b
    block = (2**63 - s) // max(a, 1)
    order = np.concatenate(
        [(k * a % s + np.arange(min(block, s - k)) * a) % s for k in range(0, s, block)]
    )
    return order[order <= n]


def atom_lengths(spec: RotationSpec, n: int) -> list[QuadraticReal]:
    """Lengths of all depth-n atoms, in circle order.

    The atom from e_i up to the next endpoint e_r is {(i - r)*alpha} long,
    and the last one, up to 1 (r = 0), {i*alpha}: by the three-distance
    theorem a depth adds at most three arcs to the spec's table."""
    order = _circle_order(spec, n)
    diffs, which = np.unique(order - np.roll(order, -1), return_inverse=True)
    arcs = [spec._arc(d) for d in diffs.tolist()]
    return list(map(arcs.__getitem__, which.tolist()))


def atom_of(spec: RotationSpec, t: QuadraticReal, n: int) -> IntervalAtom:
    """The depth-n atom [l, r) containing t in [0, 1), rational or in alpha's field.

    The points e_{k*a mod s}, k = 0..s - 1 with s = a + b (see _extremes),
    ascend, so the last k with e <= t is found by bisection, one exact
    comparison per step. Of two neighbours in that sequence at most one
    index lies above n, so l and r are each at most one step further out;
    past the last point the atom ends at 1.
    """
    t = _check_point(t, spec.alpha, "t")
    if n < 0:
        raise ValueError("depth must be >= 0")
    a, b = map(int, _extremes(spec, n)) if n else (0, 1)
    s = a + b
    k = bisect_right(range(s), t, key=lambda i: spec._point(i * a % s)) - 1
    lo = k if k * a % s <= n else k - 1
    hi = k + 1 if (k + 1) * a % s <= n else k + 2
    right = spec._point(hi * a % s) if hi < s else ONE
    return IntervalAtom(spec._point(lo * a % s), right, n)


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
    other end e_{j-1} is already a cut, so only c can split the atom. c
    lies just right of e_{j-a(j)} (see _extremes), so it splits [e_i, e_r)
    exactly when i == j - a(j): symbol 0 keeps [e_i, c) and symbol 1 keeps
    [c, e_r). Otherwise every point of the atom has the symbol of e_i:
    symbol j - i - 1 of the coding of 0. The coding and a(j) grow by
    doubling as the word is read, so a word that stops being a factor
    early never builds them in full.
    """
    if not _BINARY.issuperset(word):
        stray = next(sym for sym in word if sym not in _BINARY)
        raise ValueError("symbols must be 0 or 1, got %r" % stray)
    bits, leads = "", spec._leads  # leads[j - 1] = j - a(j)
    i = r = 0
    for j, sym in enumerate(word, 1):
        if j > len(bits):  # a numpy pass takes as long for 64 symbols as for 2
            bits = spec.coding.prefix(max(2 * j, 64))
            if len(leads) < len(bits):
                depths = np.arange(len(leads) + 1, len(bits) + 1)
                leads += (depths - _extremes(spec, depths)[0]).tolist()
        if leads[j - 1] == i:
            if sym == "0":
                r = j
            else:
                i = j
        elif bits[j - i - 1] != sym:
            return None
    return i, r


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


class CrossCheckReport(ColumnTable):
    """The rows of cross_check as columns: n, tau_symbolic, tau_geometric,
    and move, the index into lengths, the distinct atom lengths in depth
    order. rows and mismatches build their CrossCheckRows on demand, and
    the CSV formats each distinct length once."""

    _FIELDS = ("alpha", "depth", "lengths")
    _COLUMNS = ("n", "tau_symbolic", "tau_geometric", "move")
    CSV_HEADER = "n,tau_symbolic,tau_geometric,atom_len_num_approx,match"
    _ROW = "%d,%d,%d,%s,%d\n"

    def __init__(self, alpha: str, depth: int, n, tau_symbolic, tau_geometric, lengths, move):
        self.alpha, self.depth, self.n = alpha, depth, n
        self.tau_symbolic, self.tau_geometric = tau_symbolic, tau_geometric
        self.lengths, self.move = lengths, move

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

    @cached_property
    def _approx(self) -> list[str]:
        return ["%.12g" % float(length) for length in self.lengths]

    def _values(self, lo: int, hi: int):
        n, s, g, move = (c[lo:hi] for c in self._columns)
        cols = (n.tolist(), s.tolist(), g.tolist(), map(self._approx.__getitem__, move.tolist()))
        return chain.from_iterable(zip(*cols, (s == g).tolist()))


def cross_check(
    spec: RotationSpec, depth: int, policy: WindowPolicy = DEFAULT_POLICY
) -> CrossCheckReport:
    """Symbolic vs geometric recurrence times at t = 0, depths 1..depth.

    Symbolic side: tau of the depth-n cylinder of the spec's coding of 0.
    Geometric side: tau of the depth-n atom of 0, [0, e_a) with a = a(n)
    of _extremes, so it moves where a(n) changes. The depths between two
    moves share its length and tau, and the atoms nest, so one ladder walk
    over the distinct lengths serves every depth, and a running count of
    the moves maps each depth to its length.
    The two must agree exactly at every depth.
    """
    series = rate_series(spec.coding, depth, policy)
    least = _extremes(spec, series.n)[0]
    moved = np.r_[True, least[1:] != least[:-1]]
    lengths = [spec._point(j) for j in least[moved].tolist()]
    move = np.cumsum(moved) - 1
    geo = np.array(list(_ladder_taus(spec, lengths)), np.int64)[move]
    return CrossCheckReport(str(spec.cf), depth, series.n, series.tau, geo, lengths, move)
