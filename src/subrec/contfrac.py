"""Continued fractions of angles in (0, 1).

Expansions have a fixed integer part 0, a finite preperiod and an optional
repeating period: [0; a1,...,ak (b1,...,bm)]. Eventually periodic expansions
evaluate exactly to quadratic irrationals.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import ONE, ZERO, QuadraticReal


class InsufficientCoefficients(ValueError):
    """The expansion ran out of partial quotients."""


class NonPeriodic(ValueError):
    """Exact evaluation needs an eventually periodic expansion."""


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self):
        for a in itertools.chain(self.preperiod, self.period):
            if not isinstance(a, int) or a < 1:
                raise ValueError("partial quotients must be integers >= 1")
        if not self.preperiod and not self.period:
            raise ValueError("empty expansion")

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def coefficient(self, i: int) -> int:
        """a_i, 1-based."""
        if i < 1:
            raise IndexError("coefficients are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        if not self.period:
            raise InsufficientCoefficients(
                "expansion has only %d coefficients, a_%d requested"
                % (len(self.preperiod), i)
            )
        return self.period[(i - 1 - len(self.preperiod)) % len(self.period)]

    def coefficients(self, n: int) -> list[int]:
        return [self.coefficient(i) for i in range(1, n + 1)]

    def __str__(self):
        pre = ",".join(str(a) for a in self.preperiod)
        per = ",".join(str(b) for b in self.period)
        if per and pre:
            return "[0; %s (%s)]" % (pre, per)
        if per:
            return "[0; (%s)]" % per
        return "[0; %s]" % pre


_CF_RE = re.compile(
    r"""^\s*\[\s*0\s*;\s*
        (?P<pre>[0-9,\s]*?)
        \s*(?:\(\s*(?P<per>[0-9][0-9,\s]*)\s*\))?
        \s*\]\s*$""",
    re.VERBOSE,
)


def parse_cf(text: str) -> CFExpansion:
    """Parse "[0; a1,...,ak (b1,...,bm)]"; either part may be absent."""
    m = _CF_RE.match(text)
    if not m:
        raise ValueError("cannot parse continued fraction %r" % text)

    def ints(chunk):
        chunk = chunk.strip().strip(",")
        if not chunk:
            return ()
        return tuple(int(p) for p in chunk.split(","))

    return CFExpansion(ints(m.group("pre")), ints(m.group("per") or ""))


@dataclass(frozen=True)
class Convergent:
    index: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def ladder(cf: CFExpansion):
    """Convergents (p_i, q_i) of [0; a1, a2, ...] for i = 0, 1, 2, ...,
    from p_0/q_0 = 0/1 by p_i = a_i p_{i-1} + p_{i-2} (likewise q_i).
    a_i is read only when (p_i, q_i) is asked for, so a finite expansion
    raises InsufficientCoefficients one step past its last convergent."""
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for i in itertools.count(1):
        yield p, q
        a = cf.coefficient(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


def convergents(cf: CFExpansion, n: int) -> list[Convergent]:
    """The first n convergents p_i/q_i of [0; a1, a2, ...]."""
    rungs = itertools.islice(ladder(cf), 1, None)
    return [Convergent(i, p, q) for i, (p, q) in zip(range(1, n + 1), rungs)]


def _mobius(coeffs) -> tuple[int, int, int, int]:
    # product of [[a,1],[1,0]] over coeffs
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in coeffs:
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
    return m11, m12, m21, m22


def quadratic_of_cf(cf: CFExpansion) -> QuadraticReal:
    """Exact value of an eventually periodic expansion.

    The purely periodic tail y = [b1; b2,...,bm, b1,...] solves
    q y^2 + (q' - p) y - p' = 0 with (p, p'; q, q') the period's Mobius
    matrix; the preperiod then acts on y as a fractional linear map.
    """
    if not cf.is_periodic:
        raise NonPeriodic("exact value needs a repeating period: %s" % cf)
    p, p2, q, q2 = _mobius(cf.period)
    disc = (q2 - p) * (q2 - p) + 4 * q * p2
    y = QuadraticReal(Fraction(p - q2, 2 * q), Fraction(1, 2 * q), disc)
    # alpha = [0; preperiod, y]; the leading integer part 0 swaps the
    # Mobius rows, hence the reciprocal shape
    m11, m12, m21, m22 = _mobius(cf.preperiod)
    num = y * m21 + m22
    den = y * m11 + m12
    alpha = num / den
    if not (ZERO < alpha < ONE):
        raise ValueError("expansion does not describe an angle in (0,1): %s" % cf)
    return alpha


def nearest_int_distance(alpha: QuadraticReal, k: int) -> QuadraticReal:
    """||k*alpha||, the exact distance from k*alpha to the nearest integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    frac = (alpha * k).mod1()
    other = ONE - frac
    return frac if frac < other else other
