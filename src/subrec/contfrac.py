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


def ladder(cf: CFExpansion):
    """Each convergent p_i/q_i of [0; a1, a2, ...] as (p_i, q_i), i = 0, 1, 2, ...,
    from p_0/q_0 = 0/1 by p_i = a_i p_{i-1} + p_{i-2} (likewise q_i).
    a_i is read only when (p_i, q_i) is asked for, so a finite expansion
    raises InsufficientCoefficients one step past its last convergent."""
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for i in itertools.count(1):
        yield p, q
        a = cf.coefficient(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


def _last_two(cf: CFExpansion, n: int) -> tuple[int, int, int, int]:
    """(p_{n-1}, q_{n-1}, p_n, q_n) off the ladder, with p_{-1}/q_{-1} = 1/0."""
    (p1, q1), (p, q) = itertools.islice(itertools.chain([(1, 0)], ladder(cf)), n, n + 2)
    return p1, q1, p, q


def quadratic_of_cf(cf: CFExpansion) -> QuadraticReal:
    """Exact value of an eventually periodic expansion.

    With p_i/q_i the i-th convergent of [0; b1,...,bm], the purely periodic
    tail y = [b1; b2,...,bm, b1,...] has 1/y = (p_m y + p_{m-1}) /
    (q_m y + q_{m-1}), so p_m y^2 + (p_{m-1} - q_m) y - q_{m-1} = 0; then
    alpha = [0; a1,...,ak, y] = (p_k y + p_{k-1}) / (q_k y + q_{k-1}) with
    p_i/q_i the i-th convergent of cf itself.
    """
    if not cf.is_periodic:
        raise NonPeriodic("exact value needs a repeating period: %s" % cf)
    p1, q1, p, q = _last_two(CFExpansion(cf.period), len(cf.period))
    disc = (p1 - q) * (p1 - q) + 4 * p * q1
    y = QuadraticReal(Fraction(q - p1, 2 * p), Fraction(1, 2 * p), disc)
    p1, q1, p, q = _last_two(cf, len(cf.preperiod))
    alpha = (y * p + p1) / (y * q + q1)
    if not (ZERO < alpha < ONE):
        raise ValueError("expansion does not describe an angle in (0,1): %s" % cf)
    return alpha
