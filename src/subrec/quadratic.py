"""Exact arithmetic in real quadratic fields.

A value is stored as integers (p + q*sqrt(d)) / r with r > 0,
gcd(p, q, r) = 1 and d squarefree; rationals have q = 0 and d = 0. That form
is canonical, so equality is equality of the four integers. Only the public
constructor reduces a radicand to its squarefree part, once per distinct d;
field operations work on the integers alone, and floor is
(p + floor(q*sqrt(d))) // r with the inner floor from math.isqrt.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm


@lru_cache(maxsize=256)
def _squarefree_part(d: int) -> tuple[int, int]:
    """(f, s) with d = f*f*s and s squarefree, for d >= 1.

    Trial division stops once k**3 exceeds what is left: the cofactor then
    has no prime factor below k, so at most two prime factors, and it is
    squarefree unless it is a perfect square.
    """
    f, s = 1, 1
    k = 2
    while k * k * k <= d:
        e = 0
        while d % k == 0:
            d //= k
            e += 1
        f *= k ** (e // 2)
        s *= k ** (e % 2)
        k += 1 if k == 2 else 2
    root = isqrt(d)
    if root * root == d:
        return f * root, s
    return f, s * d


class QuadraticReal:
    """Immutable exact number a + b*sqrt(d)."""

    __slots__ = ("_v",)  # (p, q, r, d): the value (p + q*sqrt(d)) / r

    def __init__(self, a, b=0, d=0):
        a, b, d = Fraction(a), Fraction(b), int(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        else:
            f, d = _squarefree_part(d)
            b *= f
            if d == 1:
                a, b, d = a + b, Fraction(0), 0
        # a and b are in lowest terms, so over the lcm of their
        # denominators gcd(p, q, r) is already 1
        r = lcm(a.denominator, b.denominator)
        _set(self, (a.numerator * (r // a.denominator), b.numerator * (r // b.denominator), r, d))

    def __setattr__(self, *args):
        raise AttributeError("QuadraticReal is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._v[0], self._v[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self._v[1], self._v[2])

    @property
    def d(self) -> int:
        return self._v[3]

    @property
    def is_rational(self) -> bool:
        return self._v[1] == 0

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _add(self._v, o)

    __radd__ = __add__

    def __neg__(self):
        p, q, r, d = self._v
        return _wrap((-p, -q, r, d))

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _add(self._v, (-p, -q, r, d))

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = self._v
        return _add(o, (-p, -q, r, d))

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        p1, q1, r1, d1 = self._v
        p2, q2, r2, d2 = o
        d = _field(d1, d2)
        return _new(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, r1 * r2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _div(self._v, o)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return QuadraticReal(other) / self
        return _div(o, self._v)

    def sign(self) -> int:
        p, q, _, d = self._v
        if q == 0:
            return (p > 0) - (p < 0)
        if p >= 0 and q > 0:
            return 1
        if p <= 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with q^2 d (sqrt(d) irrational, no tie)
        if p > 0:
            return 1 if p * p > q * q * d else -1
        return 1 if q * q * d > p * p else -1

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._v == o

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self._v[1] == 0:
            return hash(self.a)
        return hash(self._v)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        p, q, r, d = self._v
        if q > 0:
            p += isqrt(q * q * d)
        elif q < 0:
            p -= isqrt(q * q * d) + 1  # q*sqrt(d) is irrational, never an integer
        return p // r

    def floor(self) -> int:
        return self.__floor__()

    def mod1(self) -> "QuadraticReal":
        f = self.__floor__()
        p, q, r, d = self._v
        return _wrap((p - f * r, q, r, d))  # gcd(p - f*r, q, r) = gcd(p, q, r)

    def __repr__(self):
        if self.is_rational:
            return "QuadraticReal(%s)" % (self.a,)
        return "QuadraticReal(%s + %s*sqrt(%d))" % (self.a, self.b, self.d)

    def __str__(self):
        if self.is_rational:
            return str(self.a)
        return "%s + %s*sqrt(%d) (~%.12g)" % (self.a, self.b, self.d, float(self))


_set = QuadraticReal._v.__set__


def _wrap(v: tuple) -> QuadraticReal:
    """A value from an integer form that is already normalised."""
    x = object.__new__(QuadraticReal)
    _set(x, v)
    return x


def _new(p: int, q: int, r: int, d: int) -> QuadraticReal:
    """(p + q*sqrt(d)) / r for r > 0 and d squarefree (or q = 0)."""
    if q == 0:
        d = 0
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return _wrap((p, q, r, d))


def _operand(x) -> tuple | None:
    """x's integer form, or None when x is not an exact number."""
    if isinstance(x, QuadraticReal):
        return x._v
    if isinstance(x, int):
        return (x, 0, 1, 0)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator, 0)
    return None


def _field(d1: int, d2: int) -> int:
    """The radicand of a result; d = 0 marks a rational operand."""
    if d1 and d2 and d1 != d2:
        raise ValueError("mixed radicands %d and %d" % (d1, d2))
    return d1 or d2


def _add(u: tuple, v: tuple) -> QuadraticReal:
    p1, q1, r1, d1 = u
    p2, q2, r2, d2 = v
    d = _field(d1, d2)
    if r1 == r2:
        return _new(p1 + p2, q1 + q2, r1, d)
    return _new(p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2, d)


def _div(u: tuple, v: tuple) -> QuadraticReal:
    p1, q1, r1, d1 = u
    p2, q2, r2, d2 = v
    d = _field(d1, d2)
    # multiply by the conjugate; the norm is nonzero for nonzero divisors
    norm = p2 * p2 - q2 * q2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero quadratic value")
    if norm < 0:
        norm, r2 = -norm, -r2
    return _new(r2 * (p1 * p2 - q1 * q2 * d), r2 * (q1 * p2 - p1 * q2), r1 * norm, d)


ZERO = QuadraticReal(0)
ONE = QuadraticReal(1)
