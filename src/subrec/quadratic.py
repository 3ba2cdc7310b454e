"""Exact arithmetic in real quadratic fields.

A value is stored as integers (p + q*sqrt(d)) / r with r > 0,
gcd(p, q, r) = 1 and d not a perfect square; rationals have q = d = 0.
The constructor moves square factors of d into q by trial division below
1000 and a perfect-square test of the rest, so d is squarefree below 10**9.
Equal values are equal whatever the split: two radicands meet when their
product is a perfect square, and the hash reads split-free invariants.
Floor is (p + floor(q*sqrt(d))) // r with the inner floor from math.isqrt.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt


_TRIAL = 1000


def _squarefree_part(d: int) -> tuple[int, int]:
    """(f, s) with d = f*f*s for d >= 1; s is 1 or no square, squarefree if d < _TRIAL**3.

    Trial division stops at _TRIAL or once k**3 exceeds what is left; in
    the second case the cofactor has no prime factor below k, so at most
    two prime factors, and it is squarefree unless it is a perfect square.
    A cofactor that is a perfect square moves into f in either case.
    """
    f = s = 1
    k = 2
    while k * k * k <= d and k < _TRIAL:
        while d % (k * k) == 0:
            d //= k * k
            f *= k
        if d % k == 0:
            d //= k
            s *= k
        k += 1 if k == 2 else 2
    root = isqrt(d)
    if root * root != d:
        return f, s * d
    return f * root, s


def _operand(x) -> tuple | None:
    """x's integer form, or None when x is not an exact number."""
    if isinstance(x, QuadraticReal):
        return x._v
    if isinstance(x, int):
        return (x, 0, 1, 0)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator, 0)
    return None


def _meet(u: tuple, v: tuple) -> tuple[tuple, tuple]:
    """u and v over one radicand, for radicands d1 != d2, both nonzero: they
    meet when d1*d2 = s*s, and the operand over the larger radicand moves to
    the smaller, d, by sqrt(d1*d2/d) = (s/d)*sqrt(d), unnormalised."""
    d1, d2 = u[3], v[3]
    s = isqrt(d1 * d2)
    if s * s != d1 * d2:
        raise ValueError("mixed radicands %d and %d" % (d1, d2))
    d = min(d1, d2)
    g = gcd(s, d)
    p, q, r, _ = v if d == d1 else u
    moved = (p * (d // g), q * (s // g), r * (d // g), d)
    return (u, moved) if d == d1 else (moved, v)


def _align(u: tuple, v: tuple) -> tuple:
    """(p1, q1, r1, p2, q2, r2, d): u and v over one radicand d, 0 if both are rational."""
    if u[3] != v[3] and u[3] and v[3]:
        u, v = _meet(u, v)
    p1, q1, r1, d1 = u
    p2, q2, r2, d2 = v
    return p1, q1, r1, p2, q2, r2, d1 or d2


def _neg(v: tuple) -> tuple:
    return (-v[0], -v[1], v[2], v[3])


def _add(u: tuple, v: tuple) -> QuadraticReal:
    p1, q1, r1, p2, q2, r2, d = _align(u, v)
    if r1 == r2:
        return _new(p1 + p2, q1 + q2, r1, d)
    return _new(p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2, d)


def _sub(u: tuple, v: tuple) -> QuadraticReal:
    return _add(u, _neg(v))


def _mul(u: tuple, v: tuple) -> QuadraticReal:
    p1, q1, r1, p2, q2, r2, d = _align(u, v)
    return _new(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, r1 * r2, d)


def _div(u: tuple, v: tuple) -> QuadraticReal:
    p1, q1, r1, p2, q2, r2, d = _align(u, v)
    # multiply by the conjugate; the norm is nonzero for nonzero divisors
    norm = p2 * p2 - q2 * q2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero quadratic value")
    if norm < 0:
        norm, r2 = -norm, -r2
    return _new(r2 * (p1 * p2 - q1 * q2 * d), r2 * (q1 * p2 - p1 * q2), r1 * norm, d)


def _operator(op, reflected=False):
    """A binary dunder: op on the integer forms (other's first if reflected)."""
    def method(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return op(o, self._v) if reflected else op(self._v, o)
    return method


class QuadraticReal:
    """Immutable exact number a + b*sqrt(d)."""

    __slots__ = ("_v",)  # (p, q, r, d): the value (p + q*sqrt(d)) / r

    def __init__(self, a, b=0, d=0):
        if any(isinstance(x, float) for x in (a, b, d)):
            raise TypeError("QuadraticReal takes exact numbers, not floats")
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

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(_sub)
    __rsub__ = _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__ = _operator(_div)
    __rtruediv__ = _operator(_div, reflected=True)

    def __neg__(self):
        return _wrap(_neg(self._v))

    def sign(self) -> int:
        p, q, _, d = self._v
        return _sign(p, q, d)

    def _cmp(self, other) -> int:
        """Sign of self - other, read off the cross-multiplied numerators
        (the denominators are positive) without building the difference."""
        o = _operand(other)
        if o is None:
            raise TypeError("cannot compare QuadraticReal with %s" % type(other).__name__)
        p1, q1, r1, p2, q2, r2, d = _align(self._v, o)
        if r1 == r2:
            return _sign(p1 - p2, q1 - q2, d)
        return _sign(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, d)

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            if isinstance(other, float):
                raise TypeError("cannot compare QuadraticReal with a float")
            return NotImplemented
        u = self._v
        if u[3] == o[3] or not (u[3] and o[3]):
            return u == o  # one radicand gives one normalised form
        try:
            return self._cmp(other) == 0
        except ValueError:  # the radicands do not meet
            return False

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self._v[:2] != (0, 0)  # sqrt(d) is irrational, so 0 only when p = q = 0

    def __hash__(self):
        p, q, r, d = self._v
        if q == 0:
            return hash(Fraction(p, r))
        # a, b*b*d and the sign of b do not depend on how d is split
        return hash((Fraction(p, r), Fraction(q * q * d, r * r), q > 0))

    def __reduce__(self):
        return _wrap, (self._v,)

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(self.d)

    def __floor__(self) -> int:
        p, q, r, d = self._v
        if q > 0:
            p += isqrt(q * q * d)
        elif q < 0:
            p -= isqrt(q * q * d) + 1  # q*sqrt(d) is irrational, never an integer
        return p // r

    def __ceil__(self) -> int:
        return -(-self).__floor__()

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
    """(p + q*sqrt(d)) / r for r > 0 and d not a perfect square (or q = 0)."""
    if q == 0:
        d = 0
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return _wrap((p, q, r, d))


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), for d not a perfect square or q = 0."""
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


ZERO = QuadraticReal(0)
ONE = QuadraticReal(1)
