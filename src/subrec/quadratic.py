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
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm


# Trial division takes out every prime below _TRIAL. Larger prime factors
# are split off by Pollard-Brent rho and certified by Miller-Rabin with the
# first 13 prime bases, which is exact below _MR_EXACT (Sorenson and
# Webster 2015); a cofactor rho cannot split within _RHO_BUDGET steps is
# refused, never guessed squarefree.
_TRIAL = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981
_RHO_BUDGET = 1 << 21


@lru_cache(maxsize=256)
def _squarefree_part(d: int) -> tuple[int, int]:
    """(f, s) with d = f*f*s and s squarefree, for d >= 1.

    Trial division stops at _TRIAL or once k**3 exceeds what is left; in
    the second case the cofactor has no prime factor below k, so at most
    two prime factors, and it is squarefree unless it is a perfect square.
    """
    primes = []
    k = 2
    while k * k * k <= d and k < _TRIAL:
        while d % k == 0:
            d //= k
            primes.append(k)
        k += 1 if k == 2 else 2
    if k * k * k > d:
        root = isqrt(d)
        primes += [root, root] if root * root == d else [d]
    else:
        primes += _large_primes(d)
    f = s = 1
    for p, e in Counter(primes).items():
        f *= p ** (e // 2)
        s *= p ** (e % 2)
    return f, s


def _large_primes(n: int) -> list[int]:
    """Prime factors, with multiplicity, of n >= 1 free of primes below _TRIAL."""
    if n == 1:
        return []
    if n < _TRIAL * _TRIAL or (n < _MR_EXACT and _is_prime(n)):
        return [n]
    root = isqrt(n)
    if root * root == n:
        return _large_primes(root) * 2
    g = _rho_factor(n)
    return _large_primes(g) + _large_primes(n // g)


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41; exact for n < _MR_EXACT."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**r, d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of n, which is neither prime nor a square
    (Pollard-Brent rho with y -> y*y + c)."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
            if steps > _RHO_BUDGET:
                raise ValueError("cannot reduce radicand: %d resists %d rho "
                                 "steps" % (n, _RHO_BUDGET))
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


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
            return NotImplemented
        return _div(o, self._v)

    def sign(self) -> int:
        p, q, _, d = self._v
        return _sign(p, q, d)

    def _cmp(self, other) -> int:
        """Sign of self - other, read off the cross-multiplied numerators
        (the denominators are positive) without building the difference."""
        o = _operand(other)
        if o is None:
            raise TypeError("cannot compare QuadraticReal with %s" % type(other).__name__)
        p1, q1, r1, d1 = self._v
        p2, q2, r2, d2 = o
        d = _field(d1, d2)
        if r1 == r2:
            return _sign(p1 - p2, q1 - q2, d)
        return _sign(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, d)

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            if isinstance(other, float):
                raise TypeError("cannot compare QuadraticReal with a float")
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


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), for d squarefree or q = 0."""
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
