"""Independent references for the benchmark's output checks.

Nothing here imports subrec. Each function recomputes a quantity the slow,
obvious way from the definitions, so that a fast path in the library that
changes a result is caught instead of timed.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ------------------------------------------------------- continued fractions

def cf_digit(pre: tuple[int, ...], per: tuple[int, ...]):
    """a_i (1-based) of [0; pre (per)]; per may be empty for finite ones."""

    def digit(i: int) -> int:
        if i <= len(pre):
            return pre[i - 1]
        return per[(i - 1 - len(pre)) % len(per)]

    return digit


def cf_text(pre: tuple[int, ...], per: tuple[int, ...]) -> str:
    """The CLI spelling "[0; a,b (c,d)]" of an expansion."""
    head = ",".join(map(str, pre))
    tail = "(%s)" % ",".join(map(str, per)) if per else ""
    return "[0; %s %s]" % (head, tail)


def _mobius(digits) -> tuple[int, int, int, int]:
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in digits:
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
    return m11, m12, m21, m22


def alpha_of_cf(pre, per) -> tuple[int, int, int, int]:
    """(a, b, d, den) with [0; pre (per)] = (a + b*sqrt(d)) / den, den > 0.

    The periodic tail y = [per; per, ...] solves q y^2 + (q2 - p) y - p2 = 0
    for the period's matrix ((p, p2), (q, q2)); the preperiod then maps y
    by a fractional linear map, rationalized with the conjugate.
    """
    p, p2, q, q2 = _mobius(per)
    s = (q2 - p) ** 2 + 4 * q * p2
    u, v = p - q2, 2 * q  # y = (u + sqrt(s)) / v
    m11, m12, m21, m22 = _mobius(pre)
    a1, b1 = m21 * u + m22 * v, m21
    a2, b2 = m11 * u + m12 * v, m11
    a = a1 * a2 - b1 * b2 * s
    b = b1 * a2 - a1 * b2
    den = a2 * a2 - b2 * b2 * s
    if den < 0:
        a, b, den = -a, -b, -den
    return a, b, s, den


def discriminant(per) -> int:
    """Discriminant of the period's quadratic; the radicand before squares
    are pulled out."""
    p, p2, q, q2 = _mobius(per)
    return (q2 - p) ** 2 + 4 * q * p2


def squarefree_part(n: int) -> int:
    """n with every square factor divided out, by trial division."""
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
        k += 1
    return n


def beatty_symbol(alpha: tuple[int, int, int, int], k: int) -> str:
    """Symbol k (0-based) of the rotation coding of 0:
    floor((k+1) alpha) - floor(k alpha), exact integer work only."""
    a, b, d, den = alpha

    def floor_mult(m: int) -> int:
        s = math.isqrt(m * m * b * b * d)
        if m * b < 0:
            s = -s - 1
        return (m * a + s) // den

    return "01"[floor_mult(k + 1) - floor_mult(k)]


# ------------------------------------------------------------------- words

def standard_word(digit, length: int) -> str:
    """Characteristic word of [0; a1, a2, ...] with its leading 0:
    t_1 = 0^(a1-1) 1, t_k = t_{k-1}^(a_k) t_{k-2}, word = 0 t_inf."""
    if length <= 1:
        return "0" * length
    prev, cur = "0", "0" * (digit(1) - 1) + "1"
    i = 1
    while len(cur) < length - 1:
        i += 1
        prev, cur = cur, cur * digit(i) + prev
    return ("0" + cur)[:length]


def thue_morse_symbol(k: int) -> str:
    return "01"[bin(k).count("1") & 1]


def thue_morse(length: int) -> str:
    return "".join(thue_morse_symbol(k) for k in range(length))


def kappa_step(kind: str, n: int) -> dict[str, str]:
    """rho_n: 0 -> 0 1^(n+1), 1 -> 0 1^n; gamma_n: the same with 0, 1 swapped."""
    if kind == "r":
        return {"0": "0" + "1" * (n + 1), "1": "0" + "1" * n}
    return {"0": "1" + "0" * (n + 1), "1": "1" + "0" * n}


def kappa_lengths(steps) -> int:
    """|k_1 ... k_n(0)| from symbol counts, no word built."""
    n0, n1 = 1, 0
    for kind, n in reversed(steps):
        img = kappa_step(kind, n)
        n0, n1 = (
            n0 * img["0"].count("0") + n1 * img["1"].count("0"),
            n0 * img["0"].count("1") + n1 * img["1"].count("1"),
        )
    return n0 + n1


def kappa_word(steps) -> str:
    """k_1(k_2(... k_n("0"))) in full."""
    w = "0"
    for kind, n in reversed(steps):
        w = w.translate(str.maketrans(kappa_step(kind, n)))
    return w


# --------------------------------------------------------------- scanning

def positions(u: str, text: str) -> list[int]:
    """Every start of u in text, overlaps included, one position at a time."""
    return [i for i in range(len(text) - len(u) + 1) if text.startswith(u, i)]


def min_gap(u: str, text: str) -> int | None:
    occ = positions(u, text)
    if len(occ) < 2:
        return None
    return min(q - p for p, q in zip(occ, occ[1:]))


def is_return_word(w: str, u: str) -> bool:
    """u starts w u and occurs in w u exactly twice (at 0 and at |w|)."""
    return bool(w) and positions(u, w + u) == [0, len(w)]


def fractional_power(base: str, exponent: Fraction) -> str:
    length = exponent.numerator * len(base) // exponent.denominator
    return (base * (length // len(base) + 1))[:length]
