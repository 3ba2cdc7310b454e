"""Slow reference implementations the tests compare the library against.

Everything here is written the dumb way on purpose: quadratic loops,
integer square roots, Fraction folding.  No imports from subrec.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key


def naive_occurrences(pattern: str, text: str) -> list[int]:
    m = len(pattern)
    return [i for i in range(len(text) - m + 1) if text[i : i + m] == pattern]


def naive_min_gap(pattern: str, text: str):
    occ = naive_occurrences(pattern, text)
    if len(occ) < 2:
        return None
    return min(b - a for a, b in zip(occ, occ[1:]))


class NaiveWindowError(RuntimeError):
    """The naive window loop gave up; the text matches the library's."""


def naive_windowed_tau(prefix, name: str, n: int, base: int, cap: int):
    """(tau, window, stabilized) of the depth-n prefix cylinder by the
    window schedule: first window min(max(base, 50 n), cap), doubled up to
    cap until two windows agree or the word ends. prefix(m) returns the
    first m symbols of the word (fewer if it ends)."""
    u = prefix(n)
    if len(u) < n:
        raise NaiveWindowError(
            "source %s ends after %d symbols, cylinder depth %d unreachable"
            % (name, len(u), n)
        )
    window = min(max(base, 50 * n), cap)
    prev = None
    while True:
        text = prefix(window)
        exhausted = len(text) < window
        tau = naive_min_gap(u, text)
        if tau is None:
            if exhausted or window >= cap:
                raise NaiveWindowError(
                    "prefix of depth %d of %s recurs less than twice in a %d-window"
                    % (n, name, len(text))
                )
        elif exhausted:
            return tau, len(text), True
        elif tau == prev:
            return tau, window, True
        elif window >= cap:
            return tau, window, False
        else:
            prev = tau
        window = min(2 * window, cap)


def naive_prefix_match(text: str, last: int) -> list[int]:
    """For each start p, how many leading symbols text[p:] shares with
    text, at most last; a match that reaches the end of text counts as
    last."""
    out = []
    for p in range(len(text)):
        m = 0
        while m < last and p + m < len(text) and text[p + m] == text[m]:
            m += 1
        out.append(last if p + m == len(text) else m)
    return out


def naive_factor_stats(text: str, length: int) -> dict[str, tuple]:
    """{factor: (count, min gap, max gap)}, gaps None for a lone factor."""
    out = {}
    for w in {text[i : i + length] for i in range(len(text) - length + 1)}:
        occ = naive_occurrences(w, text)
        gaps = [b - a for a, b in zip(occ, occ[1:])]
        out[w] = (len(occ), min(gaps, default=None), max(gaps, default=None))
    return out


def naive_tau(text: str, n: int):
    """Recurrence time of the depth-n prefix cylinder, scanned in text."""
    return naive_min_gap(text[:n], text)


# Rate series rows are (n, tau, window, stabilized) tuples.

_BY_RATIO = cmp_to_key(lambda a, b: a[1] * b[0] - b[1] * a[0])  # tau / n, n > 0


def naive_tail_extremes(rows, depth: int) -> tuple[Fraction, Fraction]:
    """(min, max) of tau/n over the rows with n > depth/2, one row
    compared with another at a time; ValueError when there is none."""
    tail = [r for r in rows if r[0] >= depth // 2 + 1]
    low, high = min(tail, key=_BY_RATIO), max(tail, key=_BY_RATIO)
    return Fraction(low[1], low[0]), Fraction(high[1], high[0])


def naive_running_min(rows) -> list[Fraction]:
    """The least tau/n over the first i + 1 rows, for each row i."""
    out, cur = [], None
    for n, tau, _, _ in rows:
        if cur is None or tau * cur[0] < cur[1] * n:
            cur = (n, tau)
        out.append(Fraction(cur[1], cur[0]))
    return out


def naive_rate_csv(rows) -> str:
    """The rate series CSV, formatted row by row."""
    lines = ["n,tau,ratio_num,ratio_den,window,stabilized"]
    for n, tau, window, stabilized in rows:
        g = math.gcd(tau, n)
        lines.append("%d,%d,%d,%d,%d,%d" % (n, tau, tau // g, n // g, window, int(stabilized)))
    return "\n".join(lines) + "\n"


def naive_xcheck_csv(rows) -> str:
    """The cross-check CSV, formatted row by row from (n, tau_symbolic,
    tau_geometric, atom length as a float, match) tuples."""
    lines = ["n,tau_symbolic,tau_geometric,atom_len_num_approx,match"]
    for n, ts, tg, length, match in rows:
        lines.append("%d,%d,%d,%.12g,%d" % (n, ts, tg, length, int(match)))
    return "\n".join(lines) + "\n"


def naive_return_words(u: str, text: str) -> set[str]:
    occ = naive_occurrences(u, text)
    return {text[a:b] for a, b in zip(occ, occ[1:])}


def naive_max_power(text: str) -> Fraction:
    """Largest e such that some v with v^e = prefix of vvv... of length
    floor(e|v|) occurs in text.  Cubic scan."""
    n = len(text)
    best = Fraction(1)
    for period in range(1, n):
        for i in range(n - period):
            run = 0
            while i + period + run < n and text[i + run] == text[i + period + run]:
                run += 1
            if run:
                best = max(best, Fraction(period + run, period))
    return best


def naive_max_power_witness(text: str) -> tuple[Fraction, str, int]:
    """(exponent, base, position) of the largest fractional power, by the
    same cubic scan; ties go to the smallest period, then the leftmost
    position, and with no repetition at all to text[0] at 0."""
    n = len(text)
    best = (Fraction(1), text[:1], 0)
    for period in range(1, n):
        for i in range(n - period):
            run = 0
            while i + period + run < n and text[i + run] == text[i + period + run]:
                run += 1
            e = Fraction(period + run, period)
            if e > best[0]:
                best = (e, text[i : i + period], i)
    return best


def floor_quadratic(a: int, b: int, d: int, den: int) -> int:
    """floor((a + b*sqrt(d))/den) for integers a, b, d >= 0, den > 0;
    d need not be squarefree. Exact integer work only."""
    t = b * b * d
    s = math.isqrt(t)
    if b < 0:
        # floor of the negative part; one lower unless it is an integer
        s = -s if s * s == t else -s - 1
    return (a + s) // den


def _sign(x: Fraction, y: Fraction, d: int) -> int:
    """Sign of x + y*sqrt(d) for rationals x, y and a non-square d > 1."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > y * y * d else sy


def _floor_pair(x: Fraction, y: Fraction, d: int) -> int:
    """floor(x + y*sqrt(d)) for rationals x, y."""
    den = math.lcm(x.denominator, y.denominator)
    return floor_quadratic(int(x * den), int(y * den), d, den)


def _sorted_endpoints(ax: Fraction, ay: Fraction, d: int, n: int):
    """The points {-j*alpha}, 0 <= j <= n, as pairs (x, y), sorted, and
    the comparison they were sorted by."""

    def cmp(u, v):
        return _sign(u[0] - v[0], u[1] - v[1], d)

    points = [
        (-j * ax - _floor_pair(-j * ax, -j * ay, d), -j * ay) for j in range(n + 1)
    ]
    return sorted(points, key=cmp_to_key(cmp)), cmp


def exact_sorted_orbit(alpha, n: int) -> list:
    """The points {-j*alpha}, 0 <= j <= n, each one subtraction from the
    last, sorted by exact comparison, for an exact alpha with mod1()."""
    points = [alpha - alpha]
    for _ in range(n):
        points.append((points[-1] - alpha).mod1())
    return sorted(points)


def exact_atom_lengths(alpha, n: int) -> list:
    """The gaps of exact_sorted_orbit in circle order, the last one up to 1."""
    points = exact_sorted_orbit(alpha, n)
    return [b - a for a, b in zip(points, points[1:])] + [1 - points[-1]]


def naive_atom(alpha, t, n: int):
    """The depth-n atom [l, r) containing t, read off the sorted endpoints
    {-j*alpha}, 0 <= j <= n.

    alpha = (x, y, d) stands for x + y*sqrt(d); t and the returned l, r
    are pairs (x, y) in the same field, with Fraction parts.
    """
    points, cmp = _sorted_endpoints(Fraction(alpha[0]), Fraction(alpha[1]), alpha[2], n)
    left, right = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for p in points:
        if cmp(p, t) <= 0:
            left = p
        else:
            right = p
            break
    return left, right


def naive_cylinder(alpha, word: str):
    """The depth-len(word) atom (l, r) whose points' codings start with
    word, or None when no atom has that coding.

    Every atom between consecutive sorted endpoints {-j*alpha},
    0 <= j <= len(word), is coded at its left end l: symbol j is
    floor(l + (j+1)*alpha) - floor(l + j*alpha). alpha, l and r are
    given as in naive_atom.
    """
    ax, ay, d = Fraction(alpha[0]), Fraction(alpha[1]), alpha[2]
    points, _ = _sorted_endpoints(ax, ay, d, len(word))
    points.append((Fraction(1), Fraction(0)))
    for (lx, ly), right in zip(points, points[1:]):
        floors = [_floor_pair(lx + j * ax, ly + j * ay, d) for j in range(len(word) + 1)]
        if "".join(str(b - a) for a, b in zip(floors, floors[1:])) == word:
            return (lx, ly), right
    return None


def beatty_coding(a: int, b: int, d: int, den: int, length: int, t0=(0, 0, 1)) -> str:
    """Coding of the rotation by alpha = (a + b*sqrt(d))/den at the start
    point t0 = (ta + tb*sqrt(d))/tden, given as (ta, tb, tden):
    symbol k = floor(t0 + (k+1) alpha) - floor(t0 + k alpha).

    Requires 0 < alpha < 1 with b != 0, d > 1 not a square, den > 0, and
    0 <= t0 < 1 with tden > 0.
    """
    ta, tb, tden = t0
    # t0 + j alpha = (ta den + j a tden + (tb den + j b tden) sqrt(d)) / (den tden)
    prev = floor_quadratic(ta * den, tb * den, d, den * tden)
    out = []
    for k in range(1, length + 1):
        cur = floor_quadratic(ta * den + k * a * tden, tb * den + k * b * tden, d, den * tden)
        out.append("01"[cur - prev])
        prev = cur
    return "".join(out)


def naive_standard_word(digits: list[int], length: int) -> str:
    """Characteristic word from CF digits [0; a1, a2, ...], leading 0 kept."""
    prev, cur = "0", "0" * (digits[0] - 1) + "1"
    for a in digits[1:]:
        prev, cur = cur, cur * a + prev
        if len(cur) > length:
            break
    return ("0" + cur)[:length]


def naive_kappa_word(steps, seed: str = "0") -> str:
    """k_1(k_2(...k_n(seed))) in full, substituting symbol by symbol from
    the innermost step out; each step needs only an `images` dict."""
    w = seed
    for m in reversed(steps):
        w = "".join(m.images[c] for c in w)
    return w


def translate_apply(images: dict[str, str], word: str) -> str:
    """word with every symbol replaced by its image, by str.translate; a
    symbol outside the domain raises ValueError naming all of them, sorted."""
    bad = set(word) - set(images)
    if bad:
        raise ValueError("symbols outside domain: %s" % sorted(bad))
    return word.translate(str.maketrans(images))


def naive_thue_morse(length: int) -> str:
    """Thue-Morse word: symbol k is the parity of the binary digit sum of k."""
    return "".join(str(bin(k).count("1") % 2) for k in range(length))


def cf_value(digits: list[int]) -> Fraction:
    """Value of [0; a1, ..., ak] by folding from the right."""
    x = Fraction(0)
    for a in reversed(digits):
        x = Fraction(1, a + x)
    return x


def nearest_int_distance(alpha, k: int):
    """||k*alpha||, the distance from k*alpha to the nearest integer, for an
    exact alpha with mod1()."""
    if k < 1:
        raise ValueError("k must be >= 1")
    frac = (alpha * k).mod1()
    other = 1 - frac
    return frac if frac < other else other


def _mobius(digits) -> tuple[int, int, int, int]:
    """The product of [[a, 1], [1, 0]] over digits."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in digits:
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
    return m11, m12, m21, m22


def mobius_quadratic(pre, per, number):
    """[0; pre (per)] from the Mobius matrices of pre and per, with
    number(a, b, d) the exact a + b*sqrt(d).

    The purely periodic tail y = [per; per, ...] solves
    q y^2 + (q2 - p) y - p2 = 0 for the period's matrix ((p, p2), (q, q2));
    the leading 0 swaps the rows of the preperiod's matrix, hence the
    reciprocal shape of the map it applies to y.
    """
    p, p2, q, q2 = _mobius(per)
    disc = (q2 - p) * (q2 - p) + 4 * q * p2
    y = number(Fraction(p - q2, 2 * q), Fraction(1, 2 * q), disc)
    m11, m12, m21, m22 = _mobius(pre)
    return (y * m21 + m22) / (y * m11 + m12)
