"""Seeded job lists for the three benchmark workloads, and their checks.

A job is one CLI invocation (driven in-process through subrec.cli.main) or
one sequence of library calls. Each job builds its own word source or
rotation spec, as a fresh command would, so no job reuses another's buffer.

Sizes are drawn by stratified sampling: a category of k jobs draws one
value from each of k equal slices of its range. Every seed then covers the
whole range (dense periodic01 scans and radicands near 4e5 included) while
the total work of a list varies little from seed to seed.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("symbolic", "xcheck", "geometry")

# Names the presets stand for, restated from their documented definitions.
PRESET_CF = {
    "fibonacci": ((), (1,)),
    "sqrt2": ((), (2,)),
    "unbounded": (tuple(range(1, 31)), ()),
    "golden-rotation": ((), (1,)),
    "sqrt2-rotation": ((), (2,)),
}
KAPPA_RULES = {
    "golden-kappa": (("r", 1), ("g", 1)),  # first step, every later step
    "sqrt2-kappa": (("g", 1), ("r", 1)),
}


@dataclass
class Job:
    id: str
    run: Callable[[], object]            # the timed part
    check: Callable[[object], list]      # problems found in a result
    digest: Callable[[object], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strata(rng: random.Random, k: int, lo: float, hi: float) -> list[int]:
    """k integers, one drawn uniformly from each of k equal slices of
    [lo, hi], in slice order."""
    return [int(lo + (hi - lo) * (i + rng.random()) / k) for i in range(k)]


def draw_cf(rng, pre_len, per_len, digits):
    pre = tuple(rng.randint(*digits) for _ in range(rng.randint(*pre_len)))
    per = tuple(rng.randint(*digits) for _ in range(rng.randint(*per_len)))
    return pre, per


# ------------------------------------------------------------------ sources
#
# A source is ("preset", name) | ("cf", pre, per, method) | ("kappa", steps).

def source_argv(src) -> list[str]:
    if src[0] == "preset":
        return ["--preset", src[1]]
    if src[0] == "cf":
        argv = ["--cf", oracles.cf_text(src[1], src[2])]
        return argv + (["--method", src[3]] if src[3] != "standard" else [])
    return ["--kappa", ",".join("%s%d" % s for s in src[1])]


def source_label(src) -> str:
    return " ".join(source_argv(src)).replace("--", "")


def _rule_word(rule, length: int) -> str:
    first, later = rule
    steps = [first]
    while oracles.kappa_lengths(steps) <= length:
        steps.append(later)
    return oracles.kappa_word(steps)[:length]


def source_text(src, length: int) -> str:
    """The first `length` symbols of a source, recomputed from scratch.

    Tower presets rebuild with as many steps as a request needs; consecutive
    towers differ only in their last symbol, so one more step than needed
    gives the prefix that every shorter request sees.
    """
    if src[0] == "kappa":
        return oracles.kappa_word(src[1])[:length]
    if src[0] == "cf":
        pre, per, method = src[1], src[2], src[3]
        if method == "rotation":
            alpha = oracles.alpha_of_cf(pre, per)
            return "".join(oracles.beatty_symbol(alpha, k) for k in range(length))
        return oracles.standard_word(oracles.cf_digit(pre, per), length)
    name = src[1]
    if name == "periodic01":
        return ("01" * (length // 2 + 1))[:length]
    if name == "thue-morse":
        return oracles.thue_morse(length)
    if name in KAPPA_RULES:
        return _rule_word(KAPPA_RULES[name], length)
    pre, per = PRESET_CF[name]
    if name.endswith("-rotation"):
        return source_text(("cf", pre, per, "rotation"), length)
    return oracles.standard_word(oracles.cf_digit(pre, per), length)


def symbol_at(src, k: int) -> str:
    """Symbol k of a source, for sources too long to rebuild in full."""
    if src[0] == "preset" and src[1] == "thue-morse":
        return oracles.thue_morse_symbol(k)
    if src[0] == "preset" and src[1].endswith("-rotation"):
        src = ("cf",) + PRESET_CF[src[1]] + ("rotation",)
    if src[0] == "cf" and src[3] == "rotation":
        return oracles.beatty_symbol(oracles.alpha_of_cf(src[1], src[2]), k)
    raise ValueError("no per-symbol oracle for %r" % (src,))


# ---------------------------------------------------------------- CLI jobs

def cli_job(cli, job_id, argv, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def checked(result):
        rc, text = result
        if rc != 0:
            return ["exit code %r" % (rc,)]
        return check(text)

    return Job(job_id, run, checked, lambda result: _sha(result[1]))


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _csv(text: str, header: str) -> list[list[int]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("header %r" % (lines[:1],))
    return [[int(x) for x in line.split(",")] for line in lines[1:]]


def check_rates(src, depth, sample_rows):
    def check(text):
        problems = []
        rows = _csv(text, "n,tau,ratio_num,ratio_den,window,stabilized")
        if [r[0] for r in rows] != list(range(1, depth + 1)):
            return ["rows are not n = 1..%d" % depth]
        for n, tau, num, den, window, stab in rows:
            if Fraction(tau, n) != Fraction(num, den) or Fraction(num, den).denominator != den:
                problems.append("n=%d: %d/%d does not reduce tau/n = %d/%d" % (n, num, den, tau, n))
        stable = [r for r in rows if r[5] == 1]
        for a, b in zip(stable, stable[1:]):
            if b[0] == a[0] + 1 and b[1] < a[1]:
                problems.append("tau decreases from n=%d to n=%d" % (a[0], b[0]))
        longest = max(r[4] for r in rows)
        text_all = source_text(src, longest)
        for idx in sample_rows:
            n, tau, _, _, window, _ = rows[idx]
            window_text = text_all[:window]
            naive = oracles.min_gap(window_text[:n], window_text)
            if naive != tau:
                problems.append("n=%d: tau %d, naive scan of %d symbols gives %r" % (n, tau, window, naive))
        return problems

    return check


def check_returns(src, depth, window):
    def check(text):
        lines = text.splitlines()
        if not lines or lines[0] != "n,tau,return_words":
            return ["header %r" % (lines[:1],)]
        body = source_text(src, window)
        problems = []
        if len(lines) - 1 != depth:
            problems.append("%d rows for depth %d" % (len(lines) - 1, depth))
        for line in lines[1:]:
            n, tau, words = line.split(",")
            n, tau, words = int(n), int(tau), words.split()
            u = body[:n]
            for w in words:
                if not oracles.is_return_word(w, u) or (w + u) not in body:
                    problems.append("n=%d: %r is not a return word to %r" % (n, w, u))
            if not words or tau != min(map(len, words)):
                problems.append("n=%d: tau %d vs words %r" % (n, tau, words))
        return problems

    return check


def check_power(src, window):
    def check(text):
        kv = _kv(text)
        body = source_text(src, window)
        exponent = Fraction(kv["max_exponent"])
        base, pos, factor = kv["base"], int(kv["position"]), kv["factor"]
        problems = []
        if factor != oracles.fractional_power(base, exponent):
            problems.append("factor is not base^exponent")
        if body[pos : pos + len(factor)] != factor:
            problems.append("witness does not occur at position %d" % pos)
        if src == ("preset", "thue-morse") and exponent != 2:
            problems.append("Thue-Morse max power %s, not 2" % exponent)
        return problems

    return check


def check_lr(src, window):
    def check(text):
        kv = _kv(text)
        body = source_text(src, window)
        problems = []
        for key, wit, pick in (("k_estimate", "k_witness", max), ("k_lower_gap", "gap_witness", min)):
            u = kv[wit]
            occ = oracles.positions(u, body)
            gaps = [q - p for p, q in zip(occ, occ[1:])]
            if not gaps or Fraction(pick(gaps), len(u)) != Fraction(kv[key]):
                problems.append("%s %s does not match the gaps of %r" % (key, kv[key], u))
        return problems

    return check


def check_generate(src, length, rng):
    def check(text):
        word = text.rstrip("\n")
        if len(word) != length:
            return ["%d symbols for length %d" % (len(word), length)]
        if src in (("preset", "fibonacci"), ("preset", "sqrt2")) or src[0] == "cf" and src[3] == "standard":
            return [] if word == source_text(src, length) else ["word differs from the standard-word recursion"]
        ks = list(range(min(1024, length)))
        ks += sorted(rng.sample(range(len(ks), length), min(3072, length - len(ks))))
        bad = [k for k in ks if word[k] != symbol_at(src, k)]
        return ["symbol %d differs from the exact coding" % bad[0]] if bad else []

    return check


def check_xcheck(depth):
    def check(text):
        rows = text.splitlines()
        if not rows or rows[0] != "n,tau_symbolic,tau_geometric,atom_len_num_approx,match":
            return ["header %r" % (rows[:1],)]
        problems = []
        if len(rows) - 1 != depth:
            problems.append("%d rows for depth %d" % (len(rows) - 1, depth))
        for row in rows[1:]:
            cells = row.split(",")
            if cells[4] != "1" or cells[1] != cells[2]:
                problems.append("n=%s: match=%s (%s vs %s)" % (cells[0], cells[4], cells[1], cells[2]))
        return problems

    return check


# ---------------------------------------------------------------- workloads

def _random_source(rng, names):
    name = rng.choice(names)
    if name == "cf":
        return ("cf",) + draw_cf(rng, (0, 2), (1, 3), (1, 5)) + ("standard",)
    return ("preset", name)


def draw_kappa(rng, min_length):
    steps = []
    while oracles.kappa_lengths(steps) < min_length:
        steps.append((rng.choice("rg"), rng.randint(1, 3)))
    return tuple(steps)


# (preset, jobs, depth range) for the rates jobs over presets
RATES_PRESETS = (
    ("fibonacci", 2, (150, 600)),
    ("sqrt2", 2, (150, 600)),
    ("unbounded", 2, (100, 400)),
    ("thue-morse", 2, (150, 600)),
    ("golden-kappa", 2, (100, 300)),
    ("sqrt2-kappa", 2, (100, 300)),
    ("periodic01", 6, (40, 100)),
)


def symbolic_jobs(cli, rng, tiny):
    s = 0.1 if tiny else 1.0
    jobs = []

    def rates(src, depth):
        sample = [depth - 1, rng.randrange(depth)]
        argv = ["rates"] + source_argv(src) + ["-N", str(depth)]
        jobs.append(cli_job(cli, "rates %s N=%d" % (source_label(src), depth), argv,
                            check_rates(src, depth, sample)))

    for name, k, (lo, hi) in RATES_PRESETS:
        for depth in strata(rng, 1 if tiny else k, lo * s, hi * s):
            rates(("preset", name), max(depth, 2))
    for depth in strata(rng, 2 if tiny else 6, 100 * s, 400 * s):
        rates(_random_source(rng, ["cf"]), max(depth, 2))
    for depth in strata(rng, 1 if tiny else 4, 50 * s, 300 * s):
        rates(("kappa", draw_kappa(rng, 2**17 * s)), max(depth, 2))

    returns_from = ["fibonacci", "sqrt2", "thue-morse", "periodic01", "golden-kappa", "sqrt2-kappa", "cf"]
    for depth in strata(rng, 1 if tiny else 3, 6, 16):
        src = _random_source(rng, returns_from)
        window = 1024 * rng.randint(2 if tiny else 16, 4 if tiny else 64)
        argv = ["returns"] + source_argv(src) + ["-N", str(depth), "--window", str(window)]
        jobs.append(cli_job(cli, "returns %s N=%d w=%d" % (source_label(src), depth, window),
                            argv, check_returns(src, depth, window)))

    power_from = ["thue-morse", "fibonacci", "sqrt2", "periodic01", "cf"]
    for window in strata(rng, 1 if tiny else 2, 1024 * s, 4096 * s):
        src = _random_source(rng, power_from)
        window = max(window, 64)
        argv = ["power"] + source_argv(src) + ["--window", str(window)]
        jobs.append(cli_job(cli, "power %s w=%d" % (source_label(src), window), argv,
                            check_power(src, window)))

    lr_from = ["fibonacci", "sqrt2", "thue-morse", "golden-kappa", "sqrt2-kappa", "cf"]
    for max_len, name in zip(strata(rng, 2, 10, 30), rng.sample(lr_from, 2)):
        src = _random_source(rng, [name])
        window = 1000 * rng.randint(5 if tiny else 20, 10 if tiny else 50)
        argv = ["lr"] + source_argv(src) + ["--max-len", str(max_len), "--window", str(window)]
        jobs.append(cli_job(cli, "lr %s L=%d w=%d" % (source_label(src), max_len, window),
                            argv, check_lr(src, window)))

    families = [
        [("preset", "golden-rotation"), ("preset", "sqrt2-rotation"), "cf-rotation"],
        [("preset", "fibonacci"), ("preset", "sqrt2"), "cf-standard"],
        [("preset", "thue-morse")],
    ]
    for family, log_len in zip(families, strata(rng, 3, 18 * 1000, 20 * 1000)):
        src = rng.choice(family)
        if isinstance(src, str):
            method = src.split("-")[1]
            src = ("cf",) + draw_cf(rng, (0, 2), (1, 3), (1, 5)) + (method,)
        length = int(2 ** (log_len / 1000) * (0.01 if tiny else 1))
        argv = ["generate"] + source_argv(src) + ["--length", str(length)]
        jobs.append(cli_job(cli, "generate %s len=%d" % (source_label(src), length), argv,
                            check_generate(src, length, random.Random(rng.random()))))
    return jobs


def xcheck_jobs(cli, rng, tiny):
    jobs = []
    for depth in strata(rng, 2 if tiny else 8, 25 if tiny else 250, 40 if tiny else 320):
        pre, per = draw_cf(rng, (0, 2), (1, 3), (1, 4))
        argv = ["xcheck", "--cf", oracles.cf_text(pre, per), "-N", str(depth)]
        jobs.append(cli_job(cli, "xcheck %s N=%d" % (argv[2], depth), argv, check_xcheck(depth)))
    return jobs


def geometry_jobs(rng, tiny):
    # Library names are looked up through their modules at call time, so a
    # traced run sees every call.
    from subrec import generators, presets, rotation
    from subrec.contfrac import CFExpansion
    from subrec.quadratic import ONE, ZERO

    def total(values):
        acc = ZERO
        for v in values:
            acc = acc + v
        return acc

    def atoms_job(cf, n, L, prefix_len, probe):
        def run():
            spec = rotation.RotationSpec.from_cf(cf)
            lengths = rotation.atom_lengths(spec, n)
            taus = [rotation.tau_length(spec, x) for x in lengths]
            text = generators.RotationCodingSource(spec.alpha, 0).prefix(prefix_len)
            factors = sorted({text[i : i + L] for i in range(len(text) - L + 1)})
            measures = [rotation.cylinder_measure(spec, f) for f in factors]
            return spec, lengths, taus, factors, measures

        def check(result):
            spec, lengths, taus, factors, measures = result
            problems = []
            if len(lengths) != n + 1 or total(lengths) != ONE:
                problems.append("atoms do not tile the circle")
            if len(set(lengths)) > 3:
                problems.append("%d distinct atom lengths (three-distance theorem)" % len(set(lengths)))
            if len(factors) != L + 1:
                problems.append("%d factors of length %d, not %d" % (len(factors), L, L + 1))
            if total(measures) != ONE:
                problems.append("length-%d cylinder measures do not sum to 1" % L)
            i = probe % len(lengths)
            if rotation.tau_length_linear(spec, lengths[i]) != taus[i]:
                problems.append("atom %d: ladder tau %d differs from the linear scan" % (i, taus[i]))
            return problems

        def digest(result):
            spec, lengths, taus, factors, measures = result
            return _sha(json.dumps([taus, len(set(lengths)), factors,
                                    ["%.12g" % float(m) for m in measures]]))

        return Job("atoms %s n=%d L=%d" % (cf, n, L), run, check, digest)

    def mu_job(name, depth):
        cf = presets.PRESET_CF[name]
        steps = (presets.golden_kappa_steps if name == "fibonacci" else presets.sqrt2_kappa_steps)(depth)

        def run():
            return rotation.mu_tower_values(rotation.RotationSpec.from_cf(cf), steps)

        def check(result):
            return [] if result[0] + result[1] == ONE else ["tower values do not sum to 1 (Kac)"]

        return Job("mu %s depth=%d" % (name, depth), run, check,
                   lambda r: _sha("%.12g %.12g" % (float(r[0]), float(r[1]))))

    count = 8 if tiny else 24
    jobs = []
    n_values = strata(rng, count, 10 if tiny else 40, 30 if tiny else 100)
    l_values = strata(rng, count, 4 if tiny else 12, 8 if tiny else 20)[::-1]
    periods = radicand_strata(rng, count, 1e3 if tiny else RADICAND_MAX)
    for n, L, per in zip(n_values, l_values, periods):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 1)))
        cf = CFExpansion(pre, per)
        jobs.append(atoms_job(cf, n, L, 400 if tiny else 4000, rng.randrange(1 << 30)))
    for name in ("fibonacci", "sqrt2"):
        for depth in ([3, 4] if tiny else [rng.randint(3, 5), 6]):
            jobs.append(mu_job(name, depth))
    return jobs


# Radicands of periods with 1 to 4 digits 1..9 run from 2 to about 3e7; the
# geometry draws stop at 5e5, which keeps the slow radicands near 4e5 that
# the quadratic layer must learn to handle, at under a second per job.
RADICAND_MAX = 500_000
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@functools.lru_cache(maxsize=None)
def _periods_by_radicand():
    """(rough radicand, period) for every period of 1 to 4 digits 1..9,
    sorted; rough means only squares of primes below 50 are divided out."""
    rows = []
    for length in range(1, 5):
        for per in itertools.product(range(1, 10), repeat=length):
            d = oracles.discriminant(per)
            for p in _SMALL_PRIMES:
                while d % (p * p) == 0:
                    d //= p * p
            rows.append((d, per))
    rows.sort()
    return rows


def radicand_strata(rng, k, top):
    """k periods whose field radicands fall one in each of k log-uniform
    slices of [2, top]."""
    rows = _periods_by_radicand()
    keys = [d for d, _ in rows]
    out = []
    for i in range(k):
        lo = 2 * (top / 2) ** (i / k)
        hi = 2 * (top / 2) ** ((i + 1) / k)
        pool = rows[bisect.bisect_left(keys, lo) : bisect.bisect_left(keys, hi)]
        out.append(next(per for _, per in rng.sample(pool, len(pool))
                        if lo <= oracles.squarefree_part(oracles.discriminant(per)) < hi))
    return out


def setup(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Import subrec and draw the workload's job list from the seed."""
    from subrec import cli

    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "symbolic":
        jobs = symbolic_jobs(cli, rng, tiny)
    elif workload == "xcheck":
        jobs = xcheck_jobs(cli, rng, tiny)
    elif workload == "geometry":
        jobs = geometry_jobs(rng, tiny)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(jobs)
    return jobs
