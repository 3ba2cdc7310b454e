"""Command-line front end.

Subcommands: generate, rates, returns, power, lr, xcheck, verify. CSV goes
to stdout (or --out); progress and summaries go to stderr so pipelines stay
clean. Exit codes: 0 success, 1 usage or input error, 2 degraded results
(some window never stabilized), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import random
import sys
from fractions import Fraction
from itertools import chain

from . import presets
from .contfrac import parse_cf
from .generators import (
    KappaSource,
    SequenceTooShort,
    StandardWordSource,
    gamma,
    kappa_image_lengths,
    parse_kappa,
    rho,
)
from .recurrence import (
    DEFAULT_POLICY,
    WindowCapExceeded,
    WindowPolicy,
    lr_constant_estimate,
    power_report,
    rate_series,
    return_table,
)
from .rotation import RotationSpec, cross_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGRADED = 2
EXIT_VERIFY = 3


class CLIParser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def frac(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


# --------------------------------------------------------------- source args

def add_source_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("word source (pick one)")
    g.add_argument("--preset", help="named source: %s" % ", ".join(presets.preset_names()))
    g.add_argument("--cf", help='continued fraction, e.g. "[0; 1,2 (3,4)]"')
    g.add_argument(
        "--method",
        choices=("standard", "rotation"),
        help="generator used with --cf (default standard)",
    )
    g.add_argument("--kappa", help='composition steps, e.g. "r1,r1,g2"')


def build_source(args):
    picked = [x for x in (args.preset, args.cf, args.kappa) if x]
    if len(picked) != 1:
        raise ValueError("pick exactly one of --preset, --cf, --kappa")
    if args.method and not args.cf:
        raise ValueError("--method applies to --cf only")
    if args.preset:
        return presets.get_preset(args.preset)
    if args.cf:
        cf = parse_cf(args.cf)
        return RotationSpec(cf).coding if args.method == "rotation" else StandardWordSource(cf)
    return KappaSource(parse_kappa(args.kappa))


def window_policy(args) -> WindowPolicy:
    base = _fallback(args, "window_base", DEFAULT_POLICY.base)
    cap = _fallback(args, "window_cap", DEFAULT_POLICY.cap)
    if min(base, cap) < 1:
        raise ValueError("--window-base and --window-cap must be >= 1")
    if cap < base:
        raise ValueError("window cap %d below initial window %d" % (cap, base))
    return WindowPolicy(base=base, cap=cap)  # refuses a base or cap at or above 2**62


def add_window_args(p: argparse.ArgumentParser):
    p.add_argument("--window-base", type=int, help="initial window (default 10000)")
    p.add_argument("--window-cap", type=int, help="window growth cap (default 10^7)")


def write_out(chunks, out: str | None = None):
    """Write the text chunks to out, or stdout, each as it comes."""
    if out and out != "-":
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# --------------------------------------------------------------- subcommands

def _require(args, name: str):
    if getattr(args, name, None) is None:
        raise ValueError("--%s is required (flag or config file)" % name)


def _fallback(args, name: str, value):
    """Built-in default, applied after flags and config had their turn."""
    got = getattr(args, name, None)
    return value if got is None else got


def cmd_generate(args) -> int:
    _require(args, "length")
    source = build_source(args)
    word = source.prefix(args.length)
    if len(word) < args.length:
        raise SequenceTooShort(
            "%s yields only %d symbols (%d requested)"
            % (source.name, len(word), args.length)
        )
    write_out((word, "\n"), args.out)
    print("source=%s length=%d" % (source.name, len(word)), file=sys.stderr)
    return EXIT_OK


def cmd_rates(args) -> int:
    _require(args, "depth")
    source = build_source(args)
    series = rate_series(source, args.depth, window_policy(args))
    write_out(series.csv_chunks(), args.out)
    bad = int(len(series.n) - series.stabilized.sum())
    print(
        "source=%s depth=%d tail(n>=%d): min=%s max=%s unstabilized=%d"
        % (
            series.source,
            series.depth,
            series.tail_start,
            frac(series.tail_min()),
            frac(series.tail_max()),
            bad,
        ),
        file=sys.stderr,
    )
    return EXIT_DEGRADED if bad else EXIT_OK


def _window(args, default: int) -> int:
    window = _fallback(args, "window", default)
    if window < 1:
        raise ValueError("--window must be >= 1")
    return window


def cmd_returns(args) -> int:
    source = build_source(args)
    rows = return_table(source, _fallback(args, "depth", 8), _window(args, 65536))
    # one line per row: a row's return words have no width bound
    lines = ("%d,%d,%s\n" % (r.n, r.tau, " ".join(r.words)) for r in rows)
    write_out(chain(["n,tau,return_words\n"], lines), args.out)
    return EXIT_OK


def cmd_power(args) -> int:
    source = build_source(args)
    rep = power_report(source, _fallback(args, "window", 4096))
    fields = rep.analyzed_length, frac(rep.exponent), rep.base, rep.position, rep.factor
    write_out(["window=%d\nmax_exponent=%s\nbase=%s\nposition=%d\nfactor=%s\n" % fields])
    return EXIT_OK


def cmd_lr(args) -> int:
    source = build_source(args)
    rep = lr_constant_estimate(source, _fallback(args, "max_len", 20), _window(args, 100_000))
    fmt = "max_len=%d\nwindow=%d\nk_estimate=%s\nk_lower_gap=%s\nk_witness=%s\ngap_witness=%s\n"
    fields = frac(rep.k_estimate), frac(rep.k_lower_gap), rep.k_witness, rep.gap_witness
    write_out([fmt % (rep.max_len, rep.window, *fields)])
    return EXIT_OK


def cmd_xcheck(args) -> int:
    if args.cf and args.preset:
        raise ValueError("pick exactly one of --preset, --cf")
    if args.cf:
        cf = parse_cf(args.cf)
    elif args.preset:
        presets.get_preset(args.preset)  # refuses an unknown name as every command does
        cf = presets.PRESET_CF.get(args.preset)
        if cf is None or not cf.is_periodic:
            raise ValueError("no exact rotation model for %r" % (args.preset,))
    else:
        raise ValueError("xcheck needs --cf or a preset with an exact angle")
    report = cross_check(RotationSpec(cf), _fallback(args, "depth", 200), window_policy(args))
    write_out(report.csv_chunks(), args.out)
    if not report.ok:
        first = report.mismatches[0]
        print(
            "MISMATCH at n=%d: symbolic %d vs geometric %d"
            % (first.n, first.tau_symbolic, first.tau_geometric),
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(
        "alpha=%s depths=1..%d mismatches=0" % (report.alpha, report.depth),
        file=sys.stderr,
    )
    return EXIT_OK


# ------------------------------------------------------------- verify suites
# Each suite yields (check name, passed, detail) triples and keeps its
# defaults in its signature; `subrec verify` and tests/test_acceptance.py
# both run them, so every bound is written here only.

def _suite_bounded_cf(depth=500, policy=DEFAULT_POLICY):
    series = rate_series(presets.get_preset("fibonacci"), depth, policy)
    lo, hi = series.tail_min(), series.tail_max()
    stab = series.stabilized_fraction()
    yield "tail-min-below-1", lo < 1, "tail min %s" % frac(lo)
    yield "tail-max-above-1", hi > 1, "tail max %s" % frac(hi)
    yield "tail-max-above-7/5", hi > Fraction(7, 5), "tail max %s" % frac(hi)
    yield "stabilized-99pct", stab >= Fraction(99, 100), "stabilized %s" % frac(stab)


def _suite_unbounded_cf(depth=300, policy=DEFAULT_POLICY):
    series = rate_series(presets.get_preset("unbounded"), depth, policy)
    rm = series.running_min()
    mono = all(a >= b for a, b in zip(rm, rm[1:]))
    yield "running-min-nonincreasing", mono, "checked %d depths" % len(rm)
    # the liminf -> 0 trend is real but reaches 0.05 only at astronomical
    # depth for this angle; reported honestly rather than softened
    yield "running-min-below-0.05", rm[-1] < Fraction(1, 20), (
        "running min %s = %.4f at depth %d" % (frac(rm[-1]), float(rm[-1]), depth)
    )
    k_unb = lr_constant_estimate(presets.get_preset("unbounded"), 50, 100_000)
    k_gold = lr_constant_estimate(presets.get_preset("fibonacci"), 50, 100_000)
    yield "k-grows-beyond-golden", k_unb.k_estimate > k_gold.k_estimate, (
        "K=%s vs golden %s at max_len 50"
        % (frac(k_unb.k_estimate), frac(k_gold.k_estimate))
    )


def _suite_morse_delta(depth=500, window=4096, policy=DEFAULT_POLICY):
    tm = presets.get_preset("thue-morse")
    rep = power_report(tm, window)
    yield "max-power-exactly-2", rep.exponent == 2, (
        "max exponent %s, base %r at %d" % (frac(rep.exponent), rep.base, rep.position)
    )
    found = tm.prefix(window)[rep.position : rep.position + len(rep.factor)]
    yield "witness-occurs", found == rep.factor, "factor %r at %d" % (found, rep.position)
    lo = rate_series(tm, depth, policy).tail_min()
    yield "tail-min-at-least-1", lo >= 1, "tail min %s" % frac(lo)


def _suite_xcheck_rotation(depth=200, cf=presets.GOLDEN_CF, policy=DEFAULT_POLICY):
    report = cross_check(RotationSpec(cf), depth, policy)
    yield "zero-mismatches", report.ok, "alpha %s, depths 1..%d, %d mismatches" % (
        report.alpha, report.depth, len(report.mismatches)
    )


def _suite_kappa_ratio(seed=0):
    steps = [step(m) for step in (rho, gamma) for m in range(1, 6)]
    single = [Fraction(*kappa_image_lengths([s])[0]) for s in steps]
    yield "single-step-ratio-bound", all(1 < r <= Fraction(3, 2) for r in single), (
        "|k(0)|/|k(1)|: %s"
        % ", ".join("%s %s" % (s.label, frac(r)) for s, r in zip(steps, single))
    )

    # Composed ratios leave [1, 3/2] exactly when gamma_1 occurs after the
    # first step (the update r -> (2r+1)/(r+1) exceeds 3/2 for every r > 1),
    # so this check is expected to fail on random towers.  It stays here
    # unweakened; see README.
    rng = random.Random(seed)
    worst, bad, witness = Fraction(1), 0, None
    for _ in range(1000):
        steps = [
            (rho if rng.random() < 0.5 else gamma)(rng.randint(1, 5))
            for _ in range(rng.randint(1, 30))
        ]
        ratios = [Fraction(l0, l1) for l0, l1 in kappa_image_lengths(steps)]
        worst = max(worst, *ratios)
        if not all(1 <= r <= Fraction(3, 2) for r in ratios):
            bad += 1
            if witness is None or len(steps) < len(witness):
                witness = steps
    detail = "1000 random towers, seed %d, max ratio %s" % (seed, frac(worst))
    if bad:
        detail += ", %d violations, smallest witness %s" % (
            bad, ",".join(s.label for s in witness)
        )
    yield "ratios-in-1-to-3/2", bad == 0, detail


SUITES = {
    "bounded-cf": _suite_bounded_cf,
    "unbounded-cf": _suite_unbounded_cf,
    "morse-delta": _suite_morse_delta,
    "xcheck-rotation": _suite_xcheck_rotation,
    "kappa-ratio": _suite_kappa_ratio,
}


_VERIFY_FLAGS = {
    "depth": "-N/--depth",
    "window": "--window",
    "seed": "--seed",
    "cf": "--cf",
    "policy": "--window-base/--window-cap",
}


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # a suite gets only what flags or the config file set, and owns the rest
    windows_set = (args.window_base, args.window_cap) != (None, None)
    given = {
        "depth": args.depth,
        "window": args.window,
        "seed": args.seed,
        "cf": None if args.cf is None else parse_cf(args.cf),
        "policy": window_policy(args) if windows_set else None,
    }
    kwargs = {k: v for k, v in given.items() if v is not None}
    params = inspect.signature(suite).parameters
    unused = [k for k in kwargs if k not in params]
    if unused:
        raise ValueError(
            "suite %s does not take %s; it takes %s"
            % (
                args.suite,
                ", ".join("%s (%s)" % (k, _VERIFY_FLAGS[k]) for k in unused),
                ", ".join(_VERIFY_FLAGS[k] for k in params),
            )
        )
    checks = []
    for name, passed, detail in suite(**kwargs):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(
            "%s: %s (%s)" % (name, "PASS" if passed else "FAIL", detail),
            file=sys.stderr,
        )
    summary = {
        "suite": args.suite,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    write_out([json.dumps(summary, indent=2, sort_keys=True), "\n"])
    return EXIT_OK if summary["passed"] else EXIT_VERIFY


# ------------------------------------------------------------ config plumbing

def load_config(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored. The keys
    are the subcommands' options that take a value, by dest (the long flag
    name with - as _), each read with its option's type."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    keys = {
        a.dest: a.type or str
        for p in sub.choices.values()
        for a in p._actions
        if a.option_strings and a.nargs != 0 and a.dest != "config"
    }
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            values[key] = keys[key](val.strip())
    return values


@functools.cache  # argparse keeps no state between parses, so one parser serves every call
def build_parser() -> CLIParser:
    parser = CLIParser(
        prog="subrec",
        description="Recurrence times of cylinder sets in Sturmian and "
        "substitution subshifts.",
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a prefix of a word")
    add_source_args(p)
    p.add_argument("--length", type=int, help="symbols to emit (required)")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("rates", help="tau(z_n)/n series as CSV")
    add_source_args(p)
    p.add_argument("-N", "--depth", type=int, help="max cylinder depth (required)")
    add_window_args(p)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("returns", help="return words to each prefix")
    add_source_args(p)
    p.add_argument("-N", "--depth", type=int, help="prefix depths (default 8)")
    p.add_argument("--window", type=int, help="scan window (default 65536)")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_returns)

    p = sub.add_parser("power", help="largest fractional power in a window")
    add_source_args(p)
    p.add_argument("--window", type=int, help="scan window (default 4096)")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("lr", help="linear-recurrence constant estimate")
    add_source_args(p)
    p.add_argument("--max-len", type=int, help="factor lengths to scan (default 20)")
    p.add_argument("--window", type=int, help="scan window (default 100000)")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("xcheck", help="symbolic vs geometric recurrence times")
    p.add_argument("--cf", help='periodic continued fraction, e.g. "[0;(1)]"')
    p.add_argument("--preset", help="preset with an exact angle")
    p.add_argument("-N", "--depth", type=int, help="depths to compare (default 200)")
    add_window_args(p)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_xcheck)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("-N", "--depth", type=int)
    p.add_argument("--cf")
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    add_window_args(p)
    p.set_defaults(func=cmd_verify)

    for choice in sub.choices.values():
        # SUPPRESS keeps an unset subcommand --config out of the namespace,
        # so it cannot clobber a --config given before the subcommand
        choice.add_argument(
            "--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS
        )

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse reports itself
        return exc.code
    if getattr(args, "config", None):
        # config fills only what flags left unset, so flags override it
        try:
            for key, value in load_config(args.config).items():
                if getattr(args, key, None) is None:
                    setattr(args, key, value)
        except (OSError, ValueError) as exc:
            print("subrec: config: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except WindowCapExceeded as exc:
        print("subrec: degraded: %s" % exc, file=sys.stderr)
        return EXIT_DEGRADED
    except (OSError, ValueError) as exc:  # an unwritable -o, or any input error of the library
        print("subrec: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("subrec: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
