import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrec import RotationCodingSource, parse_cf, quadratic_of_cf, rate_series
from subrec.cli import SUITES, build_parser, main
from subrec.presets import PRESET_CF, preset_names
from guards import within

PY = [sys.executable, "-m", "subrec.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kw):
    # a fresh process finds the package from a checkout, as pytest does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        PY + list(args), capture_output=True, text=True, timeout=120, env=env, **kw
    )


def test_generate_periodic():
    r = run_cli("generate", "--preset", "periodic01", "--length", "20")
    assert r.returncode == 0
    assert r.stdout == "01" * 10 + "\n"
    assert "length=20" in r.stderr


def test_generate_kappa_and_cf_agree_with_presets():
    r = run_cli("generate", "--kappa", "r1,r1", "--length", "7")
    assert r.returncode == 0
    assert r.stdout.strip() == "0110101"

    a = run_cli("generate", "--cf", "[0; (1)]", "--length", "50")
    b = run_cli("generate", "--cf", "[0; (1)]", "--method", "rotation", "--length", "50")
    c = run_cli("generate", "--preset", "fibonacci", "--length", "50")
    assert a.stdout == b.stdout == c.stdout


def test_generate_usage_errors():
    assert run_cli("generate", "--length", "5").returncode == 1  # no source
    assert (
        run_cli("generate", "--preset", "periodic01").returncode == 1
    )  # no length
    assert (
        run_cli(
            "generate", "--preset", "periodic01", "--cf", "[0; (1)]",
            "--length", "5",
        ).returncode
        == 1
    )  # two sources
    assert run_cli("generate", "--kappa", "r1", "--length", "99").returncode == 1
    assert run_cli("generate", "--preset", "fibonacci", "--length", "-3").returncode == 1
    assert run_cli("nonsense").returncode == 1


@pytest.mark.parametrize(
    "preset",
    ["golden-rotation", "sqrt2-rotation", "fibonacci", "thue-morse", "periodic01", "golden-kappa"],
)
def test_generate_refuses_a_rotation_length_it_cannot_hold(preset, capsys):
    # in process: every source refuses before it builds a single symbol
    assert main(["generate", "--preset", preset, "--length", "99999999999999999999"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "subrec: error: words are limited to 2**62 symbols, "
        "99999999999999999999 requested\n"
    )


def test_rates_csv_shape():
    r = run_cli("rates", "--preset", "periodic01", "-N", "20")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,tau,ratio_num,ratio_den,window,stabilized"
    assert len(lines) == 21
    assert lines[1].startswith("1,2,2,1,")
    assert "min=1/10" in r.stderr


def test_rates_deterministic():
    a = run_cli("rates", "--preset", "fibonacci", "-N", "40")
    b = run_cli("rates", "--preset", "fibonacci", "-N", "40")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_finite_cf_word_ends_where_its_digits_do():
    # [0; 1,2,3] pins down exactly 01101101101
    r = run_cli("generate", "--cf", "[0;1,2,3]", "--length", "100")
    assert r.returncode == 1
    assert "yields only 11 symbols" in r.stderr
    r = run_cli("generate", "--cf", "[0;1,2,3]", "--length", "11")
    assert (r.returncode, r.stdout) == (0, "01101101101\n")
    # its length is known before any symbol is read, so a request past the
    # 2**62 limit is clipped to it as a finite --kappa tower's is
    r = run_cli("generate", "--cf", "[0;1,2,3]", "--length", "99999999999999999999")
    assert r.returncode == 1 and r.stdout == ""
    assert "yields only 11 symbols (99999999999999999999 requested)" in r.stderr
    # rates scans the finite word to its end, as it does for --kappa
    r = run_cli("rates", "--cf", "[0; 1,2,3]", "-N", "4")
    assert r.returncode == 0
    assert r.stdout.splitlines()[1:] == [
        "1,3,3,1,11,1", "2,3,3,2,11,1", "3,3,1,1,11,1", "4,3,3,4,11,1",
    ]


def test_returns_table():
    r = run_cli("returns", "--preset", "fibonacci", "--depth", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,tau,return_words"
    assert lines[3] == "3,5,01011 01011011"


def test_power_periodic():
    r = run_cli("power", "--preset", "periodic01", "--window", "64")
    assert r.returncode == 0
    assert "max_exponent=32/1" in r.stdout
    assert "base=01" in r.stdout


def test_lr_periodic():
    r = run_cli("lr", "--preset", "periodic01", "--max-len", "4", "--window", "64")
    assert r.returncode == 0
    assert "k_estimate=2/1" in r.stdout
    assert "k_lower_gap=1/2" in r.stdout
    assert "gap_witness=0101" in r.stdout


def test_xcheck_fibonacci():
    r = run_cli("xcheck", "--preset", "fibonacci", "--depth", "40")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,tau_symbolic,tau_geometric,atom_len_num_approx,match"
    assert len(lines) == 41
    assert all(line.endswith(",1") for line in lines[1:])


def test_xcheck_refuses_two_sources(capsys):
    # --preset used to be dropped in silence when --cf was given too
    assert main(["xcheck", "--preset", "fibonacci", "--cf", "[0;(2)]", "-N", "5"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "subrec: error: pick exactly one of --preset, --cf\n")


def test_xcheck_refuses_an_unknown_preset_as_every_command_does(capsys):
    assert main(["xcheck", "--preset", "nope"]) == 1
    xcheck = capsys.readouterr()
    assert main(["rates", "--preset", "nope", "-N", "5"]) == 1
    assert xcheck == capsys.readouterr()
    assert xcheck.out == ""
    assert xcheck.err == "subrec: error: unknown preset 'nope' (have: %s)\n" % ", ".join(preset_names())


@pytest.mark.parametrize("preset", preset_names())
def test_xcheck_of_a_preset_checks_its_periodic_expansion(preset, capsys):
    code = main(["xcheck", "--preset", preset, "-N", "40"])
    got = (code, *capsys.readouterr())
    cf = PRESET_CF.get(preset)
    if cf is None or not cf.is_periodic:
        assert got == (1, "", "subrec: error: no exact rotation model for %r\n" % preset)
    else:
        assert got == (main(["xcheck", "--cf", str(cf), "-N", "40"]), *capsys.readouterr())
        assert got[0] == 0


@pytest.mark.parametrize("cf", ["[0;(1)]", "[0;(2)]", "[0;(1,2,3)]", "[0;3,(1,4)]"])
def test_rates_by_rotation_reads_the_coding_of_0(cf, capsys):
    code = main(["rates", "--cf", cf, "--method", "rotation", "-N", "60"])
    out, err = capsys.readouterr()
    coding = RotationCodingSource(quadratic_of_cf(parse_cf(cf)), 0)
    assert (code, out) == (0, rate_series(coding, 60).to_csv())
    assert err.startswith("source=rotation %s depth=60 " % parse_cf(cf))


def test_in_process_calls_read_like_fresh_processes(capsys):
    # main keeps one parser for the process; no option may reach the next call
    def in_process(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    calls = [
        ["rates", "--preset", "fibonacci", "-N", "x"],
        ["rates", "--preset", "fibonacci", "-N", "12", "--window-base", "500"],
        ["rates", "--preset", "fibonacci", "-N", "12"],
    ]
    for argv in calls:
        fresh = run_cli(*argv)
        assert in_process(argv) == (fresh.returncode, fresh.stdout)
    assert build_parser() is build_parser()


# Fixed hostile argv, each run in process: (argv, exit code, stdout head).
# `power --window 1000000` (up to 3 s and 155 MB, on thue-morse) and
# `xcheck -N 1000000` (1.6-2.4 s, 330 MB) stay out, as they need more than
# the 16 MiB allowed here; the contract test below draws both.
HOSTILE_ARGV = {
    "unparsable-depth": (["rates", "--preset", "fibonacci", "-N", "x"], 1, ""),
    "help": (["--help"], 0, "usage: subrec"),
    "huge-first-quotient": (
        ["generate", "--cf", "[0; 1000000000000]", "--length", "10"], 0, "0" * 10 + "\n"
    ),
    "finite-cf-xcheck": (["xcheck", "--cf", "[0; 1,2]"], 1, ""),
    "flag-a-suite-does-not-take": (["verify", "kappa-ratio", "-N", "5"], 1, ""),
    "length-beyond-2-62": (
        ["generate", "--preset", "golden-rotation", "--length", "99999999999999999999"], 1, ""
    ),
    "window-cap-beyond-int64": (
        ["rates", "--preset", "fibonacci", "-N", "5", "--window-cap", "99999999999999999999"], 1, ""
    ),
    "windows-beyond-int64": (
        ["xcheck", "--cf", "[0;(1)]", "-N", "5", "--window-base", "9" * 20, "--window-cap", "9" * 20],
        1, "",
    ),
    # a window above 2**62 would double past int64
    "windows-doubling-past-int64": (
        ["rates", "--preset", "fibonacci", "-N", "5",
         "--window-base", str(2**62 + 1), "--window-cap", str(2**63 - 1)],
        1, "",
    ),
    # depth 987 is the first not to recur in 2000 symbols; no depth at or
    # past the cap needs its symbols read
    "depth-far-past-the-window-cap": (
        ["rates", "--preset", "fibonacci", "-N", "30000000", "--window-base", "1000", "--window-cap", "2000"],
        2, "",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ARGV))
def test_hostile_argv_is_answered_by_an_exit_code(case, capsys):
    argv, expected, head = HOSTILE_ARGV[case]
    tracemalloc.start()
    try:
        with within(10), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)  # an exception escaping main fails the test
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3) and code == expected
    assert peak < 16 << 20
    assert [str(w.message) for w in caught] == [] and "Warning" not in err
    if code == 0:
        assert out.startswith(head)
    else:
        assert out == "" and err


def test_a_long_tower_step_is_folded_without_a_list_per_symbol(capsys):
    # the image of 0 under r10000000 has 10**7 + 2 symbols, each taken once
    tracemalloc.start()
    try:
        with within(1):
            code = main(["generate", "--kappa", "r10000000", "--length", "10"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == "0" + "1" * 9 + "\n"
    assert peak < 64 << 20


def test_xcheck_long_period_radicand(capsys):
    # the angle's 41-digit radicand used to be refused, exit 1, after
    # seconds of factoring
    cf = "[0;(%s)]" % ",".join(map(str, range(1, 22)))
    with within(5):
        code = main(["xcheck", "--cf", cf, "-N", "40"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "mismatches=0" in err
    lines = out.strip().splitlines()
    assert len(lines) == 41 and all(line.endswith(",1") for line in lines[1:])


def test_verify_morse_delta_passes():
    r = run_cli("verify", "morse-delta")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["suite"] == "morse-delta"
    assert payload["passed"] is True


def test_verify_kappa_ratio_fails_honestly():
    r = run_cli("verify", "kappa-ratio")
    assert r.returncode == 3
    payload = json.loads(r.stdout)
    names = {c["name"]: c["passed"] for c in payload["checks"]}
    assert names["single-step-ratio-bound"] is True
    assert names["ratios-in-1-to-3/2"] is False
    assert "violations" in json.dumps(payload)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_reports_what_the_registry_yields(suite):
    params = {"depth": 40} if "depth" in inspect.signature(SUITES[suite]).parameters else {}
    want = [
        {"name": name, "passed": bool(passed), "detail": detail}
        for name, passed, detail in SUITES[suite](**params)
    ]
    r = run_cli("verify", suite, *(["-N", "40"] if params else []))
    assert r.returncode == (0 if all(c["passed"] for c in want) else 3)
    payload = json.loads(r.stdout)
    assert payload["checks"] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bounded-cf", "-N", "0"],
        ["verify", "xcheck-rotation", "-N", "0"],
        ["verify", "morse-delta", "--window", "0"],
        ["verify", "bounded-cf", "-N", "5", "--window-cap", "0"],
        ["rates", "--preset", "periodic01", "-N", "5", "--window-base", "0"],
        ["rates", "--preset", "periodic01", "-N", "5", "--window-cap", "-1"],
        ["returns", "--preset", "periodic01", "-N", "0"],
        ["returns", "--preset", "periodic01", "-N", "-3"],
    ],
)
def test_zero_is_refused_not_replaced_by_the_default(argv):
    r = run_cli(*argv)
    assert r.returncode == 1
    assert "must be >=" in r.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "kappa-ratio", "-N", "5"], "depth (-N/--depth)"),
        (["verify", "bounded-cf", "--seed", "3"], "seed (--seed)"),
        (["verify", "kappa-ratio", "--window-base", "5"], "policy (--window-base/--window-cap)"),
        (["verify", "xcheck-rotation", "--window", "64"], "window (--window)"),
        (["verify", "morse-delta", "--cf", "[0;(2)]"], "cf (--cf)"),
    ],
)
def test_verify_refuses_a_value_its_suite_does_not_take(argv, named):
    r = run_cli(*argv)
    assert r.returncode == 1
    assert "does not take %s" % named in r.stderr
    assert r.stdout == ""


def test_verify_refuses_a_config_value_its_suite_does_not_take(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    r = run_cli("verify", "bounded-cf", "--config", str(cfg))
    assert r.returncode == 1
    assert "does not take seed (--seed)" in r.stderr
    cfg.write_text("depth=40\n")
    r = run_cli("verify", "bounded-cf", "--config", str(cfg))
    assert r.returncode == 0


def test_config_cannot_pick_the_suite(tmp_path):
    # the suite is a positional argument, so a config value could never set it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=bounded-cf\n")
    r = run_cli("--config", str(cfg), "verify", "kappa-ratio")
    assert r.returncode == 1
    assert r.stderr == "subrec: config: %s:1: unknown key 'suite'\n" % cfg
    assert r.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--preset", "fibonacci", "--window", "0"], "--window must be >= 1"),
        # a window shorter than the depth ends at the first lone prefix
        (["--preset", "periodic01", "--window", "2"], "need at least 2 occurrences of '0', found 1"),
        (["--preset", "fibonacci", "--window", "5", "-N", "3"], "need at least 2 occurrences of '010', found 1"),
        # a prefix of up to 32 symbols is quoted whole, a longer one by its head
        (["--preset", "periodic01", "--window", "33", "-N", "40"],
         "need at least 2 occurrences of %r, found 1" % ("01" * 16)),
        (["--preset", "periodic01", "--window", "34", "-N", "40"],
         "need at least 2 occurrences of %r... (length 33), found 1" % ("01" * 16)),
        # a depth past the window is read as the window: not wrapped to
        # 32 bits (which made 2**32 + 5 a depth of 5), nor an overflow
        (["--preset", "periodic01", "--window", "34", "-N", str(2**32 + 5)],
         "need at least 2 occurrences of %r... (length 33), found 1" % ("01" * 16)),
        (["--preset", "periodic01", "--window", "34", "-N", str(2**64 + 5)],
         "need at least 2 occurrences of %r... (length 33), found 1" % ("01" * 16)),
    ],
)
def test_returns_errors(argv, message):
    r = run_cli("returns", *argv)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "subrec: error: %s\n" % message


def test_returns_refuses_a_prefix_longer_than_its_recurrence_up_front(capsys):
    # the first depth with one start, 8191, is refused before any row is
    # built: 8190 rows, each keeping its own prefix, take 3 s and 34 MiB;
    # the message quotes the prefix's head and its length
    tracemalloc.start()
    try:
        with within(1):
            code = main(["returns", "--preset", "periodic01", "-N", "100000", "--window", "8192"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "subrec: error: need at least 2 occurrences of %r... (length 8191), found 1\n" % (
        "01" * 16
    )


def test_returns_refuses_a_periodic_prefix_at_the_default_window_at_once(capsys):
    # every start of the period matches to the end of the 65536-symbol
    # window: prefix_match reads that from one query, not one per start
    # (2.3 s when each start was compared to its end)
    with within(1):
        code = main(["returns", "--preset", "periodic01", "-N", "100000"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "subrec: error: need at least 2 occurrences of %r... (length 65535), found 1\n" % (
        "01" * 16
    )


@pytest.mark.parametrize("preset", ["fibonacci", "thue-morse"])
def test_power_at_a_window_of_65536_samples_its_periods(preset, capsys):
    # one pass per period took 5.5 s here; the sampled periods take 0.1 s
    with within(1):
        code = main(["power", "--preset", preset, "--window", "65536"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("window=65536\n")
    if preset == "thue-morse":
        assert "max_exponent=2/1\n" in out


def test_returns_keeps_its_words_while_depths_only_trim_the_last_start(capsys):
    # every second depth drops only the start that no longer fits, which
    # keeps the words: reading those of 500,000 pairs at each takes 6 s
    with within(3):
        code = main(["returns", "--preset", "periodic01", "-N", "500", "--window", "1000000"])
    assert code == 0
    want = "".join("%d,2,01\n" % n for n in range(1, 501))
    assert capsys.readouterr().out == "n,tau,return_words\n" + want


@pytest.mark.parametrize("command", ["returns", "lr"])
@pytest.mark.parametrize("window", ["0", "-1"])
def test_a_window_below_1_is_refused_by_its_flag(command, window, capsys):
    # 0 used to read as an empty text ("empty pattern" or "cannot host"),
    # and -1 as a negative prefix length ("length must be >= 0")
    assert main([command, "--preset", "fibonacci", "--window", window]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "subrec: error: --window must be >= 1\n")


def test_a_config_window_below_1_is_refused_by_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=fibonacci\nwindow=0\n")
    assert main(["lr", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "subrec: error: --window must be >= 1\n"


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\npreset=periodic01\nlength=10\n")
    r = run_cli("generate", "--config", str(cfg))
    assert r.returncode == 0
    assert r.stdout.strip() == "0101010101"
    r2 = run_cli("generate", "--config", str(cfg), "--length", "4")
    assert r2.stdout.strip() == "0101"
    r3 = run_cli("generate", "--config", str(tmp_path / "missing.cfg"))
    assert r3.returncode == 1
    # --config placed before the subcommand must survive the subparser parse
    r4 = run_cli("--config", str(cfg), "generate")
    assert r4.returncode == 0
    assert r4.stdout.strip() == "0101010101"


def test_output_file(tmp_path):
    out = tmp_path / "rates.csv"
    r = run_cli("rates", "--preset", "periodic01", "-N", "5", "-o", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("n,tau,")


# ------------------------------------------------------------ CLI contract
# argv lists are drawn from build_parser()'s own subcommands and options,
# and its top-level ones (--config) before the subcommand, so an option
# added to the parser is drawn too. Integers come from INTS, capped
# per (command, option dest) by CAPS so that each draw fits its time limit;
# an option with no grammar of its own gets a short string. rates
# --window-base and returns --window run to 10**6 uncapped: on periodic01
# at -N 500, the slowest preset, they take 1.0 s and 0.5 s.

INTS = [0, 1, 2, -1, 3, 5, 17, 100, 1000, 10**6]
CAPS = {  # a drawn integer above its cap is drawn as the cap
    ("power", "window"): 10**6,  # thue-morse, the slowest preset: 1.6-3.0 s and 155 MB at 10**6
    # morse-delta runs the same scan on thue-morse, then its rate series:
    # 1.8-1.9 s and 146 MB at 10**6 with -N 500 --window-base 10**6
    ("verify", "window"): 10**6,
    ("xcheck", "depth"): 10**6,  # linear in N: 1.6-2.4 s and 330 MB at 10**6
    ("rates", "depth"): 500,
    ("verify", "depth"): 500,
    # each row keeps its own prefix, so memory grows with the square of the
    # depth: periodic01 at --window 10**6 takes 0.4 s and 244 MB at 20000
    ("returns", "depth"): 500,
    ("lr", "max_len"): 100,  # fibonacci at the default window: 2.4 s at 1000
    ("lr", "window"): 100_000,  # fibonacci at --max-len 100: 2.8 s at 10**6
}
STRINGS = {
    "preset": preset_names() + ["no-such-preset"],
    "cf": ["[0;(1)]", "[0;(2)]", "[0;(1,2,3)]", "[0;3,(1,4)]", "[0; 2,3]", "[0;(1,1,1,1)]",
           "[1;(2)]", "(1)"],
    "kappa": ["r1", "r1,g2", "g1,g1,r3", "r1000000", "x", "r"],
    "config": [os.devnull, "no-such-dir/config"],
    "out": ["-"],  # no draw writes a file
}
HEADS = {
    "generate": None,  # a binary word and a newline, checked below
    "rates": "n,tau,ratio_num,ratio_den,window,stabilized\n",
    "returns": "n,tau,return_words\n",
    "xcheck": "n,tau_symbolic,tau_geometric,atom_len_num_approx,match\n",
    "power": ["window", "max_exponent", "base", "position", "factor"],
    "lr": ["max_len", "window", "k_estimate", "k_lower_gap", "k_witness", "gap_witness"],
    "verify": {"suite", "passed", "checks"},
}


def _values(command, action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        cap = CAPS.get((command, action.dest), INTS[-1])
        return st.sampled_from([min(v, cap) for v in INTS] + ["x"])
    return st.sampled_from(STRINGS.get(action.dest, ["", "x", "0"]))


@st.composite
def argv_lists(draw):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(sub.choices)))
    argv = []
    for action in parser._actions:  # --config, given before the subcommand
        if action.option_strings and action.nargs != 0 and draw(st.sampled_from([False] * 3 + [True])):
            argv += [draw(st.sampled_from(action.option_strings)), str(draw(_values(None, action)))]
    argv.append(command)
    actions = sub.choices[command]._actions
    optionals = [a for a in actions if a.option_strings and a.nargs != 0]
    picked = draw(st.sets(st.sampled_from(optionals), max_size=4))
    for action in actions:
        if not action.option_strings:  # a positional, e.g. the verify suite
            if draw(st.sampled_from([True] * 9 + [False])):
                argv.append(draw(_values(command, action)))
        elif action in picked:
            argv += [draw(st.sampled_from(action.option_strings)), str(draw(_values(command, action)))]
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--help")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv_lists())
def test_every_drawn_argv_is_answered_by_a_documented_exit_code(argv):
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        with within(5):
            code = main(argv)  # an exception escaping main fails the test
    out = buf_out.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code != 0:
        return
    if "--help" in argv:
        assert out.startswith("usage: subrec")
        return
    head = HEADS[next(a for a in argv if a in HEADS)]
    if head is None:
        assert out.endswith("\n") and set(out[:-1]) <= set("01")
    elif isinstance(head, str):
        assert out.startswith(head)
    elif isinstance(head, list):
        assert [line.partition("=")[0] for line in out.splitlines()] == head
    else:
        assert set(json.loads(out)) == head
