"""The CLI's output on a fixed corpus of cheap argv, byte for byte.

Every command runs in process through main: each preset, --cf with and
without --method rotation, a --kappa tower, the exit-1 and exit-2 paths,
and tables one row past a TABLE_BLOCK edge. Each case's exit code, the
sha1 of its stdout and its stderr text must match cli_corpus.json. A
change that declares an output change re-records the file in the same
change, and names each case it moved:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from subrec.cli import main
from subrec.presets import preset_names

RECORD = Path(__file__).with_name("cli_corpus.json")
CF = "[0;3,(1,4)]"
SOURCES = [["--preset", p] for p in preset_names()] + [["--cf", CF], ["--cf", CF, "--method", "rotation"]]
ARGVS = [
    *(["generate", *s, "--length", "300"] for s in SOURCES),
    *(["rates", *s, "-N", "60"] for s in SOURCES),
    ["generate", "--kappa", "r1,g2", "--length", "300"],
    ["rates", "--kappa", "r1,g2", "-N", "60"],
    ["rates", "--preset", "periodic01", "-N", "4097"],
    ["rates", "--preset", "fibonacci", "-N", "30000000", "--window-base", "1000", "--window-cap", "2000"],
    ["rates", "--preset", "fibonacci", "--method", "rotation", "-N", "5"],
    ["returns", "--preset", "thue-morse", "-N", "12"],
    ["returns", "--cf", CF, "--method", "rotation", "-N", "10"],
    ["power", "--preset", "thue-morse", "--window", "512"],
    ["power", "--preset", "sqrt2", "--window", "512"],
    ["lr", "--preset", "fibonacci", "--max-len", "8", "--window", "2000"],
    ["lr", "--preset", "periodic01", "--max-len", "8", "--window", "2000"],
    ["xcheck", "--cf", "[0;(2)]", "-N", "4097"],
    ["xcheck", "--preset", "golden-kappa", "-N", "100"],
    ["xcheck", "--preset", "periodic01"],
    ["xcheck", "--cf", "[0; 1,2]"],
    ["verify", "bounded-cf", "-N", "100"],
    ["verify", "unbounded-cf", "-N", "50"],
    ["verify", "morse-delta", "-N", "100", "--window", "512"],
    ["verify", "xcheck-rotation", "--cf", "[0;(1,2,3)]", "-N", "50"],
    ["verify", "kappa-ratio"],
]


def run(argv: list[str]) -> list:
    """[exit code, sha1 of stdout, stderr] of main(argv)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [code, hashlib.sha1(out.getvalue().encode()).hexdigest(), err.getvalue()]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_the_recorded_corpus(argv):
    assert run(argv) == json.loads(RECORD.read_text())[" ".join(argv)]


if __name__ == "__main__":
    RECORD.write_text(json.dumps({" ".join(a): run(a) for a in ARGVS}, indent=1) + "\n")
