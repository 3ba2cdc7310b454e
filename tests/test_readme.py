"""The examples in README.md run against the current library, and print
what the README says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from subrec.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
COMMANDS = [
    line for lang, body in BLOCKS if not lang for line in body.splitlines() if line.startswith("subrec ")
]


def test_quick_start_prints_what_its_comments_say():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    comments = [line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert comments and len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)


def test_the_command_examples_are_found():
    assert len(COMMANDS) >= 4


@pytest.mark.parametrize("command", COMMANDS)
def test_command_example_exits_0(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an example may write a file
    assert main(shlex.split(command)[1:]) == 0
