"""Every README command example with an output comment prints that output.

An example is a line starting with `howekit` (continued by a trailing
backslash), directly followed by a `# <output>` line.  A pipe between two
commands feeds the first one's stdout to the second one's stdin.  The
runtime_ms field of sweep reports is a wall-clock time, so it is dropped
from both sides; everything else is compared byte for byte.
"""

import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from howekit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    lines = README.read_text().splitlines()
    out = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("howekit "):
            i += 1
            continue
        command = lines[i]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i].strip()
        i += 1
        if i < len(lines) and lines[i].startswith("# "):
            out.append((command, lines[i][2:]))
    return out


EXAMPLES = _examples()


def _without_runtime(text):
    return re.sub(r',?"runtime_ms":\d+', "", text)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[c.split()[1] for c, _ in EXAMPLES])
def test_readme_example(command, expected, monkeypatch):
    stdout = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "howekit"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdout))
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.dispatch(argv[1:]) == 0
        stdout = buf.getvalue()
    assert _without_runtime(stdout) == _without_runtime(expected + "\n")
