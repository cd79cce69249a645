"""The README's library tour and command lines run as written, and the tour
prints what its comments say."""
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from belltally.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    match = re.search(r"## Library tour\n+```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README.md has no python block under '## Library tour'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert float(lines[0]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert float(lines[1]) == pytest.approx(2.0 ** -0.25, abs=1e-12)
    micro, conditional = (float(v) for v in lines[4].split())
    assert micro == pytest.approx(math.sqrt(2.0), abs=0.01)
    assert conditional == pytest.approx(2.0 * math.sqrt(2.0), abs=0.01)


def command_lines() -> list[str]:
    """The belltally lines of the sh block under '## Command line'."""
    match = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README.md has no sh block under '## Command line'"
    return re.findall(r"^belltally (.+)$", match.group(1), re.M)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_example_runs(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line))
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()
