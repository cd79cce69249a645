"""The README's library tour runs as written and prints what its comments say."""
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

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
