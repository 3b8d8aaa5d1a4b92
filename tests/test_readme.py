"""README.md's Quick start runs as written and prints what its comments promise."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_prints_its_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    mean_clicks, interval, energy, cutoff = out.getvalue().splitlines()
    assert float(mean_clicks) == pytest.approx(9.84, rel=0.01, abs=0)
    assert interval == "8 1 33"
    assert float(energy) == pytest.approx(4.2e-18, rel=0.01, abs=0)
    assert cutoff == "16"
