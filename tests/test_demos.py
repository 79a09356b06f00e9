"""Run every demo script: each must print exactly its docstring's example output."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
MARKER = "=== EXAMPLE OUTPUT ===\n"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        namespace = runpy.run_path(str(path), run_name="__main__")
    output = buffer.getvalue()
    assert output.strip()
    assert "FAIL" not in output
    assert "VIOLATED" not in output
    assert output == namespace["__doc__"].split(MARKER, 1)[1]


def test_demo_directory_is_populated():
    assert len(DEMOS) == 5
