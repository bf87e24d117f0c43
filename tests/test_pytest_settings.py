"""The suite's own pytest settings let a failing test report like any other."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # On a failure hypothesis imports libcst to write a patch, and that
    # import warns of a deprecation in a third-party module; an error filter
    # that caught it would end the run with INTERNALERROR (exit 3) before
    # the next test and lose the falsifying example.
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    filters = pyproject["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "test_two.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output and "INTERNALERROR" not in output
