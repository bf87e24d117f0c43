"""Every demo script runs to completion and prints something, and every
Python example of README.md runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = run_python([str(demo)], ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # A fresh interpreter in an empty directory, so a block cannot lean on
    # another block's names or on files of the checkout.
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 5
