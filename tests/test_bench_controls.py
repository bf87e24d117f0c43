"""The benchmark's checker controls pass against this checkout's rcakit.

``bench/tests`` has a conftest of its own that clashes with the tier-1
``from conftest import ...`` imports, so it runs in a separate pytest
process rather than under ``testpaths``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_checker_controls_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
