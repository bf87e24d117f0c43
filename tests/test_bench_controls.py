"""The benchmark's checker controls pass against this checkout's rcakit,
and every function its tracer wraps exists.

``bench/tests`` has a conftest of its own that clashes with the tier-1
``from conftest import ...`` imports, so it runs in a separate pytest
process rather than under ``testpaths``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Traced targets that rcakit no longer has; the benchmark reports them
#: as absent until it stops tracing them.
STALE_TARGETS = {("rcakit.model", "case_matrix"), ("rcakit.regression", "fit_ols")}


def test_bench_checker_controls_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_every_traced_function_exists():
    # The tracer skips a target it cannot find, and the metrics built on
    # it read zero, so a refactor that drops a traced function fails here.
    # TARGETS is read as a literal: bench/ is neither run nor written.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"]
    absent = {(module, attr) for module, attr in targets
              if not callable(getattr(importlib.import_module(module), attr, None))}
    assert absent <= STALE_TARGETS, sorted(absent - STALE_TARGETS)
