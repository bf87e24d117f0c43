"""The benchmark's checker controls pass against this checkout's rcakit,
and every function its tracer wraps exists.

``bench/tests`` has a conftest of its own that clashes with the tier-1
``from conftest import ...`` imports, so it runs in a separate pytest
process rather than under ``testpaths``.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from rcakit.archgraph import build_structural_graph, load_architecture
from rcakit.model import GroundTruth, load_case, save_graph

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



def test_archgen_writes_cases_that_load(tmp_path, monkeypatch):
    # write_cases builds each triage case through TimeSeries and
    # Case(series=...); only a refused bench run would show a break there,
    # so this runs it on one architecture.  bench/ is read, never written.
    spec = importlib.util.spec_from_file_location("archgen", ROOT / "bench" / "archgen.py")
    archgen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "archgen", archgen)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(archgen)
    arch = tmp_path / "arch.yaml"
    arch.write_text(yaml.safe_dump(archgen.architecture(1, 0), sort_keys=False))
    save_graph(build_structural_graph(load_architecture(arch)), tmp_path / "graph.json")
    graph = json.loads((tmp_path / "graph.json").read_text())
    model = archgen.case_model(graph, 1, 0)
    cases = archgen.incident_cases(model, graph, 1, 0)
    archgen.write_cases(cases, model, tmp_path / "cases")
    assert len(cases) == archgen.N_CASES
    for case in cases:
        record = load_case(tmp_path / "cases" / case.case_id)
        assert record.truth == GroundTruth(frozenset({case.root}))
        column = {m: j for j, m in enumerate(record.case.metrics)}
        order = [column[m] for m in model.order]
        assert np.array_equal(record.case.values[:, order], case.values)
