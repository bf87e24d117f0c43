"""The batched regression engine against the frozen per-node path.

The datasets are the ``simulate`` runs 50/100/2/20/1, 100/300/3/10/7 and
500/5000/2/4/1 (nodes/edges/graphs/cases/seed), written by the CLI with
BLAS on one thread, so they are the byte-identical trees that such a run
always writes.  On every case the rankings of ``rht``, ``rht-pg`` and
``circa`` must be equal, and raw scores must agree within RTOL wherever
the centred design's condition number is at most COND_MAX.  Fits above
that get no tolerance: the normal equations do not determine them to
float64 accuracy, so two solves may differ there.  They are counted and
printed (run with ``-s`` to see the lines), not hidden.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcakit.scoring import descendant_adjust, rank, rht_score
from rcakit.simulation import case_record, load_dataset

import per_node_reference as reference

ROOT = Path(__file__).resolve().parents[1]
DATASETS = [(50, 100, 2, 20, 1), (100, 300, 3, 10, 7), (500, 5000, 2, 4, 1)]
#: The benchmark's rule for which fits its lstsq check can judge.
COND_MAX = 1e4
RTOL = 1e-9


def simulate(out, nodes, edges, graphs, cases, seed):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["simulate", "--nodes", nodes, "--edges", edges, "--graphs", graphs,
            "--cases", cases, "--seed", seed, "--jobs", 1, "--out", out]
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from rcakit.cli import main; sys.exit(main(sys.argv[1:]))",
         *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return load_dataset(out)


def order(scores):
    return [metric for metric, _ in rank(scores)]


def condition(case, graph, node, lagged):
    _, X, _, _ = reference.node_designs(case, graph, node, lagged)
    return np.linalg.cond(X - X.mean(axis=0)) if X.shape[1] else 1.0


@pytest.mark.parametrize("sizes", DATASETS, ids=["/".join(map(str, s)) for s in DATASETS])
def test_batched_engine_matches_per_node_path(tmp_path, sizes):
    dataset = simulate(tmp_path / "ds", *sizes)
    n_cases = 0
    ill = {"rht": [], "rht-pg": []}
    worst = {"rht": 0.0, "rht-pg": 0.0}
    for record in dataset.graphs:
        graph = record.graph
        for entry in record.cases:
            case = case_record(entry).case
            n_cases += 1
            for name, lagged in (("rht", False), ("rht-pg", True)):
                got = rht_score(case, graph, use_lagged_self=lagged)
                want = reference.rht_score(case, graph, use_lagged_self=lagged)
                assert order(got) == order(want), name
                if not lagged:
                    assert order(descendant_adjust(got, graph)) == order(descendant_adjust(want, graph)), "circa"
                for node in sorted(graph.nodes):
                    error = abs(got[node] - want[node]) / abs(want[node])
                    if condition(case, graph, node, lagged) <= COND_MAX:
                        assert error <= RTOL, (name, node, got[node], want[node])
                        worst[name] = max(worst[name], error)
                    else:
                        ill[name].append(error)
    print(f"[{'/'.join(map(str, sizes))}] {n_cases} cases, rankings equal; "
          f"worst relative error where cond <= {COND_MAX:g}: rht {worst['rht']:.1e}, "
          f"rht-pg {worst['rht-pg']:.1e}; fits with cond > {COND_MAX:g} (largest error): "
          + ", ".join(f"{name} {len(e)} ({max(e, default=0.0):.1e})" for name, e in ill.items()))
