"""Controls for the benchmark's checkers: each accepts rcakit's real output
and rejects a deliberately wrong copy of it.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json

import networkx as nx
import pytest
import yaml

import archgen
import checks
from rcakit.cli import main


def rcakit(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A small simulated dataset, its report, and circa and rht-pg scores
    of its first case."""
    root = tmp_path_factory.mktemp("study")
    ds = root / "ds"
    rcakit("simulate", "--nodes", 12, "--edges", 20, "--graphs", 2, "--cases", 4,
           "--seed", 3, "--jobs", 1, "--out", ds)
    rcakit("evaluate", ds, "--scorers", "nsigma,ideal", "--jobs", 1, "--out", root / "report.json")
    case_dir = ds / "g0" / "c0"
    for scorer in ("circa", "rht-pg"):
        rcakit("analyze", case_dir, "--graph", ds / "g0" / "graph.json", "--scorer", scorer,
               "--out", root / f"{scorer}.json")
    graph = json.loads((ds / "g0" / "graph.json").read_text())
    parents = checks.graph_parents(graph)
    return {
        "ds": ds, "graph": graph, "parents": parents, "case": checks.read_case(case_dir),
        "report": json.loads((root / "report.json").read_text()),
        "circa": json.loads((root / "circa.json").read_text()),
        "rht-pg": json.loads((root / "rht-pg.json").read_text()),
    }


def test_ranking_with_two_entries_swapped_is_rejected(study):
    scores = study["circa"]
    checks.check_circa_scores(scores, study["graph"]["nodes"])
    swapped = dict(scores, ranking=list(scores["ranking"]))
    swapped["ranking"][0], swapped["ranking"][1] = swapped["ranking"][1], swapped["ranking"][0]
    with pytest.raises(checks.CheckFailed, match="out of order"):
        checks.check_circa_scores(swapped, study["graph"]["nodes"])


@pytest.mark.parametrize("scorer, lagged", [("circa", False), ("rht-pg", True)])
def test_rht_score_off_by_1e_4_is_rejected(study, scorer, lagged):
    raw = study[scorer]["raw"]
    assert checks.check_rht_scores(study["case"], raw, study["parents"], lagged) > 0
    node = max(study["parents"], key=lambda m: len(study["parents"][m]))
    assert checks.lstsq_score(study["case"], study["parents"][node], node, lagged) is not None
    wrong = dict(raw, **{node: raw[node] * (1 + 1e-4)})
    with pytest.raises(checks.CheckFailed, match=node):
        checks.check_rht_scores(study["case"], wrong, study["parents"], lagged)


def test_graph_with_one_edge_reversed_into_a_cycle_is_rejected(tmp_path):
    arch = archgen.architecture(seed=1, index=0)
    (tmp_path / "arch.yaml").write_text(yaml.safe_dump(arch))
    rcakit("graph", tmp_path / "arch.yaml", "--out", tmp_path / "graph.json")
    graph = json.loads((tmp_path / "graph.json").read_text())
    checks.check_graph(graph, arch)
    g = nx.DiGraph(tuple(e) for e in graph["edges"])
    # An edge u -> v with a second path from u to v closes a cycle when reversed.
    u, v = next((u, v) for u, v in g.edges
                if any(nx.has_path(g, w, v) for w in g.successors(u) if w != v))
    edges = [e for e in graph["edges"] if e != [u, v]] + [[v, u]]
    with pytest.raises(checks.CheckFailed, match="cycle"):
        checks.check_graph(dict(graph, edges=edges), arch)


@pytest.mark.parametrize("method", ["nsigma", "ideal"])
def test_ac_table_off_by_one_case_is_rejected(study, method):
    graph_dirs = sorted(p for p in study["ds"].iterdir() if p.is_dir())
    recalls = checks.dataset_recalls(graph_dirs, 5)[method]
    reported = study["report"]["methods"][method]["ac_mean"]
    checks.check_ac(reported, checks.ac_table(recalls), method)
    # The table as it would read if one case had missed (or hit) at every k.
    off_by_one = {g: [list(r) for r in rows] for g, rows in recalls.items()}
    off_by_one["g0"][0] = [0.0 if any(recalls["g0"][0]) else 1.0] * 5
    with pytest.raises(checks.CheckFailed, match=method):
        checks.check_ac(checks.ac_table(off_by_one), checks.ac_table(recalls), method)
