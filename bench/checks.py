"""Checks of rcakit's outputs, computed apart from rcakit.

Every check reads what the program wrote (CSV, JSON) with its own parser
and recomputes the expected value with numpy, ``np.linalg.lstsq`` or
networkx.  A failed check raises ``CheckFailed``.

Window conventions, as in rcakit's README and ``Case`` docstring: with
detection at t_d, the reference rows are the timestamps in
[t_d - t_ref, t_d - t_test] and the test rows those in
(t_d + t_delay - t_test, t_d + t_delay].  Standard deviations are
population ones, floored at 1e-6 * max(1, std of the target).
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np

THRESHOLD = 3.0
SIGMA_FLOOR = 1e-6
#: A fit is checked against lstsq only when its centred design has at most
#: this condition number.  rcakit solves the normal equations, whose
#: relative error grows like cond**2 * 2**-53: about 1e-8 here, below the
#: 1e-6 tolerance.  Above it the two solvers may honestly differ by more.
COND_MAX = 1e4
#: Relative tolerance of a regression score against its lstsq refit.
RTOL = 1e-6
#: check_rht_scores fails when fewer than this share of a case's nodes
#: could be checked; at 500 nodes 48% to 69% of them are.
MIN_CHECKED_SHARE = 0.25
#: Absolute tolerance of a reported AC@k against its recomputation.
AC_TOL = 1e-12
DIM_ORDER = ("traffic", "saturation", "latency", "errors")


class CheckFailed(Exception):
    """An output of the program disagrees with the independent result."""


# -- reading ----------------------------------------------------------------
def read_case(case_dir) -> dict:
    """data.csv and case.json of one case: metric names, timestamps, values."""
    case_dir = Path(case_dir)
    meta = json.loads((case_dir / "case.json").read_text())
    header, _, body = (case_dir / "data.csv").read_text().partition("\n")
    names = header.strip().split(",")[1:]
    flat = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    table = flat.reshape(-1, len(names) + 1)
    return {"names": names, "timestamps": table[:, 0].astype(np.int64),
            "X": table[:, 1:], "meta": meta}


def window_rows(case: dict) -> tuple[np.ndarray, np.ndarray]:
    meta, ts = case["meta"], case["timestamps"]
    t_d = meta["detect_time"]
    ref = np.flatnonzero((ts >= t_d - meta["t_ref"]) & (ts <= t_d - meta["t_test"]))
    test = np.flatnonzero((ts > t_d + meta["t_delay"] - meta["t_test"])
                          & (ts <= t_d + meta["t_delay"]))
    return ref, test


# -- scores and rankings ----------------------------------------------------
def floored_std(values: np.ndarray, target_std: float) -> float:
    return max(float(values.std()), SIGMA_FLOOR * max(1.0, target_std))


def nsigma_scores(case: dict) -> dict[str, float]:
    ref, test = window_rows(case)
    X = case["X"]
    out = {}
    for j, name in enumerate(case["names"]):
        sd = floored_std(X[ref, j], float(X[ref, j].std()))
        out[name] = float(np.abs(X[test, j] - X[ref, j].mean()).max() / sd)
    return out


def rank(scores: dict[str, float]) -> list[str]:
    return sorted(scores, key=lambda m: (-scores[m], m))


def recall(ranking: list[str], roots, k: int) -> float:
    return len(set(ranking[:k]) & set(roots)) / len(roots)


def lstsq_score(case: dict, parents: list[str], node: str, lagged: bool) -> float | None:
    """The regression score of ``node`` from a per-node lstsq fit with
    intercept, or None when the fit has too few rows or too large a
    condition number (COND_MAX) to be checked."""
    ref, test = window_rows(case)
    col = {m: j for j, m in enumerate(case["names"])}
    X, j = case["X"], col[node]
    feats = [col[p] for p in parents]
    rows = ref[1:] if lagged else ref
    design = X[np.ix_(rows, feats)]
    test_design = X[np.ix_(test, feats)]
    if lagged:
        design = np.column_stack([design, X[rows - 1, j]])
        test_design = np.column_stack([test_design, X[test - 1, j]])
    if design.shape[1] >= len(rows) - 1:
        return None
    if design.shape[1] and np.linalg.cond(design - design.mean(axis=0)) > COND_MAX:
        return None
    y = X[rows, j]
    A = np.column_stack([np.ones(len(rows)), design])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    sd = floored_std(resid, float(y.std()))
    pred = coef[0] + test_design @ coef[1:]
    return float(np.abs(X[test, j] - pred - resid.mean()).max() / sd)


def graph_parents(graph_json: dict) -> dict[str, list[str]]:
    parents: dict[str, list[str]] = {m: [] for m in graph_json["nodes"]}
    for p, c in graph_json["edges"]:
        parents[c].append(p)
    return {m: sorted(ps) for m, ps in parents.items()}


def check_rht_scores(case: dict, raw: dict[str, float], parents: dict[str, list[str]],
                     lagged: bool) -> int:
    """Raw rht (or rht-pg) scores against lstsq; returns nodes checked, and
    fails when that is below MIN_CHECKED_SHARE of the nodes."""
    what = "rht-pg" if lagged else "rht"
    checked = 0
    for node, score in sorted(raw.items()):
        expected = lstsq_score(case, parents[node], node, lagged)
        if expected is None:
            continue
        if not abs(score - expected) <= RTOL * max(abs(expected), 1e-12):
            raise CheckFailed(f"{what} score of {node}: {score!r}, lstsq gives {expected!r}")
        checked += 1
    if checked < MIN_CHECKED_SHARE * len(raw):
        raise CheckFailed(f"{what}: only {checked} of {len(raw)} scores could be checked")
    return checked


def check_circa_scores(scores_json: dict, nodes) -> None:
    """A circa scores.json: full ranking sorted by adjusted score, ties by
    name; adjusted >= raw, and equal where raw is below the threshold."""
    raw, adjusted, ranking = scores_json["raw"], scores_json["adjusted"], scores_json["ranking"]
    names = [m for m, _ in ranking]
    if sorted(names) != sorted(nodes) or len(set(names)) != len(names):
        raise CheckFailed("ranking is not a permutation of the graph's nodes")
    for (m, s), (m2, s2) in zip(ranking, ranking[1:]):
        if (-s, m) >= (-s2, m2):
            raise CheckFailed(f"ranking out of order at {m!r}, {m2!r}")
    for m, s in ranking:
        if s != adjusted[m]:
            raise CheckFailed(f"ranking score of {m!r} is not its adjusted score")
    for m, r in raw.items():
        if adjusted[m] < r or (r < THRESHOLD and adjusted[m] != r):
            raise CheckFailed(f"adjusted score of {m!r} ({adjusted[m]!r}) vs raw {r!r}")


# -- AC@k --------------------------------------------------------------------
def dataset_recalls(graph_dirs, k_max: int) -> dict[str, dict[str, list]]:
    """Recall rows (k = 1..k_max) of every case of a dataset for ``ideal``,
    from the labels alone, and for ``nsigma``, recomputed from the CSV."""
    recalls: dict[str, dict[str, list]] = {"ideal": {}, "nsigma": {}}
    for graph_dir in graph_dirs:
        for case_dir in sorted(p for p in graph_dir.iterdir() if p.is_dir()):
            case = read_case(case_dir)
            roots = case["meta"]["root_causes"]
            ranking = rank(nsigma_scores(case))
            recalls["ideal"].setdefault(graph_dir.name, []).append(
                [min(k, len(roots)) / len(roots) for k in range(1, k_max + 1)])
            recalls["nsigma"].setdefault(graph_dir.name, []).append(
                [recall(ranking, roots, k) for k in range(1, k_max + 1)])
    return recalls


def ac_table(recalls_by_graph: dict[str, list[list[float]]]) -> list[float]:
    """Mean recall per graph, then the mean across graphs, for k = 1..K."""
    per_graph = [np.mean(np.array(rows), axis=0) for _, rows in sorted(recalls_by_graph.items())]
    return [float(v) for v in np.mean(np.array(per_graph), axis=0)]


def check_ac(reported, expected, what: str) -> None:
    reported, expected = list(reported), list(expected)
    if len(reported) != len(expected) or any(
            abs(a - b) > AC_TOL for a, b in zip(reported, expected)):
        raise CheckFailed(f"{what}: reported AC@k {reported} != recomputed {expected}")


def check_ac_valid(ac, what: str) -> None:
    ac = list(ac)
    if not all(0.0 <= v <= 1.0 for v in ac) or any(b < a for a, b in zip(ac, ac[1:])):
        raise CheckFailed(f"{what}: AC@k {ac} is not in [0, 1] and non-decreasing")


# -- structural graph --------------------------------------------------------
def check_graph(graph_json: dict, arch: dict) -> None:
    """Acyclic, nodes exactly the metrics, and intra-service edges between
    single-dimension metrics going forward in traffic < saturation <
    latency < errors."""
    g = nx.DiGraph()
    g.add_nodes_from(graph_json["nodes"])
    g.add_edges_from(tuple(e) for e in graph_json["edges"])
    if not nx.is_directed_acyclic_graph(g):
        raise CheckFailed("compiled graph has a cycle")
    metrics = {m["name"]: m["maps_to"] for m in arch["metrics"]}
    if set(g.nodes) != set(metrics):
        raise CheckFailed("compiled graph's nodes are not the architecture's metrics")
    single = {name: (t[0]["service"], DIM_ORDER.index(t[0]["dim"]))
              for name, t in metrics.items() if len(t) == 1}
    for src, dst in g.edges:
        if src in single and dst in single and single[src][0] == single[dst][0] \
                and single[src][1] >= single[dst][1]:
            raise CheckFailed(f"edge {src} -> {dst} runs against the dimension order")
