"""Shared builders for the test suite."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from rcakit import simulation
from rcakit.model import Case, CausalGraph
from rcakit.simulation import WeightedDag


#: Metric names of any text json can encode as UTF-8: quotes, backslashes,
#: control and non-ASCII characters, but no lone surrogates.
metric_names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8)


def make_case(values_by_metric, detect_time, sli=None, start_time=None,
              t_ref=120, t_delay=5, t_test=10):
    """Build a Case from plain value sequences sharing one clock."""
    metrics = sorted(values_by_metric)
    if sli is None:
        sli = metrics[0]
    if start_time is None:
        start_time = detect_time - t_ref
    values = np.column_stack([np.asarray(values_by_metric[m], dtype=float) for m in metrics])
    return Case(metrics=metrics, values=values, start_time=start_time,
                detect_time=detect_time, sli=sli, t_ref=t_ref, t_delay=t_delay, t_test=t_test)


def chain_dag(weights=(1.2, -0.8), sigma=(0.7, 1.1, 0.9), beta=0.1):
    """Three-node chain m2 -> m1 -> m0 (node 0 is the SLI sink)."""
    A = np.zeros((3, 3))
    A[1, 2] = weights[0]
    A[0, 1] = weights[1]
    return WeightedDag(A=A, sigma=np.asarray(sigma, dtype=float), beta=beta)


def chain_case(X, detect_time=120):
    """A Case over a simulated (T, 3) matrix of the chain DAG, SLI m0."""
    return Case(metrics=("m0", "m1", "m2"), values=X, start_time=0,
                detect_time=detect_time, sli="m0")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fallback_calls(monkeypatch):
    """One entry per run of ``generate_dag``'s explicit draw over the free
    pairs, counted by a spy on the simulation module's ``sorted``."""
    calls = []
    monkeypatch.setattr(simulation, "sorted", lambda pairs: calls.append(1) or sorted(pairs),
                        raising=False)
    return calls


def random_dagscores(rng, n_nodes=8, edge_prob=0.35, score_scale=6.0):
    """A random DAG plus random non-negative scores, for property tests."""
    names = [f"n{i}" for i in range(n_nodes)]
    edges = [
        (names[j], names[i])
        for i in range(n_nodes)
        for j in range(i)
        if rng.random() < edge_prob
    ]
    graph = CausalGraph(nodes=names, edges=edges)
    scores = {m: float(rng.random() * score_scale) for m in names}
    return graph, scores


def read_tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def lexicographic_networkx_order(graph):
    """networkx's topological order with lexicographic tie-break: an oracle
    for ``CausalGraph.topological_order``."""
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges)
    return tuple(nx.lexicographical_topological_sort(g))


UNIT_ROUNDOFF = 2.0 ** -53  # float64


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the error of a k-term float64 sum."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def inverse_residual(M, W, g):
    """Check |M W - I| <= 2 g |M||W| entry by entry.

    Returns (holds, worst |R| / (g S), worst absolute |R|).  Where S is 0
    the residual must be exactly 0; a nonzero one there counts as an
    infinite ratio.
    """
    R = np.abs(M @ W - np.eye(len(M)))
    S = np.abs(M) @ np.abs(W)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(S > 0, R / (g * S), np.where(R > 0, np.inf, 0.0))
    return bool(np.all(R <= 2 * g * S)), float(ratio.max()), float(R.max())


def propagation_reference(A):
    """Independent route to W: the row recursion W = I + A W in long double.

    A[j, i] is nonzero only for i > j, so row j of W needs only rows of
    higher-indexed nodes; filling rows from the last node down suffices.
    """
    n = len(A)
    A_ld = A.astype(np.longdouble)
    W = np.eye(n, dtype=np.longdouble)
    for j in range(n - 1, -1, -1):
        parents = np.flatnonzero(A[j])
        if parents.size:
            W[j] += A_ld[j, parents] @ W[parents]
    return W
