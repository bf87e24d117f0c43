"""The integer-indexed graph core against networkx.

``CausalGraph`` keeps its edges as index arrays over the sorted nodes;
every view by name must agree with a networkx digraph built from the
same inputs, whatever order, repeats and names those inputs come in.
"""

import os
import pickle
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcakit.archgraph import build_skeleton
from rcakit.errors import CyclicCallGraph
from rcakit.model import CausalGraph

from conftest import lexicographic_networkx_order, metric_names


@st.composite
def dag_inputs(draw):
    """Nodes in a drawn order, some repeated, and DAG edges with repeats:
    edges run up a drawn rank order, which is unrelated to the sort order
    of the names, and some nodes have no edge."""
    names = draw(st.lists(metric_names, unique=True, max_size=12))
    rank = {v: i for i, v in enumerate(draw(st.permutations(names)))}
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=40)) if names else []
    edges = [(p, c) if rank[p] < rank[c] else (c, p) for p, c in pairs if p != c]
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    nodes = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=3))
                                 if names else []))
    return nodes, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(dag_inputs())
def test_graph_core_agrees_with_networkx(drawn):
    nodes, edges = drawn
    graph = CausalGraph(nodes, edges)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(nodes)
    oracle.add_edges_from(edges)
    assert graph.nodes == set(oracle.nodes)
    assert graph.edges == set(oracle.edges)
    assert graph.sorted_edges() == sorted(oracle.edges)
    assert graph.names == tuple(sorted(oracle.nodes))
    for v in oracle.nodes:
        assert graph.parents(v) == tuple(sorted(oracle.predecessors(v)))
        assert graph.children(v) == tuple(sorted(oracle.successors(v)))
    assert graph.topological_order() == lexicographic_networkx_order(graph)
    # The fit plan holds every node once, in a block of its parent count.
    planned = {}
    for ids, parents in graph.fit_plan(np.arange(len(graph.names))):
        assert parents.shape[0] == ids.size and list(ids) == sorted(ids)
        for i, row in zip(ids.tolist(), parents.tolist()):
            planned[graph.names[i]] = tuple(graph.names[p] for p in row)
    assert planned == {v: graph.parents(v) for v in oracle.nodes}

    twin = CausalGraph(reversed(nodes), list(reversed(edges)) * 2)
    assert twin == graph and hash(twin) == hash(graph)
    copy = pickle.loads(pickle.dumps(graph))
    assert copy == graph and hash(copy) == hash(graph)
    assert copy.topological_order() == graph.topological_order()
    assert all(copy.parents(v) == graph.parents(v) for v in oracle.nodes)
    if edges:
        p, c = edges[0]
        assert CausalGraph(nodes, [e for e in edges if e != (p, c)]) != graph


@pytest.mark.parametrize("nodes, edges, cycle", [
    (["a", "b"], [("a", "b"), ("b", "a")], "'a' -> 'b' -> 'a'"),
    (["a"], [("a", "a")], "'a' -> 'a'"),
    (["c", "b", "a", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a"), ("c", "d")],
     "'a' -> 'b' -> 'c' -> 'a'"),
    (["x", "y", "z", "w"], [("w", "x"), ("x", "y"), ("y", "z"), ("z", "x"), ("y", "w")],
     "'w' -> 'x' -> 'y' -> 'w'"),
    (["root", "b", "a", "c"], [("root", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")],
     "'a' -> 'b' -> 'c' -> 'a'"),
    (["p", "q", "r", "s", "t"],
     [("p", "q"), ("q", "r"), ("r", "p"), ("s", "t"), ("t", "s"), ("r", "s")],
     "'p' -> 'q' -> 'r' -> 'p'"),
    (["é", "e", "z"], [("é", "e"), ("e", "z"), ("z", "é"), ("e", "é")], "'e' -> 'é' -> 'e'"),
])
def test_cycle_messages(nodes, edges, cycle):
    with pytest.raises(ValueError) as info:
        CausalGraph(nodes, edges)
    assert str(info.value) == f"graph contains a cycle: {cycle}"


def test_call_graph_cycle_message():
    services = {"a": ("b",), "b": ("c",), "c": ("a",)}
    with pytest.raises(CyclicCallGraph) as info:
        build_skeleton(services)
    assert str(info.value) == "call graph contains a cycle: 'a' -> 'b' -> 'c' -> 'a'"


MISSING = """
from rcakit.model import CausalGraph
try:
    CausalGraph(["a", "b", "q"], [("a", "b"), ("a", "x"), ("q", "r"), ("a", "y"), ("b", "z")])
except ValueError as exc:
    print(exc)
"""


def test_missing_node_error_names_the_first_bad_edge_under_any_hash_seed():
    messages = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", MISSING], env=env, capture_output=True,
                             text=True, check=True)
        messages.add(out.stdout)
    assert messages == {"edge ('a', 'x') references a missing node\n"}


def test_views_of_a_graph_without_edges():
    graph = CausalGraph(["b", "a"], [])
    assert graph.parents("a") == () and graph.children("b") == ()
    assert graph.edges == frozenset() and graph.sorted_edges() == []
    assert graph.order == (0, 1)
    [(ids, parents)] = graph.fit_plan(np.arange(2))
    assert ids.tolist() == [0, 1] and parents.shape == (2, 0)
    [(ids, lagged)] = graph.fit_plan(np.array([5, 3]), lag=10)
    assert lagged.tolist() == [[15], [13]]
    assert CausalGraph([], []).fit_plan(np.arange(0)) == []
    with pytest.raises(KeyError):
        graph.parents("c")
    assert np.array_equal(graph.parent_ptr, [0, 0, 0])


def test_graph_arrays_stay_read_only_through_pickling():
    graph = CausalGraph(["c", "b", "a"], [("a", "b"), ("b", "c"), ("a", "c")])
    graph.fit_plan(np.arange(3))  # the cached plan is left out of the pickle
    copy = pickle.loads(pickle.dumps(graph))
    for g in (graph, copy):
        for ids in (g.parent_ptr, g.parent_ids, g.child_ptr, g.child_ids):
            with pytest.raises(ValueError):
                ids[0] = 1
        for ids, _ in g.fit_plan(np.arange(3)):
            with pytest.raises(ValueError):
                ids[0] = 1
    assert copy.edges == graph.edges == {("a", "b"), ("a", "c"), ("b", "c")}
    assert [(i.tolist(), p.tolist()) for i, p in copy.fit_plan(np.arange(3), lag=3)] == \
        [(i.tolist(), p.tolist()) for i, p in graph.fit_plan(np.arange(3), lag=3)]
