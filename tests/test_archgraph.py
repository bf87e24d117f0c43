import numpy as np
import pytest

from rcakit.archgraph import (
    ArchitectureSpec,
    MetaMetric,
    MetaMetricDim,
    ServiceNode,
    build_skeleton,
    build_structural_graph,
    load_architecture,
)
from rcakit.errors import CyclicCallGraph, MalformedInput, UnknownMetaMetric

from conftest import lexicographic_networkx_order

T, S, L, E = (MetaMetricDim.TRAFFIC, MetaMetricDim.SATURATION,
              MetaMetricDim.LATENCY, MetaMetricDim.ERRORS)


def mm(service, dim):
    return MetaMetric(service=service, dim=dim)


def web_db_spec():
    """One web service calling one database, all four dimensions monitored,
    plus a per-request ratio derived from both traffic dimensions."""
    return ArchitectureSpec(
        services=(ServiceNode("web", ("db",)), ServiceNode("db")),
        metric_map={
            "web_qps": {mm("web", T)},
            "web_cpu": {mm("web", S)},
            "web_latency": {mm("web", L)},
            "web_error_rate": {mm("web", E)},
            "db_qps": {mm("db", T)},
            "db_cpu": {mm("db", S)},
            "db_latency": {mm("db", L)},
            "db_error_rate": {mm("db", E)},
            "db_access_per_request": {mm("web", T), mm("db", T)},
        },
    )


#: Hand-executed compilation of web_db_spec, edge by edge.
WEB_DB_GOLDEN_EDGES = {
    ("web_qps", "db_access_per_request"),
    ("web_qps", "db_qps"), ("db_access_per_request", "db_qps"),
    ("db_qps", "db_cpu"),
    ("db_qps", "db_latency"), ("db_cpu", "db_latency"),
    ("db_qps", "db_error_rate"), ("db_cpu", "db_error_rate"), ("db_latency", "db_error_rate"),
    ("web_qps", "web_cpu"),
    ("web_qps", "web_latency"), ("web_cpu", "web_latency"),
    ("db_qps", "web_latency"), ("db_cpu", "web_latency"),
    ("db_latency", "web_latency"), ("db_error_rate", "web_latency"),
    ("web_qps", "web_error_rate"), ("web_cpu", "web_error_rate"),
    ("web_latency", "web_error_rate"), ("db_qps", "web_error_rate"),
    ("db_cpu", "web_error_rate"), ("db_latency", "web_error_rate"),
    ("db_error_rate", "web_error_rate"),
}


def test_single_service_skeleton_matches_golden_signal_assumptions():
    skeleton = build_skeleton([ServiceNode("s")])
    assert len(skeleton.nodes) == 4
    expected = {
        (mm("s", T), mm("s", S)), (mm("s", T), mm("s", L)), (mm("s", T), mm("s", E)),
        (mm("s", S), mm("s", L)), (mm("s", S), mm("s", E)),
        (mm("s", L), mm("s", E)),
    }
    assert skeleton.edges == expected


def test_web_db_skeleton_cross_service_edges():
    skeleton = build_skeleton([ServiceNode("web", ("db",)), ServiceNode("db")])
    assert (mm("web", T), mm("db", T)) in skeleton.edges
    assert (mm("db", L), mm("web", L)) in skeleton.edges
    assert (mm("db", E), mm("web", E)) in skeleton.edges
    # every callee dimension stands in for the caller's saturation
    for dim in MetaMetricDim:
        assert (mm("db", dim), mm("web", L)) in skeleton.edges
        assert (mm("db", dim), mm("web", E)) in skeleton.edges
    # 6 within-service edges per service plus 1 traffic edge and 8 stand-ins
    assert len(skeleton.edges) == 6 + 6 + 9


def test_empty_service_list():
    skeleton = build_skeleton([])
    assert not skeleton.nodes and not skeleton.edges


def test_cyclic_call_graph_rejected():
    with pytest.raises(CyclicCallGraph):
        build_skeleton([ServiceNode("a", ("b",)), ServiceNode("b", ("a",))])
    with pytest.raises(CyclicCallGraph):
        build_skeleton([ServiceNode("a", ("a",))])


def test_implicit_leaf_callee():
    skeleton = build_skeleton([ServiceNode("web", ("db",))])
    assert mm("db", T) in skeleton.nodes


def test_three_metric_compilation():
    # web calls db; traffic on both, latency only on web.  The empty db
    # latency/saturation/errors dimensions forward db_qps upward.
    spec = ArchitectureSpec(
        services=(ServiceNode("web", ("db",)), ServiceNode("db")),
        metric_map={
            "web_qps": {mm("web", T)},
            "web_latency": {mm("web", L)},
            "db_qps": {mm("db", T)},
        },
    )
    graph = build_structural_graph(spec)
    assert graph.nodes == {"web_qps", "web_latency", "db_qps"}
    assert graph.edges == {
        ("web_qps", "db_qps"),
        ("web_qps", "web_latency"),
        ("db_qps", "web_latency"),
    }


def test_web_db_golden_compilation():
    graph = build_structural_graph(web_db_spec())
    assert graph.nodes == set(web_db_spec().metric_map)
    assert graph.edges == WEB_DB_GOLDEN_EDGES
    graph.topological_order()  # DAG validation


def test_multi_mapped_metric_attaches_at_last_dimension():
    graph = build_structural_graph(web_db_spec())
    # fed by the earlier host's metrics only, and no self loop
    assert ("web_qps", "db_access_per_request") in graph.edges
    assert ("db_qps", "db_access_per_request") not in graph.edges
    assert ("db_access_per_request", "db_access_per_request") not in graph.edges
    # and it stands in for the earlier host toward the later host's metrics
    assert ("db_access_per_request", "db_qps") in graph.edges


def test_zero_metrics_compiles_to_empty_graph():
    spec = ArchitectureSpec(services=(ServiceNode("web"),), metric_map={})
    graph = build_structural_graph(spec)
    assert not graph.nodes and not graph.edges


def test_unknown_meta_metric():
    spec = ArchitectureSpec(
        services=(ServiceNode("web"),),
        metric_map={"x": {mm("ghost", T)}},
    )
    with pytest.raises(UnknownMetaMetric):
        build_structural_graph(spec)


def test_compilation_deterministic_under_input_order():
    base = web_db_spec()
    reordered = ArchitectureSpec(
        services=tuple(reversed(base.services)),
        metric_map=dict(reversed(list(base.metric_map.items()))),
    )
    assert build_structural_graph(base) == build_structural_graph(reordered)


def test_fully_monitored_single_service_edge_count():
    # with every dimension monitored and no multi-mapping, the edge count
    # is the sum over skeleton edges of |metrics(parent)| * |metrics(child)|
    spec = ArchitectureSpec(
        services=(ServiceNode("s"),),
        metric_map={
            "t1": {mm("s", T)}, "t2": {mm("s", T)},
            "s1": {mm("s", S)},
            "l1": {mm("s", L)},
            "e1": {mm("s", E)},
        },
    )
    graph = build_structural_graph(spec)
    # T(2)->S(1), T->L, T->E, S->L, S->E, L->E
    assert len(graph.edges) == 2 + 2 + 2 + 1 + 1 + 1


def test_errors_dimension_accumulates_parent_error_metrics():
    # api calls backend; both have error metrics; api's errors dimension
    # carries backend's error metric along to api's own consumers
    spec = ArchitectureSpec(
        services=(ServiceNode("api", ("backend",)), ServiceNode("backend"),
                  ServiceNode("edge", ("api",))),
        metric_map={
            "api_errors": {mm("api", E)},
            "backend_errors": {mm("backend", E)},
            "edge_errors": {mm("edge", E)},
        },
    )
    graph = build_structural_graph(spec)
    # backend's errors reach edge_errors through api's errors dimension
    assert ("backend_errors", "api_errors") in graph.edges
    assert ("backend_errors", "edge_errors") in graph.edges
    assert ("api_errors", "edge_errors") in graph.edges


def test_load_architecture_yaml(tmp_path):
    path = tmp_path / "arch.yaml"
    path.write_text(
        "services:\n"
        "  - name: web\n"
        "    callees: [db]\n"
        "  - name: db\n"
        "metrics:\n"
        "  - name: web_qps\n"
        "    maps_to: [{service: web, dim: traffic}]\n"
        "  - name: ratio\n"
        "    maps_to:\n"
        "      - {service: web, dim: traffic}\n"
        "      - {service: db, dim: traffic}\n"
    )
    spec = load_architecture(path)
    assert spec.metric_map["web_qps"] == frozenset({mm("web", T)})
    assert spec.metric_map["ratio"] == frozenset({mm("web", T), mm("db", T)})


def test_load_architecture_rejects_bad_dim(tmp_path):
    path = tmp_path / "arch.yaml"
    path.write_text(
        "services: [{name: web}]\n"
        "metrics:\n"
        "  - name: x\n"
        "    maps_to: [{service: web, dim: temperature}]\n"
    )
    with pytest.raises(ValueError):
        load_architecture(path)


@pytest.mark.parametrize("text", [
    "services:\n  - name: web\n    callees: db\n",
    "services: [{name: web}]\nmetrics:\n  - name: x\n    maps_to: {service: web, dim: traffic}\n",
    "services: [{name: web}]\nmetrics:\n  - name: x\n    maps_to: web\n",
    "services: {name: web}\n",
    "services: [{name: web]\n",
])
def test_load_architecture_rejects_malformed_yaml(tmp_path, text):
    path = tmp_path / "arch.yaml"
    path.write_text(text)
    with pytest.raises(MalformedInput):
        load_architecture(path)


def test_skeleton_topological_order_matches_networkx():
    architectures = [
        [ServiceNode("s")],
        [ServiceNode("web", ("db",)), ServiceNode("db")],
        [ServiceNode("gw", ("auth", "cart")), ServiceNode("cart", ("cache", "db")),
         ServiceNode("auth", ("db",))],
    ]
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = int(rng.integers(2, 12))
        names = [f"svc{int(i)}" for i in rng.permutation(100)[:k]]
        architectures.append([
            ServiceNode(names[i], tuple(names[j] for j in range(i + 1, k) if rng.random() < 0.3))
            for i in range(k)
        ])
    for services in architectures:
        skeleton = build_skeleton(services)
        assert skeleton.topological_order() == lexicographic_networkx_order(skeleton)
