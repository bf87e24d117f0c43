import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcakit import archgraph
from rcakit.archgraph import (
    ArchitectureSpec,
    MetaMetric,
    MetaMetricDim,
    build_skeleton,
    build_structural_graph,
    load_architecture,
)
from rcakit.errors import CyclicCallGraph, MalformedInput, UnknownMetaMetric

import compiler_reference
from conftest import lexicographic_networkx_order

ROOT = Path(__file__).resolve().parents[1]

#: Both safe loaders the module can run with: the pure-Python one, and
#: libyaml's when PyYAML is built with it.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    monkeypatch.setattr(archgraph, "_loader", lambda: request.param)
    return request.param


def load_with(loader, path):
    """load_architecture's spec, or its MalformedInput message, with the
    module's loader set to ``loader``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(archgraph, "_loader", lambda: loader)
        try:
            return load_architecture(path)
        except MalformedInput as exc:
            return str(exc)

T, S, L, E = (MetaMetricDim.TRAFFIC, MetaMetricDim.SATURATION,
              MetaMetricDim.LATENCY, MetaMetricDim.ERRORS)


def mm(service, dim):
    return MetaMetric(service=service, dim=dim)


def web_db_spec():
    """One web service calling one database, all four dimensions monitored,
    plus a per-request ratio derived from both traffic dimensions."""
    return ArchitectureSpec(
        services={"web": ("db",), "db": ()},
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
    skeleton = build_skeleton({"s": ()})
    assert len(skeleton.nodes) == 4
    expected = {
        (mm("s", T), mm("s", S)), (mm("s", T), mm("s", L)), (mm("s", T), mm("s", E)),
        (mm("s", S), mm("s", L)), (mm("s", S), mm("s", E)),
        (mm("s", L), mm("s", E)),
    }
    assert skeleton.edges == expected


def test_web_db_skeleton_cross_service_edges():
    skeleton = build_skeleton({"web": ("db",), "db": ()})
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
    skeleton = build_skeleton({})
    assert not skeleton.nodes and not skeleton.edges


@pytest.mark.parametrize("services", [{"": ()}, {"web": ("",)}], ids=["service", "callee"])
def test_empty_service_name_rejected(services):
    with pytest.raises(ValueError, match="non-empty"):
        build_skeleton(services)


def test_cyclic_call_graph_rejected():
    with pytest.raises(CyclicCallGraph):
        build_skeleton({"a": ("b",), "b": ("a",)})
    with pytest.raises(CyclicCallGraph):
        build_skeleton({"a": ("a",)})


def test_implicit_leaf_callee():
    skeleton = build_skeleton({"web": ("db",)})
    assert mm("db", T) in skeleton.nodes


def test_three_metric_compilation():
    # web calls db; traffic on both, latency only on web.  The empty db
    # latency/saturation/errors dimensions forward db_qps upward.
    spec = ArchitectureSpec(
        services={"web": ("db",), "db": ()},
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
    spec = ArchitectureSpec(services={"web": ()}, metric_map={})
    graph = build_structural_graph(spec)
    assert not graph.nodes and not graph.edges


def test_unknown_meta_metric():
    spec = ArchitectureSpec(
        services={"web": ()},
        metric_map={"x": {mm("ghost", T)}},
    )
    with pytest.raises(UnknownMetaMetric):
        build_structural_graph(spec)


def test_compilation_deterministic_under_input_order():
    base = web_db_spec()
    reordered = ArchitectureSpec(
        services=dict(reversed(list(base.services.items()))),
        metric_map=dict(reversed(list(base.metric_map.items()))),
    )
    assert build_structural_graph(base) == build_structural_graph(reordered)


def test_fully_monitored_single_service_edge_count():
    # with every dimension monitored and no multi-mapping, the edge count
    # is the sum over skeleton edges of |metrics(parent)| * |metrics(child)|
    spec = ArchitectureSpec(
        services={"s": ()},
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
        services={"api": ("backend",), "backend": (), "edge": ("api",)},
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


#: Files that are YAML but not an architecture, or not YAML at all.
MALFORMED_YAML = [
    "services:\n  - name: web\n    callees: db\n",
    "services: [{name: web}]\nmetrics:\n  - name: x\n    maps_to: {service: web, dim: traffic}\n",
    "services: [{name: web}]\nmetrics:\n  - name: x\n    maps_to: web\n",
    "services: {name: web}\n",
    "services: [{name: web]\n",
    "services: [{name: web\x01}]\n",
]


@pytest.mark.parametrize("text", MALFORMED_YAML)
def test_load_architecture_rejects_malformed_yaml(tmp_path, text):
    path = tmp_path / "arch.yaml"
    path.write_text(text)
    for loader in LOADERS:
        with pytest.MonkeyPatch.context() as mp, pytest.raises(MalformedInput):
            mp.setattr(archgraph, "_loader", lambda: loader)
            load_architecture(path)


SIMPLE_ARCH = ("services:\n  - name: web\n    callees: [db]\n  - name: db\n"
               "metrics:\n  - name: web_qps\n    maps_to: [{service: web, dim: traffic}]\n")


@pytest.mark.parametrize("name", ["bom", "crlf"])
def test_load_architecture_bom_and_crlf(tmp_path, name):
    plain = tmp_path / "plain.yaml"
    plain.write_text(SIMPLE_ARCH, encoding="utf-8")
    path = tmp_path / f"{name}.yaml"
    if name == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + SIMPLE_ARCH.encode())
    else:
        path.write_bytes(SIMPLE_ARCH.replace("\n", "\r\n").encode())
    expected = load_with(yaml.SafeLoader, plain)
    assert isinstance(expected, ArchitectureSpec)
    for loader in LOADERS:
        assert load_with(loader, path) == expected


#: Service and metric names: any text, or a number the resolver reads as one.
ARCH_NAMES = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6) \
    | st.integers(-5, 99)


@st.composite
def architectures(draw):
    """An arch.yaml payload and the spec it describes."""
    names = draw(st.lists(ARCH_NAMES, unique_by=str, min_size=1, max_size=5))
    services = [{"name": name, "callees": draw(st.lists(st.sampled_from(names), max_size=3))}
                for name in names]
    targets = st.fixed_dictionaries({
        "service": st.sampled_from(names),
        "dim": st.sampled_from(["traffic", "Saturation", "LATENCY", "errors"]),
    })
    metrics = [{"name": name, "maps_to": draw(st.lists(targets, min_size=1, max_size=3))}
               for name in draw(st.lists(ARCH_NAMES, unique_by=str, max_size=6))]
    spec = ArchitectureSpec(
        services={str(s["name"]): tuple(str(c) for c in s["callees"]) for s in services},
        metric_map={str(m["name"]): frozenset(mm(str(t["service"]), MetaMetricDim(t["dim"].lower()))
                                              for t in m["maps_to"])
                    for m in metrics},
    )
    return {"services": services, "metrics": metrics}, spec


@settings(max_examples=100, deadline=None)
@given(drawn=architectures(), flow=st.booleans(), allow_unicode=st.booleans())
@example(drawn=({"services": [{"name": "0", "callees": []}],
                 "metrics": [{"name": "\x85", "maps_to": [{"service": "0", "dim": "traffic"}]}]},
                ArchitectureSpec(services={"0": ()},
                                 metric_map={"\x85": frozenset({mm("0", T)})})),
         flow=False, allow_unicode=True)
def test_loaders_agree_on_dumped_architectures(drawn, flow, allow_unicode):
    payload, spec = drawn
    text = yaml.safe_dump(payload, default_flow_style=flow, allow_unicode=allow_unicode,
                          sort_keys=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arch.yaml"
        path.write_text(text, encoding="utf-8")
        results = [load_with(loader, path) for loader in LOADERS]
    assert all(result == results[0] for result in results)
    # Under allow_unicode PyYAML's emitter writes NEL (U+0085) raw, and
    # YAML reads it back as a line break, so a name holding one does not
    # survive the dump; every text that does round-trip gives the spec.
    if yaml.load(text, Loader=yaml.SafeLoader) == payload:
        assert results[0] == spec
        assert list(results[0].services.items()) == list(spec.services.items())


def event_depth(text):
    """The deepest collection nesting of a YAML stream, from the pure-Python
    parser's events."""
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yaml.SafeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return deepest


@st.composite
def nested_documents(draw):
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                    max_size=3),
        max_leaves=40,
    )
    return yaml.safe_dump(draw(values), default_flow_style=draw(st.none() | st.booleans()),
                          indent=draw(st.integers(2, 4)))


@settings(max_examples=200, deadline=None)
@given(text=nested_documents())
@example(text="- - - a\n")
@example(text="? ? ? a\n")
@example(text="a:\n  b:\n    c: d\n")
@example(text="[a: [b: c], {d: [e]}]\n")
@example(text="? [a]\n: {b: [c]}\n")
@example(text="a:\n- b:\n  - c\n  - ? d\n    : e\n")
@example(text="--- [a]\n--- {b: [[c]]}\n")
def test_nesting_bound_covers_event_depth(text):
    assert archgraph._nesting_bound(text) >= event_depth(text)


def test_nesting_scan_accepts_long_shallow_file(tmp_path, loader):
    # 3,000 services put 6,000 '-' and ':' in the file: past the cheap
    # bound, so the event scan runs and must let the depth-3 file through.
    services = "".join(f"  - name: s{i}\n" for i in range(3000))
    path = tmp_path / "arch.yaml"
    path.write_text(f"services:\n{services}metrics: []\n")
    assert archgraph._nesting_bound(path.read_text()) > archgraph.MAX_NESTING
    spec = load_architecture(path)
    assert list(spec.services) == [f"s{i}" for i in range(3000)]


def nested(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("depth", [600, 30_000])
def test_deeply_nested_architecture_is_an_error_line(tmp_path, depth):
    # A subprocess, so that a crash of the C composer fails this test
    # rather than ending the test run.
    path = tmp_path / "arch.yaml"
    path.write_text(f"services: {nested(depth)}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "rcakit.cli", "graph", str(path),
                             "--out", str(tmp_path / "graph.json")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]
    assert not (tmp_path / "graph.json").exists()


@pytest.mark.parametrize("depth", [600, 30_000])
def test_deeply_nested_architecture_is_malformed_pure_python(tmp_path, monkeypatch, depth):
    # In process: the pure-Python composer raises RecursionError, never crashes.
    monkeypatch.setattr(archgraph, "_loader", lambda: yaml.SafeLoader)
    path = tmp_path / "arch.yaml"
    path.write_text(f"services: {nested(depth)}\n")
    with pytest.raises(MalformedInput, match="arch.yaml"):
        load_architecture(path)


@pytest.mark.parametrize("where", [
    "services: [{name: %s}]\n",
    "services: [{name: web}]\nmetrics: [{name: %s, maps_to: [{service: web, dim: traffic}]}]\n",
    "services: [{name: web}]\nmetrics: [{name: x, maps_to: [{service: %s, dim: traffic}]}]\n",
    "services: [{name: web}]\nmetrics: [{name: x, maps_to: [{service: web, dim: %s}]}]\n",
], ids=["service", "metric", "maps-to-service", "maps-to-dim"])
@pytest.mark.parametrize("depth", [1, 1500])
def test_collection_as_name_is_malformed(tmp_path, loader, where, depth):
    # A name is a scalar: `name: [a]` is not the service "['a']", and a deep
    # list is not spelled out until Python's recursion limit.
    path = tmp_path / "arch.yaml"
    path.write_text(where % ("[" * depth + "a" + "]" * depth))
    with pytest.raises(MalformedInput):
        load_architecture(path)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_architecture_loads_through_libyaml(tmp_path, monkeypatch):
    # Performance guard: the pure-Python loader takes about 8x as long on a
    # 30-service architecture, and gives the same result, so nothing but
    # this test notices a fallback to it.
    assert archgraph._loader() is yaml.CSafeLoader
    made = []

    class CountingLoader(yaml.CSafeLoader):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(archgraph, "_loader", lambda: CountingLoader)
    path = tmp_path / "arch.yaml"
    path.write_text(SIMPLE_ARCH)
    assert load_architecture(path).metric_map == {"web_qps": frozenset({mm("web", T)})}
    assert made


def test_skeleton_topological_order_matches_networkx():
    architectures = [
        {"s": ()},
        {"web": ("db",), "db": ()},
        {"gw": ("auth", "cart"), "cart": ("cache", "db"), "auth": ("db",)},
    ]
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = int(rng.integers(2, 12))
        names = [f"svc{int(i)}" for i in rng.permutation(100)[:k]]
        architectures.append({
            names[i]: tuple(names[j] for j in range(i + 1, k) if rng.random() < 0.3)
            for i in range(k)
        })
    for services in architectures:
        skeleton = build_skeleton(services)
        assert skeleton.topological_order() == lexicographic_networkx_order(skeleton)


NAMES = [f"s{i}" for i in range(8)]


@st.composite
def service_lists(draw):
    """Services over up to eight names, each calling up to three names.  A
    third of the draws call only later names, so the call graph is acyclic
    and may call names declared nowhere; a third call other declared
    services; a third may also call the caller itself."""
    mode = draw(st.sampled_from(["later", "other", "any"]))
    declared = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=6))
    services = {}
    for name in declared:
        pool = {"later": NAMES[NAMES.index(name) + 1:], "any": declared,
                "other": [other for other in declared if other != name]}[mode]
        callees = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        services[name] = tuple(callees)
    return services


@settings(max_examples=300, deadline=None)
@given(services=service_lists(), data=st.data())
def test_call_graph_and_compiler_match_networkx(services, data):
    calls = nx.DiGraph()
    calls.add_nodes_from(services)
    calls.add_edges_from((svc, callee) for svc, callees in services.items() for callee in callees)
    if not nx.is_directed_acyclic_graph(calls):
        with pytest.raises(CyclicCallGraph) as err:
            build_skeleton(services)
        message = str(err.value)
        assert message.startswith("call graph contains a cycle: ")
        cycle = re.findall(r"'([^']*)'", message)
        # a closed walk along call edges that repeats no other service
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        assert all(calls.has_edge(caller, callee) for caller, callee in zip(cycle, cycle[1:]))
        return
    metas = [MetaMetric(name, dim) for name in sorted(calls.nodes) for dim in MetaMetricDim]
    metric_map = {}
    if metas:
        for i in range(data.draw(st.integers(0, 15), label="metrics")):
            metric_map[f"m{i}"] = frozenset(data.draw(
                st.lists(st.sampled_from(metas), min_size=1, max_size=3), label=f"m{i}"))
    spec = ArchitectureSpec(services, metric_map)
    graph = build_structural_graph(spec)
    assert graph == compiler_reference.build_structural_graph(spec)
    compiled = nx.DiGraph(list(graph.edges))
    compiled.add_nodes_from(graph.nodes)
    assert set(compiled.nodes) == set(metric_map)
    assert nx.is_directed_acyclic_graph(compiled)
    assert graph.topological_order() == lexicographic_networkx_order(graph)


@pytest.mark.parametrize("seed", [1, 2])
def test_archgen_architectures_compile_as_the_reference(tmp_path, archgen, seed):
    # The triage workload's twelve architectures of a seed: 30 services,
    # two-dimension metrics and error metrics, loaded from their YAML.
    for index in range(archgen.N_ARCHITECTURES):
        path = tmp_path / f"arch{index}.yaml"
        path.write_text(yaml.safe_dump(archgen.architecture(seed, index), sort_keys=False))
        spec = load_architecture(path)
        assert any(len(metas) > 1 for metas in spec.metric_map.values())
        assert build_structural_graph(spec) == compiler_reference.build_structural_graph(spec)


@pytest.mark.parametrize("text, where", [
    ("services: [{name: ''}]\n", "services[0].name must be non-empty"),
    ("services: [{name: web}]\nmetrics: [{name: '', maps_to: [{service: web, dim: traffic}]}]\n",
     "metrics[0].name must be non-empty"),
    ("services: [{name: web}, {name: db}, {name: web}]\n", "service 'web' declared twice"),
    ("services: [{name: }]\nmetrics: [{name: m, maps_to: [{service: None, dim: traffic}]}]\n",
     "services[0].name must be non-empty"),
    ("services: [{name: web, callees: ['']}]\n", "services[0].callees[0] must be non-empty"),
], ids=["empty-service", "empty-metric", "service-twice", "null-service", "empty-callee"])
def test_bad_names_are_malformed_and_name_the_file(tmp_path, capsys, loader, text, where):
    from rcakit.cli import main

    path = tmp_path / "arch.yaml"
    path.write_text(text)
    with pytest.raises(MalformedInput, match=re.escape(f"{path}: {where}")):
        load_architecture(path)
    assert main(["graph", str(path), "--out", str(tmp_path / "graph.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: {where}"]
    assert not (tmp_path / "graph.json").exists()


def test_undecodable_architecture_is_malformed_and_names_the_file(tmp_path, capsys, loader):
    from rcakit.cli import main

    path = tmp_path / "arch.yaml"
    path.write_bytes(b"services:\n  - name: w\xffeb\n")
    with pytest.raises(MalformedInput) as err:
        load_architecture(path)
    assert str(err.value).startswith(f"{path}: ")
    assert main(["graph", str(path), "--out", str(tmp_path / "graph.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert not (tmp_path / "graph.json").exists()


def test_plain_scalars_name_what_they_spell(tmp_path, loader):
    # YAML 1.1 would read these as True, 8, 80 and 31; a name is the text.
    path = tmp_path / "arch.yaml"
    path.write_text(
        "services:\n"
        "  - name: true\n"
        "    callees: [010]\n"
        "  - name: 1:20\n"
        "metrics:\n"
        "  - name: 010\n"
        "    maps_to:\n"
        "      - service: 1:20\n"
        "        dim: traffic\n"
        "  - name: 0x1F\n"
        "    maps_to: [{service: true, dim: latency}]\n"
    )
    spec = load_architecture(path)
    assert spec == ArchitectureSpec(
        services={"true": ("010",), "1:20": ()},
        metric_map={"010": {mm("1:20", T)}, "0x1F": {mm("true", L)}},
    )
    assert build_structural_graph(spec).nodes == {"010", "0x1F"}


def test_merge_keys_expand(tmp_path, loader):
    merged = tmp_path / "merged.yaml"
    merged.write_text(
        "base: &web {service: web, dim: traffic}\n"
        "services: [{name: web, callees: [db]}, {name: db}]\n"
        "metrics:\n"
        "  - name: web_qps\n"
        "    maps_to: [{<<: *web}]\n"
        "  - name: web_latency\n"
        "    maps_to:\n"
        "      - <<: *web\n"
        "        dim: latency\n"
    )
    expanded = tmp_path / "expanded.yaml"
    expanded.write_text(
        "services: [{name: web, callees: [db]}, {name: db}]\n"
        "metrics:\n"
        "  - {name: web_qps, maps_to: [{service: web, dim: traffic}]}\n"
        "  - {name: web_latency, maps_to: [{service: web, dim: latency}]}\n"
    )
    spec = load_architecture(merged)
    assert spec == load_architecture(expanded)
    assert spec.metric_map == {"web_qps": {mm("web", T)}, "web_latency": {mm("web", L)}}


#: Scalars a name may be written as, and anything else YAML can put there.
SCALAR_NAMES = (st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4)
                | st.integers() | st.floats() | st.booleans())
ANY_NAMES = SCALAR_NAMES | st.none() | st.just("") | st.lists(st.text(max_size=2), max_size=2)


def written(value) -> str:
    """The name a dumped scalar spells: a string itself, any other scalar
    the text the dumper writes for it."""
    return value if isinstance(value, str) else yaml.safe_dump(value).splitlines()[0]


@st.composite
def fuzzed_architectures(draw):
    """An arch.yaml payload and the names it holds: in half the draws
    every name is a scalar, in the others any name may be anything."""
    pool = draw(st.sampled_from([SCALAR_NAMES, ANY_NAMES]))
    names = []

    def name():
        names.append(draw(pool))
        return names[-1]

    services = [{"name": name(), "callees": [name() for _ in range(draw(st.integers(0, 2)))]}
                for _ in range(draw(st.integers(0, 3)))]
    declared = [svc["name"] for svc in services]
    dims = st.sampled_from(["traffic", "Saturation", "LATENCY", "errors"])
    metrics = [{"name": name(), "maps_to": [
                   {"service": draw(st.sampled_from(declared)) if declared and draw(st.booleans())
                    else name(), "dim": draw(dims if pool is SCALAR_NAMES else dims | pool)}
                   for _ in range(draw(st.integers(1, 2)))]}
               for _ in range(draw(st.integers(0, 3)))]
    return {"services": services, "metrics": metrics}, names


@settings(max_examples=100, deadline=None)
@given(drawn=fuzzed_architectures(), flow=st.booleans())
@example(drawn=({"services": [{"name": None, "callees": []}], "metrics": []}, [None]), flow=False)
def test_fuzzed_names_are_the_text_written_or_an_error_line(drawn, flow):
    from rcakit.cli import main

    payload, names = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arch.yaml"
        path.write_text(yaml.safe_dump(payload, default_flow_style=flow), encoding="utf-8")
        specs = [load_with(loader, path) for loader in LOADERS]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["graph", str(path), "--out", str(Path(tmp) / "graph.json")])
    assert all(spec == specs[0] for spec in specs)
    spec = specs[0]
    if any(value is None or value == "" for value in names):
        assert not isinstance(spec, ArchitectureSpec)
    assert code in (0, 1) and "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error: ") for line in lines) == (code == 1)
    if not isinstance(spec, ArchitectureSpec):
        assert code == 1
        return
    assert spec.services == {written(s["name"]): tuple(map(written, s["callees"]))
                             for s in payload["services"]}
    assert spec.metric_map == {
        written(m["name"]): frozenset(mm(written(t["service"]),
                                         MetaMetricDim(written(t["dim"]).lower()))
                                      for t in m["maps_to"])
        for m in payload["metrics"]}
    found = [*spec.services, *(c for callees in spec.services.values() for c in callees),
             *spec.metric_map, *(m.service for metas in spec.metric_map.values() for m in metas)]
    assert all(isinstance(name, str) and name for name in found)


def graph_errors(tmp_path, text):
    """The exit code and stderr lines of an in-process ``rcakit graph`` on
    an arch.yaml holding ``text``, and the file's path."""
    from rcakit.cli import main

    path = tmp_path / "arch.yaml"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["graph", str(path), "--out", str(tmp_path / "graph.json")])
    assert not (tmp_path / "graph.json").exists() or code == 0
    return code, err.getvalue().splitlines(), path


@pytest.mark.parametrize("text, where", [
    ("services: [{name: web}]\nmetrics: [{name: !!float 1e3, maps_to: [{service: web, dim: traffic}]}]\n",
     "line 2, column 18: tag !!float on a scalar"),
    ("services: [{name: !!binary aGk=}]\n", "line 1, column 19: tag !!binary on a scalar"),
    ("services: [{name: !!int 0x1F}]\n", "line 1, column 19: tag !!int on a scalar"),
    ("services: [{name: !!bool yes}]\n", "line 1, column 19: tag !!bool on a scalar"),
    ("services:\n  - !!set {a: null}\n", "line 2, column 5: tag !!set on a mapping"),
    ("services: [{name: !foo m}]\n", "line 1, column 19: tag !foo on a scalar"),
    ("services: !!omap [{name: web}]\n", "line 1, column 11: tag !!omap on a sequence"),
    ("base: &web !!set {service: null}\nservices: [{name: web}]\n"
     "metrics: [{name: m, maps_to: [{<<: *web, dim: traffic}]}]\n",
     "line 1, column 7: tag !!set on a mapping"),
], ids=["float", "binary", "int", "bool", "set", "local", "omap", "merged-set"])
def test_explicit_tags_are_an_error_line(tmp_path, loader, text, where):
    # A name is the text written: ``!!float 1e3`` is not the metric "1000.0".
    code, lines, path = graph_errors(tmp_path, text)
    assert (code, lines) == (1, [f"error: {path}: {where}"])


@pytest.mark.parametrize("text, where", [
    ("services: [{name: web}]\nmetrics: [{name: m, maps_to: [{service: web, dim: traffic}]}]\n"
     "metrics: []\n", "line 3, column 1: key 'metrics' repeats"),
    ("services: [{name: web, name: db}]\n", "line 1, column 24: key 'name' repeats"),
    ("services: [{name: web}]\n"
     "metrics: [{name: m, maps_to: [{service: web, dim: traffic, dim: errors}]}]\n",
     "line 2, column 60: key 'dim' repeats"),
    ("services: [{name: web, 'name': db}]\n", "line 1, column 24: key 'name' repeats"),
    ("services: [{name: web}]\n~: a\nnull: b\n", "line 3, column 1: key None repeats"),
    ("services: [{name: web}]\n[a]: b\n", "line 2, column 1: a key must be a scalar, not a sequence"),
], ids=["metrics", "name", "dim", "quoted", "null", "sequence-key"])
def test_repeated_keys_are_an_error_line(tmp_path, loader, text, where):
    # The last of two values was kept silently: a second `metrics:` emptied
    # the graph and `{name: web, name: db}` declared the service db.
    code, lines, path = graph_errors(tmp_path, text)
    assert (code, lines) == (1, [f"error: {path}: {where}"])


def test_merged_keys_give_way_to_own_keys(tmp_path, loader):
    path = tmp_path / "arch.yaml"
    path.write_text(
        "base: &web {service: web, dim: traffic}\n"
        "two: &db {service: db, dim: errors}\n"
        "services: [{name: web, callees: [db]}, {name: db}]\n"
        "metrics:\n"
        "  - {name: a, maps_to: [{<<: *web, dim: latency}]}\n"
        "  - {name: b, maps_to: [{<<: [*db, *web]}]}\n"
        "  - {name: c, maps_to: [{<<: *db, <<: *web}]}\n"
        "  - {name: d, maps_to: [{dim: saturation, <<: [*web, *db]}]}\n"
    )
    assert load_architecture(path).metric_map == {
        "a": {mm("web", L)}, "b": {mm("db", E)}, "c": {mm("web", T)}, "d": {mm("web", S)}}


@pytest.mark.parametrize("text", MALFORMED_YAML + [
    "x: {<<: [1, 2]}\nservices: [{name: web}]\n",
    "services: [{name: !foo m}]\n",
    "a: &a {<<: *a}\nservices: [{name: web}]\n",
    "services: [*nope]\n",
    "services: [{name: web}]\n--- {}\n",
    "services:\n\t- name: web\n",
    "a: &x 1\nb: &x 2\nservices: [{name: web}]\n",
], ids=[*map(str, range(len(MALFORMED_YAML))), "merge-scalars", "unknown-tag", "merge-cycle",
        "undefined-alias", "two-documents", "tab", "duplicate-anchor"])
def test_every_arch_error_is_one_line_naming_the_file(tmp_path, loader, text):
    # At 6,000 levels the C composer is stopped before it recurses, and at
    # 600 the walk's RecursionError is caught: see the nesting tests.
    code, lines, path = graph_errors(tmp_path, text)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
    assert "<unicode string>" not in lines[0]


def test_yaml_errors_name_line_and_column(tmp_path, loader):
    _, lines, path = graph_errors(tmp_path, "services:\n  - name: w\x01eb\n")
    assert lines == [f"error: {path}: line 2, column 12: not valid YAML "
                     "(unacceptable character #x0001)"]
    _, lines, path = graph_errors(tmp_path, "services: [{name: web}]\nmetrics: [*m]\n")
    assert lines[0].startswith(f"error: {path}: line 2, column 11: not valid YAML (found undefined")


def test_loaders_differ_on_a_tab_in_a_flow_collection(tmp_path, loader):
    # The one difference between the loaders that README states: libyaml
    # reads a tab inside [ ] as white space, the pure-Python scanner refuses it.
    code, lines, path = graph_errors(tmp_path, "services: [{name: web}]\n\nmetrics: [\t]\n")
    if loader is yaml.SafeLoader:
        assert (code, lines) == (1, [f"error: {path}: line 3, column 11: not valid YAML (while "
                                     "scanning for the next token, found character '\\t' that "
                                     "cannot start any token)"])
    else:
        assert (code, lines) == (0, ["warning: architecture maps no metrics; graph is empty"])
        assert load_architecture(path) == ArchitectureSpec(services={"web": ()}, metric_map={})


def test_recursive_alias_is_the_error_it_was(tmp_path, loader):
    # `&a [*a]` is a list holding itself: an entry with no name.
    path = tmp_path / "arch.yaml"
    path.write_text("services: &a [*a]\n")
    with pytest.raises(MalformedInput) as err:
        load_architecture(path)
    assert str(err.value) == f"{path}: services[0] needs a 'name'"


def built_loader(base, tmp_path):
    """The loader class load_architecture derives from ``base``."""
    made = []

    class Recording(base):
        def __init__(self, stream):
            made.append(type(self))
            super().__init__(stream)

    path = tmp_path / "built.yaml"
    path.write_text("services: []\n")
    assert isinstance(load_with(Recording, path), ArchitectureSpec)
    return made[-1]


def walk(loader, text):
    """load_architecture's walk of ``text`` with the loader it builds."""
    with tempfile.TemporaryDirectory() as tmp:
        built = built_loader(loader, Path(tmp))
    return archgraph._plain(yaml.compose(text, Loader=built), "arch.yaml", {})


def test_doubling_alias_chain_is_walked_once(tmp_path, loader):
    # Each level holds the one below twice: 2**40 leaves if spelled out.
    chain = "".join(f"a{i}: &a{i} [*a{i - 1}, *a{i - 1}]\n" for i in range(1, 41))
    text = f"a0: &a0 [x]\n{chain}services: [{{name: web}}]\n"
    path = tmp_path / "arch.yaml"
    path.write_text(text)
    assert load_architecture(path).services == {"web": ()}
    value = walk(loader, text)
    assert value["a1"][0] is value["a1"][1] is value["a0"]
    assert value["a40"][0] is value["a40"][1] is value["a39"]


def test_doubling_merge_chain_is_merged_once(tmp_path, loader):
    # Each level merges the one below twice.  SafeConstructor's
    # flatten_mapping copies the pairs of every source, 2**40 of them here.
    merges = "".join(f"m{i}: &m{i} {{<<: [*m{i - 1}, *m{i - 1}], k{i}: v}}\n" for i in range(1, 41))
    text = f"m0: &m0 {{k0: v}}\n{merges}services: [{{name: web}}]\n"
    path = tmp_path / "arch.yaml"
    path.write_text(text)
    assert load_architecture(path).services == {"web": ()}
    assert walk(loader, text)["m40"] == {f"k{i}": "v" for i in range(41)}


def filtered(base):
    """``base`` with only the null and merge implicit resolvers, the way
    the architecture loader was built before it resolved tags itself."""
    return type("Filtered", (base,), {"yaml_implicit_resolvers": {
        first: [(tag, regexp) for tag, regexp in resolvers if tag.endswith((":null", ":merge"))]
        for first, resolvers in base.yaml_implicit_resolvers.items()}})


PlainDumper = filtered(yaml.SafeDumper)
STR, NULL, MERGE = (f"tag:yaml.org,2002:{name}" for name in ("str", "null", "merge"))
TEXTS = st.sampled_from(["web", "db", "010", "true", "1:20", "0x1F", "", "a b", "x: y", "- z",
                         "#c", "é", "<<", "~", "null", "'q'", "[l]"])


@st.composite
def node_documents(draw, max_nodes=12):
    """A YAML document drawn as a node graph and serialised: plain, single-
    and double-quoted strings, nulls, sequences and mappings in flow and
    block style, nodes shared (so anchored and aliased, also inside other
    shared nodes), and ``<<`` merges of one mapping or a list of them.
    Every mapping's own keys differ, no tag is written, and a node only
    holds nodes drawn before it, so nothing holds itself."""
    built, mappings = [], []

    def scalar():
        if draw(st.booleans()):
            return yaml.ScalarNode(NULL, draw(st.sampled_from(["", "~", "null", "Null", "NULL"])))
        return yaml.ScalarNode(STR, draw(TEXTS), style=draw(st.sampled_from([None, "'", '"'])))

    def child():
        if built and draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(built))
        return scalar()

    for _ in range(draw(st.integers(1, max_nodes))):
        flow = draw(st.sampled_from([None, True, False]))
        if draw(st.booleans()):
            node = yaml.SequenceNode("tag:yaml.org,2002:seq",
                                     [child() for _ in range(draw(st.integers(0, 3)))], flow_style=flow)
        else:
            pairs = []
            if mappings and draw(st.booleans()):
                sources = draw(st.lists(st.sampled_from(mappings), min_size=1, max_size=3))
                merged = (sources[0] if len(sources) == 1 and draw(st.booleans())
                          else yaml.SequenceNode("tag:yaml.org,2002:seq", sources,
                                                 flow_style=draw(st.booleans())))
                pairs.append((yaml.ScalarNode(MERGE, "<<"), merged))
            keys = draw(st.lists(TEXTS | st.none(), unique=True, max_size=3))
            pairs += [(yaml.ScalarNode(NULL, "~") if key is None else yaml.ScalarNode(STR, key),
                       child()) for key in keys]
            node = yaml.MappingNode("tag:yaml.org,2002:map", draw(st.permutations(pairs)),
                                    flow_style=flow)
            mappings.append(node)
        built.append(node)
    if draw(st.booleans()):  # every node, so those held by others are anchored
        built.append(yaml.SequenceNode("tag:yaml.org,2002:seq", built[:], flow_style=flow))
    return yaml.serialize(built[-1], Dumper=PlainDumper)


def shape(value, seen=None):
    """``value`` with each list or dict met again replaced by the order in
    which it was first met, so that equal shapes share alike."""
    seen = {} if seen is None else seen
    if not isinstance(value, (list, dict)):
        return value
    if id(value) in seen:
        return ("seen", seen[id(value)])
    seen[id(value)] = len(seen)
    if isinstance(value, list):
        return ["list", *(shape(item, seen) for item in value)]
    return ["dict", *((key, shape(item, seen)) for key, item in value.items())]


@settings(max_examples=150, deadline=None)
@given(text=node_documents())
@example(text="a: &a {k: 1, j: 2}\nb: &b {k: 3, m: 4}\nc: {<<: [*a, *b], j: 5}\nd: {<<: *a, <<: *b}\n")
@example(text="- &a [x, &s y]\n- *a\n- {<<: {k: *a}, *s : z}\n- !!str 010\n- ! true\n")
def test_walk_matches_safe_constructor(text):
    # The oracle is PyYAML's own SafeConstructor with the resolvers the
    # walk replaced: same values, same key order, the same objects shared.
    for loader in LOADERS:
        expected = yaml.load(text, Loader=filtered(loader))
        value = walk(loader, text)
        assert value == expected
        assert shape(value) == shape(expected)


def test_meta_metrics_sort_as_service_then_dimension():
    metas = [MetaMetric(service, dim) for service in ("web", "db", "a", "web2", "Web")
             for dim in MetaMetricDim]
    np.random.default_rng(3).shuffle(metas)
    assert sorted(metas) == sorted(metas, key=lambda meta: (meta.service, meta.dim.value))
    assert str(MetaMetric("web", T)) == "web.traffic"
    assert repr(mm("db", E)) == "MetaMetric(service='db', dim=<MetaMetricDim.ERRORS: 'errors'>)"
    assert MetaMetric("web", T) == mm("web", T) and hash(MetaMetric("web", T)) == hash(mm("web", T))
