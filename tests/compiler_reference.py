"""The structural-graph compiler that the one-walk ``archgraph`` replaced,
frozen.

``build_skeleton`` lists the six within-service edges by hand, and
``build_structural_graph`` is the former plug-in walk: a separate pass
for unknown meta metrics, a topological index to find each
multi-dimension metric's last host, and an ``add_edges`` that skips self
loops.  The two ``ResultNotDag`` wrappers are left out: that class is
gone, and a cycle here raises ``CausalGraph``'s ``ValueError``.  The
library's compiler must give an equal graph, or raise the same error,
on every architecture.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from rcakit.archgraph import ArchitectureSpec, MetaMetric, MetaMetricDim, _call_graph
from rcakit.errors import UnknownMetaMetric
from rcakit.model import CausalGraph, MetricId

_WITHIN_SERVICE_EDGES = (
    (MetaMetricDim.TRAFFIC, MetaMetricDim.SATURATION),
    (MetaMetricDim.TRAFFIC, MetaMetricDim.LATENCY),
    (MetaMetricDim.TRAFFIC, MetaMetricDim.ERRORS),
    (MetaMetricDim.SATURATION, MetaMetricDim.LATENCY),
    (MetaMetricDim.SATURATION, MetaMetricDim.ERRORS),
    (MetaMetricDim.LATENCY, MetaMetricDim.ERRORS),
)


def build_skeleton(services: Mapping[str, Sequence[str]]) -> CausalGraph:
    calls = _call_graph(services)
    T, L, E = MetaMetricDim.TRAFFIC, MetaMetricDim.LATENCY, MetaMetricDim.ERRORS
    nodes = {MetaMetric(name, dim) for name in calls.nodes for dim in MetaMetricDim}
    edges = {(MetaMetric(name, src), MetaMetric(name, dst))
             for name in calls.nodes for src, dst in _WITHIN_SERVICE_EDGES}
    for caller, callee in calls.edges:
        edges.add((MetaMetric(caller, T), MetaMetric(callee, T)))
        for dim in MetaMetricDim:
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, L)))
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, E)))
    return CausalGraph(nodes, edges)


def build_structural_graph(spec: ArchitectureSpec) -> CausalGraph:
    skeleton = build_skeleton(spec.services)
    hosts: dict[MetricId, frozenset[MetaMetric]] = dict(spec.metric_map)
    for metric, metas in hosts.items():
        for meta in metas:
            if meta not in skeleton.nodes:
                raise UnknownMetaMetric(f"metric {metric!r} maps to unknown {meta}")

    assigned: dict[MetaMetric, set[MetricId]] = {v: set() for v in skeleton.nodes}
    for metric, metas in hosts.items():
        for meta in metas:
            assigned[meta].add(metric)

    order = skeleton.topological_order()
    order_index = {meta: i for i, meta in enumerate(order)}
    last_host = {
        metric: max(metas, key=order_index.__getitem__)
        for metric, metas in hosts.items()
        if len(metas) > 1
    }

    edges: set[tuple[MetricId, MetricId]] = set()
    current: dict[MetaMetric, set[MetricId]] = {}

    def add_edges(sources: Iterable[MetricId], targets: Iterable[MetricId]) -> None:
        for tgt in targets:
            for src in sources:
                if src != tgt:
                    edges.add((src, tgt))

    for meta in order:
        incoming: set[MetricId] = set()
        for parent in skeleton.parents(meta):
            incoming |= current[parent]
        own = set(assigned[meta])
        for metric in sorted(assigned[meta]):
            if metric in last_host:
                own.discard(metric)
                if last_host[metric] == meta:
                    for other in hosts[metric]:
                        if other != meta:
                            add_edges(current[other], [metric])
                    incoming.add(metric)
        add_edges(incoming, own)
        if meta.dim is MetaMetricDim.ERRORS:
            for parent in skeleton.parents(meta):
                if parent.dim is MetaMetricDim.ERRORS:
                    own |= current[parent]
        current[meta] = own if own else incoming

    return CausalGraph(nodes=hosts.keys(), edges=edges)
