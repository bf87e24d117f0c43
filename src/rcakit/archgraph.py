"""Compile architecture knowledge into a causal graph over metrics.

The compiler runs in two stages.  First the service call graph expands
into a *skeleton*: a DAG over (service, dimension) pairs, where each
service carries the four golden-signal dimensions (traffic, saturation,
latency, errors) with fixed intra-service causal directions, and each
call edge wires the callee's dimensions into the caller as if they were
part of the caller's saturation.  Second, monitoring metrics are plugged
into the skeleton: each metric receives edges from the metrics of its
dimension's skeleton parents, dimensions without any metric of their own
forward their parents' metrics to their children, error dimensions
additionally pass their parents' error metrics downstream, and a metric
measuring several dimensions at once is attached at the last of them in
topological order so no cycle can arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import CyclicCallGraph, MalformedInput, ResultNotDag, UnknownMetaMetric
from .model import CausalGraph, MetricId

#: The deepest collection nesting an arch.yaml may have.  libyaml's
#: composer recurses in C, one stack frame per level, and no Python limit
#: stops it: on an 8 MB stack 20,000 levels load and 25,000 crash the
#: interpreter.  The limit leaves room for smaller stacks and is far above
#: what an architecture needs (about 5 levels).
MAX_NESTING = 5_000


def _loader():
    """The safe loader ``load_architecture`` parses with: libyaml's when
    PyYAML is built with it, else the pure-Python one (the same
    constructor and resolver, so the same result).  yaml is imported here,
    so that only commands that read an architecture pay for it."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class MetaMetricDim(str, Enum):
    """The four per-service measurement dimensions."""

    TRAFFIC = "traffic"
    SATURATION = "saturation"
    LATENCY = "latency"
    ERRORS = "errors"


@dataclass(frozen=True, order=True)
class MetaMetric:
    """A (service, dimension) node of the skeleton."""

    service: str
    dim: MetaMetricDim

    def __str__(self) -> str:
        return f"{self.service}.{self.dim.value}"


@dataclass(frozen=True)
class ArchitectureSpec:
    """Call graph plus the metric -> meta-metric mapping.

    ``services`` maps each declared service to the services it calls, in
    declaration order.  The metric mapping is stored in the direction
    operators label metrics (metric to the dimensions it measures); the
    compiler inverts it.
    """

    services: Mapping[str, tuple[str, ...]]
    metric_map: Mapping[MetricId, frozenset[MetaMetric]]

    def __post_init__(self):
        services = {name: tuple(callees) for name, callees in dict(self.services).items()}
        object.__setattr__(self, "services", services)
        normalized = {}
        for metric, metas in dict(self.metric_map).items():
            metas = frozenset(metas)
            if not metric:
                raise ValueError("metric name must be non-empty")
            if not metas:
                raise ValueError(f"metric {metric!r} maps to no meta metric")
            normalized[metric] = metas
        object.__setattr__(self, "metric_map", normalized)


#: Intra-service causal directions: traffic drives everything, saturation
#: drives latency and errors, latency drives errors.
_WITHIN_SERVICE_EDGES = (
    (MetaMetricDim.TRAFFIC, MetaMetricDim.SATURATION),
    (MetaMetricDim.TRAFFIC, MetaMetricDim.LATENCY),
    (MetaMetricDim.TRAFFIC, MetaMetricDim.ERRORS),
    (MetaMetricDim.SATURATION, MetaMetricDim.LATENCY),
    (MetaMetricDim.SATURATION, MetaMetricDim.ERRORS),
    (MetaMetricDim.LATENCY, MetaMetricDim.ERRORS),
)


def _call_graph(services: Mapping[str, Sequence[str]]) -> CausalGraph:
    """The call graph, caller to callee, over the declared services and
    their callees; a callee declared nowhere is a leaf service."""
    calls = [(svc, callee) for svc, callees in services.items() for callee in callees]
    if not all(services) or not all(callee for _, callee in calls):
        raise ValueError("service names must be non-empty")
    try:
        return CausalGraph([*services.keys(), *(callee for _, callee in calls)], calls)
    except ValueError as exc:
        raise CyclicCallGraph(f"call {exc}") from exc


def build_skeleton(services: Mapping[str, Sequence[str]]) -> CausalGraph:
    """Expand a service call graph into the meta-metric skeleton: a DAG
    over ``MetaMetric`` nodes.

    Callees that appear only on the right-hand side of a call are treated
    as leaf services.
    """
    calls = _call_graph(services)
    T, L, E = MetaMetricDim.TRAFFIC, MetaMetricDim.LATENCY, MetaMetricDim.ERRORS
    nodes = {MetaMetric(name, dim) for name in calls.nodes for dim in MetaMetricDim}
    edges = {(MetaMetric(name, src), MetaMetric(name, dst))
             for name in calls.nodes for src, dst in _WITHIN_SERVICE_EDGES}
    for caller, callee in calls.edges:
        # The caller's traffic drives the callee's traffic; every callee
        # dimension stands in for the caller's saturation, feeding the
        # caller's latency and errors.
        edges.add((MetaMetric(caller, T), MetaMetric(callee, T)))
        for dim in MetaMetricDim:
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, L)))
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, E)))
    try:
        return CausalGraph(nodes, edges)
    except ValueError as exc:
        raise ResultNotDag(f"skeleton: {exc}") from exc


def build_structural_graph(spec: ArchitectureSpec) -> CausalGraph:
    """Plug monitoring metrics into the skeleton to get the metric DAG."""
    skeleton = build_skeleton(spec.services)
    hosts: dict[MetricId, frozenset[MetaMetric]] = dict(spec.metric_map)
    for metric, metas in hosts.items():
        for meta in metas:
            if meta not in skeleton.nodes:
                raise UnknownMetaMetric(f"metric {metric!r} maps to unknown {meta}")

    # Invert the operator-facing mapping: meta metric -> its monitoring metrics.
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
                own.discard(metric)  # a multi-dimension metric cannot feed itself
                if last_host[metric] == meta:
                    # Attach the metric below its other dimensions and let it
                    # stand in for them toward this dimension's metrics.
                    for other in hosts[metric]:
                        if other != meta:
                            add_edges(current[other], [metric])
                    incoming.add(metric)
        add_edges(incoming, own)
        if meta.dim is MetaMetricDim.ERRORS:
            # Error metrics propagate to downstream consumers unvalidated,
            # so parents' error metrics ride along with this dimension's own.
            for parent in skeleton.parents(meta):
                if parent.dim is MetaMetricDim.ERRORS:
                    own |= current[parent]
        current[meta] = own if own else incoming

    try:
        return CausalGraph(nodes=hosts.keys(), edges=edges)
    except ValueError as exc:
        raise ResultNotDag(str(exc)) from exc


def _as_list(value, where: str) -> list:
    """A YAML sequence, or an empty one when absent; a scalar or mapping
    is rejected rather than iterated (``callees: db`` is not ``[d, b]``)."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise MalformedInput(f"{where} must be a list, got {type(value).__name__}")
    return value


def _nesting_bound(text: str) -> int:
    """An upper bound on the collection nesting of the YAML in ``text``:
    every collection opens with at least one of these characters."""
    return sum(map(text.count, "[{-?:"))


def _check_nesting(text: str, path, loader) -> None:
    """MalformedInput when ``text`` nests deeper than MAX_NESTING.  Only a
    text whose cheap bound exceeds the limit is scanned, and the scan of
    parser events stops at the first level past it.

    Only libyaml's composer needs the guard: the pure-Python one recurses
    in Python and stops with a RecursionError.  Both scanners take time
    quadratic in the depth of nested flow collections, so the pure-Python
    one is not asked for a scan it does not need.
    """
    import yaml

    if issubclass(loader, yaml.composer.Composer) or _nesting_bound(text) <= MAX_NESTING:
        return
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                raise MalformedInput(f"{path}: nested deeper than {MAX_NESTING} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _name(value, where: str) -> str:
    """A non-null scalar as a non-empty name; a list or mapping is rejected
    rather than spelled out (``name: [a]`` is not the name ``['a']``)."""
    if isinstance(value, (list, dict)):
        raise MalformedInput(f"{where} must be a name, got {type(value).__name__}")
    if value is None or value == "":
        raise MalformedInput(f"{where} must be non-empty")
    return str(value)


def load_architecture(path) -> ArchitectureSpec:
    """Parse an arch.yaml file into an ArchitectureSpec.

    Raises MalformedInput for a file that does not describe one, including
    one nested deeper than MAX_NESTING.
    """
    import yaml

    base = _loader()
    # Only nulls and merge keys resolve: ``010``, ``true`` and ``1:20`` stay text.
    loader = type("Loader", (base,), {"yaml_implicit_resolvers": {
        first: [(tag, regexp) for tag, regexp in resolvers if tag.endswith((":null", ":merge"))]
        for first, resolvers in base.yaml_implicit_resolvers.items()}})
    try:
        text = Path(path).read_text(encoding="utf-8")
        _check_nesting(text, path, loader)
        payload = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise MalformedInput(f"{path}: not valid YAML ({exc})") from exc
    except RecursionError:
        # The pure-Python composer recurses in Python and gives out first.
        raise MalformedInput(f"{path}: nested too deeply to parse") from None
    if not isinstance(payload, dict):
        raise MalformedInput(f"{path}: expected a mapping with 'services' and 'metrics'")
    services: dict[str, tuple[str, ...]] = {}
    for i, entry in enumerate(_as_list(payload.get("services"), f"{path}: services")):
        if not isinstance(entry, dict) or "name" not in entry:
            raise MalformedInput(f"{path}: services[{i}] needs a 'name'")
        where = f"{path}: services[{i}]"
        callees = tuple(_name(c, f"{where}.callees[{j}]")
                        for j, c in enumerate(_as_list(entry.get("callees"), f"{where}.callees")))
        name = _name(entry["name"], f"{where}.name")
        if name in services:
            raise MalformedInput(f"{path}: service {name!r} declared twice")
        services[name] = callees
    metric_map: dict[MetricId, frozenset[MetaMetric]] = {}
    for i, entry in enumerate(_as_list(payload.get("metrics"), f"{path}: metrics")):
        if not isinstance(entry, dict) or "name" not in entry or not entry.get("maps_to"):
            raise MalformedInput(f"{path}: metrics[{i}] needs 'name' and a non-empty 'maps_to'")
        name = _name(entry["name"], f"{path}: metrics[{i}].name")
        if name in metric_map:
            raise MalformedInput(f"{path}: metric {name!r} declared twice")
        metas = set()
        for j, target in enumerate(_as_list(entry["maps_to"], f"{path}: metrics[{i}].maps_to")):
            where = f"{path}: metrics[{i}].maps_to[{j}]"
            try:
                dim = MetaMetricDim(_name(target["dim"], where).lower())
                metas.add(MetaMetric(service=_name(target["service"], where), dim=dim))
            except (KeyError, TypeError, ValueError):
                raise MalformedInput(
                    f"{where} needs service and dim in {{traffic, saturation, latency, errors}}"
                ) from None
        metric_map[name] = frozenset(metas)
    return ArchitectureSpec(services=services, metric_map=metric_map)
