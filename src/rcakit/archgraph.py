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
from itertools import combinations, product
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import CyclicCallGraph, MalformedInput, UnknownMetaMetric
from .model import CausalGraph, MetricId

#: The deepest collection nesting an arch.yaml may have.  libyaml's
#: composer recurses in C, one stack frame per level, and no Python limit
#: stops it: on an 8 MB stack 20,000 levels load and 25,000 crash the
#: interpreter.  The limit leaves room for smaller stacks and is far above
#: what an architecture needs (about 5 levels).
MAX_NESTING = 5_000


def _loader():
    """The safe loader ``load_architecture`` parses with: libyaml's when
    PyYAML is built with it, else the pure-Python one (the same composer,
    so the same nodes).  yaml is imported here, so that only commands that
    read an architecture pay for it."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class MetaMetricDim(str, Enum):
    """The four per-service measurement dimensions."""

    TRAFFIC = "traffic"
    SATURATION = "saturation"
    LATENCY = "latency"
    ERRORS = "errors"


class MetaMetric(NamedTuple):
    """A (service, dimension) node of the skeleton: a tuple, so that it
    hashes, compares and sorts as (service, dim) in C."""

    service: str
    dim: MetaMetricDim

    def __str__(self) -> str:
        return f"{self.service}.{self.dim.value}"


@dataclass(frozen=True)
class ArchitectureSpec:
    """Call graph plus the metric -> meta-metric mapping.  ``services``
    maps each declared service to the services it calls, in declaration
    order.  The metric mapping is stored in the direction operators label
    metrics (metric to the dimensions it measures); the compiler inverts it."""

    services: Mapping[str, tuple[str, ...]]
    metric_map: Mapping[MetricId, frozenset[MetaMetric]]

    def __post_init__(self):
        services = {name: tuple(callees) for name, callees in dict(self.services).items()}
        metric_map = {metric: frozenset(metas) for metric, metas in dict(self.metric_map).items()}
        for metric, metas in metric_map.items():
            if not metric:
                raise ValueError("metric name must be non-empty")
            if not metas:
                raise ValueError(f"metric {metric!r} maps to no meta metric")
        object.__setattr__(self, "services", services)
        object.__setattr__(self, "metric_map", metric_map)


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
    over ``MetaMetric`` nodes, where a callee declared nowhere is a leaf."""
    calls = _call_graph(services)
    T, L, E = MetaMetricDim.TRAFFIC, MetaMetricDim.LATENCY, MetaMetricDim.ERRORS
    nodes = {MetaMetric(name, dim) for name in calls.nodes for dim in MetaMetricDim}
    # Each dimension drives the ones declared after it: traffic drives
    # everything, saturation drives latency and errors, latency drives errors.
    edges = {(MetaMetric(name, src), MetaMetric(name, dst))
             for src, dst in combinations(MetaMetricDim, 2) for name in calls.nodes}
    for caller, callee in calls.edges:
        # The caller's traffic drives the callee's traffic; every callee
        # dimension stands in for the caller's saturation, feeding the
        # caller's latency and errors.
        edges.add((MetaMetric(caller, T), MetaMetric(callee, T)))
        for dim in MetaMetricDim:
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, L)))
            edges.add((MetaMetric(callee, dim), MetaMetric(caller, E)))
    return CausalGraph(nodes, edges)


def build_structural_graph(spec: ArchitectureSpec) -> CausalGraph:
    """Plug monitoring metrics into the skeleton to get the metric DAG."""
    skeleton = build_skeleton(spec.services)
    # Invert the operator-facing mapping: meta metric -> its monitoring metrics.
    assigned: dict[MetaMetric, set[MetricId]] = {v: set() for v in skeleton.nodes}
    for metric, metas in spec.metric_map.items():
        for meta in metas:
            if meta not in assigned:
                raise UnknownMetaMetric(f"metric {metric!r} maps to unknown {meta}")
            assigned[meta].add(metric)

    order = skeleton.topological_order()
    multi = {metric for metric, metas in spec.metric_map.items() if len(metas) > 1}
    last_host = {metric: meta for meta in order for metric in assigned[meta] & multi}

    # Let pos(m) be the position in ``order`` of the meta metric m attaches
    # at: its only one, or its last.  By induction over ``order``, current[v]
    # holds only metrics with pos <= pos(v), so every edge runs from a
    # smaller pos to a larger one, or, at one meta metric, from a
    # multi-dimension metric attached there to a single-dimension one: no
    # edge closes a cycle or joins a metric to itself.
    edges: set[tuple[MetricId, MetricId]] = set()
    current: dict[MetaMetric, set[MetricId]] = {}
    for meta in order:
        incoming = set().union(*map(current.__getitem__, skeleton.parents(meta)))
        own = assigned[meta] - multi
        for metric in assigned[meta] & multi:
            if last_host[metric] == meta:
                # Attach the metric below its other dimensions and let it
                # stand in for them toward this dimension's metrics.
                for other in spec.metric_map[metric] - {meta}:
                    edges.update((src, metric) for src in current[other])
                incoming.add(metric)
        edges.update(product(incoming, own))
        if meta.dim is MetaMetricDim.ERRORS:
            # Error metrics propagate to downstream consumers unvalidated,
            # so parents' error metrics ride along with this dimension's own.
            for parent in skeleton.parents(meta):
                if parent.dim is MetaMetricDim.ERRORS:
                    own |= current[parent]
        current[meta] = own if own else incoming

    return CausalGraph(nodes=spec.metric_map.keys(), edges=edges)


#: The tag each kind of node may carry; a ``<<`` key is tagged merge.
_TAG = "tag:yaml.org,2002:"
_STR, _NULL, _SEQ, _MAP, _MERGE = (_TAG + name for name in ("str", "null", "seq", "map", "merge"))
_KIND = {_STR: "scalar", _NULL: "scalar", _SEQ: "sequence", _MAP: "mapping"}
_IMPLICIT = {"": _NULL, "~": _NULL, "null": _NULL, "Null": _NULL, "NULL": _NULL, "<<": _MERGE}


def _malformed(path, mark, problem: str) -> MalformedInput:
    return MalformedInput(f"{path}: line {mark.line + 1}, column {mark.column + 1}: {problem}")


def _plain(node, path, memo: dict):
    """The str, None, list or dict SafeConstructor makes of a node, memoised
    before its items are walked: an alias gives the same object, and a
    recursive or doubling one is walked once.  A mapping takes merged pairs
    first, the first source of a list winning, then its own, which win and
    may not repeat: flatten_mapping's order."""
    if _KIND.get(node.tag) != node.id:  # ``!!float 1e3`` is not the name ``1000.0``
        raise _malformed(path, node.start_mark, f"tag {node.tag.replace(_TAG, '!!')} on a {node.id}")
    if node.id == "scalar":
        return None if node.tag == _NULL else node.value
    if node in memo:
        return memo[node]
    if node.id == "sequence":
        memo[node] = value = []
        value += [_plain(item, path, memo) for item in node.value]
        return value
    memo[node] = value = {}
    memo[node, _MERGE] = own = {}  # open until its pairs are walked: none of them may merge it
    for key_node, item in node.value:
        if key_node.tag == _MERGE:
            for source in item.value[::-1] if item.id == "sequence" and item.tag == _SEQ else [item]:
                if source.id != "mapping" or (source, _MERGE) in memo:
                    raise _malformed(path, source.start_mark,
                                     f"a << merge takes mappings outside it, not this {source.id}")
                value |= _plain(source, path, memo)
        elif key_node.id != "scalar":
            raise _malformed(path, key_node.start_mark, f"a key must be a scalar, not a {key_node.id}")
        elif (key := _plain(key_node, path, memo)) in own:
            raise _malformed(path, key_node.start_mark, f"key {key!r} repeats")
        else:
            own[key] = item
    value |= {key: _plain(item, path, memo) for key, item in own.items()}
    del memo[node, _MERGE]
    return value


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
    parser events stops at the first level past it.  Only libyaml's
    composer needs the guard: the pure-Python one recurses in Python and
    stops with a RecursionError.  Both scanners take time quadratic in the
    depth of nested flow collections, so that one is not scanned."""
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
    """Parse an arch.yaml file into an ArchitectureSpec; MalformedInput, in
    one line, for a file that does not describe one."""
    import yaml

    # Only a plain null or ``<<`` resolves: ``010``, ``true`` and ``1:20`` stay text.
    loader = type("Loader", (_loader(),), {"resolve": lambda _, kind, value, implicit: (
        (implicit[0] and _IMPLICIT.get(value) or _STR) if kind.id == "scalar"
        else _SEQ if kind.id == "sequence" else _MAP)})
    try:
        text = Path(path).read_text(encoding="utf-8")
        _check_nesting(text, path, loader)
        node = loader(text).get_single_node()
        payload = None if node is None else _plain(node, path, {})
    except yaml.MarkedYAMLError as exc:
        problem = ", ".join(filter(None, (exc.context, exc.problem)))
        raise _malformed(path, exc.problem_mark, f"not valid YAML ({problem})") from None
    except yaml.reader.ReaderError as exc:  # libyaml counts its position in bytes
        before = (text[:text.find(chr(exc.character))] + ".").splitlines()
        raise MalformedInput(f"{path}: line {len(before)}, column {len(before[-1])}: not valid "
                             f"YAML (unacceptable character #x{exc.character:04x})") from None
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not valid YAML ({exc})") from exc
    except RecursionError:
        # The pure-Python composer and the walk recurse in Python.
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
                metas.add(MetaMetric(_name(target["service"], where), dim))
            except (KeyError, TypeError, ValueError):
                raise MalformedInput(f"{where} needs service and dim in "
                                     "{traffic, saturation, latency, errors}") from None
        metric_map[name] = frozenset(metas)
    return ArchitectureSpec(services=services, metric_map=metric_map)
