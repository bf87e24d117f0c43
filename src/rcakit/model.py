"""Core data types shared across the package.

Metrics are identified by non-empty strings, ordered lexicographically
wherever a deterministic tie-break is needed.  Timestamps are integer
epoch minutes.  All types are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import MalformedInput, WindowOutOfRange

MetricId = str

#: A ranked recommendation list: (metric, score) pairs, best first.
Ranking = list[tuple[MetricId, float]]

DEFAULT_T_REF = 120
DEFAULT_T_DELAY = 5
DEFAULT_T_TEST = 10


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One metric's values sampled at a fixed interval.

    Values must be finite; series with missing or non-finite points are
    rejected rather than imputed.
    """

    metric: MetricId
    start_time: int
    values: np.ndarray
    interval: int = 1

    def __post_init__(self):
        if not self.metric:
            raise ValueError("metric id must be a non-empty string")
        if self.interval < 1:
            raise ValueError("interval must be a positive number of minutes")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"series {self.metric!r} must be a non-empty 1-d sequence")
        if not np.isfinite(values).all():
            raise ValueError(f"series {self.metric!r} contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return _fields_equal(self, other) if isinstance(other, TimeSeries) else NotImplemented


def _fields_equal(a, b) -> bool:
    """Field-by-field equality of two records; arrays compare by value."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(vars(a).values(), vars(b).values()))


def restore_read_only(obj, state: dict) -> None:
    """``__setstate__`` for frozen classes holding read-only arrays:
    pickle does not keep numpy's ``writeable`` flag, so set it again."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj.__dict__.update(state)


@dataclass(frozen=True, eq=False, kw_only=True)
class Case:
    """A window of multivariate samples around one fault detection time.

    ``values`` is one read-only, C-contiguous float64 ``(T, n)`` matrix
    whose columns follow ``metrics``, the sorted metric names; row ``i``
    is the sample at ``start_time + i * interval``.  Columns given in
    another order are sorted on construction.

    The covered span is expected to include [detect_time - t_ref,
    detect_time + t_delay].  The reference range [t_d - t_ref, t_d - t_test]
    is closed on both ends; the test range (t_d + t_delay - t_test,
    t_d + t_delay] is open on the left.  Samples between the two ranges
    belong to neither.

    ``series`` is an alternative to ``metrics``, ``values``, ``start_time``
    and ``interval``: a mapping of aligned ``TimeSeries``, stacked once.
    """

    metrics: tuple[MetricId, ...] = ()
    values: Optional[np.ndarray] = field(default=None, repr=False)
    start_time: Optional[int] = None
    interval: int = 1
    detect_time: int
    sli: MetricId
    t_ref: int = DEFAULT_T_REF
    t_delay: int = DEFAULT_T_DELAY
    t_test: int = DEFAULT_T_TEST
    series: InitVar[Optional[Mapping[MetricId, TimeSeries]]] = None

    def __post_init__(self, series):
        if series is not None:
            if self.metrics or self.values is not None or self.start_time is not None:
                raise ValueError("give either series or metrics, values and start_time")
            if any(name != ts.metric for name, ts in series.items()):
                raise ValueError("series keys must match their metric ids")
            clocks = {(ts.start_time, ts.interval, len(ts)) for ts in series.values()}
            if len(clocks) != 1:
                raise ValueError("a case needs series sharing start_time, interval and length")
            metrics = sorted(series)
            (start_time, interval, _), = clocks
            vars(self).update(metrics=metrics, start_time=start_time, interval=interval,
                              values=np.column_stack([series[m].values for m in metrics]))
        if self.values is None or self.start_time is None:
            raise ValueError("a case needs metrics, values and start_time")
        metrics = tuple(self.metrics)
        values = np.asarray(self.values, dtype=np.float64)
        if not metrics:
            raise ValueError("a case needs at least one metric")
        # One sample fits no pair of windows and cannot carry its interval.
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != len(metrics):
            raise ValueError(f"values must be a (T >= 2, {len(metrics)}) matrix, "
                             f"got shape {values.shape}")
        if not all(isinstance(m, str) and m for m in metrics):
            raise ValueError("metric ids must be non-empty strings")
        if len(set(metrics)) != len(metrics):
            duplicates = sorted({m for m in metrics if metrics.count(m) > 1})
            raise ValueError(f"duplicate metric ids: {', '.join(duplicates)}")
        if not np.isfinite(values).all():
            bad = sorted({metrics[j] for j in np.nonzero(~np.isfinite(values))[1]})
            raise ValueError(f"non-finite values in: {', '.join(bad)}")
        if self.interval < 1:
            raise ValueError("interval must be a positive number of minutes")
        if self.sli not in metrics:
            raise ValueError(f"sli {self.sli!r} has no series in the case")
        if self.t_delay < 0:
            raise ValueError("t_delay must be non-negative")
        if self.t_test <= self.t_delay:
            raise ValueError("t_test must exceed t_delay")
        if self.t_test > self.t_ref:
            raise ValueError("t_test must not exceed t_ref")
        order = sorted(range(len(metrics)), key=metrics.__getitem__)
        # take() copies, so the case owns its matrix and may freeze it.
        values = np.ascontiguousarray(values.take(order, axis=1))
        values.flags.writeable = False
        vars(self).update(metrics=tuple(metrics[j] for j in order), values=values)

    __setstate__ = restore_read_only

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        return _fields_equal(self, other) if isinstance(other, Case) else NotImplemented


@dataclass(frozen=True)
class GroundTruth:
    """The labeled root-cause metrics of one case."""

    root_causes: frozenset[MetricId]

    def __post_init__(self):
        object.__setattr__(self, "root_causes", frozenset(self.root_causes))
        if not self.root_causes:
            raise ValueError("ground truth must name at least one root cause")


class CausalGraph:
    """A directed acyclic graph over metric identifiers.

    Any hashable, ordered node type works; the architecture compiler
    builds its skeleton over meta metrics with this class too.  Edges
    point from cause (parent) to effect (child).  Construction
    validates acyclicity; parent/children lookups and the topological
    order are precomputed and deterministic.
    """

    __slots__ = ("nodes", "edges", "_parents", "_children", "_order")

    def __init__(self, nodes: Iterable[MetricId], edges: Iterable[tuple[MetricId, MetricId]]):
        self.nodes = frozenset(nodes)
        self.edges = frozenset((p, c) for p, c in edges)
        for parent, child in self.edges:
            if parent not in self.nodes or child not in self.nodes:
                raise ValueError(f"edge ({parent!r}, {child!r}) references a missing node")
            if parent == child:
                raise ValueError(f"self-loop on {parent!r}")
        parents: dict[MetricId, list[MetricId]] = {v: [] for v in self.nodes}
        children: dict[MetricId, list[MetricId]] = {v: [] for v in self.nodes}
        for parent, child in self.edges:
            parents[child].append(parent)
            children[parent].append(child)
        self._parents = {v: tuple(sorted(ps)) for v, ps in parents.items()}
        self._children = {v: tuple(sorted(cs)) for v, cs in children.items()}
        self._order = self._topological_order()

    def _topological_order(self) -> tuple[MetricId, ...]:
        # Kahn's algorithm with a heap for lexicographic tie-breaking.
        indeg = {v: len(self._parents[v]) for v in self.nodes}
        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        return tuple(order)

    def parents(self, node: MetricId) -> tuple[MetricId, ...]:
        return self._parents[node]

    def children(self, node: MetricId) -> tuple[MetricId, ...]:
        return self._children[node]

    def topological_order(self) -> tuple[MetricId, ...]:
        """All nodes, parents before children, lexicographic tie-break."""
        return self._order

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: MetricId) -> bool:
        return node in self.nodes

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"CausalGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"

    def to_json(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [list(e) for e in sorted(self.edges)],
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "CausalGraph":
        return cls(payload["nodes"], [(str(p), str(c)) for p, c in payload["edges"]])


def save_graph(graph: CausalGraph, path) -> None:
    Path(path).write_text(json.dumps(graph.to_json(), indent=2, sort_keys=True) + "\n")


def load_graph(path) -> CausalGraph:
    """Read a graph.json; MalformedInput when it does not describe a DAG."""
    try:
        return CausalGraph.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def window_index_ranges(case: Case) -> tuple[range, range]:
    """Row index ranges of the reference and test windows.

    Raises WindowOutOfRange when the case's series do not cover the span
    [detect_time - t_ref, detect_time + t_delay].
    """
    start, interval, n = case.start_time, case.interval, case.length

    def index_of(ts: int) -> int:
        offset = ts - start
        if offset % interval:
            raise WindowOutOfRange(
                f"timestamp {ts} is not aligned to interval {interval} from {start}"
            )
        return offset // interval

    ref_lo = index_of(case.detect_time - case.t_ref)
    ref_hi = index_of(case.detect_time - case.t_test)
    test_lo = index_of(case.detect_time + case.t_delay - case.t_test) + 1
    test_hi = index_of(case.detect_time + case.t_delay)
    if ref_lo < 0 or test_hi >= n:
        raise WindowOutOfRange(
            f"case covers [{start}, {start + (n - 1) * interval}] but needs "
            f"[{case.detect_time - case.t_ref}, {case.detect_time + case.t_delay}]"
        )
    return range(ref_lo, ref_hi + 1), range(test_lo, test_hi + 1)


@dataclass(frozen=True)
class LoadedCase:
    """A case read from disk, plus its optional labels."""

    case: Case
    truth: Optional[GroundTruth] = None
    fault_type: Optional[str] = None


def save_case(directory, case: Case, truth: Optional[GroundTruth] = None,
              fault_type: Optional[str] = None) -> None:
    """Write a case directory: data.csv plus case.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Only the header needs csv's quoting; the body joins repr()s directly.
    header = io.StringIO()
    csv.writer(header).writerow(["timestamp", *case.metrics])
    start, interval = case.start_time, case.interval
    body = "".join(f"{start + i * interval},{','.join(map(repr, row))}\r\n"
                   for i, row in enumerate(case.values.tolist()))
    (directory / "data.csv").write_text(header.getvalue() + body, encoding="utf-8", newline="")
    meta = {
        "detect_time": case.detect_time,
        "t_ref": case.t_ref,
        "t_delay": case.t_delay,
        "t_test": case.t_test,
        "sli": case.sli,
    }
    if truth is not None:
        meta["root_causes"] = sorted(truth.root_causes)
    if fault_type is not None:
        meta["fault_type"] = fault_type
    with open(directory / "case.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_rows(lines: list[str]) -> np.ndarray:
    # comments=None: a '#' row is an error, not a comment to drop.
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _first_bad_row(lines: list[str], first_line: int, n_fields: int) -> Optional[str]:
    """Why the first bad body row fails, for a body that ``load_case`` rejected:
    its field count differs from the header's, or it or its timestamp does
    not parse alone."""
    for line, text in enumerate(lines, start=first_line):
        fields = text.count(",") + 1
        if fields != n_fields:
            return f"data.csv line {line} has {fields} fields, the header {n_fields}"
        try:
            _parse_rows([text])
            int(text.split(",", 1)[0])
        except ValueError as exc:
            # numpy's own row and column count within the one line it saw
            return f"data.csv line {line}: {str(exc).split(' at row ')[0]}"
    return None


def load_case(directory) -> LoadedCase:
    """Read a case directory written by save_case.

    The metric columns of data.csv may come in any order.  The header row
    is CSV, so metric names may be quoted; each data row is an integer
    timestamp and unquoted decimal numbers.  Raises MalformedInput for
    files that do not describe a valid case.
    """
    directory = Path(directory)
    try:
        meta = json.loads((directory / "case.json").read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("case.json must hold a JSON object")
        with open(directory / "data.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            lines = fh.readlines()
        if header[:1] != ["timestamp"]:
            raise ValueError("the first column of data.csv must be 'timestamp'")
        first_line = reader.line_num + 1
        # loadtxt would skip blank rows silently, so refuse them here.
        for line, text in enumerate(lines, start=first_line):
            if not text.strip():
                raise ValueError(f"data.csv line {line} is blank")
        if len(lines) < 2:
            raise ValueError("data.csv needs at least two samples")
        try:
            table = _parse_rows(lines)
            timestamps = [int(text.split(",", 1)[0]) for text in lines]
        except ValueError as exc:
            raise ValueError(_first_bad_row(lines, first_line, len(header)) or exc) from exc
        steps = set(np.diff(timestamps).tolist())
        if len(steps) != 1:
            diffs = np.diff(timestamps)
            line = first_line + 1 + int(np.argmax(diffs != diffs[0]))
            raise ValueError(f"data.csv line {line}: timestamps are not evenly spaced")
        roots = meta.get("root_causes") or []
        if not isinstance(roots, list):
            raise ValueError("root_causes must be a list of metric ids")
        case = Case(
            metrics=header[1:],
            values=table[:, 1:],
            start_time=timestamps[0],
            interval=steps.pop(),
            detect_time=int(meta["detect_time"]),
            sli=meta["sli"],
            t_ref=int(meta.get("t_ref", DEFAULT_T_REF)),
            t_delay=int(meta.get("t_delay", DEFAULT_T_DELAY)),
            t_test=int(meta.get("t_test", DEFAULT_T_TEST)),
        )
        truth = GroundTruth(frozenset(roots)) if roots else None
    except KeyError as exc:
        raise MalformedInput(f"{directory}/case.json: missing {exc}") from exc
    except (TypeError, ValueError, csv.Error) as exc:
        raise MalformedInput(f"{directory}: {exc}") from exc
    return LoadedCase(case=case, truth=truth, fault_type=meta.get("fault_type"))
