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
import math
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
    """One metric's values sampled at a fixed interval: a record that
    ``Case(series=...)`` checks and stacks."""

    metric: MetricId
    start_time: int
    values: np.ndarray
    interval: int = 1


def restore_read_only(obj, state: dict) -> None:
    """``__setstate__`` for frozen classes holding read-only arrays:
    pickle does not keep numpy's ``writeable`` flag, so set it again."""
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


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
            clocks = {(ts.start_time, ts.interval, np.shape(ts.values)) for ts in series.values()}
            if len(clocks) != 1:
                raise ValueError("a case needs series sharing start_time, interval and length")
            metrics = sorted(series)
            (start_time, interval, shape), = clocks
            if len(shape) != 1:
                raise ValueError(f"series must be 1-d sequences, got shape {shape}")
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
        if not isinstance(other, Case):
            return NotImplemented
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                   for x, y in zip(vars(self).values(), vars(other).values()))


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

    Any hashable, ordered node type works; the architecture compiler builds
    its call graph over services and its skeleton over meta metrics with
    this class too.  Edges point from cause (parent) to effect (child);
    repeats collapse, and a cycle is an error that names one.  Node ids
    index ``names``, the sorted nodes, so ids compare as nodes do.  Edges
    are read-only CSR arrays: node i's parents are
    ``parent_ids[parent_ptr[i]:parent_ptr[i + 1]]``, ascending, and its
    children likewise in ``child_ids``.  ``order`` is the lexicographic
    topological order of the ids; ``fit_plan`` groups the nodes for the
    regression detector.
    """

    __slots__ = ("nodes", "names", "index", "parent_ptr", "parent_ids", "child_ptr", "child_ids",
                 "order", "_plan")

    def __init__(self, nodes: Iterable[MetricId], edges: Iterable[tuple[MetricId, MetricId]]):
        names = tuple(sorted(frozenset(nodes)))
        n, index = len(names), dict(zip(names, range(len(names))))
        edges = list(edges)
        try:
            codes = np.sort(np.array([index[p] * n + index[c] for p, c in edges], dtype=np.intp))
        except KeyError:
            parent, child = next((p, c) for p, c in edges if p not in index or c not in index)
            raise ValueError(f"edge ({parent!r}, {child!r}) references a missing node") from None
        # Each edge once, sorted by (parent, child) and, as ups, by (child, parent).
        parent, child = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n)
        ups = np.sort(child * n + parent) % n
        parent_ptr, child_ptr = (np.concatenate(([0], np.bincount(ids, minlength=n).cumsum()))
                                 for ids in (child, parent))
        # Kahn's algorithm over ids, with a heap for the lexicographic tie-break.
        indeg, ptr, kids = np.diff(parent_ptr).tolist(), child_ptr.tolist(), child.tolist()
        ready = [v for v in range(n) if not indeg[v]]  # ascending, so already a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in kids[ptr[v]:ptr[v + 1]]:
                indeg[c] -= 1
                if not indeg[c]:
                    heapq.heappush(ready, c)
        if len(order) != n:
            # Every node left over has a parent left over, so a walk up such
            # parents from the smallest one comes back to a node it has seen.
            ptr, ups = parent_ptr.tolist(), ups.tolist()
            walk, seen = [next(v for v in range(n) if indeg[v])], {}
            while (v := walk[-1]) not in seen:
                seen[v] = len(walk) - 1
                walk.append(next(p for p in ups[ptr[v]:ptr[v + 1]] if indeg[p]))
            cycle = " -> ".join(repr(names[v]) for v in reversed(walk[seen[walk[-1]]:]))
            raise ValueError(f"graph contains a cycle: {cycle}")
        for ids in (parent_ptr, ups, child_ptr, child):
            ids.flags.writeable = False
        self.names, self.nodes, self.index = names, frozenset(names), index
        self.parent_ptr, self.parent_ids, self.order = parent_ptr, ups, tuple(order)
        self.child_ptr, self.child_ids = child_ptr, child
        self._plan = None

    def _named(self, ptr: np.ndarray, ids: np.ndarray, node) -> tuple:
        i = self.index[node]
        return tuple(map(self.names.__getitem__, ids[ptr[i]:ptr[i + 1]].tolist()))

    def parents(self, node: MetricId) -> tuple[MetricId, ...]:
        return self._named(self.parent_ptr, self.parent_ids, node)

    def children(self, node: MetricId) -> tuple[MetricId, ...]:
        return self._named(self.child_ptr, self.child_ids, node)

    def topological_order(self) -> tuple[MetricId, ...]:
        """All nodes, parents before children, lexicographic tie-break."""
        return tuple(map(self.names.__getitem__, self.order))

    def sorted_edges(self) -> list[tuple[MetricId, MetricId]]:
        """Every (parent, child) pair, sorted."""
        names, ptr, kids = self.names, self.child_ptr.tolist(), self.child_ids.tolist()
        return [(names[p], names[c]) for p in range(len(names)) for c in kids[ptr[p]:ptr[p + 1]]]

    @property
    def edges(self) -> frozenset[tuple[MetricId, MetricId]]:
        """Every (parent, child) pair; ``child_ids.size`` counts them."""
        return frozenset(self.sorted_edges())

    def fit_plan(self, columns: np.ndarray, lag: Optional[int] = None) -> list:
        """``regression.fit_stacks`` blocks fitting node i as data column
        ``columns[i]``: per parent count q, the ascending ids of the nodes with
        q parents and their parents' (k_q, q) columns, and ``lag + columns[i]``
        last when ``lag`` is given.  The grouping is built once per graph."""
        if self._plan is None:
            ptr, counts, n = self.parent_ptr, np.diff(self.parent_ptr), len(self.names)
            ids, plan = np.argsort(counts, kind="stable"), []
            for g in np.split(ids, np.flatnonzero(np.diff(counts[ids])) + 1) if n else ():
                # The parents' ids, then n + the node's own: its lagged column.
                block = np.hstack([self.parent_ids[ptr[g, None] + np.arange(counts[g[0]])],
                                   n + g[:, None]])
                g.flags.writeable = block.flags.writeable = False
                plan.append((g, block))
            self._plan = plan
        if lag is None:
            return [(g, columns.take(block[:, :-1])) for g, block in self._plan]
        own = np.concatenate([columns, lag + columns])
        return [(g, own.take(block)) for g, block in self._plan]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return (self.names == other.names and np.array_equal(self.child_ptr, other.child_ptr)
                and np.array_equal(self.child_ids, other.child_ids))

    def __hash__(self) -> int:
        return hash((self.names, self.child_ptr.tobytes(), self.child_ids.tobytes()))

    def __getstate__(self) -> dict:  # without the caches
        return {s: None if s[0] == "_" else getattr(self, s) for s in CausalGraph.__slots__}

    __setstate__ = restore_read_only

    def __repr__(self) -> str:
        return f"CausalGraph(nodes={len(self.names)}, edges={self.child_ids.size})"


def json_float(x: float) -> str:
    """``x`` as json writes it: its repr, or ``Infinity``, ``-Infinity`` and
    ``NaN`` for the values JSON has no number for."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def json_block(items: list[str], brackets: str) -> str:
    """Encoded ``items`` laid out as ``json.dumps(indent=2)`` lays out a list
    or object held by a key of the top-level object: one item a line, or
    bare brackets when there are none.

    json switches to its pure-Python encoder whenever ``indent`` is set, so
    the fixed-shape files build their text from these blocks instead.
    """
    if not items:
        return brackets
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}"


def save_graph(graph: CausalGraph, path) -> None:
    """Write graph.json: the bytes of ``json.dumps({"nodes": sorted nodes,
    "edges": sorted [parent, child] lists}, indent=2, sort_keys=True)`` plus a
    newline."""
    q = json.encoder.encode_basestring_ascii
    nodes = json_block(list(map(q, graph.names)), "[]")
    edges = json_block([f"[\n      {q(p)},\n      {q(c)}\n    ]" for p, c in graph.sorted_edges()],
                       "[]")
    Path(path).write_text(f'{{\n  "edges": {edges},\n  "nodes": {nodes}\n}}\n')


def _finite(literal: str) -> float:
    """The float a JSON number or constant names; ValueError unless finite."""
    if not math.isfinite(value := float(literal)):
        raise ValueError(f"{literal} is not a finite number")
    return value


def read_json(path) -> dict:
    """The JSON object in the file ``path``.  Raises MalformedInput naming the
    file when its text is not strict JSON, nests too deep or is no object."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"),
                             parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInput(f"{path}: must hold a JSON object")
    return payload


def load_graph(path) -> CausalGraph:
    """Read a graph.json of non-empty string ``nodes`` and [parent, child]
    string pair ``edges``; MalformedInput naming the file for anything else."""
    payload = read_json(path)
    nodes, edges = payload.get("nodes"), payload.get("edges")
    if type(nodes) is not list or not all(type(v) is str and v for v in nodes):
        raise MalformedInput(f"{path}: nodes must be a list of non-empty strings")
    if type(edges) is not list or not all(type(e) is list and len(e) == 2 and type(e[0]) is str
                                          and type(e[1]) is str for e in edges):
        raise MalformedInput(f"{path}: edges must be a list of [parent, child] string pairs")
    try:
        return CausalGraph(nodes, edges)
    except ValueError as exc:
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
class CaseRecord:
    """A case and its optional labels; ``case_id`` names its directory."""

    case_id: str
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


_REQUIRED = object()


def _case_field(meta: dict, name: str, kind: type, default=_REQUIRED):
    """``meta[name]``, which must be of type ``kind`` (so a bool is no int),
    or ``default`` when the field is absent and a default is given."""
    if name not in meta and default is not _REQUIRED:
        return default
    value = meta[name]
    if type(value) is not kind:
        raise ValueError(f"case.json {name} must be {kind.__name__}, got {value!r}")
    return value


def load_case(directory) -> CaseRecord:
    """Read a case directory written by save_case; the record's
    ``case_id`` is the directory's name.

    The metric columns of data.csv may come in any order.  The header row
    is CSV, so metric names may be quoted; each data row is an integer
    timestamp and unquoted decimal numbers.  Raises MalformedInput for
    files that do not describe a valid case.
    """
    directory = Path(directory)
    meta = read_json(directory / "case.json")
    try:
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
        diffs = np.diff(timestamps)
        if (diffs != diffs[0]).any():
            line = first_line + 1 + int(np.argmax(diffs != diffs[0]))
            raise ValueError(f"data.csv line {line}: timestamps are not evenly spaced")
        case = Case(
            metrics=header[1:],
            values=table[:, 1:],
            start_time=timestamps[0],
            interval=int(diffs[0]),
            detect_time=_case_field(meta, "detect_time", int),
            sli=_case_field(meta, "sli", str),
            t_ref=_case_field(meta, "t_ref", int, DEFAULT_T_REF),
            t_delay=_case_field(meta, "t_delay", int, DEFAULT_T_DELAY),
            t_test=_case_field(meta, "t_test", int, DEFAULT_T_TEST),
        )
        roots = _case_field(meta, "root_causes", list, [])
        if not all(isinstance(root, str) for root in roots):
            raise ValueError(f"case.json root_causes must be metric names, got {roots!r}")
        unknown = sorted(set(roots).difference(case.metrics))
        if unknown:
            raise ValueError(f"case.json root_causes name no column: {', '.join(unknown)}")
        truth = GroundTruth(frozenset(roots)) if roots else None
        fault_type = _case_field(meta, "fault_type", str, None)
    except KeyError as exc:
        raise MalformedInput(f"{directory}/case.json: missing {exc}") from exc
    except (TypeError, ValueError, csv.Error) as exc:
        raise MalformedInput(f"{directory}: {exc}") from exc
    return CaseRecord(directory.name, case, truth, fault_type)
