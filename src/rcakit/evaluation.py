"""Batch evaluation: top-k recall, timing, and report tables.

A case's recall at k is the fraction of its true root causes appearing
in the top k of the ranking; AC@k averages that over a case set and is
non-decreasing in k.  Scores aggregate per graph first, then mean and
standard deviation across graphs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyCaseSet, MalformedInput
from .scoring import ABNORMAL_THRESHOLD, score_case
from .simulation import SimulatedDataset, _pool_map, case_id, case_record

DEFAULT_K = 5


def recall_curve(ranks: Sequence[int], n_roots: int, k: int) -> np.ndarray:
    """A case's top-j recall for j = 1..k: the share of its ``n_roots`` roots
    ranked j or better, from the 1-based ``ranks`` the ranking gives them."""
    return (np.asarray(ranks)[:, None] <= np.arange(1, k + 1)).sum(0) / n_roots


@dataclass(frozen=True)
class MethodResult:
    """Aggregated evaluation of one scoring method."""

    ac_mean: tuple[float, ...]          # index k-1, k = 1..K
    ac_std: tuple[float, ...]           # std across graphs
    avg_at_k: float
    mean_time_s: float
    per_graph: dict[str, Optional[tuple[float, ...]]]  # None: every case failed
    by_fault_type: dict[str, dict]
    n_cases: int
    failures: tuple[tuple[str, str, str], ...] = ()
    note: Optional[str] = None


#: Methods whose published definition is a prose sketch; reports mark them.
METHOD_NOTES = {"dfs": "baseline reimplemented from a prose description"}


@dataclass(frozen=True)
class EvalReport:
    k_max: int
    methods: dict[str, MethodResult]
    n_graphs: int
    n_cases: int
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The report.json payload; tuples stand for JSON lists.  Dicts and
        lists are copies, so editing the payload leaves the report alone."""
        methods = {}
        for name, res in self.methods.items():
            by_type = {ft: dict(e, ac=list(e["ac"])) for ft, e in res.by_fault_type.items()}
            methods[name] = dict(vars(res), per_graph=dict(res.per_graph), by_fault_type=by_type)
        return dict(vars(self), methods=methods, params=copy.deepcopy(self.params))


def _score_case(task) -> tuple:
    """One pool task: read or draw one case, apply the window overrides
    and run every method on it.  Returns ``(case_id, number of roots,
    fault_type, outcomes)``, an outcome being ``(the ascending 1-based ranks
    of the roots the ranking holds, seconds, error)`` per method, in order.
    A case that cannot be read or overridden raises; a method that fails on
    it is an outcome."""
    entry, graph, methods, threshold, windows = task
    record = case_record(entry)
    if record.truth is None:
        raise MalformedInput(f"case {record.case_id}: dataset cases must carry root_causes")
    case = replace(record.case, **windows) if windows else record.case
    roots = record.truth.root_causes
    outcomes = [(None, 0.0, f"{type(outcome).__name__}: {outcome}") if isinstance(outcome, Exception)
                else ([r for r, (metric, _) in enumerate(outcome[1], 1) if metric in roots], seconds, None)
                for outcome, seconds in score_case(case, graph, record.truth, methods, threshold)]
    return record.case_id, len(roots), record.fault_type, outcomes


def evaluate(
    dataset: SimulatedDataset,
    methods: Sequence[str],
    k_max: int = DEFAULT_K,
    threshold: float = ABNORMAL_THRESHOLD,
    jobs: int = 1,
    windows: Optional[Mapping[str, int]] = None,
) -> EvalReport:
    """Run each method over every case and aggregate AC@k per graph.

    Per-case failures are recorded and excluded from the averages rather
    than aborting the batch.  Each case is one ``score_case`` pass, so
    methods that share a detector compute it once; a method's time still
    counts that detector in full.  ``jobs`` > 1 scores cases on a process
    pool, timed on the worker that runs the case.  The task that scores a
    case resolves it with ``case_record``: it draws a recipe from
    ``generate_dataset`` or reads a directory from ``load_dataset``, so one
    pool makes and scores the cases and no case matrix passes through this
    process.  ``windows`` maps ``t_ref``, ``t_delay`` or ``t_test`` to a
    value that replaces every case's own.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if not dataset.graphs:
        raise EmptyCaseSet("dataset has no graphs")
    if not dataset.n_cases():
        raise EmptyCaseSet("dataset has no cases")
    # canonical order, so aggregation is invariant to case order
    cases = sorted(((g, c) for g in dataset.graphs for c in g.cases),
                   key=lambda gc: (gc[0].graph_id, case_id(gc[1])))
    scored = _pool_map(
        _score_case,
        [(c, g.graph, tuple(methods), threshold, windows) for g, c in cases],
        jobs,
    )
    results: dict[str, MethodResult] = {}
    for m, method in enumerate(methods):
        # Recall is constant past a case's deepest found root: rows stop there
        # and each mean repeats its last value to k_max.  Two columns at least:
        # numpy sums one column pairwise, but more row by row, as k_max ones.
        depth = min(k_max, max([2] + [o[m][0][-1] for *_, o in scored if o[m][0]]))
        extend = np.minimum(np.arange(k_max), depth - 1)
        per_graph_recalls: dict[str, list[np.ndarray]] = {g.graph_id: [] for g in dataset.graphs}
        per_type: dict[str, list[np.ndarray]] = {}
        times: list[float] = []
        failures: list[tuple[str, str, str]] = []
        for (graph, _), (cid, n_roots, fault_type, outcomes) in zip(cases, scored):
            ranks, elapsed, error = outcomes[m]
            if error is not None:
                failures.append((graph.graph_id, cid, error))
                continue
            recalls = recall_curve(ranks, n_roots, depth)
            per_graph_recalls[graph.graph_id].append(recalls)
            if fault_type:
                per_type.setdefault(fault_type, []).append(recalls)
            times.append(elapsed)

        graph_ac = {gid: tuple(map(float, np.mean(rows, axis=0)[extend])) if rows else None
                    for gid, rows in per_graph_recalls.items()}
        stacked = np.array([v for v in graph_ac.values() if v is not None])
        if stacked.size == 0:
            raise EmptyCaseSet(f"method {method!r} produced no successful cases")
        ac_mean = stacked.mean(axis=0)
        ac_std = stacked.std(axis=0)
        results[method] = MethodResult(
            ac_mean=tuple(float(v) for v in ac_mean),
            ac_std=tuple(float(v) for v in ac_std),
            avg_at_k=float(ac_mean.mean()),
            mean_time_s=float(np.mean(times)),
            per_graph=graph_ac,
            by_fault_type={ft: {"n": len(rows), "ac": [float(v) for v in np.mean(rows, 0)[extend]]}
                           for ft, rows in sorted(per_type.items())},
            n_cases=len(times),
            failures=tuple(failures),
            note=METHOD_NOTES.get(method),
        )
    return EvalReport(
        k_max=k_max,
        methods=results,
        n_graphs=len(dataset.graphs),
        n_cases=dataset.n_cases(),
        params=dict(dataset.params),
    )


def format_table(report: EvalReport) -> str:
    """Plain-text table: method, AC@1, AC@K, Avg@K, mean seconds per case."""
    k = report.k_max

    def cell(mean: float, std: float) -> str:
        return f"{mean:.3f}({std:.2f})"

    header = ["Method", "AC@1", f"AC@{k}", f"Avg@{k}", "T (s)"]
    rows = [header]
    for name, res in report.methods.items():
        rows.append([
            name,
            cell(res.ac_mean[0], res.ac_std[0]),
            cell(res.ac_mean[k - 1], res.ac_std[k - 1]),
            f"{res.avg_at_k:.3f}",
            f"{res.mean_time_s:.3f}",
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip())
    for name, res in report.methods.items():
        if res.note:
            lines.append(f"note: {name} is a {res.note}")
    return "\n".join(lines)


def save_report(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
