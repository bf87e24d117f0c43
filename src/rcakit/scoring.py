"""Per-metric anomaly scoring and ranking.

Two detectors are provided.  The regression detector (``rht_score``)
fits each metric on its causal parents over the reference window and
scores the test window by the largest standardized residual; a metric
that deviates *given its parents* is a root-cause candidate, while a
metric that merely follows its parents is not.  The plain z-score
detector (``nsigma_score``) ignores the graph.  ``descendant_adjust``
boosts abnormal metrics by the strongest effect observed among their
descendants, and ``dfs_score`` reimplements the classic traversal
baseline that walks the abnormal subgraph upward from the SLI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import MissingSeries, RcakitError
from .model import (Case, CausalGraph, GroundTruth, MetricId, Ranking, json_block, json_float,
                    window_index_ranges)
from .regression import centre, fit_stacks, require_reference_rows, sigma_floor

#: Scores at or above this many sigmas count as abnormal (the three-sigma
#: rule of thumb).  Configurable wherever it is consumed.
ABNORMAL_THRESHOLD = 3.0

#: Each registered scorer as the parts score_case builds it from: its
#: detector, whether descendant_adjust boosts it, whether dfs_score ranks it.
SCORERS = {"rht": ("rht", False, False), "rht-pg": ("rht-lagged", False, False),
           "circa": ("rht", True, False), "nsigma": ("nsigma", False, False),
           "dfs": ("nsigma", False, True), "ideal": ("ideal", False, False)}
#: Registered scorer names accepted by run_scorer and the CLI.
SCORER_NAMES = tuple(SCORERS)


@dataclass(frozen=True)
class ScoreTable:
    """Raw per-metric scores, plus adjusted scores when computed."""

    raw: dict[MetricId, float]
    adjusted: Optional[dict[MetricId, float]] = None

    def __post_init__(self):
        scores = np.fromiter(self.raw.values(), float, len(self.raw))
        bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0)))
        if bad.size:
            raise ValueError(f"raw score for {list(self.raw)[bad[0]]!r} must be finite and >= 0")

    def to_json(self, ranking: Ranking) -> dict:
        return {
            "raw": {m: float(s) for m, s in sorted(self.raw.items())},
            "adjusted": None if self.adjusted is None
            else {m: float(s) for m, s in sorted(self.adjusted.items())},
            "ranking": [[m, float(s)] for m, s in ranking],
        }


def save_scores(path, table: ScoreTable, ranking: Ranking) -> None:
    """Write scores.json: the bytes of ``json.dumps(table.to_json(ranking),
    indent=2, sort_keys=True)`` plus a newline."""
    payload = table.to_json(ranking)
    q = json.encoder.encode_basestring_ascii

    def scores(mapping):
        if mapping is None:
            return "null"
        return json_block([f"{q(m)}: {json_float(s)}" for m, s in mapping.items()], "{}")

    ranked = json_block([f"[\n      {q(m)},\n      {json_float(s)}\n    ]"
                         for m, s in payload["ranking"]], "[]")
    Path(path).write_text(f'{{\n  "adjusted": {scores(payload["adjusted"])},\n'
                          f'  "ranking": {ranked},\n  "raw": {scores(payload["raw"])}\n}}\n')


def rht_score(
    case: Case,
    graph: CausalGraph,
    use_lagged_self: bool = False,
) -> dict[MetricId, float]:
    """Score each graph node by its largest standardized test residual.

    For each metric, a regression of the metric on its parents (plus its
    own one-step-lagged value when ``use_lagged_self``) is fitted on the
    reference window.  Every test sample is scored as
    ``|(value - prediction - residual_mean)| / residual_std`` and the
    metric's score is the maximum over the test window.  One
    ``fit_stacks`` call fits every node, on the graph's fit plan.
    """
    missing = sorted(graph.nodes.difference(case.metrics))
    if missing:
        raise MissingSeries(f"case has no series for: {', '.join(missing)}")
    col = {m: j for j, m in enumerate(case.metrics)}
    columns = np.fromiter(map(col.__getitem__, graph.names), np.intp, len(graph.names))
    full = case.values
    ref_idx, test_idx = window_index_ranges(case)
    lo, hi = ref_idx.start, ref_idx.stop
    test = full[test_idx.start:test_idx.stop]
    if use_lagged_self:
        # The lagged value of the first reference sample is unknown, so that
        # row drops out of training.  Lagged columns follow the case's own.
        lag = full.shape[1]
        data = centre(np.hstack([full[lo + 1:hi], full[lo:hi - 1]]),
                      np.hstack([test, full[test_idx.start - 1:test_idx.stop - 1]]))
    else:
        lag, data = None, centre(full[lo:hi], test)
    fit = fit_stacks(data, columns, graph.fit_plan(columns, lag))
    scores = np.abs(fit.deviation - fit.residual_mean[:, None]).max(axis=1) / fit.residual_std
    return dict(zip(graph.names, scores.tolist()))


def nsigma_score(case: Case) -> dict[MetricId, float]:
    """Score each metric by its largest test z-score against the reference."""
    ref_idx, test_idx = window_index_ranges(case)
    require_reference_rows(len(ref_idx))
    # One contiguous row per metric reduces pairwise like a single series,
    # so the scores equal a per-metric loop's bit for bit.
    ref = np.ascontiguousarray(case.values[ref_idx.start:ref_idx.stop].T)
    test = case.values[test_idx.start:test_idx.stop]
    mu = ref.mean(axis=1)
    sigma = ref.std(axis=1)  # population std
    sigma = np.maximum(sigma, sigma_floor(sigma))
    scores = np.abs(test - mu).max(axis=0) / sigma
    return dict(zip(case.metrics, scores.tolist()))


def descendant_adjust(
    scores: Mapping[MetricId, float],
    graph: CausalGraph,
    threshold: float = ABNORMAL_THRESHOLD,
) -> dict[MetricId, float]:
    """Boost abnormal metrics by the largest score among their effects.

    Walking children before parents, each node carries the maximum of
    what its children reach (nothing for a leaf): a child reaches its own
    score, raised to what it carries when it is below the threshold.  A
    node at or above the threshold gains what it carries (zero when
    nothing); others keep their score unchanged.
    """
    ptr, kids, order = graph.child_ptr.tolist(), graph.child_ids.tolist(), graph.order
    score = list(map(scores.__getitem__, graph.names))
    reach, carried = score[:], [None] * len(score)
    for v in reversed(order):
        # max keeps its first argument unless a later one is larger, so the
        # children-order fold and max(score, best) keep any NaN as before.
        if ptr[v] < ptr[v + 1]:
            best = carried[v] = max(map(reach.__getitem__, kids[ptr[v]:ptr[v + 1]]))
            if score[v] < threshold:
                reach[v] = max(score[v], best)
    return {graph.names[v]: score[v] + carried[v] if score[v] >= threshold
            and carried[v] is not None else score[v] for v in order}


def rank(scores: Mapping[MetricId, float]) -> Ranking:
    """Full ranking, descending by score, ties broken by metric name."""
    return [(m, float(s)) for m, s in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def dfs_score(
    case: Case,
    graph: CausalGraph,
    detector_scores: Mapping[MetricId, float],
    threshold: float = ABNORMAL_THRESHOLD,
) -> Ranking:
    """Rank roots of the abnormal subgraph reachable from the SLI.

    Starting at the case's SLI and walking against edge direction through
    abnormal nodes only, the nodes with no abnormal parent become root
    candidates, ordered by detector score.  All remaining metrics follow,
    again by score.  Candidate status dominates the emitted order, so the
    returned list is not globally score-sorted.
    """
    if case.sli not in graph.nodes:
        raise MissingSeries(f"sli {case.sli!r} is not a node of the graph")
    missing = sorted(graph.nodes - set(detector_scores))
    if missing:
        raise MissingSeries(f"no detector score for: {', '.join(missing)}")

    names, ptr, ups = graph.names, graph.parent_ptr.tolist(), graph.parent_ids.tolist()
    score = list(map(detector_scores.__getitem__, names))
    abnormal = [s >= threshold for s in score]
    sli = graph.index[case.sli]
    seen, stack = {sli}, [sli]
    while stack:
        node = stack.pop()
        for parent in ups[ptr[node]:ptr[node + 1]]:
            if parent not in seen and abnormal[parent]:
                seen.add(parent)
                stack.append(parent)
    candidates = {node for node in seen if abnormal[node]
                  and not any(map(abnormal.__getitem__, ups[ptr[node]:ptr[node + 1]]))}
    # Ids compare as names do, so ties still break by name.
    ordering = sorted(candidates, key=lambda v: (-score[v], v))
    rest = sorted(set(range(len(names))) - candidates, key=lambda v: (-score[v], v))
    return [(names[v], float(score[v])) for v in ordering + rest]


def ideal_score(case: Case, truth: Optional[GroundTruth]) -> dict[MetricId, float]:
    """Oracle scores: 1 for true root causes, 0 elsewhere."""
    if truth is None:
        raise ValueError("the ideal scorer needs ground truth labels")
    return {m: (1.0 if m in truth.root_causes else 0.0) for m in case.metrics}


def score_case(case: Case, graph: Optional[CausalGraph], truth: Optional[GroundTruth],
               methods, threshold: float = ABNORMAL_THRESHOLD) -> list:
    """Run registered scorers on one case, computing each detector once.

    Per method, in order: ``((table, ranking), seconds)``, or ``(error, 0.0)``
    if it raised.  ``seconds`` count a shared detector in full, as if the
    method ran alone.
    """
    detected: dict[str, tuple] = {}
    outcomes = []
    for name in methods:
        try:
            if name not in SCORERS:
                raise ValueError(f"unknown scorer {name!r}; registered: {', '.join(SCORER_NAMES)}")
            detector, do_adjust, dfs = SCORERS[name]
            if graph is None and (detector.startswith("rht") or dfs):
                raise ValueError(f"scorer {name!r} needs a causal graph")
            if detector not in detected:
                start = time.perf_counter()
                try:
                    raw = (nsigma_score(case) if detector == "nsigma"
                           else ideal_score(case, truth) if detector == "ideal"
                           else rht_score(case, graph, use_lagged_self=detector == "rht-lagged"))
                    detected[detector] = raw, time.perf_counter() - start
                except (RcakitError, ValueError) as exc:
                    detected[detector] = exc, 0.0
            raw, seconds = detected[detector]
            if isinstance(raw, Exception):
                raise raw
            start = time.perf_counter()
            adjusted = descendant_adjust(raw, graph, threshold=threshold) if do_adjust else None
            ranking = (dfs_score(case, graph, raw, threshold=threshold) if dfs
                       else rank(raw if adjusted is None else adjusted))
            table = ScoreTable(raw=raw, adjusted=adjusted)
            outcomes.append(((table, ranking), seconds + time.perf_counter() - start))
        except (RcakitError, ValueError) as exc:
            outcomes.append((exc, 0.0))
    return outcomes


def run_scorer(name: str, case: Case, graph: Optional[CausalGraph] = None,
               truth: Optional[GroundTruth] = None, threshold: float = ABNORMAL_THRESHOLD,
               ) -> tuple[ScoreTable, Ranking]:
    """Run a registered scorer on one case and return scores plus ranking.

    rht fits each metric on its parents, rht-pg adds the lagged self
    feature, circa is rht plus descendant adjustment, nsigma and ideal
    ignore the graph, and dfs ranks via the traversal baseline fed by
    nsigma detections.
    """
    [(outcome, _)] = score_case(case, graph, truth, [name], threshold)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
