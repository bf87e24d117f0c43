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
from .model import Case, CausalGraph, GroundTruth, MetricId, Ranking, window_index_ranges
from .regression import centre, fit_group, sigma_floor

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

    def best(self) -> dict[MetricId, float]:
        """The scores rankings should use: adjusted when present."""
        return self.adjusted if self.adjusted is not None else self.raw

    def to_json(self, ranking: Optional[Ranking] = None) -> dict:
        if ranking is None:
            ranking = rank(self.best())
        return {
            "raw": {m: float(s) for m, s in sorted(self.raw.items())},
            "adjusted": None if self.adjusted is None
            else {m: float(s) for m, s in sorted(self.adjusted.items())},
            "ranking": [[m, float(s)] for m, s in ranking],
        }


def save_scores(path, table: ScoreTable, ranking: Optional[Ranking] = None) -> None:
    Path(path).write_text(json.dumps(table.to_json(ranking), indent=2, sort_keys=True) + "\n")


def _require_series(case: Case, metrics) -> None:
    missing = sorted(set(metrics) - set(case.metrics))
    if missing:
        raise MissingSeries(f"case has no series for: {', '.join(missing)}")


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
    metric's score is the maximum over the test window.  Nodes with the
    same number of features are fitted together as one group.
    """
    _require_series(case, graph.nodes)
    col = {m: j for j, m in enumerate(case.metrics)}
    full = case.values
    ref_idx, test_idx = window_index_ranges(case)
    lo, hi = ref_idx.start, ref_idx.stop
    test = full[test_idx.start:test_idx.stop]
    nodes = sorted(graph.nodes)
    targets = [col[node] for node in nodes]
    features = [[col[p] for p in graph.parents(node)] for node in nodes]
    if use_lagged_self:
        # The lagged value of the first reference sample is unknown, so that
        # row drops out of training.  Lagged columns follow the case's own.
        lag = full.shape[1]
        data = centre(np.hstack([full[lo + 1:hi], full[lo:hi - 1]]),
                      np.hstack([test, full[test_idx.start - 1:test_idx.stop - 1]]))
        features = [f + [lag + j] for f, j in zip(features, targets)]
    else:
        data = centre(full[lo:hi], test)

    groups: dict[int, list[int]] = {}
    for i, f in enumerate(features):
        groups.setdefault(len(f), []).append(i)
    scores = np.empty(len(nodes))
    for members in groups.values():
        fit = fit_group(data, [targets[i] for i in members],
                        np.array([features[i] for i in members], dtype=np.intp))
        scores[members] = (np.abs(fit.deviation - fit.residual_mean[:, None]).max(axis=1)
                           / fit.residual_std)
    return dict(zip(nodes, scores.tolist()))


def nsigma_score(case: Case) -> dict[MetricId, float]:
    """Score each metric by its largest test z-score against the reference."""
    ref_idx, test_idx = window_index_ranges(case)
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

    Walking children before parents, each node carries the maximum of its
    children's scores and of what each child below the threshold carries
    (nothing for a leaf).  A node at or above the threshold gains what it
    carries (zero when nothing); others keep their score unchanged.
    """
    carried: dict[MetricId, Optional[float]] = {}
    for node in reversed(graph.topological_order()):
        best = None
        for child in graph.children(node):
            reach = scores[child]
            if reach < threshold and carried[child] is not None:
                reach = max(reach, carried[child])
            best = reach if best is None else max(best, reach)
        carried[node] = best
    adjusted: dict[MetricId, float] = {}
    for node in graph.topological_order():
        score = scores[node]
        if score >= threshold and carried[node] is not None:
            score = score + carried[node]
        adjusted[node] = score
    return adjusted


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

    def abnormal(node: MetricId) -> bool:
        return detector_scores[node] >= threshold

    seen = {case.sli}
    stack = [case.sli]
    while stack:
        node = stack.pop()
        for parent in graph.parents(node):
            if parent not in seen and abnormal(parent):
                seen.add(parent)
                stack.append(parent)
    candidates = {
        node for node in seen
        if abnormal(node) and not any(abnormal(p) for p in graph.parents(node))
    }
    ordering = sorted(candidates, key=lambda m: (-detector_scores[m], m))
    rest = sorted(graph.nodes - candidates, key=lambda m: (-detector_scores[m], m))
    return [(m, float(detector_scores[m])) for m in ordering + rest]


def ideal_score(case: Case, truth: Optional[GroundTruth]) -> dict[MetricId, float]:
    """Oracle scores: 1 for true root causes, 0 elsewhere."""
    if truth is None:
        raise ValueError("the ideal scorer needs ground truth labels")
    return {m: (1.0 if m in truth.root_causes else 0.0) for m in case.metrics}


def score_case(case: Case, graph: Optional[CausalGraph], truth: Optional[GroundTruth],
               methods, threshold: float = ABNORMAL_THRESHOLD,
               lagged: Optional[bool] = None, adjust: Optional[bool] = None) -> list:
    """Run registered scorers on one case, computing each detector once.

    Per method, in order: ``((table, ranking), seconds)``, or ``(error, 0.0)``
    if it raised.  ``seconds`` count a shared detector in full, as if the
    method ran alone.  ``lagged`` and ``adjust`` are run_scorer's overrides.
    """
    detected: dict[str, tuple] = {}
    outcomes = []
    for name in methods:
        try:
            if name not in SCORERS:
                raise ValueError(f"unknown scorer {name!r}; registered: {', '.join(SCORER_NAMES)}")
            detector, do_adjust, dfs = SCORERS[name]
            rht = detector.startswith("rht")
            if graph is None and (rht or dfs):
                raise ValueError(f"scorer {name!r} needs a causal graph")
            if rht and lagged is not None:
                detector = "rht-lagged" if lagged else "rht"
            do_adjust = adjust if rht and adjust is not None else do_adjust
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
               lagged: Optional[bool] = None, adjust: Optional[bool] = None,
               ) -> tuple[ScoreTable, Ranking]:
    """Run a registered scorer on one case and return scores plus ranking.

    ``lagged`` and ``adjust`` override each scorer's defaults: rht uses
    neither, rht-pg adds the lagged self feature, circa is rht plus
    descendant adjustment, nsigma and ideal ignore the graph, and dfs
    ranks via the traversal baseline fed by nsigma detections.
    """
    [(outcome, _)] = score_case(case, graph, truth, [name], threshold, lagged, adjust)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
