from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from rcakit import scoring
from rcakit.errors import EmptyCaseSet
from rcakit.evaluation import ac_at_k, case_recall_at_k, evaluate, format_table, save_report
from rcakit.model import GroundTruth
from rcakit.scoring import (
    SCORER_NAMES,
    ScoreTable,
    descendant_adjust,
    dfs_score,
    ideal_score,
    nsigma_score,
    rank,
    rht_score,
    run_scorer,
    score_case,
)
from rcakit.simulation import SimulatedDataset, generate_dataset


def gt(*metrics):
    return GroundTruth(frozenset(metrics))


def test_ac_at_k_single_case_top1():
    ranking = [("a", 3.0), ("b", 2.0)]
    assert ac_at_k([ranking], [gt("a")], 1) == 1.0


def test_ac_at_k_partial_recall():
    ranking = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    truth = gt("a", "b")
    assert ac_at_k([ranking], [truth], 1) == 0.5
    assert ac_at_k([ranking], [truth], 2) == 1.0


def test_ac_at_k_mean_over_cases():
    r1 = [("a", 2.0), ("b", 1.0)]
    r2 = [("b", 2.0), ("a", 1.0)]
    assert ac_at_k([r1, r2], [gt("a"), gt("a")], 1) == 0.5


def test_ac_at_k_short_ranking_is_whole_ranking():
    assert case_recall_at_k([("a", 1.0)], gt("a", "b"), 5) == 0.5


def test_ac_at_k_empty_case_set():
    with pytest.raises(EmptyCaseSet):
        ac_at_k([], [], 1)


def test_ac_monotone_and_avg_identity():
    rng = np.random.default_rng(0)
    metrics = [f"m{i}" for i in range(12)]
    rankings, truths = [], []
    for _ in range(100):
        order = rng.permutation(metrics)
        rankings.append([(m, float(len(metrics) - i)) for i, m in enumerate(order)])
        truths.append(gt(*rng.choice(metrics, size=rng.integers(1, 4), replace=False)))
    values = [ac_at_k(rankings, truths, k) for k in range(1, 13)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # full coverage at k = |V|
    avg = float(np.mean(values[:5]))
    assert avg == pytest.approx(sum(values[:5]) / 5)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(10, 20, n_graphs=2, cases_per_graph=8, rng_seed=13)


def test_evaluate_report_structure(tiny_dataset):
    report = evaluate(tiny_dataset, ["rht", "nsigma", "ideal"], k_max=5)
    assert set(report.methods) == {"rht", "nsigma", "ideal"}
    for res in report.methods.values():
        assert len(res.ac_mean) == 5
        assert all(0.0 <= v <= 1.0 for v in res.ac_mean)
        assert all(a <= b + 1e-12 for a, b in zip(res.ac_mean, res.ac_mean[1:]))
        assert res.avg_at_k == pytest.approx(float(np.mean(res.ac_mean)))
        assert res.n_cases == 16
        assert set(res.per_graph) == {"g0", "g1"}
    table = format_table(report)
    assert "AC@1" in table and "AC@5" in table and "rht" in table


def test_ideal_upper_bounds_everyone(tiny_dataset):
    report = evaluate(tiny_dataset, ["rht", "nsigma", "dfs", "ideal"], k_max=5)
    ideal = report.methods["ideal"].ac_mean
    for name, res in report.methods.items():
        for k in range(5):
            assert res.ac_mean[k] <= ideal[k] + 1e-9, name
    assert ideal[4] > 0.99


def test_evaluate_case_order_irrelevant(tiny_dataset):
    from dataclasses import replace
    shuffled = replace(
        tiny_dataset,
        graphs=tuple(
            replace(g, cases=tuple(reversed(g.cases))) for g in tiny_dataset.graphs
        ),
    )
    a = evaluate(tiny_dataset, ["rht"], k_max=5)
    b = evaluate(shuffled, ["rht"], k_max=5)
    assert a.methods["rht"].ac_mean == b.methods["rht"].ac_mean
    assert a.methods["rht"].per_graph == b.methods["rht"].per_graph


def without_times(report):
    payload = report.to_json()
    for method in payload["methods"].values():
        del method["mean_time_s"]
    return payload


def test_evaluate_parallel_matches_serial(tiny_dataset):
    methods = list(SCORER_NAMES)
    assert len(methods) == 6
    serial = evaluate(tiny_dataset, methods, k_max=5)
    parallel = evaluate(tiny_dataset, methods, k_max=5, jobs=2)
    assert serial.methods["rht"].ac_mean == parallel.methods["rht"].ac_mean
    assert list(parallel.methods) == methods
    assert without_times(parallel) == without_times(serial)
    # methods stay apart: each equals the method evaluated on its own
    for method in methods:
        alone = evaluate(tiny_dataset, [method], k_max=5, jobs=2)
        assert without_times(alone)["methods"][method] == without_times(serial)["methods"][method]


def broken_dataset(dataset):
    """``dataset`` with series m5 dropped from its first case, so the
    regression scorers fail there."""
    g0 = dataset.graphs[0]
    broken_case = g0.cases[0].case
    kept = [j for j, m in enumerate(broken_case.metrics) if m != "m5"]
    broken = replace(g0.cases[0], case=replace(
        broken_case, metrics=tuple(broken_case.metrics[j] for j in kept),
        values=broken_case.values[:, kept],
    ))
    return replace(dataset, graphs=(
        replace(g0, cases=(broken,) + g0.cases[1:]),
        *dataset.graphs[1:],
    ))


def test_evaluate_fail_soft(tiny_dataset):
    report = evaluate(broken_dataset(tiny_dataset), ["rht"], k_max=5)
    res = report.methods["rht"]
    assert len(res.failures) == 1
    assert res.failures[0][0] == "g0"
    assert "MissingSeries" in res.failures[0][2]
    assert res.n_cases == 15


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_fail_soft_keeps_methods_apart(tiny_dataset, jobs):
    dataset = broken_dataset(tiny_dataset)
    methods = list(SCORER_NAMES)
    report = evaluate(dataset, methods, k_max=5, jobs=jobs)
    assert len(report.methods["rht"].failures) == 1
    for method in methods:
        alone = evaluate(dataset, [method], k_max=5).methods[method]
        assert report.methods[method].failures == alone.failures
        assert report.methods[method].n_cases == alone.n_cases
        assert report.methods[method].n_cases + len(alone.failures) == 16
    # the three rht scorers share one failing detector; dfs misses m5 too
    for method in ("rht", "rht-pg", "circa", "dfs"):
        assert len(report.methods[method].failures) == 1
        assert "MissingSeries" in report.methods[method].failures[0][2]


def test_evaluate_fault_type_breakdown(tiny_dataset):
    report = evaluate(tiny_dataset, ["ideal"], k_max=5)
    breakdown = report.methods["ideal"].by_fault_type
    assert sum(entry["n"] for entry in breakdown.values()) == 16
    for entry in breakdown.values():
        assert len(entry["ac"]) == 5


def test_report_json_and_save(tiny_dataset, tmp_path):
    report = evaluate(tiny_dataset, ["nsigma"], k_max=3)
    payload = report.to_json()
    assert payload["k_max"] == 3
    assert "nsigma" in payload["methods"]
    save_report(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").exists()


def test_evaluate_empty_dataset():
    with pytest.raises(EmptyCaseSet):
        evaluate(SimulatedDataset(graphs=()), ["rht"])


# --- one scoring pass per case ------------------------------------------------

def composed_by_hand(name, case, graph, truth):
    """Each scorer spelled out from the primitives, one detector call each."""
    if name == "ideal":
        table = ScoreTable(raw=ideal_score(case, truth))
        return table, rank(table.raw)
    if name in ("nsigma", "dfs"):
        table = ScoreTable(raw=nsigma_score(case))
        return table, (dfs_score(case, graph, table.raw) if name == "dfs" else rank(table.raw))
    raw = rht_score(case, graph, use_lagged_self=name == "rht-pg")
    table = ScoreTable(raw=raw, adjusted=descendant_adjust(raw, graph) if name == "circa" else None)
    return table, rank(table.best())


ALL_SUBSETS = [list(c) for r in range(1, 7) for c in combinations(SCORER_NAMES, r)]


def test_score_case_every_subset_equals_each_scorer_alone(tiny_dataset):
    assert len(ALL_SUBSETS) == 63
    records = [(g, c) for g in tiny_dataset.graphs for c in g.cases[:2]]
    for g, record in records:
        args = (record.case, g.graph, record.truth)
        alone = {}
        for name in SCORER_NAMES:
            table, ranking = run_scorer(name, *args)
            alone[name] = table.to_json(ranking)
        for name in SCORER_NAMES:
            table, ranking = composed_by_hand(name, *args)
            assert alone[name] == table.to_json(ranking)
        for subset in ALL_SUBSETS:
            outcomes = score_case(*args, subset)
            assert len(outcomes) == len(subset)
            for name, ((table, ranking), seconds) in zip(subset, outcomes):
                assert table.to_json(ranking) == alone[name], (subset, name)
                assert seconds > 0.0


def counting(monkeypatch, name):
    calls = []
    original = getattr(scoring, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("use_lagged_self"))
        return original(*args, **kwargs)

    monkeypatch.setattr(scoring, name, counted)
    return calls


def test_score_case_runs_each_detector_once(tiny_dataset, monkeypatch):
    g = tiny_dataset.graphs[0]
    record = g.cases[0]
    rht_calls = counting(monkeypatch, "rht_score")
    nsigma_calls = counting(monkeypatch, "nsigma_score")
    outcomes = score_case(record.case, g.graph, record.truth, SCORER_NAMES)
    assert all(not isinstance(outcome, Exception) for outcome, _ in outcomes)
    assert sorted(rht_calls) == [False, True]
    assert len(nsigma_calls) == 1


def test_score_case_charges_shared_detector_to_every_user(tiny_dataset, monkeypatch):
    """Seconds are per method as if it ran alone: a detector's time counts
    for each method built on it, on a clock only the detectors advance."""
    clock = [0.0]
    monkeypatch.setattr(scoring.time, "perf_counter", lambda: clock[0])
    for name, cost in (("rht_score", 1.0), ("nsigma_score", 0.25)):
        original = getattr(scoring, name)

        def slow(*args, _original=original, _cost=cost, **kwargs):
            clock[0] += _cost
            return _original(*args, **kwargs)

        monkeypatch.setattr(scoring, name, slow)
    g = tiny_dataset.graphs[0]
    record = g.cases[0]
    outcomes = score_case(record.case, g.graph, record.truth, SCORER_NAMES)
    seconds = dict(zip(SCORER_NAMES, (s for _, s in outcomes)))
    assert seconds == {"rht": 1.0, "rht-pg": 1.0, "circa": 1.0,
                       "nsigma": 0.25, "dfs": 0.25, "ideal": 0.0}


def test_failing_detector_is_tried_once(tiny_dataset, monkeypatch):
    dataset = broken_dataset(tiny_dataset)
    g = dataset.graphs[0]
    record = g.cases[0]
    rht_calls = counting(monkeypatch, "rht_score")
    outcomes = score_case(record.case, g.graph, record.truth, SCORER_NAMES)
    assert sorted(rht_calls) == [False, True]
    errors = {name: f"{type(o).__name__}: {o}" for name, (o, _) in zip(SCORER_NAMES, outcomes)
              if isinstance(o, Exception)}
    # nsigma scores what is there, so only its dfs ranking misses m5
    assert set(errors) == {"rht", "rht-pg", "circa", "dfs"}
    assert errors["rht"] == errors["circa"] == errors["rht-pg"]
    assert errors["rht"].startswith("MissingSeries: ")
    assert errors["dfs"] == "MissingSeries: no detector score for: m5"
    # the whole serial batch: two rht_score calls per case, failing or not
    rht_calls.clear()
    evaluate(dataset, ["rht", "circa", "rht-pg"], k_max=5)
    assert len(rht_calls) == 2 * dataset.n_cases()
