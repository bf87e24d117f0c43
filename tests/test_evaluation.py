import json
from dataclasses import asdict, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcakit import evaluation, scoring
from rcakit.errors import EmptyCaseSet, MalformedInput
from rcakit.evaluation import evaluate, format_table, recall_curve, save_report
from rcakit.model import CaseRecord, GroundTruth
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
from rcakit.simulation import SimulatedDataset, case_record, generate_dataset


def gt(*metrics):
    return GroundTruth(frozenset(metrics))


def ranks_of(ranking, truth):
    """The 1-based ranks of ``truth``'s roots in ``ranking``, as ``evaluate`` takes them."""
    return [r for r, (metric, _) in enumerate(ranking, 1) if metric in truth.root_causes]


def test_ac_at_k_single_case_top1():
    ranking = [("a", 3.0), ("b", 2.0)]
    assert recall_curve(ranks_of(ranking, gt("a")), 1, 1).tolist() == [1.0]


def test_ac_at_k_partial_recall():
    ranking = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    truth = gt("a", "b")
    assert recall_curve(ranks_of(ranking, truth), 2, 2).tolist() == [0.5, 1.0]


def test_ac_at_k_mean_over_cases():
    r1 = [("a", 2.0), ("b", 1.0)]
    r2 = [("b", 2.0), ("a", 1.0)]
    curves = [recall_curve(ranks_of(r, gt("a")), 1, 1) for r in (r1, r2)]
    assert np.mean(curves, axis=0).tolist() == [0.5]


def test_ac_at_k_short_ranking_is_whole_ranking():
    assert recall_curve(ranks_of([("a", 1.0)], gt("a", "b")), 2, 5).tolist() == [0.5] * 5


def test_ac_at_k_empty_case_set(tiny_dataset, monkeypatch):
    def fail(*args):
        raise AssertionError("scored a case")

    monkeypatch.setattr(evaluation, "score_case", fail)
    no_cases = replace(tiny_dataset, graphs=tuple(replace(g, cases=()) for g in tiny_dataset.graphs))
    with pytest.raises(EmptyCaseSet, match="dataset has no cases"):
        evaluate(no_cases, ["nsigma"])


def test_ac_monotone_and_avg_identity():
    rng = np.random.default_rng(0)
    metrics = [f"m{i}" for i in range(12)]
    curves = []
    for _ in range(100):
        order = rng.permutation(metrics)
        ranking = [(m, float(len(metrics) - i)) for i, m in enumerate(order)]
        truth = gt(*rng.choice(metrics, size=rng.integers(1, 4), replace=False))
        curves.append(recall_curve(ranks_of(ranking, truth), len(truth.root_causes), 12))
    values = np.mean(curves, axis=0).tolist()
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # full coverage at k = |V|
    avg = float(np.mean(values[:5]))
    assert avg == pytest.approx(sum(values[:5]) / 5)


UNIVERSE = [f"m{i}" for i in range(12)]


@settings(max_examples=300, deadline=None)
@given(ranking=st.permutations(UNIVERSE).flatmap(
           lambda order: st.integers(0, len(order)).map(lambda n: order[:n])),
       roots=st.sets(st.sampled_from(UNIVERSE), min_size=1),
       k=st.integers(1, len(UNIVERSE) + 5))
@example(ranking=[], roots={"m0"}, k=3)
@example(ranking=UNIVERSE, roots=set(UNIVERSE), k=len(UNIVERSE) + 5)
def test_recall_curve_is_a_top_k_count(ranking, roots, k):
    # short rankings, roots the ranking lacks, and k past the ranking's end
    ranks = [r for r, metric in enumerate(ranking, 1) if metric in roots]
    brute = [len(roots & set(ranking[:j])) / len(roots) for j in range(1, k + 1)]
    assert recall_curve(ranks, len(roots), k).tolist() == brute


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
    first = case_record(g0.cases[0])
    broken_case = first.case
    kept = [j for j, m in enumerate(broken_case.metrics) if m != "m5"]
    broken = replace(first, case=replace(
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
    # the report.json schema: these keys, and no others
    assert set(payload) == {"k_max", "n_graphs", "n_cases", "params", "methods"}
    assert set(payload["methods"]["nsigma"]) == {
        "ac_mean", "ac_std", "avg_at_k", "mean_time_s", "per_graph", "by_fault_type",
        "n_cases", "failures", "note"}
    assert (tmp_path / "report.json").read_text() == json.dumps(payload, indent=2,
                                                                sort_keys=True) + "\n"


def test_payload_is_asdict_and_a_copy(tiny_dataset):
    """``to_json`` equals ``dataclasses.asdict``, and editing what it returns
    leaves the report, and the next payload, as they were."""
    report = evaluate(tiny_dataset, ["ideal", "nsigma"], k_max=4)
    report = replace(report, params=dict(report.params, nested={"list": [1, 2]}))
    payload = report.to_json()
    assert payload == asdict(report)
    pinned = json.dumps(payload, sort_keys=True)
    for res in payload["methods"].values():
        for entry in res["by_fault_type"].values():
            entry["n"] = -1
            entry["ac"][0] = -1.0
        for key in ("per_graph", "by_fault_type"):
            res[key]["added"] = None
        res["ac_mean"] = ()
    payload["params"]["nested"]["list"].append(3)
    payload["methods"].clear()
    assert json.dumps(report.to_json(), sort_keys=True) == pinned


def test_evaluate_refuses_k_below_one_before_scoring(tiny_dataset, monkeypatch):
    def fail(*args):
        raise AssertionError("scored a case")

    monkeypatch.setattr(evaluation, "score_case", fail)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            evaluate(tiny_dataset, ["nsigma"], k_max=k_max)


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
    if name == "circa":
        adjusted = descendant_adjust(raw, graph)
        return ScoreTable(raw=raw, adjusted=adjusted), rank(adjusted)
    return ScoreTable(raw=raw), rank(raw)


ALL_SUBSETS = [list(c) for r in range(1, 7) for c in combinations(SCORER_NAMES, r)]


def test_score_case_every_subset_equals_each_scorer_alone(tiny_dataset):
    assert len(ALL_SUBSETS) == 63
    records = [(g, case_record(c)) for g in tiny_dataset.graphs for c in g.cases[:2]]
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
    record = case_record(g.cases[0])
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
    record = case_record(g.cases[0])
    outcomes = score_case(record.case, g.graph, record.truth, SCORER_NAMES)
    seconds = dict(zip(SCORER_NAMES, (s for _, s in outcomes)))
    assert seconds == {"rht": 1.0, "rht-pg": 1.0, "circa": 1.0,
                       "nsigma": 0.25, "dfs": 0.25, "ideal": 0.0}


def test_failing_detector_is_tried_once(tiny_dataset, monkeypatch):
    dataset = broken_dataset(tiny_dataset)
    g = dataset.graphs[0]
    record = case_record(g.cases[0])
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


def test_graph_whose_cases_all_fail_reports_null(tmp_path):
    # g1's graph names a node its cases lack, so rht fails on all three of
    # them: that graph's per_graph entry is null, which JSON can hold, and
    # AC@k is g0's alone.
    from rcakit.cli import main

    data = tmp_path / "ds"
    assert main(["simulate", "--nodes", "5", "--edges", "6", "--graphs", "2", "--cases", "3",
                 "--seed", "1", "--out", str(data), "--jobs", "1"]) == 0
    graph = json.loads((data / "g1" / "graph.json").read_text())
    graph["nodes"].append("zz")
    (data / "g1" / "graph.json").write_text(json.dumps(graph))
    assert main(["evaluate", str(data), "--scorers", "rht", "--jobs", "1"]) == 0

    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    report = json.loads((data / "report.json").read_text(), parse_constant=refuse)
    rht = report["methods"]["rht"]
    assert [failure[:2] for failure in rht["failures"]] == [["g1", f"c{c}"] for c in range(3)]
    assert rht["per_graph"]["g1"] is None
    assert rht["ac_mean"] == rht["per_graph"]["g0"]
    assert rht["ac_std"] == [0.0] * 5


def extended(payload, k_max):
    """A ``without_times`` report with every AC@k list repeated from its last
    value up to ``k_max``, and Avg@k taken over the longer curve."""
    def longer(values):
        return tuple(values) + (values[-1],) * (k_max - len(values))

    out = dict(payload, k_max=k_max, methods={})
    for name, res in payload["methods"].items():
        ac_mean = longer(res["ac_mean"])
        out["methods"][name] = dict(
            res, ac_mean=ac_mean, ac_std=longer(res["ac_std"]),
            avg_at_k=float(np.mean(ac_mean)),
            per_graph={g: None if v is None else longer(v) for g, v in res["per_graph"].items()},
            by_fault_type={ft: dict(entry, ac=list(longer(entry["ac"])))
                           for ft, entry in res["by_fault_type"].items()})
    return out


def test_k_past_the_metric_count_repeats_the_last_value(tiny_dataset):
    methods = list(SCORER_NAMES)
    ten = without_times(evaluate(tiny_dataset, methods, k_max=10))
    big = without_times(evaluate(tiny_dataset, methods, k_max=10_000))
    assert big == extended(ten, 10_000)


def test_recall_rows_stop_at_the_deepest_found_root(tiny_dataset, monkeypatch):
    """Rows are as long as the deepest root rank a method found, however
    large k_max is; two columns at least, when k_max allows."""
    methods = ["ideal", "nsigma"]
    deepest = dict.fromkeys(methods, 0)
    for g in tiny_dataset.graphs:
        for entry in g.cases:
            record = case_record(entry)
            outcomes = score_case(record.case, g.graph, record.truth, methods)
            for method, ((_, ranking), _) in zip(methods, outcomes):
                deepest[method] = max(deepest[method], *ranks_of(ranking, record.truth))
    assert deepest["ideal"] < deepest["nsigma"] <= 10
    lengths = []

    def spy(ranks, n_roots, k):
        lengths.append(k)
        return recall_curve(ranks, n_roots, k)

    monkeypatch.setattr(evaluation, "recall_curve", spy)
    for k_max in (1, 3, 10_000):
        lengths.clear()
        evaluate(tiny_dataset, methods, k_max=k_max)
        n = tiny_dataset.n_cases()
        assert lengths == [min(k_max, max(2, deepest[m])) for m in methods for _ in range(n)]


def test_found_roots_all_at_rank_one_average_as_k_max_columns(tiny_dataset, monkeypatch):
    """40 cases of one to six roots, r0 the only one ever found, at rank
    one: each AC@k is still the mean of k_max-long rows, summed row by row."""
    rng = np.random.default_rng(0)
    case = case_record(tiny_dataset.graphs[0].cases[0]).case
    truths = [gt(*["r0"] * int(rng.integers(2)), *(f"s{j}" for j in range(rng.integers(1, 6))))
              for _ in range(40)]
    records = tuple(CaseRecord(f"c{i:02d}", case, truth) for i, truth in enumerate(truths))
    monkeypatch.setattr(evaluation, "score_case", lambda case, graph, truth, methods, threshold:
                        [((None, [("r0", 1.0), ("y", 0.0)]), 0.0) for _ in methods])
    dataset = replace(tiny_dataset, graphs=(replace(tiny_dataset.graphs[0], cases=records),))
    report = evaluate(dataset, ["nsigma"], k_max=5)
    rows = np.array([[len(t.root_causes & {"r0"}) / len(t.root_causes)] * 5 for t in truths])
    assert np.mean(rows[:, :1], axis=0)[0] != np.mean(rows, axis=0)[0]  # summed pairwise
    assert report.methods["nsigma"].per_graph["g0"] == tuple(np.mean(rows, axis=0).tolist())


def test_case_without_truth_is_malformed_before_scoring(tiny_dataset, monkeypatch):
    def fail(*args):
        raise AssertionError("scored a case")

    monkeypatch.setattr(evaluation, "score_case", fail)
    g0 = tiny_dataset.graphs[0]
    unlabeled = replace(case_record(g0.cases[0]), truth=None)
    dataset = replace(tiny_dataset, graphs=(replace(g0, cases=(unlabeled,)),))
    with pytest.raises(MalformedInput, match=f"case {unlabeled.case_id}: .*root_causes"):
        evaluate(dataset, ["nsigma"])
