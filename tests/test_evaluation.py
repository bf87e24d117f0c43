from dataclasses import replace

import numpy as np
import pytest

from rcakit.errors import EmptyCaseSet
from rcakit.evaluation import ac_at_k, case_recall_at_k, evaluate, format_table, save_report
from rcakit.model import GroundTruth
from rcakit.scoring import SCORER_NAMES
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
    methods = ["rht", "nsigma", "ideal"]
    report = evaluate(dataset, methods, k_max=5, jobs=jobs)
    assert len(report.methods["rht"].failures) == 1
    for method in methods:
        alone = evaluate(dataset, [method], k_max=5).methods[method]
        assert report.methods[method].failures == alone.failures
        assert report.methods[method].n_cases == alone.n_cases
        assert report.methods[method].n_cases + len(alone.failures) == 16


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
