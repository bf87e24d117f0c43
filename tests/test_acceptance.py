"""Acceptance suite.

Each test prints one pass/fail line.  The quantitative criteria run on a
regenerated benchmark (50 nodes / 100 edges, 10 graphs x 100 cases) and
check published-band tolerances; the property criteria check oracles
that are independent of the implementation paths they validate.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
from functools import lru_cache

import numpy as np
import pytest

from rcakit.archgraph import build_structural_graph
from rcakit.cli import main
from rcakit.evaluation import evaluate, recall_curve
from rcakit.model import CausalGraph, GroundTruth
from rcakit.scoring import descendant_adjust, rank, rht_score
from rcakit.simulation import (
    WeightedDag,
    apply_noise_shift,
    case_record,
    generate_dag,
    generate_dataset,
    propagation_matrix,
    simulate_matrix,
)

from conftest import chain_case, gamma, inverse_residual, propagation_reference
from test_archgraph import WEB_DB_GOLDEN_EDGES, web_db_spec

SEED = 7
BANDS = {
    "rht-pg": {"ac1": (0.555, 0.675), "ac5": (0.922, 0.982)},
    "rht": {"ac1": (0.508, 0.688), "ac5": (0.820, 0.940)},
    "nsigma": {"ac1": (0.282, 0.582), "ac5": (0.643, 0.823)},
    "ideal": {"ac1": (0.55, 0.70), "ac5": (0.99, 1.0)},
}


def check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {description}  {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


@pytest.fixture(scope="module")
def d50():
    return generate_dataset(50, 100, n_graphs=10, cases_per_graph=100, rng_seed=SEED)


@pytest.fixture(scope="module")
def d50_report(d50):
    return evaluate(d50, ["rht-pg", "rht", "nsigma", "ideal"], k_max=5)


def band_detail(res, band):
    return (f"AC@1={res.ac_mean[0]:.3f} in [{band['ac1'][0]}, {band['ac1'][1]}], "
            f"AC@5={res.ac_mean[4]:.3f} in [{band['ac5'][0]}, {band['ac5'][1]}]")


def in_bands(res, band):
    return (band["ac1"][0] <= res.ac_mean[0] <= band["ac1"][1]
            and band["ac5"][0] <= res.ac_mean[4] <= band["ac5"][1])


def test_criterion_01_rht_pg_bands(d50_report):
    res = d50_report.methods["rht-pg"]
    check(1, "rht-pg accuracy bands", in_bands(res, BANDS["rht-pg"]),
          band_detail(res, BANDS["rht-pg"]))


def test_criterion_02_rht_bands(d50_report):
    res = d50_report.methods["rht"]
    check(2, "rht accuracy bands", in_bands(res, BANDS["rht"]),
          band_detail(res, BANDS["rht"]))


def test_criterion_03_nsigma_bands(d50_report):
    res = d50_report.methods["nsigma"]
    check(3, "nsigma accuracy bands", in_bands(res, BANDS["nsigma"]),
          band_detail(res, BANDS["nsigma"]))


def test_criterion_04_ideal_bands(d50_report):
    res = d50_report.methods["ideal"]
    check(4, "ideal scorer bands (validates the root-count rate)",
          in_bands(res, BANDS["ideal"]), band_detail(res, BANDS["ideal"]))


def test_criterion_05_method_ordering(d50_report):
    pg = d50_report.methods["rht-pg"].ac_mean[4]
    plain = d50_report.methods["rht"].ac_mean[4]
    ns = d50_report.methods["nsigma"].ac_mean[4]
    check(5, "AC@5 ordering rht-pg > rht > nsigma", pg > plain > ns,
          f"{pg:.3f} > {plain:.3f} > {ns:.3f}")


def test_criterion_06_fault_type_skew(d50):
    counts = {}
    for g in d50.graphs:
        for c in map(case_record, g.cases):
            counts[c.fault_type] = counts.get(c.fault_type, 0) + 1
    total = sum(counts.values())
    weak = counts.get("Weak", 0) / total
    strong = counts.get("Strong", 0) / total
    check(6, "fault-type skew (Weak >= 85%, Strong <= 5%)",
          weak >= 0.85 and strong <= 0.05,
          f"Weak={weak:.1%}, Strong={strong:.1%}, n={total}")


def test_criterion_07_scalability():
    small = generate_dataset(50, 100, n_graphs=2, cases_per_graph=15, rng_seed=3)
    large = generate_dataset(500, 5000, n_graphs=2, cases_per_graph=15, rng_seed=3)
    evaluate(small, ["rht"])  # warm-up

    def per_case(dataset):
        return evaluate(dataset, ["rht"]).methods["rht"].mean_time_s

    # The CPU speed of a shared machine drifts over seconds, so the two
    # sizes are timed alternately in batches and compared by their medians.
    # A 50-node pass is about 12x shorter than a 500-node one and alone
    # catches a single speed state, so each batch averages five of them.
    small_times, large_times = [], []
    for _ in range(3):
        small_times.append(np.mean([per_case(small) for _ in range(5)]))
        large_times.append(per_case(large))
    t_small, t_large = np.median(small_times), np.median(large_times)
    ratio = t_large / t_small
    check(7, "per-case rht time at 500 nodes <= 15x the 50-node time",
          ratio <= 15.0, f"{t_small * 1e3:.2f} ms -> {t_large * 1e3:.2f} ms ({ratio:.1f}x)")


def test_criterion_08_propagation_inverse_oracle():
    # An absolute bound cannot be the oracle here.  At 500 nodes and 5000
    # edges, W has entries up to 5.1e8, where one float64 ulp is 6e-8.
    # For generate_dag(500, 5000, rng_seed=(500, 23)), even the exact
    # inverse rounded to float64 leaves an exact residual of 1.9e-8, and
    # 4.9e-8 when M @ W - I is evaluated in float64; no float64 W meets
    # 1e-8 there.  The standard componentwise bound for a computed
    # triangular inverse (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., ch. 8 and sec. 14.2) is
    #     |M W - I| <= gamma_k |M||W|,  M = I - A,
    # with k the most nonzeros in a row of M; the factor 2 covers the
    # rounding of M @ W itself.  S = |M||W| is 0 below the diagonal, so
    # the bound forces that triangle to be exactly 0.  It is tighter than
    # 1e-8 on every entry at 50 and 100 nodes.  The forward error of W
    # against a long-double row recursion obeys the matching bound
    #     |W - W_ref| <= gamma_k |W||M||W|.
    details = []
    holds = True
    for n_node, n_edge in ((50, 100), (100, 500), (500, 5000)):
        size_abs, size_scaled, size_ratio = 0.0, 0.0, 0.0
        for seed in range(100):
            dag = generate_dag(n_node, n_edge, rng_seed=(n_node, seed))
            W = propagation_matrix(dag)
            M = np.eye(dag.n) - dag.A
            g = gamma(int(np.count_nonzero(M, axis=1).max()))
            ok, ratio, resid = inverse_residual(M, W, g)
            holds = holds and ok
            scale = float(np.abs(M).sum(axis=1).max() * np.abs(W).sum(axis=1).max())
            size_abs = max(size_abs, resid)
            size_scaled = max(size_scaled, resid / scale)
            size_ratio = max(size_ratio, ratio)
            if seed < 5:  # independent route, spot-checked per size
                forward = np.abs(W - propagation_reference(dag.A)).astype(float)
                bound = 2 * g * (np.abs(W) @ np.abs(M) @ np.abs(W))
                assert np.all(forward <= bound), f"{n_node}n seed {seed}: forward error"
            if seed == 0:  # the bound must reject wrong inverses
                eye32 = np.eye(dag.n, dtype=np.float32)
                W_single = np.linalg.solve(M.astype(np.float32), eye32).astype(float)
                W_transposed = np.linalg.solve(np.eye(dag.n) - dag.A.T, np.eye(dag.n))
                W_nudged = W.copy()
                W_nudged[0, 0] += 1e-12
                for name, wrong in (("float32", W_single),
                                    ("transposed", W_transposed),
                                    ("nudged", W_nudged)):
                    assert not inverse_residual(M, wrong, g)[0], f"{n_node}n: {name} accepted"
        assert size_scaled < 1e-8, "solver is not at machine precision"
        details.append(f"{n_node}n: abs {size_abs:.1e} / scaled {size_scaled:.1e}"
                       f" / |R|/(g S) {size_ratio:.3f}")
    check(8, "(I-A)W = I within 2 gamma_k |I-A||W| per entry on 100 random DAGs per size",
          holds, "; ".join(details))


def test_criterion_09_intervention_recognition_monte_carlo():
    ranked_first = 0
    separated = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng((991, seed))
        A = np.zeros((3, 3))
        A[1, 2] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        A[0, 1] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        dag = WeightedDag(A=A, sigma=np.maximum(rng.exponential(1.0, 3), 0.01))
        X = simulate_matrix(dag, 126, rng)
        faulty = apply_noise_shift(dag, X, 120, {1: 10.0})
        case = chain_case(faulty)
        scores = rht_score(case, dag.graph, use_lagged_self=True)
        if rank(scores)[0][0] == "m1":
            ranked_first += 1
        if scores["m1"] > 3.0 and scores["m0"] <= 3.0:
            separated += 1
    check(9, "10-sigma mid-chain intervention: first-ranked >= 95/100 and "
             "score-separated >= 90/100",
          ranked_first >= 95 and separated >= 90,
          f"ranked_first={ranked_first}, separated={separated}")


def all_dags(n):
    """Every labeled DAG on n nodes, as a CausalGraph."""
    names = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for a in names for b in names if a != b]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, bit in zip(pairs, bits) if bit]
        try:
            yield CausalGraph(nodes=names, edges=edges)
        except ValueError:
            continue  # cyclic


def adjust_oracle(scores, graph, threshold=3.0):
    """Independent route: recursive collection of sub-threshold effects."""

    @lru_cache(maxsize=None)
    def collect(node):
        out = set()
        for child in graph.children(node):
            out.add(scores[child])
            if scores[child] < threshold:
                out |= collect(child)
        return frozenset(out)

    return {
        node: (s + max(collect(node), default=0.0) if s >= threshold else s)
        for node, s in scores.items()
    }


def test_criterion_10_descendant_adjustment_exhaustive():
    levels = (0.0, 1.0, 2.9, 3.0, 5.0, 10.0)
    checked = 0
    for n in range(1, 5):
        names = [f"n{i}" for i in range(n)]
        for graph in all_dags(n):
            for values in itertools.product(levels, repeat=n):
                scores = dict(zip(names, values))
                if descendant_adjust(scores, graph) != adjust_oracle(scores, graph):
                    check(10, "descendant adjustment matches brute-force oracle",
                          False, f"graph={sorted(graph.edges)} scores={scores}")
                checked += 1
    check(10, "descendant adjustment matches brute-force oracle on all "
              "DAGs with <= 4 nodes", True, f"{checked} cases")


def test_criterion_11_ac_monotone_and_avg_identity():
    rng = np.random.default_rng(2024)
    metrics = [f"m{i}" for i in range(15)]
    ok = True
    for _ in range(1000):
        order = rng.permutation(metrics)
        ranking = [(m, float(len(metrics) - i)) for i, m in enumerate(order)]
        truth = GroundTruth(frozenset(
            rng.choice(metrics, size=int(rng.integers(1, 5)), replace=False)
        ))
        ranks = [r for r, (m, _) in enumerate(ranking, 1) if m in truth.root_causes]
        values = recall_curve(ranks, len(truth.root_causes), len(metrics)).tolist()
        monotone = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        full = values[-1] == 1.0
        avg5 = float(np.mean(values[:5]))
        identity = avg5 == pytest.approx(sum(values[:5]) / 5.0)
        if not (monotone and full and identity):
            ok = False
            break
    check(11, "AC@k monotone, AC@|V| = 1 and Avg@5 identity on 1000 fixtures", ok)


def test_criterion_12_structural_graph_golden():
    graph = build_structural_graph(web_db_spec())
    ok = graph.edges == WEB_DB_GOLDEN_EDGES and graph.nodes == set(web_db_spec().metric_map)
    try:
        graph.topological_order()
    except ValueError:
        ok = False
    check(12, "web+db architecture compiles to the hand-derived edge set",
          ok, f"{len(graph.edges)} edges")


def test_criterion_13_cli_determinism(tmp_path):
    args = ["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2",
            "--cases", "5", "--seed", "7"]
    for out in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / out)]) == 0
    trees = []
    for out in ("a", "b"):
        root = tmp_path / out
        trees.append({
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    same_bytes = trees[0] == trees[1]

    reports = []
    for out in ("a", "b"):
        report_path = tmp_path / f"report_{out}.json"
        assert main(["evaluate", str(tmp_path / "a"), "--scorers", "rht,nsigma,ideal",
                     "--jobs", "1", "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        for method in payload["methods"].values():
            method.pop("mean_time_s", None)  # wall-clock, inherently run-specific
        reports.append(payload)
    check(13, "same-seed datasets byte-identical; repeat evaluations identical "
              "(timing fields aside)", same_bytes and reports[0] == reports[1])
