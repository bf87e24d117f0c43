import json
import pickle
import re

import numpy as np
import pytest

from rcakit import simulation
from rcakit.errors import EdgeBudgetInfeasible, OutputNotEmpty
from rcakit.model import save_graph, window_index_ranges
from rcakit.scoring import SCORER_NAMES, run_scorer
from rcakit.simulation import (
    FaultType,
    InjectedFault,
    WeightedDag,
    apply_noise_shift,
    case_record,
    classify_fault,
    draw_root_count,
    generate_case,
    generate_dag,
    generate_dataset,
    load_dataset,
    save_dataset,
    simulate_matrix,
)

from conftest import (
    chain_dag,
    gamma,
    inverse_residual,
    propagation_reference,
    read_tree_bytes,
)


def undirected_connected(A):
    n = A.shape[0]
    adj = (A != 0) | (A != 0).T
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


def test_generate_dag_two_nodes_forced():
    dag = generate_dag(2, 1, rng_seed=0)
    assert dag.A[0, 1] != 0  # the only possible edge: node 1 causes node 0
    assert np.count_nonzero(dag.A) == 1


def test_generate_dag_counts_and_invariants():
    for seed in range(5):
        dag = generate_dag(50, 100, rng_seed=seed)
        assert np.count_nonzero(dag.A) == 100
        assert not dag.A[:, 0].any()  # SLI is childless
        assert undirected_connected(dag.A)
        magnitudes = np.abs(dag.A[dag.A != 0])
        assert ((magnitudes > 0.5) & (magnitudes < 2.0)).all()
        assert (dag.sigma >= 0.01).all()
        dag.graph.topological_order()  # acyclic


def test_generate_dag_edge_budget():
    with pytest.raises(EdgeBudgetInfeasible):
        generate_dag(50, 10, rng_seed=0)
    with pytest.raises(EdgeBudgetInfeasible):
        generate_dag(50, 50 * 49 // 2 + 1, rng_seed=0)


def test_generate_dag_dense_budget_met(fallback_calls):
    # A complete 20-node DAG: at this seed rejection stalls twice, so the
    # explicit draw over the free pairs runs twice.
    dag = generate_dag(20, 20 * 19 // 2, rng_seed=(1, 20))
    assert len(fallback_calls) == 2
    assert np.count_nonzero(dag.A) == 190


def test_weighted_dag_validation():
    with pytest.raises(ValueError):
        WeightedDag(A=np.array([[0.0, 3.0], [0.0, 0.0]]), sigma=np.ones(2))  # weight too big
    with pytest.raises(ValueError):
        WeightedDag(A=np.array([[0.0, 0.0], [1.0, 0.0]]), sigma=np.ones(2))  # SLI has a child
    with pytest.raises(ValueError):
        WeightedDag(A=np.zeros((2, 2)), sigma=np.array([1.0, -1.0]))
    # NaN and inf fail every check they reach, and an empty dag is refused.
    for A, sigma, named in [
        ([[0, np.nan], [0, 0]], [1, 1], "edge weight"),
        ([[0, -np.inf], [0, 0]], [1, 1], "edge weight"),
        ([[np.nan, 0], [0, 0]], [1, 1], "zero diagonal"),
        ([[0, 0], [np.nan, 0]], [1, 1], "SLI sink"),
        (np.zeros((2, 2)), [1, np.nan], "noise standard deviations"),
        (np.zeros((2, 2)), [np.inf, 1], "noise standard deviations"),
        (np.zeros((0, 0)), np.zeros(0), "at least one node"),
    ]:
        with pytest.raises(ValueError, match=named):
            WeightedDag(A=np.array(A, dtype=float), sigma=np.array(sigma, dtype=float))


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1000, 1001])
def test_dag_graph_ids_are_indices(n):
    # The names are padded at the digit-width edges, so that sorted names
    # keep index order and each graph id is the index of its row of A.
    names = tuple(simulation.metric_name(i, n) for i in range(n))
    drawn = generate_dag(n, min(2 * n, n * (n - 1) // 2), rng_seed=n)
    for dag in (drawn, WeightedDag(A=np.zeros((n, n)), sigma=np.ones(n))):
        assert dag.graph.names == names
        edges = {(int(p[1:]), int(c[1:])) for p, c in dag.graph.sorted_edges()}
        assert edges == {(j, i) for i, j in np.argwhere(dag.A).tolist()}


def test_simulate_pure_noise():
    dag = WeightedDag(A=np.zeros((3, 3)), sigma=np.array([1.0, 2.0, 0.5]), beta=0.0)
    X = simulate_matrix(dag, 10000, rng_seed=0)
    assert np.allclose(X.std(axis=0), dag.sigma, rtol=0.1)
    assert abs(np.corrcoef(X[:, 0], X[:, 1])[0, 1]) < 0.05


def test_simulate_two_node_variance_oracle():
    w = 1.5
    A = np.zeros((2, 2))
    A[0, 1] = w
    dag = WeightedDag(A=A, sigma=np.array([0.8, 1.2]), beta=0.0)
    X = simulate_matrix(dag, 10000, rng_seed=1)
    expected = w * w * 1.2 ** 2 + 0.8 ** 2
    assert X[:, 0].var() == pytest.approx(expected, rel=0.1)


def test_simulate_ar1_autocorrelation_oracle():
    dag = WeightedDag(A=np.zeros((2, 2)), sigma=np.ones(2), beta=0.1)
    X = simulate_matrix(dag, 10000, rng_seed=2)
    for j in range(2):
        x = X[:, j]
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(0.1, abs=0.03)


def test_simulate_reproducible():
    dag = generate_dag(20, 40, rng_seed=5)
    X1 = simulate_matrix(dag, 200, rng_seed=9)
    X2 = simulate_matrix(dag, 200, rng_seed=9)
    assert (X1 == X2).all()


def test_propagation_matrix_identity():
    for seed in range(3):
        dag = generate_dag(30, 60, rng_seed=seed)
        W = dag.W
        assert dag.W is W and not W.flags.writeable  # solved once, read-only
        M = np.eye(dag.n) - dag.A
        g = gamma(int(np.count_nonzero(M, axis=1).max()))
        assert inverse_residual(M, W, g)[0]
        forward = np.abs(W - propagation_reference(dag.A)).astype(float)
        assert np.all(forward <= 2 * g * (np.abs(W) @ np.abs(M) @ np.abs(W)))
        # control: a W off by a relative 1e-6 must be rejected
        assert not inverse_residual(M, W * (1 + 1e-6), g)[0]


def test_propagation_matrix_solved_once_per_graph(tmp_path, monkeypatch):
    calls = []
    solve = simulation.propagation_matrix

    def counted(dag):
        calls.append(dag)
        return solve(dag)

    monkeypatch.setattr(simulation, "propagation_matrix", counted)
    ds = generate_dataset(10, 20, n_graphs=3, cases_per_graph=4, rng_seed=1)
    assert len(calls) == 3
    save_dataset(ds, tmp_path / "ds")
    calls.clear()
    loaded = load_dataset(tmp_path / "ds")
    for g in loaded.graphs:
        for record in map(case_record, g.cases):
            for name in SCORER_NAMES:
                run_scorer(name, record.case, g.graph, record.truth)
    assert calls == []


def test_apply_noise_shift_superposition():
    dag = chain_dag()
    X = simulate_matrix(dag, 50, rng_seed=3)
    shifted = apply_noise_shift(dag, X, 30, {1: 5.0})
    assert (shifted[:30] == X[:30]).all()          # pre-fault rows untouched
    assert (shifted[30:] != X[30:]).any()
    expected_first = dag.W @ np.array([0.0, 5.0 * dag.sigma[1], 0.0])
    assert np.allclose(shifted[30] - X[30], expected_first)
    # two-sample pulse: by the third post-fault sample only the AR tail remains
    delta2 = shifted[32] - X[32]
    assert np.abs(delta2).max() < np.abs(shifted[30] - X[30]).max()


def test_draw_root_count_poisson_mean():
    rng = np.random.default_rng(0)
    draws = [draw_root_count(rng, 50) for _ in range(10000)]
    assert np.mean(draws) == pytest.approx(2.0, abs=0.05)
    assert min(draws) >= 1


def test_generate_case_contract():
    dag = generate_dag(20, 40, rng_seed=7)
    case, fault = generate_case(dag, rng_seed=9)
    assert isinstance(fault, InjectedFault)
    assert case.detect_time == 120
    assert fault.root_causes <= set(case.metrics)
    assert case.sli not in fault.root_causes  # the SLI is never sampled
    assert set(fault.alpha) == set(fault.root_causes)

    # the same stream, unfaulted: the case's first draws are the simulation
    X = simulate_matrix(dag, case.length, np.random.default_rng(9))
    shifted = case.values
    assert (shifted[:120] == X[:120]).all()
    assert (shifted[120:] != X[120:]).any()

    # the expected SLI deviation clears three reference sigmas
    sigma_hat = X[0:111].std(axis=0)
    index = {m: case.metrics.index(m) for m in fault.root_causes}
    roots = sorted(index.values())
    effect = sum(dag.W[0, i] * fault.alpha[m] * dag.sigma[i] for m, i in index.items())
    assert abs(effect) >= 3.0 * sigma_hat[0] - 1e-9
    assert fault.fault_type == classify_fault(dag, sigma_hat, roots)


def test_classify_fault_definitions():
    A = np.zeros((2, 2))
    A[0, 1] = 1.5
    dag = WeightedDag(A=A, sigma=np.ones(2), beta=0.0)
    fault = [1]
    assert classify_fault(dag, [3.0, 1.0], fault) is FaultType.WEAK     # ratio 0.5
    assert classify_fault(dag, [1.0, 1.0], fault) is FaultType.STRONG   # ratio 1.5
    assert classify_fault(dag, [1.5, 1.0], fault) is FaultType.MIXED    # ratio exactly 1

    A3 = np.zeros((3, 3))
    A3[0, 1] = 1.5
    A3[0, 2] = 1.5
    dag3 = WeightedDag(A=A3, sigma=np.ones(3), beta=0.0)
    # ratios 0.5 and 1.5: straddling
    assert classify_fault(dag3, [1.0, 1.0 / 3.0, 1.0], [1, 2]) is FaultType.MIXED


@pytest.mark.parametrize("sigma_hat", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf],
                                       [0.0, 1.0]])
def test_classify_fault_refuses_non_finite_sigma_hat(sigma_hat):
    A = np.zeros((2, 2))
    A[0, 1] = 1.5
    dag = WeightedDag(A=A, sigma=np.ones(2))
    with pytest.raises(ValueError, match="sigma_hat"):
        classify_fault(dag, sigma_hat, [1])


def test_classify_fault_scale_invariant():
    dag = chain_dag()
    sigma_hat = np.array([2.0, 1.0, 3.0])
    for scale in (1.0, 7.5, 0.01):
        assert classify_fault(dag, sigma_hat * scale, [1]) == classify_fault(dag, sigma_hat, [1])


def test_generate_dataset_shape_and_labels():
    ds = generate_dataset(10, 20, n_graphs=2, cases_per_graph=5, rng_seed=4)
    assert len(ds.graphs) == 2
    assert ds.n_cases() == 10
    for g in ds.graphs:
        assert len(g.graph.nodes) == 10
        for record in map(case_record, g.cases):
            case = record.case
            assert case.length == case.t_ref + case.t_delay + 1
            assert case.detect_time == case.t_ref
            assert record.truth.root_causes
            assert case.sli not in record.truth.root_causes
            assert record.truth.root_causes <= g.graph.nodes
            assert record.fault_type in {t.value for t in FaultType}
            window_index_ranges(case)  # windows must be coverable


def test_generate_dataset_reproducible():
    a = generate_dataset(10, 20, n_graphs=2, cases_per_graph=3, rng_seed=6)
    b = generate_dataset(10, 20, n_graphs=2, cases_per_graph=3, rng_seed=6)
    for ga, gb in zip(a.graphs, b.graphs):
        assert (ga.dag.A == gb.dag.A).all()
        for ca, cb in zip(map(case_record, ga.cases), map(case_record, gb.cases)):
            assert ca.case_id == cb.case_id
            assert ca.case == cb.case
            assert ca.truth == cb.truth
            assert ca.fault_type == cb.fault_type


@pytest.mark.parametrize("recipe, named", [
    (dict(t_delay=0), "t_delay=0"),
    (dict(t_delay=-1), "t_delay=-1"),
    (dict(t_ref=3, t_test=10), "t_ref=3, t_delay=5, t_test=10"),
    (dict(t_test=5), "t_delay=5, t_test=5"),
    (dict(poisson_rate=-1.0), "got -1.0"),
    (dict(poisson_rate=float("nan")), "got nan"),
    (dict(poisson_rate=1e19), "got 1e+19"),
])
def test_generate_dataset_checks_its_recipe_before_drawing(monkeypatch, recipe, named):
    def drawn(*args):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(simulation, "generate_dag", drawn)
    with pytest.raises(ValueError, match=re.escape(named)):
        generate_dataset(5, 4, n_graphs=1, cases_per_graph=1, **recipe)


@pytest.mark.parametrize("recipe", [
    dict(t_delay=0), dict(t_ref=5, t_test=10), dict(poisson_rate=1e19), dict(poisson_rate=-1),
])
def test_generate_case_checks_the_dataset_recipe_before_drawing(monkeypatch, recipe):
    def drawn(*args):
        raise AssertionError("simulated a series")

    dag = generate_dag(5, 4, rng_seed=1)
    monkeypatch.setattr(simulation, "simulate_matrix", drawn)
    with pytest.raises(ValueError) as from_dataset:
        generate_dataset(5, 4, n_graphs=1, cases_per_graph=1, **recipe)
    with pytest.raises(ValueError) as from_case:
        generate_case(dag, 0, **recipe)
    assert str(from_case.value) == str(from_dataset.value)


def manifest_rebuild(params):
    """generate_dataset called with the recipe a manifest.json records."""
    kwargs = dict(params, rng_seed=params["seed"])
    del kwargs["seed"]
    assert kwargs.pop("beta") == simulation.DEFAULT_BETA
    return generate_dataset(**kwargs)


def test_dataset_disk_roundtrip(tmp_path):
    ds = generate_dataset(8, 15, n_graphs=2, cases_per_graph=3, rng_seed=11)
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.params == ds.params
    assert len(loaded.graphs) == 2
    rebuilt = manifest_rebuild(loaded.params)
    for ga, gb, gr in zip(ds.graphs, loaded.graphs, rebuilt.graphs):
        assert ga.graph_id == gb.graph_id
        assert ga.graph == gb.graph
        # graph.json holds the topology only, in save_graph's bytes
        assert gb.dag is None
        save_graph(ga.graph, tmp_path / "expected.json")
        assert ((tmp_path / "ds" / ga.graph_id / "graph.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())
        # the weights are not lost: the manifest's recipe redraws them exactly
        assert np.array_equal(gr.dag.A, ga.dag.A)
        assert np.array_equal(gr.dag.sigma, ga.dag.sigma)
        for ca, cb in zip(map(case_record, ga.cases), map(case_record, gb.cases)):
            assert ca.case_id == cb.case_id
            assert ca.case == cb.case
            assert ca.truth == cb.truth
            assert ca.fault_type == cb.fault_type


def test_save_dataset_pooled_bytes_match_serial(tmp_path):
    ds = generate_dataset(8, 15, n_graphs=3, cases_per_graph=11, rng_seed=21)
    save_dataset(ds, tmp_path / "serial", jobs=1)
    save_dataset(ds, tmp_path / "pooled", jobs=2)
    serial = read_tree_bytes(tmp_path / "serial")
    assert len(serial) == 1 + 3 * (1 + 11 * 2)
    assert read_tree_bytes(tmp_path / "pooled") == serial


@pytest.mark.parametrize("n_tasks, jobs, pools", [
    (2, 6, [(2, 1)]), (3, 2, [(2, 1)]), (1, 6, []), (0, 6, []), (2, 1, []), (2, None, []),
    (9, 2, [(2, 2)]), (100, 2, [(2, 8)]),
])
def test_pool_map_starts_no_more_workers_than_tasks(monkeypatch, n_tasks, jobs, pools):
    import concurrent.futures

    started = []

    class RecordingPool:
        """Records its worker count and chunk size and maps in this process."""

        def __init__(self, max_workers):
            self.workers = max_workers

        def map(self, fn, tasks, chunksize=1):
            started.append((self.workers, chunksize))
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    tasks = [-t for t in range(1, n_tasks + 1)]
    assert simulation._pool_map(abs, tasks, jobs) == list(range(1, n_tasks + 1))
    assert started == pools  # (workers, chunk size) of each pool


def test_load_dataset_reads_graph_json_with_weights(tmp_path):
    ds = generate_dataset(8, 15, n_graphs=1, cases_per_graph=2, rng_seed=4)
    save_dataset(ds, tmp_path / "ds")
    record = ds.graphs[0]
    # the layout older versions wrote: the topology plus A, sigma and beta
    graph_file = tmp_path / "ds" / "g0" / "graph.json"
    payload = dict(json.loads(graph_file.read_text()), A=record.dag.A.tolist(),
                   sigma=record.dag.sigma.tolist(), beta=record.dag.beta)
    graph_file.write_text(json.dumps(payload, indent=2, sort_keys=True))
    loaded = load_dataset(tmp_path / "ds").graphs[0]
    assert loaded.graph == record.graph
    assert loaded.dag is None
    assert ([case_record(c).case for c in loaded.cases]
            == [case_record(c).case for c in record.cases])


def test_save_dataset_refuses_non_empty_dir(tmp_path):
    ds = generate_dataset(8, 15, n_graphs=1, cases_per_graph=2, rng_seed=11)
    (tmp_path / "ds").mkdir()
    save_dataset(ds, tmp_path / "ds")  # an empty directory is fine
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    with pytest.raises(OutputNotEmpty):
        save_dataset(ds, tmp_path / "ds")
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_weighted_dag_pickle_keeps_arrays_read_only():
    dag = generate_dag(20, 40, rng_seed=3)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(dag, protocol))
        assert "W" in vars(clone)  # travels with the dag; not solved again
        for name in ("A", "sigma", "W"):
            array = getattr(clone, name)
            assert np.array_equal(array, getattr(dag, name))
            assert not array.flags.writeable
