import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcakit.errors import MissingSeries
from rcakit.model import CausalGraph, window_index_ranges
from rcakit.regression import sigma_floor
from rcakit.scoring import (
    ScoreTable,
    descendant_adjust,
    dfs_score,
    ideal_score,
    nsigma_score,
    rank,
    rht_score,
    run_scorer,
    save_scores,
)
from rcakit.model import GroundTruth
from rcakit.simulation import apply_noise_shift, simulate_matrix

from conftest import chain_case, chain_dag, make_case, metric_names, random_dagscores


def tiny_case(reference, test, metric="a", extra=None):
    """Case whose reference/test windows tile the given samples exactly.

    With t_delay = 0, t_test = len(test) and t_ref = len(reference) +
    len(test) - 1, the reference window is exactly the first block and
    the test window exactly the second, with no samples in between.
    """
    r, s = len(reference), len(test)
    values = {metric: np.concatenate([np.asarray(reference, float), np.asarray(test, float)])}
    for name, (ref2, test2) in (extra or {}).items():
        values[name] = np.concatenate([np.asarray(ref2, float), np.asarray(test2, float)])
    return make_case(values, detect_time=r + s - 1, start_time=0, sli=metric,
                     t_ref=r + s - 1, t_delay=0, t_test=s)


# --- nsigma ---------------------------------------------------------------

def test_nsigma_constant_reference():
    case = tiny_case([5.0, 5.0, 5.0], [5.0])
    assert nsigma_score(case)["a"] == 0.0


def test_nsigma_hand_arithmetic():
    # reference {0, 2} has mean 1 and population std 1; test {4} scores 3
    case = tiny_case([0.0, 2.0], [4.0])
    assert nsigma_score(case)["a"] == pytest.approx(3.0)


def test_nsigma_large_sample():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=5000)
    case = tiny_case(ref, [3.0])
    assert nsigma_score(case)["a"] == pytest.approx(3.0, abs=0.15)


def test_nsigma_equals_per_metric_loop():
    # the vectorized scorer against the per-series loop it replaced, bit for bit
    rng = np.random.default_rng(12)
    columns = {f"m{i}": rng.normal(size=126) * 10.0 ** rng.integers(-8, 9) + rng.normal()
               for i in range(40)}
    columns["flat"] = np.full(126, 3.0)  # sigma floor
    case = make_case(columns, detect_time=120)
    ref_idx, test_idx = window_index_ranges(case)
    scores = nsigma_score(case)
    for j, metric in enumerate(case.metrics):
        ref = case.values[ref_idx.start:ref_idx.stop, j]
        test = case.values[test_idx.start:test_idx.stop, j]
        sigma = float(ref.std())
        sigma = max(sigma, float(sigma_floor(sigma)))
        assert scores[metric] == float(np.abs(test - float(ref.mean())).max() / sigma)


# --- rht ------------------------------------------------------------------

def test_rht_follows_training_relationship():
    rng = np.random.default_rng(1)
    x = rng.normal(size=121)
    y = 2.0 * x + rng.normal(scale=0.01, size=121)
    y[-10:] = 2.0 * x[-10:]  # test values continue the relation exactly
    case = tiny_case(x[:111], x[-10:], metric="x",
                     extra={"y": (y[:111], y[-10:])})
    graph = CausalGraph(nodes=["x", "y"], edges=[("x", "y")])
    scores = rht_score(case, graph)
    assert scores["y"] <= 0.5


def test_rht_intercept_only_reduces_to_zscore():
    rng = np.random.default_rng(2)
    ref = rng.normal(size=111)
    test = np.zeros(10)
    test[4] = 5.0
    case = tiny_case(ref, test)
    graph = CausalGraph(nodes=["a"], edges=[])
    score = rht_score(case, graph)["a"]
    # oracle: plain z-score of the most deviant test sample
    expected = np.abs(test - ref.mean()).max() / ref.std()
    assert score == pytest.approx(expected, rel=1e-9)
    assert score == pytest.approx(5.0, abs=0.8)


def test_rht_chain_intervention_criterion():
    # m2 -> m1 -> m0; shift m1's noise by 10 sigma inside the test window:
    # m1 deviates given its parent, m0 is explained by its parent m1
    dag = chain_dag()
    rng = np.random.default_rng(3)
    X = simulate_matrix(dag, 126, rng)
    faulty = apply_noise_shift(dag, X, 120, {1: 10.0})
    case = chain_case(faulty)
    scores = rht_score(case, dag.graph, use_lagged_self=True)
    assert scores["m1"] > 5.0
    assert scores["m2"] < 3.0   # upstream parent untouched
    assert scores["m0"] < 3.0   # downstream child explained away
    assert rank(scores)[0][0] == "m1"


def test_rht_missing_series():
    case = tiny_case([1.0, 2.0, 1.5], [1.0])
    graph = CausalGraph(nodes=["a", "ghost"], edges=[])
    with pytest.raises(MissingSeries):
        rht_score(case, graph)


def test_rht_matches_nsigma_on_edgeless_graph():
    rng = np.random.default_rng(4)
    case = make_case({"a": rng.normal(size=126), "b": rng.normal(size=126) * 3 + 7},
                     detect_time=120, start_time=0)
    graph = CausalGraph(nodes=["a", "b"], edges=[])
    rht = rht_score(case, graph, use_lagged_self=False)
    ns = nsigma_score(case)
    for metric in ("a", "b"):
        assert rht[metric] == pytest.approx(ns[metric], rel=1e-12)


def test_rht_affine_rescaling_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=126)
    y = 1.5 * x + rng.normal(scale=0.3, size=126)
    z = -0.7 * y + rng.normal(scale=0.2, size=126)
    graph = CausalGraph(nodes=["x", "y", "z"], edges=[("x", "y"), ("y", "z")])
    base = make_case({"x": x, "y": y, "z": z}, detect_time=120, start_time=0)
    scaled = make_case({"x": x, "y": 3.7 * y - 12.0, "z": z},
                       detect_time=120, start_time=0)
    for lagged in (False, True):
        s0 = rht_score(base, graph, use_lagged_self=lagged)
        s1 = rht_score(scaled, graph, use_lagged_self=lagged)
        for metric in graph.nodes:
            assert s0[metric] == pytest.approx(s1[metric], rel=1e-6)


# --- descendant adjustment -------------------------------------------------

def test_adjust_hand_example_chain():
    graph = CausalGraph(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    adjusted = descendant_adjust({"a": 5.0, "b": 1.0, "c": 4.0}, graph)
    # a collects {1} from b and, because b is below threshold, {4} from c
    assert adjusted == {"a": 9.0, "b": 1.0, "c": 4.0}


def test_adjust_below_threshold_untouched():
    graph = CausalGraph(nodes=["a", "b"], edges=[("a", "b")])
    scores = {"a": 2.9, "b": 2.0}
    assert descendant_adjust(scores, graph) == scores


def test_adjust_abnormal_leaf_unchanged():
    graph = CausalGraph(nodes=["a", "b"], edges=[("a", "b")])
    adjusted = descendant_adjust({"a": 1.0, "b": 7.0}, graph)
    assert adjusted["b"] == 7.0


def test_adjust_properties(rng):
    for _ in range(40):
        graph, scores = random_dagscores(rng)
        adjusted = descendant_adjust(scores, graph)
        below = sorted((m for m in scores if scores[m] < 3.0), key=lambda m: scores[m])
        for metric in scores:
            assert adjusted[metric] >= scores[metric]
            if scores[metric] < 3.0:
                assert adjusted[metric] == scores[metric]
        # relative order among sub-threshold nodes is untouched
        assert below == sorted(below, key=lambda m: adjusted[m])


def set_based_adjust(scores, graph, threshold=3.0):
    """The former descendant_adjust: every node collects the set of all
    scores it can reach, and reads only that set's maximum."""
    collected = {}
    for node in reversed(graph.topological_order()):
        bag = set()
        for child in graph.children(node):
            bag.add(scores[child])
            if scores[child] < threshold:
                bag |= collected[child]
        collected[node] = bag
    adjusted = {}
    for node in graph.topological_order():
        score = scores[node]
        if score >= threshold:
            score = score + (max(collected[node]) if collected[node] else 0.0)
        adjusted[node] = score
    return adjusted


def test_adjust_equals_set_based_version(rng):
    for trial in range(300):
        graph, scores = random_dagscores(rng, n_nodes=int(rng.integers(1, 14)),
                                         edge_prob=float(rng.uniform(0.1, 0.6)))
        if trial % 2:
            scores = {m: float(round(s)) for m, s in scores.items()}  # ties
        values = sorted(set(scores.values()))
        thresholds = {3.0, 0.0, np.inf}
        for v in values:
            thresholds |= {v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)}
        for threshold in sorted(thresholds):
            assert (descendant_adjust(scores, graph, threshold)
                    == set_based_adjust(scores, graph, threshold))


def per_child_adjust(scores, graph, threshold=3.0):
    """The former descendant_adjust: one two-argument max per child."""
    carried = {}
    for node in reversed(graph.topological_order()):
        best = None
        for child in graph.children(node):
            reach = scores[child]
            if reach < threshold and carried[child] is not None:
                reach = max(reach, carried[child])
            best = reach if best is None else max(best, reach)
        carried[node] = best
    adjusted = {}
    for node in graph.topological_order():
        score = scores[node]
        if score >= threshold and carried[node] is not None:
            score = score + carried[node]
        adjusted[node] = score
    return adjusted


def test_adjust_keeps_nan_where_the_per_child_fold_did(rng):
    # max(a, b) keeps a unless b > a, so where a NaN survives depends on the
    # order of the comparisons; the set-based version above has no NaN.
    for _ in range(300):
        graph, scores = random_dagscores(rng, n_nodes=int(rng.integers(1, 14)),
                                         edge_prob=float(rng.uniform(0.1, 0.6)))
        for m in scores:
            if rng.random() < 0.3:
                scores[m] = np.nan
        for threshold in (0.0, 3.0, np.inf, np.nan):
            got = descendant_adjust(scores, graph, threshold)
            want = per_child_adjust(scores, graph, threshold)
            assert list(got) == list(want)
            assert np.array_equal(np.array(list(got.values())).view(np.uint64),
                                  np.array(list(want.values())).view(np.uint64))


# --- dfs baseline -----------------------------------------------------------

def test_dfs_single_abnormal_path():
    graph = CausalGraph(nodes=["a", "b", "sli"], edges=[("a", "b"), ("b", "sli")])
    case = make_case({"a": np.zeros(126), "b": np.zeros(126), "sli": np.zeros(126)},
                     detect_time=120, start_time=0, sli="sli")
    ranking = dfs_score(case, graph, {"a": 6.0, "b": 5.0, "sli": 8.0}, threshold=3.0)
    assert ranking[0][0] == "a"


def test_dfs_sli_is_root_when_parents_normal():
    graph = CausalGraph(nodes=["a", "sli"], edges=[("a", "sli")])
    case = make_case({"a": np.zeros(126), "sli": np.zeros(126)},
                     detect_time=120, start_time=0, sli="sli")
    ranking = dfs_score(case, graph, {"a": 1.0, "sli": 8.0})
    assert ranking[0][0] == "sli"


def test_dfs_diamond():
    graph = CausalGraph(
        nodes=["a", "b", "c", "sli"],
        edges=[("a", "b"), ("a", "c"), ("b", "sli"), ("c", "sli")],
    )
    case = make_case({m: np.zeros(126) for m in graph.nodes},
                     detect_time=120, start_time=0, sli="sli")
    ranking = dfs_score(case, graph, {"a": 4.0, "b": 5.0, "c": 1.0, "sli": 9.0})
    assert ranking[0][0] == "a"


def test_dfs_requires_scores_for_all_nodes():
    graph = CausalGraph(nodes=["a", "sli"], edges=[("a", "sli")])
    case = make_case({"a": np.zeros(126), "sli": np.zeros(126)},
                     detect_time=120, start_time=0, sli="sli")
    with pytest.raises(MissingSeries):
        dfs_score(case, graph, {"sli": 5.0})


# --- rank -------------------------------------------------------------------

def test_rank_examples():
    assert rank({"a": 1.0, "b": 2.0}) == [("b", 2.0), ("a", 1.0)]
    assert rank({"a": 1.0, "b": 1.0}) == [("a", 1.0), ("b", 1.0)]
    assert rank({}) == []


def test_rank_is_permutation(rng):
    scores = {f"m{i}": float(rng.random()) for i in range(30)}
    ranking = rank(scores)
    assert sorted(m for m, _ in ranking) == sorted(scores)
    values = [s for _, s in ranking]
    assert values == sorted(values, reverse=True)


# --- score table and scorer registry ----------------------------------------

def test_score_table_validation():
    with pytest.raises(ValueError):
        ScoreTable(raw={"a": -1.0})
    with pytest.raises(ValueError):
        ScoreTable(raw={"a": float("inf")})


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), -0.5], ids=["nan", "-inf", "negative"])
def test_score_table_names_first_bad_metric(bad):
    # valid scores first; dict order, not name order, decides which is named
    with pytest.raises(ValueError, match="raw score for 'y' must be finite and >= 0"):
        ScoreTable(raw={"m1": 0.0, "m2": 3.5, "y": bad, "x": float("nan")})
    ScoreTable(raw={"m1": 0.0, "m2": 3.5})


#: The floats whose spelling is easiest to get wrong: a signed zero, the
#: smallest subnormal and the largest finite double.
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308)


def assert_scores_bytes(table, ranking):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.json"
        save_scores(path, table, ranking)
        assert path.read_bytes() == (json.dumps(table.to_json(ranking), indent=2, sort_keys=True)
                                     + "\n").encode()


@st.composite
def score_tables(draw):
    """A table over arbitrary names, its adjusted scores absent or any
    floats (overflowed ones included), and a ranking that is the score
    order or any order of the metrics."""
    names = draw(st.lists(metric_names, unique=True, max_size=8))
    raw_floats = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    raw = {m: draw(raw_floats) for m in names}
    adjusted = draw(st.none() | st.fixed_dictionaries(
        {m: st.floats() | st.sampled_from(EDGE_FLOATS) for m in names}))
    table = ScoreTable(raw, adjusted)
    ranked = raw if adjusted is None else adjusted
    ranking = draw(st.just(rank(ranked)) | st.permutations(list(ranked.items())))
    return table, ranking


@settings(max_examples=200, deadline=None)
@given(drawn=score_tables())
@example(drawn=(ScoreTable({}), []))
@example(drawn=(ScoreTable({"a\"b": -0.0, "\\\x01é": 5e-324, "𝄞": 1.7976931348623157e308},
                           {"a\"b": math.inf, "\\\x01é": 5e-324, "𝄞": math.inf}), []))
def test_save_scores_bytes_match_json_dumps(drawn):
    assert_scores_bytes(*drawn)


def test_save_scores_keeps_dfs_order():
    graph = CausalGraph(nodes=["a", "b", "sli"], edges=[("a", "b"), ("b", "sli")])
    case = make_case({"a": np.zeros(126), "b": np.zeros(126), "sli": np.zeros(126)},
                     detect_time=120, start_time=0, sli="sli")
    scores = {"a": 6.0, "b": 5.0, "sli": 8.0}
    ranking = dfs_score(case, graph, scores, threshold=3.0)
    assert ranking != rank(scores)  # a dfs ranking is not sorted by score
    assert_scores_bytes(ScoreTable(scores), ranking)


def test_run_scorer_contracts():
    dag = chain_dag()
    rng = np.random.default_rng(8)
    X = simulate_matrix(dag, 126, rng)
    faulty = apply_noise_shift(dag, X, 120, {1: 8.0})
    case = chain_case(faulty)
    graph = dag.graph
    truth = GroundTruth(frozenset({"m1"}))

    rht_table, _ = run_scorer("rht", case, graph)
    circa_table, circa_rank = run_scorer("circa", case, graph)
    assert circa_table.raw == rht_table.raw
    assert circa_table.adjusted == descendant_adjust(rht_table.raw, graph)
    assert circa_rank == rank(circa_table.adjusted)

    pg_table, _ = run_scorer("rht-pg", case, graph)
    assert pg_table.raw != rht_table.raw  # the lagged-self feature is in play

    ns_table, _ = run_scorer("nsigma", case)  # no graph needed
    assert set(ns_table.raw) == {"m0", "m1", "m2"}

    _, dfs_ranking = run_scorer("dfs", case, graph)
    assert len(dfs_ranking) == 3

    ideal_table, ideal_ranking = run_scorer("ideal", case, truth=truth)
    assert ideal_table.raw == ideal_score(case, truth)
    assert ideal_ranking[0][0] == "m1"

    with pytest.raises(ValueError):
        run_scorer("ideal", case)  # no truth
    with pytest.raises(ValueError):
        run_scorer("rht", case)  # no graph
    with pytest.raises(ValueError):
        run_scorer("made-up", case)


def test_registered_scorers_compose_public_functions():
    # each registered regression scorer is rht_score, maybe lagged, maybe adjusted
    dag = chain_dag()
    X = simulate_matrix(dag, 126, np.random.default_rng(9))
    case = chain_case(X)
    graph = dag.graph
    rht, _ = run_scorer("rht", case, graph)
    circa, _ = run_scorer("circa", case, graph)
    pg, _ = run_scorer("rht-pg", case, graph)
    assert circa.raw == rht.raw
    assert circa.adjusted == descendant_adjust(rht.raw, graph)
    assert pg.raw == rht_score(case, graph, use_lagged_self=True)
    assert pg.adjusted is None
