"""What metrics are called, which other columns a case holds, and where
its clock starts must not change their scores.

Graph node ids follow the sorted names, and a case maps them to its
columns, so a rename that reorders the names, or a column that is in no
edge, moves every node's id or column.  Windows are found from
timestamps, so a case whose start and detection times move together
must select the same rows.  Each property is checked against rcakit
itself on simulated cases.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rcakit.model import Case, CausalGraph
from rcakit.scoring import SCORER_NAMES, run_scorer
from rcakit.simulation import case_record, generate_dataset

SCORERS = ("rht", "rht-pg", "circa", "dfs")


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def simulated(draw):
    """A simulated case record, its graph, and a seed for what the test draws."""
    nodes = draw(st.integers(6, 16))
    dataset = generate_dataset(nodes, draw(st.integers(nodes - 1, 2 * nodes)), n_graphs=1,
                               cases_per_graph=1, rng_seed=draw(st.integers(0, 2**16)))
    [record] = dataset.graphs
    return case_record(record.cases[0]), record.graph, draw(st.integers(0, 2**32 - 1))


def relabelled(case, graph, rename):
    """The case and graph with every metric renamed."""
    renamed = Case(metrics=[rename[m] for m in case.metrics], values=case.values,
                   start_time=case.start_time, interval=case.interval,
                   detect_time=case.detect_time, sli=rename[case.sli], t_ref=case.t_ref,
                   t_delay=case.t_delay, t_test=case.t_test)
    return renamed, CausalGraph(map(rename.get, graph.nodes),
                                [(rename[p], rename[c]) for p, c in graph.edges])


def renamed_back(table, ranking, back):
    raw = {back[m]: s for m, s in table.raw.items()}
    adjusted = None if table.adjusted is None else {back[m]: s for m, s in table.adjusted.items()}
    return raw, adjusted, [(back[m], s) for m, s in ranking]


def assert_bit_identical(got, want):
    for mapping_got, mapping_want in zip(got[:2], want[:2]):
        if mapping_want is None:
            assert mapping_got is None
            continue
        assert list(mapping_got) == list(mapping_want)
        assert np.array_equal(bits(list(mapping_got.values())), bits(list(mapping_want.values())))
    assert [m for m, _ in got[2]] == [m for m, _ in want[2]]
    assert np.array_equal(bits([s for _, s in got[2]]), bits([s for _, s in want[2]]))


@settings(max_examples=25, deadline=None)
@given(simulated())
def test_order_preserving_rename_gives_bit_identical_scores(drawn):
    record, graph, _ = drawn
    case = record.case
    rename = {m: f"svc.{m}" for m in case.metrics}
    back = {v: m for m, v in rename.items()}
    renamed, renamed_graph = relabelled(case, graph, rename)
    for scorer in SCORERS:
        want = run_scorer(scorer, case, graph)
        got = renamed_back(*run_scorer(scorer, renamed, renamed_graph), back)
        assert_bit_identical(got, (want[0].raw, want[0].adjusted, want[1]))


@settings(max_examples=25, deadline=None)
@given(simulated())
def test_permuting_rename_gives_the_same_score_per_metric(drawn):
    record, graph, seed = drawn
    case = record.case
    order = np.random.default_rng(seed).permutation(len(case.metrics))
    rename = {m: f"x{order[j]:03d}" for j, m in enumerate(case.metrics)}
    back = {v: m for m, v in rename.items()}
    renamed, renamed_graph = relabelled(case, graph, rename)
    for scorer in SCORERS:
        (table, ranking) = run_scorer(scorer, case, graph)
        raw, adjusted, moved = renamed_back(*run_scorer(scorer, renamed, renamed_graph), back)
        # A node now sees its parents in another column order, so the solves
        # may differ in the last bits; the nsigma scores behind dfs cannot.
        rtol = 0.0 if scorer == "dfs" else 1e-9
        for want, got in ((table.raw, raw), (table.adjusted, adjusted)):
            if want is not None:
                assert np.allclose([got[m] for m in want], list(want.values()), rtol=rtol, atol=0)
        # Rankings agree up to how ties break by name.
        assert {m for m, _ in moved} == {m for m, _ in ranking}
        assert np.allclose([s for _, s in moved], [s for _, s in ranking], rtol=rtol, atol=0)


@settings(max_examples=25, deadline=None)
@given(simulated(), st.sampled_from(["a.first", "m0035", "zz.last"]))
def test_a_column_in_no_edge_leaves_graph_scores_bit_identical(drawn, extra):
    record, graph, seed = drawn
    case = record.case
    noise = np.random.default_rng(seed).normal(size=case.length) * 10.0
    wider = Case(metrics=case.metrics + (extra,), values=np.column_stack([case.values, noise]),
                 start_time=case.start_time, interval=case.interval,
                 detect_time=case.detect_time, sli=case.sli, t_ref=case.t_ref,
                 t_delay=case.t_delay, t_test=case.t_test)
    for scorer in SCORERS:
        table, ranking = run_scorer(scorer, case, graph)
        got, got_ranking = run_scorer(scorer, wider, graph)
        # nsigma, behind dfs, scores the new column too: drop that entry.
        raw = {m: s for m, s in got.raw.items() if m != extra}
        assert_bit_identical((raw, got.adjusted, got_ranking), (table.raw, table.adjusted, ranking))


@settings(max_examples=25, deadline=None)
@given(simulated(), st.one_of(st.integers(-10, 10), st.integers(-10**12, 10**12)))
def test_shifting_the_clock_gives_bit_identical_scores(drawn, shift):
    record, graph, _ = drawn
    case = record.case
    moved = replace(case, start_time=case.start_time + shift,
                    detect_time=case.detect_time + shift)
    for scorer in SCORER_NAMES:
        table, ranking = run_scorer(scorer, case, graph, record.truth)
        got, got_ranking = run_scorer(scorer, moved, graph, record.truth)
        assert_bit_identical((got.raw, got.adjusted, got_ranking),
                             (table.raw, table.adjusted, ranking))
