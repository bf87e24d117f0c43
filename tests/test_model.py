import csv
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rcakit import model
from rcakit.errors import MalformedInput, WindowOutOfRange
from rcakit.model import (
    Case,
    CausalGraph,
    GroundTruth,
    TimeSeries,
    load_case,
    load_graph,
    save_case,
    save_graph,
    window_index_ranges,
)

import csv_reference
from conftest import lexicographic_networkx_order, make_case, metric_names


def test_split_windows_default_example():
    # t_d=1000 with defaults: reference covers minutes [880, 990],
    # test covers (995, 1005], i.e. 111 and 10 samples.
    n = 126  # minutes 880..1005
    case = make_case({"a": np.arange(n), "b": np.zeros(n)}, detect_time=1000)
    ref_idx, test_idx = window_index_ranges(case)
    reference = case.values[ref_idx.start:ref_idx.stop, case.metrics.index("a")]
    test = case.values[test_idx.start:test_idx.stop, case.metrics.index("a")]
    assert len(reference) == 111
    assert len(test) == 10
    # column "a" holds its own offset, so values identify the minutes
    assert reference[0] == 0 and reference[-1] == 110      # 880..990
    assert test[0] == 116 and test[-1] == 125              # 996..1005


def test_split_span_too_short():
    # covering only [t_d-50, t_d+5] cannot satisfy t_ref=120
    values = np.zeros(56)
    case = make_case({"a": values}, detect_time=1000, start_time=950)
    with pytest.raises(WindowOutOfRange):
        window_index_ranges(case)


def test_split_boundary_inclusion():
    # t_d=0 with series starting exactly at -120: reference starts at sample 0
    case = make_case({"a": np.arange(126)}, detect_time=0, start_time=-120)
    ref_idx, test_idx = window_index_ranges(case)
    assert ref_idx.start == 0
    assert test_idx.stop == 126


def test_window_lengths_and_disjointness_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t_delay = int(rng.integers(0, 8))
        t_test = int(rng.integers(t_delay + 1, t_delay + 20))
        t_ref = int(rng.integers(t_test, t_test + 60))
        t_d = int(rng.integers(-50, 500))
        n = t_ref + t_delay + 1
        case = make_case({"x": rng.normal(size=n)}, detect_time=t_d,
                         start_time=t_d - t_ref,
                         t_ref=t_ref, t_delay=t_delay, t_test=t_test)
        ref_idx, test_idx = window_index_ranges(case)
        assert len(ref_idx) == t_ref - t_test + 1
        assert len(test_idx) == t_test
        assert len(ref_idx) > 0 and len(test_idx) > 0
        assert set(ref_idx).isdisjoint(test_idx)


def test_case_parameter_validation():
    values = np.zeros(126)
    with pytest.raises(ValueError):
        make_case({"a": values}, detect_time=0, t_test=5, t_delay=5)  # t_test <= t_delay
    with pytest.raises(ValueError):
        make_case({"a": values}, detect_time=0, t_ref=5, t_test=10)   # t_test > t_ref
    with pytest.raises(ValueError):
        make_case({"a": values}, detect_time=0, t_delay=-1)
    with pytest.raises(ValueError):
        make_case({"a": values}, detect_time=0, sli="nope")


def test_series_alignment_required():
    a = TimeSeries(metric="a", start_time=0, values=np.zeros(10))
    b = TimeSeries(metric="b", start_time=1, values=np.zeros(10))
    with pytest.raises(ValueError):
        Case(series={"a": a, "b": b}, detect_time=5, sli="a", t_ref=2, t_delay=0, t_test=1)


def test_case_holds_one_sorted_read_only_matrix():
    raw = np.arange(12.0).reshape(4, 3)
    case = Case(metrics=("c", "a", "b"), values=raw, start_time=0, detect_time=3, sli="a",
                t_ref=3, t_delay=0, t_test=1)
    assert case.metrics == ("a", "b", "c")
    assert (case.values == raw[:, [1, 2, 0]]).all()
    assert case.values.dtype == np.float64
    assert case.values.flags.c_contiguous and not case.values.flags.writeable
    assert raw.flags.writeable  # the case copies the caller's array rather than freezing it


def test_series_adapter_equals_matrix_constructor():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 10))
    windows = dict(detect_time=11, sli="b", t_ref=6, t_delay=1, t_test=2)
    via_series = Case(series={"b": TimeSeries("b", 5, b, 2), "a": TimeSeries("a", 5, a, 2)},
                      **windows)
    direct = Case(metrics=("a", "b"), values=np.column_stack([a, b]), start_time=5,
                  interval=2, **windows)
    assert via_series == direct
    assert (via_series.start_time, via_series.interval, via_series.length) == (5, 2, 10)
    with pytest.raises(ValueError):
        Case(series={"a": TimeSeries("a", 5, a, 2)}, metrics=("a",), values=a[:, None],
             start_time=5, **windows)


@pytest.mark.parametrize("metrics, values, message", [
    (("a", "a"), np.zeros((3, 2)), "duplicate"),
    (("a", ""), np.zeros((3, 2)), "non-empty"),
    (("a",), np.zeros((3, 2)), "matrix"),
    (("a",), np.zeros((0, 1)), "matrix"),
    (("a",), np.zeros((1, 1)), "matrix"),
    (("a",), np.array([[1.0], [np.nan], [2.0]]), "non-finite"),
    ((), np.zeros((3, 0)), "at least one"),
])
def test_case_rejects_malformed_matrix(metrics, values, message):
    with pytest.raises(ValueError, match=message):
        Case(metrics=metrics, values=values, start_time=0, detect_time=2, sli="a",
             t_ref=2, t_delay=0, t_test=1)


def test_case_pickle_keeps_matrix_read_only():
    case = make_case({"a": np.arange(126.0), "b": np.ones(126)}, detect_time=0)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(case, protocol))
        assert clone == case
        assert not clone.values.flags.writeable
        with pytest.raises(ValueError):
            clone.values[0, 0] = 1.0


def test_non_finite_values_rejected():
    windows = dict(detect_time=1, sli="a", t_ref=1, t_delay=0, t_test=1)
    with pytest.raises(ValueError):
        Case(series={"a": TimeSeries(metric="a", start_time=0, values=np.array([1.0, np.nan]))},
             **windows)
    with pytest.raises(ValueError):
        Case(series={"a": TimeSeries(metric="a", start_time=0, values=np.array([1.0, np.inf]))},
             **windows)


@pytest.mark.parametrize("series", [
    TimeSeries("", 0, np.zeros(3)),
    TimeSeries("a", 0, np.zeros(3), interval=0),
    TimeSeries("a", 0, np.zeros((3, 1))),
    TimeSeries("a", 0, 1.0),
    TimeSeries("a", 0, np.zeros(0)),
    TimeSeries("a", 0, np.array([1.0, np.nan, 2.0])),
    TimeSeries("a", 0, np.array([1.0, np.inf, 2.0])),
], ids=["empty-id", "interval-0", "2-d", "scalar", "empty", "nan", "inf"])
def test_case_checks_the_series_it_stacks(series):
    # A series is a plain record: the case that stacks it applies every rule.
    with pytest.raises(ValueError):
        Case(series={series.metric: series}, detect_time=1, sli=series.metric,
             t_ref=1, t_delay=0, t_test=1)


def test_case_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    case = make_case(
        {"a": rng.normal(size=126), "b": rng.normal(size=126) * 1e-7, "c": rng.normal(size=126) * 1e9},
        detect_time=500,
        sli="b",
    )
    truth = GroundTruth(frozenset({"a", "c"}))
    save_case(tmp_path / "case0", case, truth, fault_type="Weak")
    loaded = load_case(tmp_path / "case0")
    assert loaded.case_id == "case0"
    assert loaded.case == case
    assert loaded.truth == truth
    assert loaded.fault_type == "Weak"


def test_case_roundtrip_unlabeled(tmp_path):
    case = make_case({"a": np.arange(126.0)}, detect_time=0)
    save_case(tmp_path / "c", case)
    loaded = load_case(tmp_path / "c")
    assert loaded.case_id == "c"
    assert loaded.case == case
    assert loaded.truth is None
    assert loaded.fault_type is None


@pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
def test_save_case_that_fails_leaves_no_partial_file(tmp_path, monkeypatch, failure):
    # data.csv's third write (its header, then a row a write) raises: the
    # error comes through, and neither file is left.  A retry writes what a
    # call never interrupted writes.
    case = make_case({"a": np.arange(126.0), "b": np.linspace(-1, 1, 126)}, detect_time=500)
    truth = GroundTruth(frozenset({"b"}))
    save_case(tmp_path / "clean", case, truth, "Weak")
    real_open, seen = open, []

    class ThirdWriteFails:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                seen.append(Path(self.fh.name).exists())
                raise failure()
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def patched_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return ThirdWriteFails(fh) if Path(file).name == "data.csv" else fh

    monkeypatch.setattr(model, "open", patched_open, raising=False)
    with pytest.raises(failure):
        save_case(tmp_path / "c", case, truth, "Weak")
    assert seen == [True]  # the partial file was there when the write failed
    assert list((tmp_path / "c").iterdir()) == []
    monkeypatch.undo()
    save_case(tmp_path / "c", case, truth, "Weak")
    for name in ("data.csv", "case.json"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_load_rejects_missing_values(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "case.json").write_text('{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1, "sli": "a"}')
    (d / "data.csv").write_text("timestamp,a\n0,1.0\n1,\n2,3.0\n")
    with pytest.raises(ValueError):
        load_case(d)


@pytest.mark.parametrize("header, line", [("timestamp,a", 3), ('timestamp,"a\nb"', 4)],
                         ids=["one-line-header", "two-line-header"])
@pytest.mark.parametrize("blank", ["", "  ", "\r"], ids=["empty", "spaces", "carriage-return"])
def test_load_names_the_blank_row(tmp_path, header, line, blank):
    d = tmp_path / "c"
    d.mkdir()
    (d / "case.json").write_text('{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1, "sli": "a"}')
    (d / "data.csv").write_text(f"{header}\n0,1.0\n{blank}\n1,2.0\n2,3.0\n")
    with pytest.raises(MalformedInput, match=f"data.csv line {line} is blank"):
        load_case(d)


def test_load_case_sorts_permuted_columns(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "case.json").write_text('{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1, "sli": "a"}')
    (d / "data.csv").write_text("timestamp,b,a\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
    case = load_case(d).case
    assert case.metrics == ("a", "b")
    assert case.values.tolist() == [[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]]


metric_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@st.composite
def saved_cases(draw):
    """A case with extreme values and odd metric names, plus a column order."""
    metrics = draw(st.lists(metric_names, min_size=1, max_size=5, unique=True))
    t_delay = draw(st.integers(0, 5))
    t_test = draw(st.integers(t_delay + 1, t_delay + 6))
    t_ref = draw(st.integers(t_test, t_test + 10))
    rows = draw(st.integers(2, 8))
    values = draw(arrays(np.float64, (rows, len(metrics)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    case = Case(metrics=metrics, values=values,
                start_time=draw(st.integers(-10**9, 10**9)),
                interval=draw(st.integers(1, 60)),
                detect_time=draw(st.integers(-10**9, 10**9)),
                sli=draw(st.sampled_from(metrics)),
                t_ref=t_ref, t_delay=t_delay, t_test=t_test)
    return case, draw(st.permutations(range(len(metrics))))


@settings(deadline=None)
@given(saved_cases())
def test_save_load_roundtrip_property(drawn):
    case, order = drawn
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "case"
        save_case(directory, case)
        assert load_case(directory).case == case
        # the same file with its metric columns shuffled loads the same case
        path = directory / "data.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row[0], *(row[1 + j] for j in order)] for row in table)
        loaded = load_case(directory).case
    assert loaded == case
    assert (loaded.values.view(np.uint64) == case.values.view(np.uint64)).all()  # -0.0 too


@settings(deadline=None)
@given(saved_cases())
def test_case_csv_matches_row_by_row_reference(drawn):
    case, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        directory, expected = Path(tmp) / "case", Path(tmp) / "reference.csv"
        save_case(directory, case)
        csv_reference.write_data_csv(expected, case)
        assert (directory / "data.csv").read_bytes() == expected.read_bytes()
        names, timestamps, values = csv_reference.read_data_csv(expected)
        loaded = load_case(directory).case
    assert list(loaded.metrics) == names
    assert [loaded.start_time + i * loaded.interval for i in range(loaded.length)] == timestamps
    assert (loaded.values.view(np.uint64) == values.view(np.uint64)).all()


def test_topological_order_matches_networkx():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        # random names, so the lexicographic tie-break differs from index order
        names = [f"v{int(i)}" for i in rng.permutation(1000)[:n]]
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        graph = CausalGraph(names, edges)
        assert graph.topological_order() == lexicographic_networkx_order(graph)


def test_graph_rejects_cycles_and_bad_edges():
    with pytest.raises(ValueError):
        CausalGraph(nodes=["a", "b"], edges=[("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        CausalGraph(nodes=["a"], edges=[("a", "z")])
    with pytest.raises(ValueError):
        CausalGraph(nodes=["a"], edges=[("a", "a")])


def test_graph_lookups_consistent():
    g = CausalGraph(nodes=["a", "b", "c"], edges=[("a", "b"), ("a", "c"), ("b", "c")])
    assert g.parents("c") == ("a", "b")
    assert g.children("a") == ("b", "c")
    assert g.parents("a") == ()
    order = g.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")


def test_graph_topological_order_deterministic():
    # no edges: pure lexicographic
    g = CausalGraph(nodes=["b", "a", "d", "c"], edges=[])
    assert g.topological_order() == ("a", "b", "c", "d")


def test_graph_json_roundtrip(tmp_path):
    g = CausalGraph(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    save_graph(g, tmp_path / "graph.json")
    assert load_graph(tmp_path / "graph.json") == g


@st.composite
def graphs(draw):
    """A DAG over up to 10 arbitrary names: edges run from a lower to a
    higher index of the drawn node list."""
    nodes = draw(st.lists(metric_names, unique=True, max_size=10))
    pairs = draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    return CausalGraph(nodes, [(nodes[i], nodes[j]) for i, j in pairs if i < j < len(nodes)])


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
@example(graph=CausalGraph([], []))
@example(graph=CausalGraph(["a", "b\"c\\d", "\x00\x1f\x7f", "é☃𝄞", "\u2028"],
                           [("a", "é☃𝄞"), ("b\"c\\d", "\x00\x1f\x7f"), ("a", "\u2028")]))
def test_save_graph_bytes_match_json_dumps(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        save_graph(graph, path)
        payload = {"nodes": sorted(graph.nodes), "edges": [list(e) for e in sorted(graph.edges)]}
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert load_graph(path) == graph


def test_ground_truth_non_empty():
    with pytest.raises(ValueError):
        GroundTruth(frozenset())
