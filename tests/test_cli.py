import json

import pytest

from rcakit.cli import main
from rcakit.errors import MalformedInput
from rcakit.model import load_case
from rcakit.simulation import load_dataset

from conftest import read_tree_bytes

WEB_DB_YAML = """\
services:
  - name: web
    callees: [db]
  - name: db
metrics:
  - name: web_qps
    maps_to: [{service: web, dim: traffic}]
  - name: web_latency
    maps_to: [{service: web, dim: latency}]
  - name: db_qps
    maps_to: [{service: db, dim: traffic}]
"""


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main(["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2",
                 "--cases", "4", "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


def test_simulate_layout_and_manifest(dataset_dir):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["n_node"] == 10
    assert (dataset_dir / "g0" / "graph.json").exists()
    assert (dataset_dir / "g1" / "c3" / "data.csv").exists()
    assert (dataset_dir / "g1" / "c3" / "case.json").exists()


def test_simulate_rerun_is_byte_identical(dataset_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2",
                 "--cases", "4", "--seed", "5", "--out", str(again)]) == 0
    assert read_tree_bytes(again) == read_tree_bytes(dataset_dir)


def test_simulate_pooled_is_byte_identical_to_serial(tmp_path):
    args = ["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "9",
            "--seed", "5"]
    assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "pooled")]) == 0
    serial = read_tree_bytes(tmp_path / "serial")
    assert {name.rsplit("/", 1)[-1] for name in serial} == {
        "manifest.json", "graph.json", "data.csv", "case.json"}
    assert len(serial) == 1 + 2 * (1 + 9 * 2)
    assert read_tree_bytes(tmp_path / "pooled") == serial


def test_simulate_infeasible_edges(tmp_path, capsys):
    code = main(["simulate", "--nodes", "50", "--edges", "10", "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def test_simulate_refuses_non_empty_out(tmp_path, capsys):
    out = tmp_path / "ds"
    args = ["simulate", "--nodes", "10", "--edges", "15", "--graphs", "2", "--out", str(out)]
    assert main(args + ["--cases", "3", "--seed", "1"]) == 0
    before = read_tree_bytes(out)
    capsys.readouterr()
    assert main(args + ["--cases", "2", "--seed", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert read_tree_bytes(out) == before  # the first dataset is left intact
    assert sorted(p.name for p in (out / "g0").iterdir() if p.is_dir()) == ["c0", "c1", "c2"]


def test_graph_command_golden(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    arch.write_text(WEB_DB_YAML)
    out = tmp_path / "graph.json"
    assert main(["graph", str(arch), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["nodes"]) == ["db_qps", "web_latency", "web_qps"]
    assert sorted(tuple(e) for e in payload["edges"]) == [
        ("db_qps", "web_latency"),
        ("web_qps", "db_qps"),
        ("web_qps", "web_latency"),
    ]
    assert "3 nodes" in capsys.readouterr().out


def test_graph_command_cyclic(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    arch.write_text("services:\n  - name: a\n    callees: [b]\n  - name: b\n    callees: [a]\nmetrics: []\n")
    assert main(["graph", str(arch), "--out", str(tmp_path / "g.json")]) == 1
    assert "cycle" in capsys.readouterr().err


def test_graph_command_empty_metrics_warns(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    arch.write_text("services: [{name: a}]\nmetrics: []\n")
    out = tmp_path / "g.json"
    assert main(["graph", str(arch), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert json.loads(out.read_text()) == {"nodes": [], "edges": []}


def test_analyze_circa(dataset_dir, tmp_path, capsys):
    case_dir = dataset_dir / "g0" / "c0"
    out = tmp_path / "scores.json"
    code = main(["analyze", str(case_dir), "--graph", str(dataset_dir / "g0" / "graph.json"),
                 "--scorer", "circa", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"raw", "adjusted", "ranking"}
    assert payload["adjusted"] is not None
    assert len(payload["ranking"]) == 10
    assert "rank" in capsys.readouterr().out


def test_analyze_nsigma_needs_no_graph(dataset_dir, tmp_path):
    out = tmp_path / "scores.json"
    code = main(["analyze", str(dataset_dir / "g0" / "c1"), "--scorer", "nsigma",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["adjusted"] is None


def test_analyze_rht_pg_differs_from_rht(dataset_dir, tmp_path):
    case_dir = dataset_dir / "g0" / "c0"
    graph = dataset_dir / "g0" / "graph.json"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", str(case_dir), "--graph", str(graph), "--scorer", "rht",
                 "--out", str(a)]) == 0
    assert main(["analyze", str(case_dir), "--graph", str(graph), "--scorer", "rht-pg",
                 "--out", str(b)]) == 0
    assert json.loads(a.read_text())["raw"] != json.loads(b.read_text())["raw"]


def test_analyze_unknown_scorer_is_usage_error(dataset_dir):
    with pytest.raises(SystemExit) as err:
        main(["analyze", str(dataset_dir / "g0" / "c0"), "--scorer", "bogus"])
    assert err.value.code == 2


def test_evaluate_unknown_scorer_is_usage_error(dataset_dir):
    with pytest.raises(SystemExit) as err:
        main(["evaluate", str(dataset_dir), "--scorers", "rht,bogus"])
    assert err.value.code == 2


def test_evaluate_five_scorers(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["evaluate", str(dataset_dir),
                 "--scorers", "rht-pg,rht,nsigma,dfs,ideal",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "AC@1" in stdout and "AC@5" in stdout and "Avg@5" in stdout
    payload = json.loads(out.read_text())
    assert set(payload["methods"]) == {"rht-pg", "rht", "nsigma", "dfs", "ideal"}
    # sanity loop: the oracle scorer recovers nearly everything in the top 5
    assert payload["methods"]["ideal"]["ac_mean"][4] >= 0.99


def strip_timing(payload):
    for method in payload["methods"].values():
        method.pop("mean_time_s", None)
    return payload


def test_evaluate_deterministic_reports(dataset_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["evaluate", str(dataset_dir), "--scorers", "rht,ideal",
                     "--jobs", "1", "--out", str(out)]) == 0
    ra = strip_timing(json.loads(a.read_text()))
    rb = strip_timing(json.loads(b.read_text()))
    assert ra == rb


def test_analyze_keeps_stored_windows(tmp_path):
    # a case saved with non-default windows is scored with those windows
    # unless the user explicitly overrides them
    import numpy as np
    from rcakit.model import Case, TimeSeries, load_case, save_case
    from rcakit.scoring import nsigma_score

    rng = np.random.default_rng(17)
    values = rng.normal(size=66)
    case = Case(
        series={"a": TimeSeries(metric="a", start_time=0, values=values)},
        detect_time=60, sli="a", t_ref=60, t_delay=5, t_test=10,
    )
    save_case(tmp_path / "case", case)
    out = tmp_path / "scores.json"
    assert main(["analyze", str(tmp_path / "case"), "--scorer", "nsigma",
                 "--out", str(out)]) == 0
    stored = json.loads(out.read_text())["raw"]["a"]
    assert stored == pytest.approx(nsigma_score(load_case(tmp_path / "case").case)["a"])

    # an explicit flag changes the effective reference window
    assert main(["analyze", str(tmp_path / "case"), "--scorer", "nsigma",
                 "--t-ref", "30", "--out", str(out)]) == 0
    overridden = json.loads(out.read_text())["raw"]["a"]
    import dataclasses
    narrower = dataclasses.replace(case, t_ref=30)
    assert overridden == pytest.approx(nsigma_score(narrower)["a"])


def test_config_file_precedence(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorer": "nsigma", "top": 2}))
    out = tmp_path / "scores.json"
    # config supplies the scorer and row count
    assert main(["analyze", str(dataset_dir / "g0" / "c2"), "--config", str(config),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "nsigma ranking" in stdout
    assert "top 2" in stdout
    # an explicit flag beats the config value
    assert main(["analyze", str(dataset_dir / "g0" / "c2"), "--config", str(config),
                 "--top", "1", "--out", str(out)]) == 0
    assert "top 1" in capsys.readouterr().out


GOOD_META = '{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1, "sli": "a"}'
GOOD_META_ROOTS = GOOD_META[:-1] + ', "root_causes": ["b"]}'
GOOD_CSV = "timestamp,a,b\n0,1.0,2.0\n1,2.0,3.0\n2,3.0,5.0\n"


@pytest.mark.parametrize("meta, data, where", [
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n\n1,2.0,3.0\n2,3.0,5.0\n", "data.csv line 3"),  # blank row
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1,2.0\n2,3.0,5.0\n", "data.csv line 3"),  # ragged row
    ("[1, 2]", GOOD_CSV, None),                                           # not an object
    ('{"sli": "a"}', GOOD_CSV, None),                                     # no detect_time
    ('{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1}', GOOD_CSV, None),  # no sli
    (GOOD_META, "timestamp,a,a\n0,1.0,2.0\n1,2.0,3.0\n2,3.0,5.0\n", None),  # duplicate column
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n#1,2.0,3.0\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # not a comment
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n  \n1,2.0,3.0\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # whitespace row
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1,2.0,3.0#x\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # nor a tail comment
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1.5,2.0,3.0\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # fractional time
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1,2.0,3.0,\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # trailing comma
    (GOOD_META, "timestamp,a,b\n0,1.0\n1,2.0,3.0\n2,3.0,5.0\n", "data.csv line 2"),  # short first row
    (GOOD_META, "timestamp,a,b\n0,1.0\n1,2.0\n2,3.0\n", None),      # every row short
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1,1_0,3.0\n2,3.0,5.0\n",
     "data.csv line 3"),                                                  # Python-only syntax
    (GOOD_META, 'timestamp,"a,b\n' + "0,1.0,2.0\n" * 15000, None),      # quote never closed
    (GOOD_META, "timestamp,a,b\n0,1.0,2.0\n1,2.0,3.0\n3,3.0,5.0\n",
     "data.csv line 4"),                                                  # uneven spacing
], ids=["blank-row", "ragged-row", "json-not-object", "no-detect-time", "no-sli",
        "duplicate-column", "comment-row", "whitespace-row", "hash-in-row",
        "fractional-timestamp", "trailing-comma", "short-first-row", "short-rows",
        "underscore-number", "unclosed-quote", "uneven-timestamps"])
def test_analyze_malformed_case_is_an_error(tmp_path, capsys, meta, data, where):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(meta)
    (case_dir / "data.csv").write_text(data)
    with pytest.raises(MalformedInput):
        load_case(case_dir)
    assert main(["analyze", str(case_dir), "--scorer", "nsigma",
                 "--out", str(tmp_path / "scores.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the message points at the file's line, not at numpy's options
    if where is not None:
        assert where in err
    assert "usecols" not in err
    assert not (tmp_path / "scores.json").exists()


def test_analyze_well_formed_case_control(tmp_path):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    assert main(["analyze", str(case_dir), "--scorer", "nsigma",
                 "--out", str(tmp_path / "scores.json")]) == 0


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_analyze_reads_lf_and_crlf_case_control(tmp_path, newline):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_bytes(GOOD_CSV.replace("\n", newline).encode())
    case = load_case(case_dir).case
    assert case.values.tolist() == [[1.0, 2.0], [2.0, 3.0], [3.0, 5.0]]
    assert (case.start_time, case.interval) == (0, 1)
    assert main(["analyze", str(case_dir), "--scorer", "nsigma",
                 "--out", str(tmp_path / "scores.json")]) == 0


def test_graph_command_rejects_scalar_callees(tmp_path, capsys):
    arch = tmp_path / "arch.yaml"
    arch.write_text("services:\n  - name: web\n    callees: db\nmetrics: []\n")
    assert main(["graph", str(arch), "--out", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "callees must be a list" in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("graph", ['[1]', '{"nodes": ["a"]}', '{"nodes": ["a"], "edges": [["a"]]}'],
                         ids=["not-an-object", "no-edges", "short-edge"])
def test_analyze_malformed_graph_is_an_error(tmp_path, capsys, graph):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    (tmp_path / "graph.json").write_text(graph)
    assert main(["analyze", str(case_dir), "--graph", str(tmp_path / "graph.json"),
                 "--scorer", "rht", "--out", str(tmp_path / "scores.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def write_one_case_dataset(root, manifest, meta):
    case_dir = root / "g0" / "c0"
    case_dir.mkdir(parents=True)
    (case_dir / "case.json").write_text(meta)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    (root / "g0" / "graph.json").write_text('{"nodes": ["a", "b"], "edges": []}')
    (root / "manifest.json").write_text(manifest)


@pytest.mark.parametrize("manifest, meta, culprit", [
    ("[1]", GOOD_META_ROOTS, "manifest.json"),
    ("{not json", GOOD_META_ROOTS, "manifest.json"),
    ('{"seed": 1}', GOOD_META, "c0/case.json"),
], ids=["manifest-not-object", "manifest-not-json", "no-root-causes"])
def test_evaluate_malformed_dataset_names_the_file(tmp_path, capsys, manifest, meta, culprit):
    write_one_case_dataset(tmp_path / "ds", manifest, meta)
    with pytest.raises(MalformedInput, match=culprit):
        load_dataset(tmp_path / "ds")
    assert main(["evaluate", str(tmp_path / "ds"), "--scorers", "nsigma", "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and culprit in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_well_formed_dataset_control(tmp_path):
    write_one_case_dataset(tmp_path / "ds", '{"seed": 1}', GOOD_META_ROOTS)
    assert main(["evaluate", str(tmp_path / "ds"), "--scorers", "nsigma", "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 0


def test_evaluate_malformed_dataset_graph_is_an_error(tmp_path, capsys):
    case_dir = tmp_path / "ds" / "g0" / "c0"
    case_dir.mkdir(parents=True)
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    (tmp_path / "ds" / "g0" / "graph.json").write_text("[1]")
    assert main(["evaluate", str(tmp_path / "ds"), "--scorers", "nsigma", "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_pooled_load_error_reaches_the_cli(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "12",
                 "--seed", "3", "--jobs", "1", "--out", str(out)]) == 0
    bad = out / "g1" / "c07"
    lines = (bad / "data.csv").read_text().splitlines(keepends=True)
    timestamp, _, rest = lines[2].split(",", 2)
    lines[2] = f"{timestamp},1_0,{rest}"  # line 3: a number numpy does not read
    (bad / "data.csv").write_text("".join(lines))
    capsys.readouterr()
    assert main(["evaluate", str(out), "--scorers", "nsigma", "--jobs", "2",
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
    assert len(err.splitlines()) == 1
    assert str(bad) in err and "data.csv line 3" in err
    assert not (tmp_path / "report.json").exists()
