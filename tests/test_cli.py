import contextlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcakit import simulation
from rcakit.cli import build_parser, main
from rcakit.errors import MalformedInput
from rcakit.model import CausalGraph, load_case, load_graph, save_case
from rcakit.simulation import case_record, load_dataset

from conftest import metric_names, read_tree_bytes

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


SMALL_STUDY = ["--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "4"]


@pytest.mark.parametrize("jobs, shape, scorers", [
    pytest.param("1", SMALL_STUDY, "circa,rht-pg", id="1"),
    pytest.param("2", SMALL_STUDY, "circa,rht-pg", id="2"),
    # study-n500's shape: its 500-node solves and fits take LAPACK paths
    # that the small graphs never reach.
    pytest.param("1", ["--nodes", "500", "--edges", "5000", "--graphs", "1", "--cases", "2"],
                 "rht-pg,rht,circa,nsigma,dfs,ideal", id="n500"),
])
def test_in_process_commands_leave_file_descriptor_1_alone(tmp_path, capfd, jobs, shape, scorers):
    # A caller that runs main() in its own process and hides its output with
    # redirect_stdout, as the benchmark does, must see nothing on fd 1: a
    # write there (from a forked worker, or a handler bound before the
    # redirect) would land beside the caller's own output.
    data, arch = tmp_path / "ds", tmp_path / "arch.yaml"
    arch.write_text(WEB_DB_YAML)
    runs = [
        ["simulate", *shape, "--seed", "5", "--jobs", jobs, "--out", data],
        *(["analyze", data / "g0" / "c0", "--graph", data / "g0" / "graph.json",
           "--scorer", scorer, "--out", tmp_path / f"{scorer}.json"]
          for scorer in ("circa", "rht-pg")),
        ["evaluate", data, "--scorers", scorers, "--jobs", jobs,
         "--out", tmp_path / "report.json"],
        ["graph", arch, "--out", tmp_path / "graph.json"],
    ]
    capfd.readouterr()
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([str(arg) for arg in argv]) == 0
        assert out.getvalue()
    assert capfd.readouterr().out == ""


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


@pytest.mark.parametrize("windows, named", [
    (["--t-delay", "0"], "t_delay=0"),   # no room for the fault's two samples
    (["--t-delay", "-1"], "t_delay=-1"),
    (["--t-ref", "3", "--t-test", "10"], "t_ref=3"),
    (["--t-test", "10", "--t-delay", "10"], "t_delay=10"),
], ids=["zero-delay", "negative-delay", "short-reference", "delay-fills-test"])
def test_simulate_checks_windows_before_writing(tmp_path, capsys, windows, named):
    out = tmp_path / "ds"
    assert main(["simulate", "--nodes", "5", "--edges", "4", "--graphs", "1", "--cases", "1",
                 "--seed", "1", "--jobs", "1", "--out", str(out), *windows]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and len(err.splitlines()) == 1
    assert not out.exists()  # nothing written, so a corrected rerun may use --out


def test_simulate_smallest_windows_control(tmp_path):
    # t_delay 1 leaves room for the fault; t_test may equal t_ref
    assert main(["simulate", "--nodes", "5", "--edges", "4", "--graphs", "1", "--cases", "2",
                 "--seed", "1", "--jobs", "1", "--out", str(tmp_path / "ds"),
                 "--t-ref", "2", "--t-delay", "1", "--t-test", "2"]) == 0
    assert len(load_case(tmp_path / "ds" / "g0" / "c1").case.values) == 4


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array"),
     "error: out of memory: Unable to allocate 7.28 TiB for an array"),
    (MemoryError(), "error: out of memory: an allocation failed"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(simulation, "generate_dag", exhausted)
    assert main(["simulate", "--nodes", "5", "--edges", "4", "--seed", "1",
                 "--out", str(tmp_path / "ds")]) == 1
    assert capsys.readouterr().err == line + "\n"


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


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command, config, named", [
    ("evaluate", {"k": 2.7}, "--k"),                # was truncated to 2
    ("analyze", {"t_ref": 60.5}, "--t-ref"),        # was truncated to 60
    ("evaluate", {"jobs": True}, "'jobs'"),         # was read as 1
    ("analyze", {"top": False}, "'top'"),
    ("analyze", {"bogus": 1}, "'bogus'"),           # was ignored
    ("evaluate", {"scorers": 5}, "--scorers"),      # was a TypeError traceback
    ("evaluate", {"scorers": [["rht"]]}, "'scorers'"),
    ("evaluate", {"scorers": []}, "--scorers"),
    ("analyze", {"out": {"a": 1}}, "'out'"),
    ("analyze", {"graph": ["g.json"]}, "'graph'"),  # a list only for scorers
    ("analyze", {"scorer": "bogus"}, "--scorer"),   # was exit 1
    ("analyze", {"thresh": 2.0}, "'thresh'"),       # an abbreviation is no key
    ("analyze", {"t-ref": 30}, "'t-ref'"),          # nor an option string
    ("analyze", {"no_lagged": True}, "'no_lagged'"),
    ("analyze", {"config": "other.json"}, "'config'"),
    ("analyze", {"help": True}, "'help'"),
    ("analyze", {"case_dir": "elsewhere"}, "'case_dir'"),
    ("evaluate", {"dataset_dir": "elsewhere"}, "'dataset_dir'"),
    ("analyze", {"jobs": 1}, "'jobs'"),             # an option of another command
    # out of range; a list is given as flags rather than as a config file
    ("evaluate", {"k": 0}, "--k"),                  # was exit 1, blaming rht-pg
    ("evaluate", ["--k=0"], "--k"),
    ("analyze", {"top": -1}, "--top"),              # was printed under "(top -1)"
    ("analyze", ["--top=-1"], "--top"),
    # Strict JSON has no NaN or inf (a config holding one is refused whole), so
    # the config rows spell the value as a string, which is passed on as the flag.
    ("analyze", {"threshold": "nan"}, "--threshold"),  # turned adjustment off
    ("analyze", ["--threshold=nan"], "--threshold"),
    ("evaluate", {"threshold": "inf"}, "--threshold"),
    ("evaluate", ["--threshold=-inf"], "--threshold"),
    ("evaluate", {"jobs": -3}, "--jobs"),           # ran serially
    ("evaluate", ["--jobs=-3"], "--jobs"),
    ("simulate", {"jobs": -1}, "--jobs"),
    ("simulate", {"graphs": 0}, "--graphs"),        # wrote an empty dataset
    ("simulate", ["--graphs=0"], "--graphs"),
    ("simulate", {"cases": 0}, "--cases"),
    ("simulate", ["--cases=-2"], "--cases"),
    ("simulate", {"seed": -1}, "--seed"),           # was numpy's message, exit 1
    ("simulate", ["--seed=-1"], "--seed"),
    ("simulate", {"poisson_rate": -1}, "--poisson-rate"),
    ("simulate", ["--poisson-rate=-1"], "--poisson-rate"),
    ("simulate", {"poisson_rate": "nan"}, "--poisson-rate"),
    ("simulate", ["--poisson-rate=nan"], "--poisson-rate"),
    ("simulate", {"poisson_rate": "inf"}, "--poisson-rate"),
    ("simulate", ["--poisson-rate=inf"], "--poisson-rate"),
    ("simulate", {"poisson_rate": 1e19}, "--poisson-rate"),  # was numpy's message, exit 1
    ("simulate", ["--poisson-rate=1e19"], "--poisson-rate"),
    ("simulate", {"nodes": 0}, "--nodes"),
    ("simulate", ["--nodes=0"], "--nodes"),
    # a scorer is its registered name: no option redefines it
    ("analyze", {"lagged": True}, "'lagged'"),
    ("analyze", {"adjust": False}, "'adjust'"),
    ("analyze", ["--lagged"], "--lagged"),
    ("analyze", ["--no-adjust"], "--no-adjust"),
], ids=["float-k", "float-t-ref", "bool-jobs", "bool-top",
        "unknown-key", "int-scorers", "nested-scorers", "empty-scorers", "dict-out", "list-graph",
        "unknown-scorer", "abbreviation", "option-spelling", "negated-flag", "config-key",
        "help-key", "positional-case-dir", "positional-dataset-dir", "other-command-key",
        "zero-k", "flag-zero-k", "negative-top", "flag-negative-top", "nan-threshold",
        "flag-nan-threshold", "inf-threshold", "flag-inf-threshold", "negative-jobs",
        "flag-negative-jobs", "simulate-negative-jobs", "zero-graphs", "flag-zero-graphs",
        "zero-cases", "flag-negative-cases", "negative-seed", "flag-negative-seed",
        "negative-rate", "flag-negative-rate", "nan-rate", "flag-nan-rate", "inf-rate",
        "flag-inf-rate", "huge-rate", "flag-huge-rate", "zero-nodes", "flag-zero-nodes",
        "removed-lagged", "removed-adjust", "flag-removed-lagged", "flag-removed-no-adjust"])
def test_config_value_is_a_usage_error(dataset_dir, tmp_path, capsys, command, config, named):
    argv = {"analyze": [str(dataset_dir / "g0" / "c0")], "evaluate": [str(dataset_dir)],
            "simulate": ["--nodes=10", "--edges=20", "--seed=1"]}[command]
    if isinstance(config, list):
        argv += config
    else:
        argv += ["--config", write_config(tmp_path / "c.json", config)]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        main([command, *argv, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert named in captured.err.splitlines()[-1] and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_option_surface():
    # every option of every subcommand by dest, so a new knob is an edit here
    (subparsers,) = build_parser()._subparsers._group_actions
    surface = {name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
               for name, sub in subparsers.choices.items()}
    windows = {"t_ref", "t_delay", "t_test"}
    assert surface == {
        "simulate": {"nodes", "edges", "graphs", "cases", "seed", "out", "poisson_rate", "jobs",
                     "config"} | windows,
        "graph": {"out", "config"},
        "analyze": {"graph", "scorer", "threshold", "out", "top", "config"} | windows,
        "evaluate": {"scorers", "k", "threshold", "out", "jobs", "config"} | windows,
    }


def test_library_surface():
    # the twin of test_option_surface: every parameter of the library's entry
    # points by name, so a new option is an edit here
    from rcakit import evaluate, generate_dataset, rht_score, save_dataset
    from rcakit.regression import fit_stacks

    surface = {f.__name__: list(inspect.signature(f).parameters)
               for f in (generate_dataset, load_dataset, save_dataset, evaluate, rht_score,
                         fit_stacks)}
    assert surface == {
        "generate_dataset": ["n_node", "n_edge", "n_graphs", "cases_per_graph", "rng_seed",
                             "t_ref", "t_delay", "t_test", "poisson_rate"],
        "load_dataset": ["directory"],
        "save_dataset": ["dataset", "out_dir", "jobs"],
        "evaluate": ["dataset", "methods", "k_max", "threshold", "jobs", "windows"],
        "rht_score": ["case", "graph", "use_lagged_self"],
        "fit_stacks": ["data", "targets", "groups"],
    }


def analyze_raw(dataset_dir, tmp_path, *extra):
    case_dir = dataset_dir / "g0" / "c0"
    out = tmp_path / "scores.json"
    assert main(["analyze", str(case_dir), "--graph", str(dataset_dir / "g0" / "graph.json"),
                 "--scorer", "rht", *extra, "--out", str(out)]) == 0
    return json.loads(out.read_text())["raw"]


def test_config_null_is_unset(dataset_dir, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"scorer": None, "top": None, "t_ref": None,
                                                "out": None})
    case_dir = dataset_dir / "g0" / "c1"
    runs = []
    for extra in ([], ["--config", config]):
        assert main(["analyze", str(case_dir), "--graph", str(dataset_dir / "g0" / "graph.json"),
                     *extra]) == 0
        runs.append((capsys.readouterr().out, (case_dir / "scores.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith(f"circa ranking for {case_dir} (top 10):")


def test_config_lists_scorers_and_sets_booleans(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    config = write_config(tmp_path / "c.json", {"scorers": ["rht", "ideal"], "jobs": 1, "k": 3})
    assert main(["evaluate", str(dataset_dir), "--config", config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["methods"]) == {"rht", "ideal"}
    assert len(payload["methods"]["rht"]["ac_mean"]) == 3
    config = write_config(tmp_path / "c.json", {"top": 2, "scorer": "rht"})
    capsys.readouterr()
    assert main(["analyze", str(dataset_dir / "g0" / "c0"), "--graph",
                 str(dataset_dir / "g0" / "graph.json"), "--config", config,
                 "--out", str(tmp_path / "s.json")]) == 0
    assert "rht ranking" in capsys.readouterr().out
    assert json.loads((tmp_path / "s.json").read_text())["raw"] == analyze_raw(dataset_dir, tmp_path)


GOOD_META = '{"detect_time": 2, "t_ref": 2, "t_delay": 0, "t_test": 1, "sli": "a"}'
GOOD_META_ROOTS = GOOD_META[:-1] + ', "root_causes": ["b"]}'
GOOD_CSV = "timestamp,a,b\n0,1.0,2.0\n1,2.0,3.0\n2,3.0,5.0\n"


def meta_with(**fields):
    """GOOD_META with ``fields`` set."""
    return json.dumps({**json.loads(GOOD_META), **fields})


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
    (meta_with(detect_time=2.5), GOOD_CSV, "detect_time"),                # not truncated to 2
    (meta_with(detect_time="2"), GOOD_CSV, "detect_time"),
    (meta_with(detect_time=True), GOOD_CSV, "detect_time"),               # a bool is no int
    (meta_with(t_ref=2.0), GOOD_CSV, "t_ref"),
    (meta_with(t_delay=False), GOOD_CSV, "t_delay"),
    (meta_with(t_test="1"), GOOD_CSV, "t_test"),
    (meta_with(sli=1), GOOD_CSV, "sli"),
    (meta_with(sli="zz"), GOOD_CSV, "sli"),                               # names no column
    (meta_with(root_causes=["zz"]), GOOD_CSV, "root_causes"),             # names no column
    (meta_with(root_causes=[1]), GOOD_CSV, "root_causes"),
    (meta_with(root_causes="b"), GOOD_CSV, "root_causes"),
    (meta_with(root_causes=None), GOOD_CSV, "root_causes"),
    (meta_with(fault_type={"a": 1}), GOOD_CSV, "fault_type"),
    (meta_with(fault_type=7), GOOD_CSV, "fault_type"),
], ids=["blank-row", "ragged-row", "json-not-object", "no-detect-time", "no-sli",
        "duplicate-column", "comment-row", "whitespace-row", "hash-in-row",
        "fractional-timestamp", "trailing-comma", "short-first-row", "short-rows",
        "underscore-number", "unclosed-quote", "uneven-timestamps",
        "float-detect-time", "string-detect-time", "bool-detect-time", "float-t-ref",
        "bool-t-delay", "string-t-test", "int-sli", "unknown-sli", "unknown-root",
        "int-root", "string-roots", "null-roots", "dict-fault-type", "int-fault-type"])
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


NODES_SHAPE = "nodes must be a list of non-empty strings"
EDGES_SHAPE = "edges must be a list of [parent, child] string pairs"


@pytest.mark.parametrize("graph, named", [
    ('[1]', ()),
    ('{"nodes": ["a"]}', (EDGES_SHAPE,)),
    ('{"nodes": ["a"], "edges": [["a"]]}', (EDGES_SHAPE,)),
    ('{"nodes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}', ("'a' -> 'b' -> 'a'",)),
    ('{"nodes": "ab", "edges": ["ab"]}', (NODES_SHAPE,)),
    ('{"nodes": ["a", "b"], "edges": ["ab"]}', (EDGES_SHAPE,)),
    ('{"nodes": ["1", "2"], "edges": [[1, 2]]}', (EDGES_SHAPE,)),
    ('{"nodes": ["a", "b"], "edges": [["a", "b", "a"]]}', (EDGES_SHAPE,)),
    ('{"nodes": ["a", "b"], "edges": {"a": "b"}}', (EDGES_SHAPE,)),
    ('{"nodes": ["a", "b", ""], "edges": []}', (NODES_SHAPE,)),
    ('{"nodes": ["a", ["b"]], "edges": []}', (NODES_SHAPE,)),
    ('{"edges": []}', (NODES_SHAPE,)),
    ('{"nodes": ["a"], "edges": [["a", "b"]]}', ("edge ('a', 'b') references a missing node",)),
], ids=["not-an-object", "no-edges", "short-edge", "cyclic", "string-nodes", "string-edge",
        "number-edge", "long-edge", "object-edges", "empty-node", "list-node", "no-nodes",
        "missing-node"])
def test_analyze_malformed_graph_is_an_error(tmp_path, capsys, graph, named):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    (tmp_path / "graph.json").write_text(graph)
    assert main(["analyze", str(case_dir), "--graph", str(tmp_path / "graph.json"),
                 "--scorer", "rht", "--out", str(tmp_path / "scores.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(text in err for text in named)
    assert str(tmp_path / "graph.json") in err and "Traceback" not in err


def test_analyze_graph_with_repeats_control(tmp_path, capsys):
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    (case_dir / "case.json").write_text(GOOD_META)
    (case_dir / "data.csv").write_text(GOOD_CSV)
    (tmp_path / "graph.json").write_text(
        '{"nodes": ["b", "a", "b"], "edges": [["b", "a"], ["b", "a"]], "A": [[0]]}')
    assert load_graph(tmp_path / "graph.json") == CausalGraph(["a", "b"], [("b", "a")])
    assert main(["analyze", str(case_dir), "--graph", str(tmp_path / "graph.json"),
                 "--scorer", "rht", "--out", str(tmp_path / "scores.json")]) == 0


#: Any JSON value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
#: Node names: the case's metrics, others, the empty string, and non-strings.
GRAPH_NAMES = (st.sampled_from(["a", "b", "c"]) | metric_names | st.just("")
               | st.integers(0, 2) | st.none() | st.lists(st.just("a"), max_size=2))


@st.composite
def near_graphs(draw):
    """A graph.json payload: a graph over a few names, with repeats and, in
    half the draws, self-loops and cycles; that graph with one edit (a node
    or an edge end replaced by any name, an edge cut short or made long, a
    key set to any JSON value); or any JSON value."""
    kind = draw(st.sampled_from(["graph", "near", "any"]))
    if kind == "any":
        return draw(JSON_VALUES)
    nodes = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5))
    edges = draw(st.lists(st.lists(st.sampled_from(nodes), min_size=2, max_size=2),
                          max_size=4))
    if draw(st.booleans()):  # parent above child: acyclic
        edges = [sorted(e, reverse=True) for e in edges if e[0] != e[1]]
    payload = {"nodes": nodes, "edges": edges}
    if kind == "near":
        edit = draw(st.sampled_from(["node", "end", "short", "long", "key"]))
        if edit == "node":
            nodes[draw(st.integers(0, len(nodes) - 1))] = draw(GRAPH_NAMES)
        elif edit == "key":
            payload[draw(st.sampled_from(["nodes", "edges", "A"]))] = draw(JSON_VALUES)
        elif not edges:
            edges.append([draw(GRAPH_NAMES), draw(GRAPH_NAMES)])
        elif edit == "end":
            edges[-1][draw(st.integers(0, 1))] = draw(GRAPH_NAMES)
        else:
            edges[-1] = edges[-1][:1] if edit == "short" else [*edges[-1], draw(GRAPH_NAMES)]
    return payload


def graph_oracle(payload):
    """The (names, edges) a payload describes, or None when it is not a
    graph.json: lists of non-empty string nodes and [parent, child] string
    pairs over them, acyclic by networkx."""
    if not isinstance(payload, dict):
        return None
    nodes, edges = payload.get("nodes"), payload.get("edges")
    if not (isinstance(nodes, list) and all(isinstance(v, str) and v for v in nodes)):
        return None
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            and set(e) <= set(nodes) for e in edges)):
        return None
    dag = nx.DiGraph(list(map(tuple, edges)))
    dag.add_nodes_from(nodes)
    if not nx.is_directed_acyclic_graph(dag):
        return None
    return tuple(sorted(set(nodes))), set(map(tuple, edges))


@settings(max_examples=300, deadline=None)
@given(payload=near_graphs())
@example(payload={"nodes": ["a", "b"], "edges": [["a", "a"]]}).via("self-loop")
@example(payload={"nodes": ["a", "b", "a"], "edges": [["b", "a"], ["b", "a"]]}).via("repeats")
@example(payload={"nodes": ["a"], "edges": [["a", "b"]]}).via("missing node")
@example(payload={"nodes": [True], "edges": []}).via("wrong type")
@example(payload={"nodes": ["a", ""], "edges": []}).via("empty name")
@example(payload={"nodes": ["a"], "edges": [["a", ["a"]]]}).via("list end")
def test_fuzzed_graph_loads_as_written_or_is_an_error_line(payload):
    want = graph_oracle(payload)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        case_dir = tmp / "case"
        case_dir.mkdir()
        (case_dir / "case.json").write_text(GOOD_META)
        (case_dir / "data.csv").write_text(GOOD_CSV)
        path = tmp / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            graph = load_graph(path)
        except MalformedInput as exc:
            assert want is None and str(path) in str(exc)
        else:
            assert want == (graph.names, set(graph.edges))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", str(case_dir), "--graph", str(path), "--scorer", "rht",
                         "--out", str(tmp / "scores.json")])
    lines = err.getvalue().splitlines()
    assert code in (0, 1) and "Traceback" not in err.getvalue()
    assert sum(line.startswith("error: ") for line in lines) == (code == 1)
    assert code == 1 or want is not None


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
    ('{"seed": 1}', meta_with(root_causes=["b"], fault_type={"a": 1}), "fault_type"),
], ids=["manifest-not-object", "manifest-not-json", "no-root-causes", "dict-fault-type"])
def test_evaluate_malformed_dataset_names_the_file(tmp_path, capsys, manifest, meta, culprit):
    write_one_case_dataset(tmp_path / "ds", manifest, meta)
    with pytest.raises(MalformedInput, match=culprit):
        for graph in load_dataset(tmp_path / "ds").graphs:  # the manifest is read here
            for entry in graph.cases:
                case_record(entry)  # and each case here
    assert main(["evaluate", str(tmp_path / "ds"), "--scorers", "nsigma", "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and culprit in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_well_formed_dataset_control(tmp_path):
    write_one_case_dataset(tmp_path / "ds", '{"seed": 1}', GOOD_META_ROOTS)
    assert main(["evaluate", str(tmp_path / "ds"), "--scorers", "nsigma", "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 0


GOOD_MANIFEST = {"n_node": 2, "n_edge": 0, "n_graphs": 1, "cases_per_graph": 1, "seed": 1,
                 "t_ref": 2, "t_delay": 0, "t_test": 1, "poisson_rate": 1.0, "beta": 0.1}
#: Text a data.csv field may be set to: numbers, near-numbers, names that
#: need quoting, quoted, and any text.
CSV_FIELDS = (st.sampled_from(["", "7", "1.5", "-0.0", " 1", "1e", "nan", "inf", "1_0", "0x1",
                               "a", "b", "timestamp", '"c,d"', '"c""d"', '"c\nd"'])
              | st.text(max_size=3))


def edit_fields(draw, fields: dict) -> dict:
    """``fields`` with up to three of them set to any JSON value or dropped."""
    fields = dict(fields)
    for name in draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=3)):
        if draw(st.booleans()):
            del fields[name]
        else:
            fields[name] = draw(JSON_VALUES)
    return fields


def strict_json_loads(text: str):
    """``json.loads`` with NaN, Infinity and -Infinity refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@st.composite
def near_datasets(draw):
    """The files of a one-case dataset: case.json and manifest.json with
    fields set to any JSON value or dropped, or either one any JSON value;
    and data.csv with one edit (a field emptied, quoted or set to other
    text, a row cut short or made long, a header renamed or duplicated, a
    blank row, CRLF line ends) or none."""
    meta = edit_fields(draw, json.loads(GOOD_META_ROOTS) | {"fault_type": "Weak"})
    manifest = edit_fields(draw, GOOD_MANIFEST)
    if draw(st.integers(0, 9)) == 0:
        meta = draw(JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        manifest = draw(JSON_VALUES)
    rows = [line.split(",") for line in GOOD_CSV.splitlines()]
    edit = draw(st.sampled_from(["none", "empty", "quote", "text", "short", "long", "rename",
                                 "duplicate", "blank", "crlf"]))
    row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
    if edit == "empty":
        rows[row][col] = ""
    elif edit == "quote":
        rows[row][col] = f'"{rows[row][col]}"'
    elif edit == "text":
        rows[row][col] = draw(CSV_FIELDS)
    elif edit == "short":
        del rows[row][col]
    elif edit == "long":
        rows[row].insert(col, draw(CSV_FIELDS))
    elif edit == "rename":
        rows[0][col] = draw(CSV_FIELDS | metric_names)
    elif edit == "duplicate":
        rows[0][col] = rows[0][draw(st.integers(0, 2))]
    elif edit == "blank":
        rows.insert(row + 1, [""])
    end = "\r\n" if edit == "crlf" else "\n"
    data = "".join(",".join(fields) + end for fields in rows)
    return json.dumps(meta), data, json.dumps(manifest)


@settings(max_examples=150, deadline=None)
@given(files=near_datasets())
@example(files=(GOOD_META_ROOTS, GOOD_CSV, json.dumps(GOOD_MANIFEST))).via("unedited")
@example(files=(GOOD_META_ROOTS, GOOD_CSV.replace("\n", "\r\n"), "{}")).via("crlf")
@example(files=(GOOD_META_ROOTS, GOOD_CSV.replace("a", '"a"'), "{}")).via("quoted name")
@example(files=(meta_with(root_causes=['b,"c"']), GOOD_CSV.replace(",b", ',"b,""c"""'), "{}")
         ).via("name that needs quoting")
@example(files=(GOOD_META_ROOTS, GOOD_CSV.replace("1.0", '"1.0"'), "{}")).via("quoted number")
@example(files=(GOOD_META_ROOTS, GOOD_CSV, '{"seed": NaN}')).via("NaN in the manifest")
@example(files=(GOOD_META_ROOTS, GOOD_CSV, '{"n_node": 1e400}')).via("overflow in the manifest")
def test_fuzzed_case_and_manifest_load_as_written_or_are_an_error_line(files):
    meta, data, manifest = files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_one_case_dataset(tmp / "ds", manifest, meta)
        case_dir = tmp / "ds" / "g0" / "c0"
        (case_dir / "data.csv").write_text(data, newline="")
        try:
            record = load_case(case_dir)
        except MalformedInput as exc:
            assert str(case_dir) in str(exc)
        else:
            save_case(tmp / "again", record.case, record.truth, record.fault_type)
            again = load_case(tmp / "again")
            assert (again.case, again.truth, again.fault_type) == (
                record.case, record.truth, record.fault_type)
        for argv in (["analyze", str(case_dir), "--scorer", "nsigma"],
                     ["evaluate", str(tmp / "ds"), "--scorers", "nsigma", "--jobs", "1"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(tmp / "out.json")])
            lines = err.getvalue().splitlines()
            assert code in (0, 1) and "Traceback" not in err.getvalue()
            assert sum(line.startswith("error: ") for line in lines) == (code == 1)
            if code == 0 and argv[0] == "evaluate":
                strict_json_loads((tmp / "out.json").read_text())


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


def test_evaluate_dataset_without_cases_is_one_error_line(tmp_path, capsys):
    (tmp_path / "ds" / "g0").mkdir(parents=True)
    (tmp_path / "ds" / "g0" / "graph.json").write_text('{"nodes": ["a", "b"], "edges": []}')
    (tmp_path / "ds" / "manifest.json").write_text('{"seed": 1}')
    capsys.readouterr()
    assert main(["evaluate", str(tmp_path / "ds"), "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["error: dataset has no cases"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("target, line", [
    ("missing/report.json", "error: [Errno 2] No such file or directory: '{}'"),
    ("existing", "error: [Errno 21] Is a directory: '{}'"),
    (None, "error: [Errno 21] Is a directory: '{}'"),
], ids=["missing-parent", "directory", "default-is-a-directory"])
def test_evaluate_checks_out_before_scoring(dataset_dir, tmp_path, capsys, monkeypatch,
                                            target, line):
    from rcakit import evaluation

    calls = []
    score_case = evaluation.score_case
    monkeypatch.setattr(evaluation, "score_case",
                        lambda *a, **k: calls.append(1) or score_case(*a, **k))
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    (tmp_path / "existing").mkdir()
    (data / "report.json").mkdir()  # the default target, blocked
    out = str(data / "report.json") if target is None else str(tmp_path / target)
    flags = [] if target is None else ["--out", out]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["evaluate", str(data), "--jobs", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line.format(out)] and captured.out == ""
    assert calls == [] and sorted(tmp_path.rglob("*")) == before
    # control: the spy sees every case scored once a target can be written
    assert main(["evaluate", str(data), "--jobs", "1",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 8


def test_commands_build_no_parser_after_import(dataset_dir, tmp_path, capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    (tmp_path / "arch.yaml").write_text(WEB_DB_YAML)
    (tmp_path / "config.json").write_text('{"scorer": "nsigma"}')
    case_dir = str(dataset_dir / "g0" / "c0")
    graph = ["--graph", str(dataset_dir / "g0" / "graph.json")]
    for argv in (
        ["simulate", "--nodes", "10", "--edges", "20", "--graphs", "1", "--cases", "2",
         "--seed", "5", "--jobs", "1", "--out", str(tmp_path / "ds")],
        ["graph", str(tmp_path / "arch.yaml"), "--out", str(tmp_path / "graph.json")],
        ["analyze", case_dir, *graph, "--out", str(tmp_path / "a.json")],
        ["analyze", case_dir, "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "b.json")],
        ["evaluate", str(dataset_dir), "--jobs", "1", "--out", str(tmp_path / "report.json")],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["analyze", case_dir, "--top", "0"])
    assert built == []


def test_one_parser_carries_nothing_from_call_to_call(dataset_dir, tmp_path, capsys, monkeypatch):
    """A usage error, a --config call and the same call without --config, in
    one process, each print and exit as in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal's width
    (tmp_path / "config.json").write_text('{"scorer": "nsigma", "top": 2, "threshold": 2.5}')
    case = ["analyze", str(dataset_dir / "g0" / "c2"), "--graph",
            str(dataset_dir / "g0" / "graph.json"), "--out", str(tmp_path / "scores.json")]
    calls = [case + ["--top", "0"], case + ["--config", str(tmp_path / "config.json")], case]
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    capsys.readouterr()
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
        fresh = subprocess.run([sys.executable, "-m", "rcakit.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert seen[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, *_ in seen] == [2, 0, 0]
    assert seen[0][2].endswith("error: argument --top: must be at least 1, got 0\n")
    assert seen[1][1].startswith("nsigma ranking") and "(top 2)" in seen[1][1]
    assert seen[2][1].startswith("circa ranking") and "(top 10)" in seen[2][1]


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [DEEP_JSON, "[1]", "{", '{"seed": NaN}', '{"seed": 1e400}'],
                         ids=["deep", "not-an-object", "not-json", "nan", "overflow"])
@pytest.mark.parametrize("bad, command", [
    ("ds/g0/graph.json", "analyze"),
    ("ds/g0/c0/case.json", "analyze"),
    ("ds/manifest.json", "evaluate"),
    ("config.json", "evaluate"),
], ids=["graph", "case", "manifest", "config"])
def test_json_reader_error_is_one_line(tmp_path, bad, command, text):
    # A subprocess, so that the whole of stderr and the exit code are seen.
    write_one_case_dataset(tmp_path / "ds", '{"seed": 1}', GOOD_META_ROOTS)
    (tmp_path / "config.json").write_text('{"jobs": 1}')
    bad = tmp_path / bad
    bad.write_text(text)
    argv = {"analyze": ["analyze", "ds/g0/c0", "--graph", "ds/g0/graph.json"],
            "evaluate": ["evaluate", "ds", "--config", "config.json"]}[command]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "rcakit.cli", *argv, "--out", "out.json"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(bad.relative_to(tmp_path)) in lines[0]
    assert not (tmp_path / "out.json").exists()


def test_stdout_is_only_the_result_with_a_worker_pool(tmp_path):
    # A subprocess, so that anything written to the real stdout by a worker
    # or at interpreter exit is seen too: a caller reads the last line.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def rcakit(*argv):
        result = subprocess.run([sys.executable, "-m", "rcakit.cli", *argv, "--jobs", "2"],
                                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
        return result.stdout

    assert rcakit("simulate", "--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "9",
                  "--seed", "5", "--out", "ds") == "wrote 2 graphs x 9 cases to ds\n"
    lines = rcakit("evaluate", "ds", "--out", "report.json").splitlines(keepends=True)
    assert [line.split()[0] for line in lines[:-2]] == ["Method", "rht-pg", "rht", "nsigma",
                                                        "dfs", "ideal"]
    assert lines[-2:] == ["note: dfs is a baseline reimplemented from a prose description\n",
                          "wrote report.json\n"]


@pytest.fixture(scope="module")
def config_fuzz_inputs(tmp_path_factory):
    """A two-case dataset, so evaluate starts at most two workers, and an
    architecture file."""
    root = tmp_path_factory.mktemp("config-fuzz")
    assert main(["simulate", "--nodes", "10", "--edges", "20", "--graphs", "1", "--cases", "2",
                 "--seed", "5", "--jobs", "1", "--out", str(root / "ds")]) == 0
    (root / "arch.yaml").write_text(WEB_DB_YAML)
    return root


def config_keys(command):
    """Every dest of ``command``'s parser, options and positionals, with
    ``help`` and ``config`` among them, and one key that is none of them."""
    (subparsers,) = build_parser()._subparsers._group_actions
    return sorted({action.dest for action in subparsers.choices[command]._actions} | {"nope"})


#: Config values: every JSON type, with integers kept small (a --k of a
#: million alone takes seconds and gigabytes) and strings short, over an
#: alphabet without "/" so that every path lands in the working directory.
CONFIG_STRINGS = st.text("ab0.-, e", max_size=4) | st.sampled_from(["nsigma", "rht", "zz"])
CONFIG_SCALARS = (st.none() | st.booleans() | st.integers(-1000, 1000)
                  | st.floats(allow_nan=False, allow_infinity=False) | CONFIG_STRINGS)
CONFIG_VALUES = (CONFIG_SCALARS | st.lists(CONFIG_STRINGS, max_size=3)
                 | st.lists(st.lists(CONFIG_SCALARS, max_size=2), max_size=2)
                 | st.dictionaries(st.text("ab", max_size=2), CONFIG_SCALARS, max_size=2))


@st.composite
def fuzzed_configs(draw):
    command = draw(st.sampled_from(["analyze", "evaluate", "graph"]))
    keys = draw(st.lists(st.sampled_from(config_keys(command)), min_size=1, max_size=3,
                         unique=True))
    return command, {key: draw(CONFIG_VALUES) for key in keys}


@settings(max_examples=100, deadline=None)
@given(drawn=fuzzed_configs(), with_graph=st.booleans())
@example(drawn=("analyze", {"scorer": "nsigma", "top": 2}), with_graph=False)
@example(drawn=("analyze", {"graph": "a"}), with_graph=False)
@example(drawn=("evaluate", {"scorers": ["nsigma", "rht"], "k": 3}), with_graph=False)
@example(drawn=("graph", {"out": "b"}), with_graph=False)
def test_fuzzed_config_is_a_result_an_error_line_or_a_usage_error(config_fuzz_inputs, drawn,
                                                                  with_graph):
    command, config = drawn
    inputs = config_fuzz_inputs
    argv = {"analyze": [str(inputs / "ds" / "g0" / "c0")], "evaluate": [str(inputs / "ds")],
            "graph": [str(inputs / "arch.yaml")]}[command]
    if command == "analyze" and with_graph:
        argv += ["--graph", str(inputs / "ds" / "g0" / "graph.json")]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            # a graph at "a", so that a config's "graph" can name a real one
            Path("a").write_bytes((inputs / "ds" / "g0" / "graph.json").read_bytes())
            write_config(Path("config.json"), config)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([command, *argv, "--config", "config.json"])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error: ") for line in lines) == (code == 1)
