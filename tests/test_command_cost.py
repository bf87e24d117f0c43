"""What each command loads and starts: the modules ``import rcakit.cli``
leaves out, the one worker pool ``simulate`` and ``evaluate`` run, and a
stdout that holds nothing but what a caller asked for."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rcakit import archgraph, simulation
from rcakit.cli import main
from rcakit.evaluation import evaluate
from rcakit.simulation import CaseRecipe, case_record, generate_dataset, load_dataset, save_dataset

from conftest import read_tree_bytes

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Loaded only by the commands that need them: yaml by ``graph``, the
#: process pool by ``--jobs`` above 1.
DEFERRED = ("yaml", "multiprocessing", "concurrent.futures.process")

ARCH_YAML = """\
services:
  - name: web
    callees: [db, cache]
  - name: cache
    callees: [db]
  - name: db
metrics:
  - name: web_qps
    maps_to: [{service: web, dim: traffic}]
  - name: web_latency
    maps_to: [{service: web, dim: latency}, {service: web, dim: saturation}]
  - name: cache_errors
    maps_to: [{service: cache, dim: errors}]
  - name: db_cpu
    maps_to: [{service: db, dim: saturation}]
"""


def python(code: str, cwd) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports rcakit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def loaded_after(statements: str, cwd) -> list[str]:
    result = python(f"import json, sys\n{statements}\n"
                    f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))", cwd)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_leaves_out_yaml_and_the_pool(tmp_path):
    assert loaded_after("import rcakit.cli", tmp_path) == []
    assert loaded_after("import rcakit", tmp_path) == []


def test_commands_load_what_they_use(tmp_path):
    # Control for the test above: the same probe sees each module once a
    # command that uses it has run.
    (tmp_path / "arch.yaml").write_text(ARCH_YAML)
    simulate = ("from rcakit.cli import main\n"
                "assert main(['simulate', '--nodes', '6', '--edges', '8', '--graphs', '1',"
                " '--cases', '2', '--seed', '1', '--out', 'ds{jobs}', '--jobs', '{jobs}']) == 0")
    assert loaded_after(simulate.format(jobs=1), tmp_path) == []
    assert loaded_after(simulate.format(jobs=2), tmp_path) == [
        "multiprocessing", "concurrent.futures.process"]
    assert loaded_after("from rcakit.cli import main\n"
                        "assert main(['graph', 'arch.yaml', '--out', 'graph.json']) == 0",
                        tmp_path) == ["yaml"]


@pytest.mark.parametrize("loader", [yaml.SafeLoader]
                         + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else []),
                         ids=lambda loader: loader.__name__)
def test_graph_compiles_with_each_loader(tmp_path, monkeypatch, loader):
    (tmp_path / "arch.yaml").write_text(ARCH_YAML)
    assert main(["graph", str(tmp_path / "arch.yaml"), "--out", str(tmp_path / "auto.json")]) == 0
    monkeypatch.setattr(archgraph, "_loader", lambda: loader)
    assert archgraph._loader() is loader
    assert main(["graph", str(tmp_path / "arch.yaml"), "--out", str(tmp_path / "set.json")]) == 0
    graph = json.loads((tmp_path / "set.json").read_text())
    assert len(graph["nodes"]) == 4 and graph["edges"]
    assert (tmp_path / "set.json").read_bytes() == (tmp_path / "auto.json").read_bytes()


def test_stdout_under_redirect_is_only_the_callers(tmp_path):
    # The benchmark's way of calling rcakit: main() in its own process, its
    # stdout redirected, and the result printed last.  Nothing a command
    # or a worker prints may reach the real stdout, at any --jobs.
    (tmp_path / "arch.yaml").write_text(ARCH_YAML)
    code = """
import contextlib, io, sys
from rcakit.cli import main

for jobs in ("1", "2"):
    ds = "ds" + jobs
    for argv in (
        ["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "9",
         "--seed", "5", "--out", ds, "--jobs", jobs],
        ["graph", "arch.yaml", "--out", "graph.json"],
        ["analyze", ds + "/g0/c0", "--graph", ds + "/g0/graph.json", "--out", "scores.json"],
        ["evaluate", ds, "--out", "report.json", "--jobs", jobs],
    ):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        if code != 0 or not out.getvalue().startswith(("wrote", "circa", "Method")):
            sys.exit(f"{argv}: exit {code}, stdout {out.getvalue()!r}")
print('{"sentinel": true}')
"""
    result = python(code, tmp_path)
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert result.stdout == '{"sentinel": true}\n'


# --- one pool per command ------------------------------------------------------

def report_without_times(path) -> dict:
    payload = json.loads(Path(path).read_text())
    for method in payload["methods"].values():
        method.pop("mean_time_s")
    return payload


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("pools") / "ds"
    assert main(["simulate", "--nodes", "10", "--edges", "20", "--graphs", "2", "--cases", "12",
                 "--seed", "3", "--jobs", "1", "--out", str(out)]) == 0
    return out


def evaluate_cli(dataset_dir, out, *flags) -> int:
    return main(["evaluate", str(dataset_dir), "--scorers", "rht-pg,rht,circa,nsigma,dfs,ideal",
                 "--out", str(out), *flags])


def test_evaluate_window_overrides_are_the_same_on_the_pool(dataset, tmp_path):
    windows = ["--t-ref", "60", "--t-test", "8"]
    assert evaluate_cli(dataset, tmp_path / "serial.json", "--jobs", "1", *windows) == 0
    assert evaluate_cli(dataset, tmp_path / "pooled.json", "--jobs", "2", *windows) == 0
    assert evaluate_cli(dataset, tmp_path / "stored.json", "--jobs", "2") == 0
    serial = report_without_times(tmp_path / "serial.json")
    assert report_without_times(tmp_path / "pooled.json") == serial
    # control: the overrides changed the windows the cases were scored on
    assert report_without_times(tmp_path / "stored.json")["methods"] != serial["methods"]


def drop_column(case_dir: Path, metric: str) -> None:
    lines = (case_dir / "data.csv").read_text().splitlines(keepends=True)
    column = lines[0].rstrip("\r\n").split(",").index(metric)
    (case_dir / "data.csv").write_text("".join(
        ",".join(f for j, f in enumerate(line.rstrip("\r\n").split(",")) if j != column) + "\r\n"
        for line in lines))


def test_evaluate_scoring_error_is_a_failure_on_the_pool(dataset, tmp_path):
    broken = tmp_path / "ds"
    save_dataset(load_dataset(dataset), broken)
    case_dir = broken / "g1" / "c05"
    roots = set(json.loads((case_dir / "case.json").read_text())["root_causes"])
    drop_column(case_dir, max({f"m{i}" for i in range(1, 10)} - roots))
    assert evaluate_cli(broken, tmp_path / "serial.json", "--jobs", "1") == 0
    assert evaluate_cli(broken, tmp_path / "pooled.json", "--jobs", "2") == 0
    pooled = report_without_times(tmp_path / "pooled.json")
    assert pooled == report_without_times(tmp_path / "serial.json")
    for method in ("rht-pg", "rht", "circa", "dfs"):
        [(graph_id, case_id, error)] = pooled["methods"][method]["failures"]
        assert (graph_id, case_id) == ("g1", "c05") and error.startswith("MissingSeries")
        assert pooled["methods"][method]["n_cases"] == 23
    assert pooled["methods"]["nsigma"]["failures"] == []


def test_evaluate_pool_raises_the_first_bad_case_in_case_order(dataset, tmp_path, capsys):
    broken = tmp_path / "ds"
    save_dataset(load_dataset(dataset), broken)
    for case in ("g0/c10", "g1/c09"):  # in different chunks of the pool
        (broken / case / "case.json").write_text("{")
    capsys.readouterr()
    assert evaluate_cli(broken, tmp_path / "report.json", "--jobs", "2") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(broken / "g0" / "c10" / "case.json") in line
    assert not (tmp_path / "report.json").exists()


def resolved(dataset):
    """``dataset`` with every case turned into its ``CaseRecord``."""
    return replace(dataset, graphs=tuple(replace(g, cases=tuple(map(case_record, g.cases)))
                                         for g in dataset.graphs))


def test_evaluate_records_and_directories_score_alike(dataset):
    methods = ["rht-pg", "circa", "nsigma", "dfs", "ideal"]
    unread = load_dataset(dataset)
    read = resolved(unread)
    assert [c.case_id for g in read.graphs for c in g.cases] == [
        c.name for g in unread.graphs for c in g.cases]
    for jobs in (1, 2):
        a = evaluate(read, methods, jobs=jobs).to_json()
        b = evaluate(unread, methods, jobs=jobs).to_json()
        for report in (a, b):
            for method in report["methods"].values():
                method.pop("mean_time_s")
        assert a == b


def test_simulate_recipes_write_the_drawn_bytes(tmp_path):
    recipes = generate_dataset(8, 15, n_graphs=2, cases_per_graph=9, rng_seed=21)
    assert all(isinstance(c, CaseRecipe) for g in recipes.graphs for c in g.cases)
    save_dataset(resolved(recipes), tmp_path / "drawn")
    drawn = read_tree_bytes(tmp_path / "drawn")
    for jobs in (1, 2):
        save_dataset(recipes, tmp_path / f"recipes{jobs}", jobs=jobs)
        assert read_tree_bytes(tmp_path / f"recipes{jobs}") == drawn


def test_each_simulated_graph_is_built_once(monkeypatch):
    built = []

    class Counting(simulation.CausalGraph):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulation, "CausalGraph", Counting)
    dataset = generate_dataset(12, 30, n_graphs=3, cases_per_graph=2, rng_seed=4)
    assert len(built) == 3
    for record in dataset.graphs:
        assert record.graph is record.dag.graph
    # A pickled dag carries its graph and W, equal to the original's.
    monkeypatch.undo()  # the counting class is local, so pickle cannot name it
    dag = simulation.generate_dag(12, 30, rng_seed=4)
    copy = pickle.loads(pickle.dumps(dag))
    assert {"graph", "W"} <= vars(copy).keys()
    assert copy.graph == dag.graph and np.array_equal(copy.W, dag.W)
    assert not copy.A.flags.writeable and not copy.W.flags.writeable
