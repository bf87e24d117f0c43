"""rcakit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload study-d50 --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same workload runs with spans around rcakit's public functions and the
metrics are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread: a second one is no faster at 500 nodes and widens the
# spread.  Must be set before numpy loads; forked pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: The study workloads.  A study is ``parts`` parts of ``graphs`` graphs x
#: ``cases`` cases each, every part its own ``simulate`` and ``evaluate``,
#: so that the timings are medians over calls spread over the run rather
#: than one long call.  ``jobs`` is the pool size passed to the CLI.  The
#: first ``sample_per_graph`` cases of every graph are analyzed with circa
#: twice a part; the first case of every graph also gets an rht-pg
#: analyze, and the scores of those first cases are checked against lstsq.
#: Every other part probes the set-up once.
STUDY = {
    "study-d50": dict(nodes=50, edges=100, parts=10, graphs=1, cases=100, jobs=2,
                      sample_per_graph=2),
    "study-n500": dict(nodes=500, edges=5000, parts=6, graphs=2, cases=4, jobs=1,
                       sample_per_graph=1),
}
WORKLOADS = (*STUDY, "triage-arch")
SCORERS = "rht-pg,rht,circa,nsigma,dfs,ideal"
TRIAGE_SCORERS = "circa,rht-pg"
RHT_FAMILY = ("rht", "rht-pg", "circa")
K = 5
#: The CPU of a small shared machine switches between a fast and a slow
#: state (about 1.6 times slower) every second or so, and the share of time
#: it spends slow drifts over minutes; every timing moves with it.  So each
#: timing is reported at a reference speed: multiplied by REFERENCE_S over
#: the mean time of the NEAR reference_work samples taken last before it
#: started and the NEAR taken first after it ended.  reference_work runs
#: right before every timed operation and NEAR times at the end of a run.
#: REFERENCE_S is a fixed constant within the range a sample took on a
#: 2-core sandbox (5.6 to 14 ms); only the ratio matters.
REFERENCE_S = 0.009
NEAR = 4

E2E_UNITS = {
    "setup_s": "s", "prepare_s": "s", "evaluate_s": "s", "analyze_ms.p50": "ms",
    "peak_rss_mb": "MB", "dataset_mb": "MB",
    "ac1.circa": "frac", "ac5.circa": "frac", "ac1.rht-pg": "frac", "ac5.rht-pg": "frac",
}


@functools.cache
def reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((110, 30)), rng.standard_normal(110)


def reference_work() -> None:
    """A fixed mix of the work rcakit does: small least-squares solves,
    floats formatted and parsed as in CSV, and an interpreted loop."""
    import numpy as np

    A, y = reference_inputs()
    for _ in range(36):
        np.linalg.lstsq(A, y, rcond=None)
    text = ",".join(f"{v:.6f}" for v in A.ravel()[:1800])
    total = sum(float(v) for v in text.split(","))
    for i in range(18000):
        total += i * i


class SetupProbes:
    """Times fresh interpreters starting and importing rcakit's CLI.

    A child inherits the high-water resident set of the process that
    spawns it, so probes spawned from this process would count in
    peak_rss_mb as children as large as it.  Instead a helper process,
    started before numpy is imported, spawns and reaps them; peak_rss_mb is
    read before the helper ends, so it sees only the pool workers."""

    HELPER = ("import subprocess, sys, time\n"
              "for _ in sys.stdin:\n"
              "    start = time.perf_counter()\n"
              "    subprocess.run(sys.argv[1:], check=True)\n"
              "    print(time.perf_counter() - start, flush=True)\n")

    def __init__(self):
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rcakit.cli"
        self.helper = subprocess.Popen(
            [sys.executable, "-c", self.HELPER, sys.executable, "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        return float(line)

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()


class Run:
    """State of one benchmark run: output directory, operation counts,
    timings, the set-up probes, and the tracer when the run is traced."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 probes: SetupProbes):
        import tracing

        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = tracing.Tracer(self.dir / "trace") if traced else None
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[tuple[float, float]]] = {}  # (start, end)
        self.references: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.rounds = 0
        self.jobs = 1
        self.probes = probes
        reference_work()  # the first call runs slower; it is not a sample

    def cli(self, argv: list[str], timed: str | None = None) -> bool:
        """Run one rcakit command in this process; True when it exits 0.
        A timed command follows one reference sample and is recorded under
        ``timed``."""
        from rcakit.cli import main

        argv = [str(a) for a in argv]
        if timed:
            self.reference()
        self.attempted += 1
        span = self.tracer.open("cli.main", argv[0]) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        end = time.perf_counter()
        if span is not None:
            self.tracer.close(span)
        if code != 0:
            self.failed += 1
            print(f"rcakit {' '.join(argv)} exited {code}", file=sys.stderr)
            return False
        if timed:
            self.record(timed, start, end)
        return True

    def record(self, name: str, start: float, end: float) -> None:
        self.times.setdefault(name, []).append((start, end))

    def reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.references.append(((start + end) / 2, end - start))

    def scaled(self, name: str) -> list[float]:
        """The timings recorded under ``name``, each at the reference speed
        (see REFERENCE_S)."""
        out = []
        for start, end in self.times.get(name, ()):
            before = [seconds for mid, seconds in self.references if mid < start][-NEAR:]
            after = [seconds for mid, seconds in self.references if mid > end][:NEAR]
            out.append((end - start) * REFERENCE_S / statistics.fmean(before + after))
        return out

    def probe_setup(self) -> None:
        """One set-up probe.  Probes are spread over the run, so that their
        median does not rest on one burst of machine speed."""
        self.reference()
        start = time.perf_counter()
        self.record("setup_probe", start, start + self.probes())


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- study workloads ----------------------------------------------------------
def study_part(run: Run, cfg: dict, where: Path, part: int) -> dict:
    """Part ``part`` of a study: simulate ``graphs`` x ``cases`` with seed
    ``1000 * seed + part``, analyze the sample, evaluate, check everything
    from the files, and delete the dataset again."""
    import checks

    ds, report_path = where / "dataset", where / "report.json"
    if not run.cli(["simulate", "--nodes", cfg["nodes"], "--edges", cfg["edges"],
                    "--graphs", cfg["graphs"], "--cases", cfg["cases"], "--jobs", cfg["jobs"],
                    "--seed", 1000 * run.seed + part, "--out", ds], timed="prepare_s"):
        return {}
    dataset_bytes = directory_bytes(ds)
    graph_dirs = sorted(p for p in ds.iterdir() if (p / "graph.json").is_file())
    sample = [sorted(p for p in g.iterdir() if p.is_dir())[i]
              for i in range(cfg["sample_per_graph"]) for g in graph_dirs]
    checked = sample[:len(graph_dirs)]  # the first case of every graph
    scores_dir = where / "scores"
    scores_dir.mkdir()

    def analyze(case_dir, scorer, suffix, timed=None):
        run.cli(["analyze", case_dir, "--graph", case_dir.parent / "graph.json",
                 "--scorer", scorer, "--out",
                 scores_dir / f"{case_dir.parent.name}-{case_dir.name}{suffix}"], timed=timed)

    def analyze_pass():
        for case_dir in sample:
            analyze(case_dir, "circa", ".json", timed="analyze_ms.p50")

    analyze_pass()
    if not run.cli(["evaluate", ds, "--scorers", SCORERS, "--jobs", cfg["jobs"],
                    "--out", report_path], timed="evaluate_s"):
        return {}
    if part % 2 == 0:
        run.probe_setup()
    analyze_pass()
    for case_dir in checked:
        analyze(case_dir, "rht-pg", ".pg.json")

    # Checks, from the files alone.
    report = json.loads(report_path.read_text())
    expected_cases = cfg["graphs"] * cfg["cases"]
    on_disk = sum(1 for g in graph_dirs for p in g.iterdir() if p.is_dir())
    if len(graph_dirs) != cfg["graphs"] or on_disk != expected_cases:
        raise checks.CheckFailed(f"dataset holds {len(graph_dirs)} graphs and {on_disk} "
                                 f"cases, expected {cfg['graphs']} x {cfg['cases']}")
    if report["n_cases"] != expected_cases:
        raise checks.CheckFailed(f"report.json n_cases {report['n_cases']} != {expected_cases}")
    for name, res in report["methods"].items():
        if res["failures"] or res["n_cases"] != expected_cases:
            raise checks.CheckFailed(f"{name}: {len(res['failures'])} failures, "
                                     f"{res['n_cases']} cases scored")
        checks.check_ac_valid(res["ac_mean"], name)
    recalls = checks.dataset_recalls(graph_dirs, K)
    for name in ("ideal", "nsigma"):
        checks.check_ac(report["methods"][name]["ac_mean"], checks.ac_table(recalls[name]), name)
    for case_dir in sample:
        graph = json.loads((case_dir.parent / "graph.json").read_text())
        stem = scores_dir / f"{case_dir.parent.name}-{case_dir.name}"
        scores = json.loads(stem.with_suffix(".json").read_text())
        checks.check_circa_scores(scores, graph["nodes"])
        if case_dir in checked:
            parents = checks.graph_parents(graph)
            case = checks.read_case(case_dir)
            checks.check_rht_scores(case, scores["raw"], parents, lagged=False)
            pg = json.loads(stem.with_name(stem.name + ".pg.json").read_text())
            checks.check_rht_scores(case, pg["raw"], parents, lagged=True)
    shutil.rmtree(ds)  # the part is checked; free its CSV
    acs = {name: report["methods"][name]["ac_mean"] for name in ("circa", "rht-pg")}
    return {"dataset_bytes": dataset_bytes, "acs": acs}


def study_round(run: Run, cfg: dict, where: Path) -> dict:
    """One whole study: ``parts`` parts.  Every part has the same number of
    graphs, so the mean of the parts' AC@k is the mean over all the study's
    graphs."""
    parts = []
    for p in range(cfg["parts"]):
        part_dir = where / f"part{p}"
        part_dir.mkdir()
        part = study_part(run, cfg, part_dir, p)
        if not part:
            return {}
        parts.append(part)
    acs = {name: [statistics.fmean(part["acs"][name][k] for part in parts) for k in range(K)]
           for name in ("circa", "rht-pg")}
    return {"dataset_bytes": sum(part["dataset_bytes"] for part in parts), "acs": acs}


# -- triage workload ----------------------------------------------------------
def setup_architecture(run: Run, index: int, where: Path) -> dict:
    """Write architecture ``index`` into the dataset ``where/a<index>``,
    compile it, and write its cases under ``g<index>`` there; the time
    taken joins ``arch_setup``."""
    import yaml

    import archgen

    run.reference()
    start = time.perf_counter()
    dataset = where / f"a{index}"
    graph_dir = dataset / f"g{index}"
    graph_dir.mkdir(parents=True)
    arch = archgen.architecture(run.seed, index)
    arch_path = dataset / "arch.yaml"
    arch_path.write_text(yaml.safe_dump(arch, sort_keys=False))
    if not run.cli(["graph", arch_path, "--out", graph_dir / "graph.json"]):
        raise RuntimeError(f"compile of architecture {index} failed")
    graph = json.loads((graph_dir / "graph.json").read_text())
    model = archgen.case_model(graph, run.seed, index)
    cases = archgen.incident_cases(model, graph, run.seed, index)
    archgen.write_cases(cases, model, graph_dir)
    run.record("arch_setup", start, time.perf_counter())
    return {"arch": arch, "path": arch_path, "graph": graph, "dataset": dataset,
            "graph_dir": graph_dir, "roots": {c.case_id: c.root for c in cases}}


def triage_inputs(run: Run) -> dict:
    """Set up every architecture once, into the run's corpus."""
    import archgen

    corpus = run.dir / "corpus"
    archs = [setup_architecture(run, index, corpus)
             for index in range(archgen.N_ARCHITECTURES)]
    return {"archs": archs, "dataset_bytes": directory_bytes(corpus)}


def triage_round(run: Run, inputs: dict, where: Path) -> dict:
    import checks

    archs = inputs["archs"]
    scores_dir = where / "scores"
    scores_dir.mkdir()

    def step(index):
        """Compile architecture ``index``, analyze every case of it, probe
        the set-up (every other step) and evaluate its cases."""
        arch = archs[index]
        run.cli(["graph", arch["path"], "--out", where / f"graph{index}.json"],
                timed="prepare_s")
        for case_id in sorted(arch["roots"]):
            run.cli(["analyze", arch["graph_dir"] / case_id,
                     "--graph", arch["graph_dir"] / "graph.json", "--scorer", "circa",
                     "--out", scores_dir / f"{index}-{case_id}.json"], timed="analyze_ms.p50")
        if index % 2 == 0:
            run.probe_setup()
        run.cli(["evaluate", arch["dataset"], "--scorers", TRIAGE_SCORERS, "--jobs", 1,
                 "--out", where / f"report{index}.json"], timed="evaluate_arch")

    # Every step runs every timed operation, and a pass steps through all
    # architectures, so that each median or sum spans the whole pass rather
    # than one burst of machine speed.
    deadline = time.perf_counter() + run.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for index in range(len(archs)):
            step(index)
        passes += 1

    # Checks, from the files alone.
    recalls: dict[int, list] = {}
    rht_pg = []
    for index, arch in enumerate(archs):
        graph = json.loads((where / f"graph{index}.json").read_text())
        checks.check_graph(graph, arch["arch"])
        if graph != arch["graph"]:
            raise checks.CheckFailed(f"compiles of architecture {index} differ")
        rows = recalls[index] = []
        for case_id, root in sorted(arch["roots"].items()):
            scores = json.loads((scores_dir / f"{index}-{case_id}.json").read_text())
            checks.check_circa_scores(scores, graph["nodes"])
            ranking = [m for m, _ in scores["ranking"]]
            rows.append([checks.recall(ranking, [root], k) for k in range(1, K + 1)])
            if len(rows) <= 2:
                checks.check_rht_scores(checks.read_case(arch["graph_dir"] / case_id),
                                        scores["raw"], checks.graph_parents(graph),
                                        lagged=False)
        report = json.loads((where / f"report{index}.json").read_text())
        for name, res in report["methods"].items():
            if res["failures"] or res["n_cases"] != len(rows):
                raise checks.CheckFailed(f"{name} on architecture {index}: "
                                         f"{len(res['failures'])} failures, "
                                         f"{res['n_cases']} cases scored")
            checks.check_ac_valid(res["ac_mean"], name)
        checks.check_ac(report["methods"]["circa"]["ac_mean"], checks.ac_table({index: rows}),
                        f"circa on architecture {index} (analyze vs evaluate)")
        rht_pg.append(report["methods"]["rht-pg"]["ac_mean"])
    rht_pg_ac = [statistics.fmean(ac[k] for ac in rht_pg) for k in range(K)]
    return {"acs": {"circa": checks.ac_table(recalls), "rht-pg": rht_pg_ac}}


# -- measurement ------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    finished child (the pool workers); ru_maxrss is in KiB on Linux."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def run_workload(run: Run) -> dict:
    """Whole rounds until ``seconds`` have passed; returns what the metrics
    are made of.  A study round is one whole study, a triage round whole
    passes over the architectures; every round of a run has the same
    inputs, so AC@k and dataset_mb come from the first."""
    inputs = triage_inputs(run) if run.workload == "triage-arch" else None
    first_op = time.perf_counter()
    results = []
    while not results or time.perf_counter() - first_op < run.seconds:
        where = run.dir / f"round{len(results)}"
        where.mkdir()
        if inputs is None:
            cfg = STUDY[run.workload]
            run.jobs = cfg["jobs"]
            result = study_round(run, cfg, where)
        else:
            result = triage_round(run, inputs, where)
            result["dataset_bytes"] = inputs["dataset_bytes"]
        if not result:
            break
        results.append(result)
        run.rounds += 1
    for _ in range(NEAR):
        run.reference()
    return {"results": results[:1], "rss": peak_rss_mb()}


def timings(run: Run) -> dict[str, float]:
    """The four timing metrics, at the reference speed."""
    import archgen

    reference = [seconds for _, seconds in run.references]
    print(f"reference: median {1e3 * statistics.median(reference):.3f} ms over "
          f"{len(reference)} samples", file=sys.stderr)
    setup_s = statistics.median(run.scaled("setup_probe"))
    if run.workload == "triage-arch":
        # triage-arch also writes every architecture and its cases: the
        # median set-up of one architecture, times their number.  Its
        # evaluate_s is the time of the per-architecture evaluate calls that
        # score the corpus once, averaged over the passes.
        n = archgen.N_ARCHITECTURES
        setup_s += n * statistics.median(run.scaled("arch_setup"))
        evaluate_s = n * statistics.fmean(run.scaled("evaluate_arch"))
        prepare_s = statistics.median(run.scaled("prepare_s"))
    else:
        # A study's simulate and evaluate are made of equal parts: the
        # median part, times their number.
        parts = STUDY[run.workload]["parts"]
        prepare_s = parts * statistics.median(run.scaled("prepare_s"))
        evaluate_s = parts * statistics.median(run.scaled("evaluate_s"))
    return {
        "setup_s": setup_s,
        "prepare_s": prepare_s,
        "evaluate_s": evaluate_s,
        "analyze_ms.p50": 1e3 * statistics.median(run.scaled("analyze_ms.p50")),
    }


def e2e_metrics(run: Run, measured: dict) -> dict:
    results = measured["results"]
    values = {
        **timings(run),
        "peak_rss_mb": measured["rss"],
        "dataset_mb": statistics.median(r["dataset_bytes"] for r in results) / 1e6,
    }
    for name in ("circa", "rht-pg"):
        values[f"ac1.{name}"] = statistics.fmean(r["acs"][name][0] for r in results)
        values[f"ac5.{name}"] = statistics.fmean(r["acs"][name][K - 1] for r in results)
    return {name: {"value": float(v), "unit": E2E_UNITS[name]} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rcakit" / "cli.py").is_file():
        print(f"error: no rcakit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    probes = SetupProbes()
    try:
        return measure(args, probes)
    finally:
        probes.close()


def measure(args, probes: SetupProbes) -> int:
    sys.path.insert(0, str(SRC))
    import rcakit

    if Path(rcakit.__file__).resolve().parent != SRC / "rcakit":
        print(f"error: imported rcakit from {rcakit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing

    run = Run(args.workload, args.seed, args.seconds, traced=bool(args.trace), probes=probes)
    tracer = run.tracer
    if tracer is not None:
        tracer.install()
        for name in tracer.absent:
            print(f"absent: {name} (its metrics read 0)", file=sys.stderr)

    try:
        measured = run_workload(run)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        measured = None
    except Exception:
        traceback.print_exc()
        measured = None
    result = {"correct": bool(measured and measured["results"]) and run.failed == 0,
              "attempted": run.attempted, "failed": run.failed, "metrics": {}}
    if result["correct"]:
        result["metrics"] = (e2e_metrics(run, measured) if tracer is None
                             else tracing.layer_metrics(tracer, run, RHT_FAMILY, timings(run)))
    (run.dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    for child in run.dir.iterdir():
        if child.is_dir() and child.name != "trace":
            shutil.rmtree(child)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
