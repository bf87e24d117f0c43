"""Spans around calls into rcakit, recorded from outside the package.

``Tracer.install`` replaces public functions of rcakit's modules with
wrappers that record one span per call: name, label, start, end and the
span that was open when it started.  A function another module imported
by name is replaced there too, and so is a registry entry holding it.  A
target that no longer exists is recorded as absent and skipped, so the
benchmark keeps running when a later change deletes it.

Spans stay in memory.  Pool workers forked from the traced process inherit
the wrappers; each worker starts a fresh span list on its first call and
writes it to ``spans-<pid>.json`` in the trace directory when it exits.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path

#: (module, attribute) of every wrapped function.  The label of a
#: ``run_scorer`` span is the scorer name, its first argument.
#: ``generate_dataset`` has no metric of its own; its span keeps pool time
#: out of ``cli.self.ms.simulate``.
TARGETS = (
    ("rcakit.archgraph", "load_architecture"),
    ("rcakit.archgraph", "build_skeleton"),
    ("rcakit.archgraph", "build_structural_graph"),
    ("rcakit.model", "save_case"),
    ("rcakit.model", "load_case"),
    ("rcakit.model", "load_graph"),
    ("rcakit.model", "case_matrix"),
    ("rcakit.simulation", "propagation_matrix"),
    ("rcakit.simulation", "generate_dag"),
    ("rcakit.simulation", "generate_case"),
    ("rcakit.simulation", "generate_dataset"),
    ("rcakit.simulation", "save_dataset"),
    ("rcakit.simulation", "load_dataset"),
    ("rcakit.regression", "fit_ols"),
    ("rcakit.scoring", "run_scorer"),
    ("rcakit.scoring", "rht_score"),
    ("rcakit.scoring", "nsigma_score"),
    ("rcakit.scoring", "dfs_score"),
    ("rcakit.scoring", "descendant_adjust"),
    ("rcakit.scoring", "rank"),
    ("rcakit.scoring", "save_scores"),
    ("rcakit.evaluation", "evaluate"),
)
LABELLED = {"scoring.run_scorer"}


class Tracer:
    """Records spans as (name, label, start, end, parent index) tuples."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    # -- recording -------------------------------------------------------
    def _enter_worker(self) -> None:
        """First span in a forked worker: drop the parent's copy."""
        self.pid = os.getpid()
        self.spans, self.stack = [], []
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def open(self, name: str, label=None) -> int:
        if os.getpid() != self.pid:
            self._enter_worker()
        index = len(self.spans)
        self.spans.append([name, label, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        labelled = name in LABELLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, args[0] if labelled and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        """Wrap every target in every rcakit module that holds it."""
        import rcakit  # noqa: F401  (loads the package before scanning it)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rcakit" or n.startswith("rcakit.")]
        for module_name, attr in TARGETS:
            name = f"{module_name.split('.')[-1]}.{attr}"
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    # -- output ----------------------------------------------------------
    def dump(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))

    def all_spans(self) -> list[dict]:
        """This process's spans plus those the workers wrote, one dict each,
        with ``self`` (duration minus child spans) filled in."""
        self.dump()
        out = []
        for path in sorted(self.trace_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            spans = payload["spans"]
            child_time = [0.0] * len(spans)
            for name, label, start, end, parent in spans:
                if parent >= 0 and end is not None:
                    child_time[parent] += end - start
            for i, (name, label, start, end, parent) in enumerate(spans):
                if end is None:
                    continue
                out.append({"name": name, "label": label, "start": start, "end": end,
                            "parent": parent, "pid": payload["pid"],
                            "worker": payload["pid"] != self.pid,
                            "duration": end - start, "self": end - start - child_time[i],
                            "index": i})
        return out


# -- per-layer metrics ---------------------------------------------------------
SCORER_NAMES = ("rht", "rht-pg", "circa", "nsigma", "dfs", "ideal")
CLI_COMMANDS = ("simulate", "evaluate", "graph", "analyze")
MEDIAN_MS = (
    "simulation.generate_case", "simulation.generate_dag", "model.save_case",
    "model.load_case", "model.load_graph", "scoring.rht_score", "scoring.nsigma_score",
    "scoring.dfs_score", "scoring.descendant_adjust", "scoring.rank", "scoring.save_scores",
    "archgraph.load_architecture", "archgraph.build_skeleton",
    "archgraph.build_structural_graph",
)
MEDIAN_S = ("simulation.save_dataset", "simulation.load_dataset", "evaluation.evaluate")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, run, rht_family, end_to_end: dict) -> dict:
    """Per-layer metrics from the spans of one traced run, and the run's own
    ``end_to_end`` timings as ``traced.*``.  A metric of a layer the
    workload does not call reads 0."""
    spans = tracer.all_spans()
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, label=None):
        return [s["duration"] for s in by_name.get(name, ())
                if label is None or s["label"] == label]

    def per(count, base):
        return count / base if base else 0.0

    # Spans of the main process, by index, to find a span's ancestors.
    main = {s["index"]: s for s in spans if not s["worker"]}

    def under(span, ancestor):
        parent = span["parent"]
        while parent >= 0:
            if main[parent]["name"] == ancestor:
                return True
            parent = main[parent]["parent"]
        return False

    rounds = max(run.rounds, 1)
    generated = len(by_name.get("simulation.generate_case", ()))
    rht_runs = sum(1 for s in by_name.get("scoring.run_scorer", ()) if s["label"] in rht_family)
    score_busy = sum(s["duration"] for s in by_name.get("scoring.run_scorer", ())
                     if s["worker"] or under(s, "evaluation.evaluate"))
    evaluate = durations("evaluation.evaluate")

    def calls(name):
        return len(by_name.get(name, ()))

    values = {
        "simulation.propagation_matrix.calls_per_case":
            per(calls("simulation.propagation_matrix"), generated),
        "simulation.propagation_matrix.s": sum(durations("simulation.propagation_matrix")) / rounds,
        "model.case_matrix.calls_per_case": per(calls("model.case_matrix"), rht_runs),
        "regression.fit_ols.calls_per_case": per(calls("regression.fit_ols"), rht_runs),
        "regression.fit_ols.s": sum(durations("regression.fit_ols")) / rounds,
        "evaluation.score_busy.s": score_busy / max(len(evaluate), 1),
        "evaluation.pool_efficiency": per(score_busy, sum(evaluate) * run.jobs),
        "evaluation.aggregate.ms":
            1e3 * per(sum(evaluate) - score_busy / run.jobs, len(evaluate)),
        "trace.spans": float(len(spans)),
    }
    for name in MEDIAN_MS:
        values[f"{name}.ms"] = 1e3 * _median(durations(name))
    for name in MEDIAN_S:
        values[f"{name}.s"] = _median(durations(name))
    for scorer in SCORER_NAMES:
        values[f"scoring.run_scorer.ms.{scorer}"] = 1e3 * _median(
            durations("scoring.run_scorer", scorer))
    for command in CLI_COMMANDS:
        values[f"cli.self.ms.{command}"] = 1e3 * _median(
            s["self"] for s in by_name.get("cli.main", ()) if s["label"] == command)
    for name in ("prepare_s", "evaluate_s", "analyze_ms.p50"):
        values[f"traced.{name}"] = end_to_end[name]
    return {name: {"value": float(v), "unit": unit_of(name)} for name, v in values.items()}


def unit_of(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    parts = name.split(".")
    if parts[-1] == "calls_per_case" or name == "trace.spans":
        return "count"
    if parts[-1] == "pool_efficiency":
        return "frac"
    if "ms" in parts or parts[-1] == "p50":
        return "ms"
    return "s"
