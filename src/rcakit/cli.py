"""Command-line entry point.

Four subcommands cover the pipeline: ``simulate`` writes a synthetic
benchmark dataset, ``graph`` compiles an architecture file into a causal
graph, ``analyze`` scores one case, and ``evaluate`` runs scorers over a
dataset and reports AC@k.  Exit codes: 0 on success, 1 on runtime
failure, 2 on usage errors.  Option precedence is flags, then the
--config JSON file, then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, scoring, simulation
from .archgraph import build_structural_graph, load_architecture
from .errors import RcakitError
from .model import (
    DEFAULT_T_DELAY,
    DEFAULT_T_REF,
    DEFAULT_T_TEST,
    Case,
    load_case,
    load_graph,
    save_graph,
)


def _scorer_list(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no scorer names given")
    for name in names:
        if name not in scoring.SCORER_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown scorer {name!r} (choose from {', '.join(scoring.SCORER_NAMES)})"
            )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcakit",
        description="Root cause analysis over metric-monitored systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    sim.add_argument("--nodes", type=int, required=True, help="metrics per graph")
    sim.add_argument("--edges", type=int, required=True, help="causal edges per graph")
    sim.add_argument("--graphs", type=int, default=None, help="number of graphs (default 10)")
    sim.add_argument("--cases", type=int, default=None, help="cases per graph (default 100)")
    sim.add_argument("--seed", type=int, required=True, help="master RNG seed (mandatory)")
    sim.add_argument("--out", required=True, help="output dataset directory")
    _add_window_flags(sim)
    sim.add_argument("--poisson-rate", type=float, default=None,
                     help="rate for (root count - 1) (default 1.0)")
    sim.add_argument("--jobs", type=int, default=None, help="worker processes")
    sim.add_argument("--config", help="JSON file with fallback option values")
    sim.set_defaults(func=cmd_simulate)

    gr = sub.add_parser("graph", help="compile an architecture file to graph.json")
    gr.add_argument("arch", help="architecture YAML (services + metric mapping)")
    gr.add_argument("--out", default=None, help="output path (default graph.json)")
    gr.add_argument("--config", help="JSON file with fallback option values")
    gr.set_defaults(func=cmd_graph)

    an = sub.add_parser("analyze", help="score a single case directory")
    an.add_argument("case_dir", help="directory with data.csv and case.json")
    an.add_argument("--graph", default=None, help="graph.json (unused by nsigma/ideal)")
    an.add_argument("--scorer", default=None, choices=scoring.SCORER_NAMES)
    an.add_argument("--threshold", type=float, default=None,
                    help="abnormality threshold in sigmas (default 3.0)")
    an.add_argument("--lagged", action=argparse.BooleanOptionalAction, default=None,
                    help="override the scorer's lagged-self default")
    an.add_argument("--adjust", action=argparse.BooleanOptionalAction, default=None,
                    help="override descendant adjustment")
    _add_window_flags(an)
    an.add_argument("--out", default=None, help="scores.json path (default inside case dir)")
    an.add_argument("--top", type=int, default=None, help="rows to print (default 10)")
    an.add_argument("--config", help="JSON file with fallback option values")
    an.set_defaults(func=cmd_analyze)

    ev = sub.add_parser("evaluate", help="run scorers over a dataset, report AC@k")
    ev.add_argument("dataset_dir", help="dataset directory from `simulate`")
    ev.add_argument("--scorers", type=_scorer_list, default=None,
                    help="comma-separated scorer names")
    ev.add_argument("--k", type=int, default=None, help="largest k to report (default 5)")
    ev.add_argument("--threshold", type=float, default=None)
    _add_window_flags(ev)
    ev.add_argument("--out", default=None, help="report.json path (default inside dataset)")
    ev.add_argument("--jobs", type=int, default=None, help="worker processes")
    ev.add_argument("--config", help="JSON file with fallback option values")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def _add_window_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-ref", type=int, default=None, help="reference minutes (default 120)")
    sub.add_argument("--t-delay", type=int, default=None, help="analysis delay minutes (default 5)")
    sub.add_argument("--t-test", type=int, default=None, help="test minutes (default 10)")


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return payload


def _setting(args, config: dict, name: str, fallback):
    value = getattr(args, name)
    if value is not None:
        return value
    return config.get(name, fallback)


def _windows(args, config) -> tuple[int, int, int]:
    return (
        int(_setting(args, config, "t_ref", DEFAULT_T_REF)),
        int(_setting(args, config, "t_delay", DEFAULT_T_DELAY)),
        int(_setting(args, config, "t_test", DEFAULT_T_TEST)),
    )


def _window_overrides(args, config) -> dict:
    """Window values the user actually supplied; a loaded case keeps its
    own stored windows otherwise."""
    overrides = {}
    for name in ("t_ref", "t_delay", "t_test"):
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        if value is not None:
            overrides[name] = int(value)
    return overrides


def _override_windows(case: Case, overrides: dict) -> Case:
    return replace(case, **overrides) if overrides else case


def _jobs(args, config) -> int:
    """Worker processes: --jobs, the config's jobs, else one per CPU."""
    return int(_setting(args, config, "jobs", 0) or 0) or (os.cpu_count() or 1)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    t_ref, t_delay, t_test = _windows(args, config)
    jobs = _jobs(args, config)
    simulation.require_empty_dir(args.out)  # before the work, not after it
    dataset = simulation.generate_dataset(
        n_node=args.nodes,
        n_edge=args.edges,
        n_graphs=int(_setting(args, config, "graphs", 10)),
        cases_per_graph=int(_setting(args, config, "cases", 100)),
        rng_seed=args.seed,
        t_ref=t_ref,
        t_delay=t_delay,
        t_test=t_test,
        poisson_rate=float(_setting(args, config, "poisson_rate", simulation.DEFAULT_POISSON_RATE)),
        jobs=jobs,
    )
    simulation.save_dataset(dataset, args.out, jobs=jobs)
    print(f"wrote {len(dataset.graphs)} graphs x "
          f"{dataset.params['cases_per_graph']} cases to {args.out}")
    return 0


def cmd_graph(args) -> int:
    config = _load_config(args)
    spec = load_architecture(args.arch)
    graph = build_structural_graph(spec)
    out = _setting(args, config, "out", "graph.json")
    save_graph(graph, out)
    if not graph.nodes:
        print("warning: architecture maps no metrics; graph is empty", file=sys.stderr)
    print(f"wrote {out}: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args)
    scorer = _setting(args, config, "scorer", "circa")
    loaded = load_case(args.case_dir)
    case = _override_windows(loaded.case, _window_overrides(args, config))
    graph_path = _setting(args, config, "graph", None)
    graph = load_graph(graph_path) if graph_path else None
    table, ranking = scoring.run_scorer(
        scorer,
        case,
        graph,
        truth=loaded.truth,
        threshold=float(_setting(args, config, "threshold", scoring.ABNORMAL_THRESHOLD)),
        lagged=_setting(args, config, "lagged", None),
        adjust=_setting(args, config, "adjust", None),
    )
    out = _setting(args, config, "out", None) or str(Path(args.case_dir) / "scores.json")
    scoring.save_scores(out, table, ranking)
    top = int(_setting(args, config, "top", 10))
    print(f"{scorer} ranking for {args.case_dir} (top {top}):")
    print(f"{'rank':<5} {'metric':<24} {'raw':>10} {'adjusted':>10}")
    for position, (metric, _) in enumerate(ranking[:top], start=1):
        raw = table.raw.get(metric, float("nan"))
        adj = "" if table.adjusted is None else f"{table.adjusted[metric]:>10.3f}"
        print(f"{position:<5} {metric:<24} {raw:>10.3f} {adj:>10}")
    print(f"wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    methods = _setting(args, config, "scorers", None) or ["rht-pg", "rht", "nsigma", "dfs", "ideal"]
    if isinstance(methods, str):
        methods = _scorer_list(methods)
    jobs = _jobs(args, config)
    dataset = simulation.load_dataset(args.dataset_dir, jobs=jobs)
    overrides = _window_overrides(args, config)
    if overrides:
        dataset = replace(dataset, graphs=tuple(
            replace(g, cases=tuple(
                replace(c, case=_override_windows(c.case, overrides))
                for c in g.cases
            ))
            for g in dataset.graphs
        ))
    report = evaluation.evaluate(
        dataset,
        methods,
        k_max=int(_setting(args, config, "k", evaluation.DEFAULT_K)),
        threshold=float(_setting(args, config, "threshold", scoring.ABNORMAL_THRESHOLD)),
        jobs=jobs,
    )
    out = _setting(args, config, "out", None) or str(Path(args.dataset_dir) / "report.json")
    evaluation.save_report(report, out)
    print(evaluation.format_table(report))
    for name, res in report.methods.items():
        if res.failures:
            print(f"warning: {name}: {len(res.failures)} case(s) failed and were excluded",
                  file=sys.stderr)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RcakitError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
