"""Command-line entry point.

Four subcommands cover the pipeline: ``simulate`` writes a synthetic
benchmark dataset, ``graph`` compiles an architecture file into a causal
graph, ``analyze`` scores one case, and ``evaluate`` runs scorers over a
dataset and reports AC@k.  Exit codes: 0 on success, 1 on runtime
failure, 2 on usage errors.  Option precedence is flags, then the
--config JSON file, then the parser's defaults: config values are parsed
as the flags they name, so they are checked the same way.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, scoring, simulation
from .archgraph import build_structural_graph, load_architecture
from .errors import RcakitError
from .model import (DEFAULT_T_DELAY, DEFAULT_T_REF, DEFAULT_T_TEST, load_case, load_graph,
                    read_json, save_graph)


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


def _checked(cast, ok, what: str):
    """An argparse type: ``cast(text)``, refused unless ``ok`` holds for it."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type when the cast fails
    return parse


_positive = _checked(int, lambda value: value >= 1, "at least 1")
_non_negative = _checked(int, lambda value: value >= 0, "at least 0")
_finite = _checked(float, math.isfinite, "finite")
_rate = _checked(float, lambda value: 0 <= value <= simulation.MAX_POISSON_RATE,
                 f"at least 0 and at most {simulation.MAX_POISSON_RATE:g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcakit",
        description="Root cause analysis over metric-monitored systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    sim.add_argument("--nodes", type=_positive, required=True, help="metrics per graph")
    sim.add_argument("--edges", type=int, required=True, help="causal edges per graph")
    sim.add_argument("--graphs", type=_positive, default=10, help="number of graphs (default 10)")
    sim.add_argument("--cases", type=_positive, default=100, help="cases per graph (default 100)")
    sim.add_argument("--seed", type=_non_negative, required=True,
                     help="master RNG seed (mandatory)")
    sim.add_argument("--out", required=True, help="output dataset directory")
    _add_window_flags(sim, DEFAULT_T_REF, DEFAULT_T_DELAY, DEFAULT_T_TEST)
    sim.add_argument("--poisson-rate", type=_rate, default=simulation.DEFAULT_POISSON_RATE,
                     help="rate for (root count - 1) (default 1.0)")
    sim.add_argument("--jobs", type=_non_negative, default=0,
                     help="worker processes (default one per CPU)")
    sim.add_argument("--config", help="JSON file with fallback option values")
    sim.set_defaults(func=cmd_simulate)

    gr = sub.add_parser("graph", help="compile an architecture file to graph.json")
    gr.add_argument("arch", help="architecture YAML (services + metric mapping)")
    gr.add_argument("--out", default="graph.json", help="output path (default graph.json)")
    gr.add_argument("--config", help="JSON file with fallback option values")
    gr.set_defaults(func=cmd_graph)

    an = sub.add_parser("analyze", help="score a single case directory")
    an.add_argument("case_dir", help="directory with data.csv and case.json")
    an.add_argument("--graph", default=None, help="graph.json (unused by nsigma/ideal)")
    an.add_argument("--scorer", default="circa", choices=scoring.SCORER_NAMES)
    an.add_argument("--threshold", type=_finite, default=scoring.ABNORMAL_THRESHOLD,
                    help="abnormality threshold in sigmas (default 3.0)")
    _add_window_flags(an)
    an.add_argument("--out", default=None, help="scores.json path (default inside case dir)")
    an.add_argument("--top", type=_positive, default=10, help="rows to print (default 10)")
    an.add_argument("--config", help="JSON file with fallback option values")
    an.set_defaults(func=cmd_analyze)

    ev = sub.add_parser("evaluate", help="run scorers over a dataset, report AC@k")
    ev.add_argument("dataset_dir", help="dataset directory from `simulate`")
    ev.add_argument("--scorers", type=_scorer_list, default="rht-pg,rht,nsigma,dfs,ideal",
                    help="comma-separated scorer names (default %(default)s)")
    ev.add_argument("--k", type=_positive, default=evaluation.DEFAULT_K,
                    help="largest k to report (default 5)")
    ev.add_argument("--threshold", type=_finite, default=scoring.ABNORMAL_THRESHOLD)
    _add_window_flags(ev)
    ev.add_argument("--out", default=None, help="report.json path (default inside dataset)")
    ev.add_argument("--jobs", type=_non_negative, default=0,
                    help="worker processes (default one per CPU)")
    ev.add_argument("--config", help="JSON file with fallback option values")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def _add_window_flags(sub: argparse.ArgumentParser, t_ref=None, t_delay=None, t_test=None) -> None:
    """Window flags; a None default keeps each loaded case's stored windows."""
    for flag, default, what in (("--t-ref", t_ref, "reference"),
                                ("--t-delay", t_delay, "analysis delay"), ("--t-test", t_test, "test")):
        shown = "the case's own" if default is None else default
        sub.add_argument(flag, type=int, default=default, help=f"{what} minutes (default {shown})")


def _config_tokens(sub: argparse.ArgumentParser, config: dict) -> list[str]:
    """The flags of ``sub`` that ``config`` stands for.  A key is an option's
    dest name, and ``null`` leaves the option unset."""
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        if action is None or action.dest != key or key in ("config", "help"):
            sub.error(f"config key {key!r} is not an option of {sub.prog}")
        if (action.type is _scorer_list and isinstance(value, list)
                and all(isinstance(item, str) for item in value)):
            value = ",".join(value)
        if value is None:
            continue
        if isinstance(value, (bool, dict, list)):
            # Never a bare flag: an option that takes a value would take the
            # next token, maybe a positional, as it.
            sub.error(f"config key {key!r} cannot be {json.dumps(value)}")
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``; with --config, parse again with the config's values as
    flags put before the user's own, so that flags beat the config and the
    config beats the parser's defaults."""
    args = _PARSER.parse_args(argv)
    if args.config:
        argv = list(sys.argv[1:] if argv is None else argv)
        at = argv.index(args.command) + 1
        (subparsers,) = _PARSER._subparsers._group_actions
        tokens = _config_tokens(subparsers.choices[args.command], read_json(args.config))
        args = _PARSER.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _window_overrides(args) -> dict:
    """Window values the user gave; a loaded case keeps its stored windows
    otherwise."""
    return {name: getattr(args, name) for name in ("t_ref", "t_delay", "t_test")
            if getattr(args, name) is not None}


def cmd_simulate(args) -> int:
    jobs = args.jobs or os.cpu_count() or 1
    simulation.require_empty_dir(args.out)  # before the work, not after it
    dataset = simulation.generate_dataset(
        n_node=args.nodes, n_edge=args.edges, n_graphs=args.graphs, cases_per_graph=args.cases,
        rng_seed=args.seed, t_ref=args.t_ref, t_delay=args.t_delay, t_test=args.t_test,
        poisson_rate=args.poisson_rate)
    simulation.save_dataset(dataset, args.out, jobs=jobs)
    print(f"wrote {len(dataset.graphs)} graphs x "
          f"{dataset.params['cases_per_graph']} cases to {args.out}")
    return 0


def cmd_graph(args) -> int:
    spec = load_architecture(args.arch)
    graph = build_structural_graph(spec)
    save_graph(graph, args.out)
    if not graph.nodes:
        print("warning: architecture maps no metrics; graph is empty", file=sys.stderr)
    print(f"wrote {args.out}: {len(graph.nodes)} nodes, {graph.child_ids.size} edges")
    return 0


def cmd_analyze(args) -> int:
    loaded = load_case(args.case_dir)
    overrides = _window_overrides(args)
    case = replace(loaded.case, **overrides) if overrides else loaded.case
    graph = load_graph(args.graph) if args.graph else None
    table, ranking = scoring.run_scorer(args.scorer, case, graph, truth=loaded.truth,
                                        threshold=args.threshold)
    out = args.out or str(Path(args.case_dir) / "scores.json")
    scoring.save_scores(out, table, ranking)
    print(f"{args.scorer} ranking for {args.case_dir} (top {args.top}):")
    print(f"{'rank':<5} {'metric':<24} {'raw':>10} {'adjusted':>10}")
    for position, (metric, _) in enumerate(ranking[:args.top], start=1):
        adj = "" if table.adjusted is None else f"{table.adjusted[metric]:>10.3f}"
        print(f"{position:<5} {metric:<24} {table.raw[metric]:>10.3f} {adj:>10}")
    print(f"wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    jobs = args.jobs or os.cpu_count() or 1
    out = args.out or str(Path(args.dataset_dir) / "report.json")
    # open()'s error before every case is scored, not after; a missing dataset
    # directory, the default's parent, is load_dataset's to name
    if Path(out).is_dir() or (args.out and not Path(out).parent.is_dir()):
        code = errno.EISDIR if Path(out).is_dir() else errno.ENOENT
        raise OSError(code, os.strerror(code), out)
    dataset = simulation.load_dataset(args.dataset_dir)
    report = evaluation.evaluate(dataset, args.scorers, k_max=args.k, threshold=args.threshold,
                                 jobs=jobs, windows=_window_overrides(args))
    evaluation.save_report(report, out)
    print(evaluation.format_table(report))
    for name, res in report.methods.items():
        if res.failures:
            print(f"warning: {name}: {len(res.failures)} case(s) failed and were excluded",
                  file=sys.stderr)
    print(f"wrote {out}")
    return 0


#: Built at import; argparse never changes a parser while it parses one argv.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (RcakitError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
