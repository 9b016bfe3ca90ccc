"""Command-line entry point: experiment subcommands, the contention
simulation, and instance generation."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional

from .errors import CapacityError, LeaderContractionError, NonTerminationError, StructureError
from .graphs import gen_cycles, gen_random_forest, gen_random_graph, write_graph
from .harness import ALGORITHMS, GRAPH_ALGORITHMS, ExperimentSpec, contention_sim, run_experiment
from .runtime import BudgetViolationError, RecordSizeError

# Failures of the simulated model (not of the command line): reported in one
# line with exit status 2.
_MODEL_ERRORS = (
    CapacityError,
    NonTerminationError,
    LeaderContractionError,
    StructureError,
    BudgetViolationError,
    RecordSizeError,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--space-multiplier", type=float, default=1.0)
    parser.add_argument("--budget-slack", type=float, default=16.0)
    parser.add_argument("--strict-budget", action="store_true")
    parser.add_argument("--out", type=str, default=None,
                        help="write JSON-line records here (plus .summary.csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampcsim",
        description="Round-budgeted simulator experiments with oracle verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ALGORITHMS:
        p = sub.add_parser(name, help=f"run {name} trials")
        _add_common(p)
        if name in GRAPH_ALGORITHMS:
            p.add_argument("--m", type=int, default=0)
        if name == "two-cycle":
            p.add_argument("--pieces", type=int, choices=(1, 2), default=2)
        if name in ("forest-conn", "tree-ops"):
            p.add_argument("--trees", type=int, default=1)

    p = sub.add_parser("contention", help="weighted balls-in-bins simulation")
    p.add_argument("--balls", type=int, default=256 * 1024)
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--profile", type=str, default="adversarial",
                   choices=("uniform", "adversarial", "single"))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("gen", help="generate a graph instance file")
    p.add_argument("--kind", type=str, required=True, choices=("cycles", "random", "forest"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--pieces", type=int, choices=(1, 2), default=1)
    p.add_argument("--trees", type=int, default=1)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    return parser


def _default_m(args) -> int:
    if args.m:
        return args.m
    # A sensible sparse default when no edge count was given.
    return 3 * args.n


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "gen":
        try:
            if args.kind == "cycles":
                graph = gen_cycles(args.n, args.pieces, args.seed)
            elif args.kind == "random":
                graph = gen_random_graph(args.n, args.m, args.seed, weighted=args.weighted)
            else:
                graph = gen_random_forest(args.n, args.trees, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with open(args.out, "w") as fh:
            write_graph(graph, fh)
        print(f"wrote {graph.n} vertices / {graph.m} edges to {args.out}")
        return 0

    if args.command == "contention":
        try:
            report = contention_sim(args.balls, args.bins, args.profile, args.trials, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report.summary(), sort_keys=True))
        if args.out:
            with open(args.out, "w") as fh:
                for trial, load in enumerate(report.max_loads):
                    fh.write(json.dumps({"trial": trial, "max_load": load}) + "\n")
        return 0

    # Each subcommand's parser adds exactly the spec fields it takes.
    given = vars(args)
    kwargs = {f.name: given[f.name] for f in fields(ExperimentSpec) if f.name in given}
    kwargs["algorithm"] = args.command
    if "m" in kwargs:
        kwargs["m"] = _default_m(args)

    try:
        spec = ExperimentSpec(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(spec)
    except _MODEL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.summary, sort_keys=True))
    if not report.all_correct:
        failures = [r.trial for r in report.records if not r.correct]
        print(f"error: incorrect trials {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
