"""Command-line front end.

Subcommands: ``solve`` (JSON report on stdout), ``check`` (cross-check
against the brute-force reference), ``export-wcnf`` (DIMACS-style dump),
and ``generate`` (random benchmark trees).

Exit codes: 0 success, 1 invalid input or usage, 2 budget exhausted
before optimality was proven (the unproven report is still printed),
3 solver and reference disagree under ``check``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .encoding import WcnfInstance, build_wcnf, event_weights, format_wcnf
from .fault_tree import FaultTree, FaultTreeError, parse_fault_tree, serialize_fault_tree
from .generator import GeneratorParams, random_fault_tree
from .oracle import MAX_ORACLE_EVENTS, oracle_mpmcs
from .solver import (
    MpmcsResult,
    OptimaTimeoutError,
    default_portfolio,
    enumerate_optima,
    extract_mpmcs,
    solve_portfolio,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

# Relative weight tolerance for declaring solver and reference in agreement.
CHECK_REL_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; keep 2 reserved for budgets."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_tree(path: str) -> FaultTree:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FaultTreeError(f"cannot read {path}: {exc}") from exc
    return parse_fault_tree(text)


def _report(
    tree: FaultTree,
    instance: WcnfInstance,
    result: Optional[MpmcsResult],
    proven: bool,
    solver_id: str,
    elapsed: float,
) -> dict:
    return {
        "cut_set": sorted(result.cut_set) if result is not None else None,
        "log_weight": result.log_weight if result is not None else None,
        "probability": result.probability if result is not None else None,
        "proven": proven,
        "solver_id": solver_id,
        "elapsed_ms": elapsed * 1000.0,
        "stats": {
            "events": len(tree.event_ids),
            "gates": len(tree.gate_ids),
            "vars": instance.hard.num_vars,
            "hard_clauses": len(instance.hard.clauses),
        },
    }


def _cmd_solve(args) -> int:
    tree = _load_tree(args.file)
    instance = build_wcnf(tree)
    weights = event_weights(tree)
    configs = default_portfolio(time_budget=args.timeout)
    if args.strategy != "portfolio":
        configs = [c for c in configs if c.strategy.value == args.strategy]

    if args.all_optima:
        proven = True
        try:
            optima = enumerate_optima(instance, weights, configs)
        except OptimaTimeoutError as exc:
            optima, proven = exc.optima, False
        if not optima:
            print("error: no optimum proven within budget", file=sys.stderr)
            return EXIT_BUDGET
        first = optima[0]
        report = _report(
            tree, instance, first, proven, first.solver_id,
            sum(r.elapsed for r in optima),
        )
        report["optima"] = [
            {
                "cut_set": sorted(r.cut_set),
                "log_weight": r.log_weight,
                "probability": r.probability,
            }
            for r in optima
        ]
        print(json.dumps(report, indent=2))
        return EXIT_OK if proven else EXIT_BUDGET

    solution = solve_portfolio(instance, configs)
    result = None
    if solution.assignment is not None:
        result = extract_mpmcs(solution, instance, weights)
    report = _report(
        tree, instance, result, solution.proven, solution.solver_id,
        solution.stats.elapsed,
    )
    print(json.dumps(report, indent=2))
    return EXIT_OK if solution.proven else EXIT_BUDGET


def _cmd_check(args) -> int:
    tree = _load_tree(args.file)
    if len(tree.event_ids) > MAX_ORACLE_EVENTS:
        print(
            f"error: check needs <= {MAX_ORACLE_EVENTS} basic events "
            f"(got {len(tree.event_ids)})",
            file=sys.stderr,
        )
        return EXIT_INVALID
    instance = build_wcnf(tree)
    weights = event_weights(tree)
    solution = solve_portfolio(instance, default_portfolio(time_budget=args.timeout))
    if not solution.proven:
        print("error: budget exhausted before optimality was proven", file=sys.stderr)
        return EXIT_BUDGET
    got = extract_mpmcs(solution, instance, weights)
    want = oracle_mpmcs(tree)
    tol = CHECK_REL_TOL * max(1.0, abs(want.log_weight))
    weight_ok = abs(got.log_weight - want.log_weight) <= tol
    # Distinct sets may tie for the optimum; the weight is the contract.
    if not weight_ok:
        print(
            json.dumps(
                {
                    "match": False,
                    "solver": {
                        "cut_set": sorted(got.cut_set),
                        "log_weight": got.log_weight,
                    },
                    "reference": {
                        "cut_set": sorted(want.cut_set),
                        "log_weight": want.log_weight,
                    },
                },
                indent=2,
            )
        )
        return EXIT_MISMATCH
    print(
        json.dumps(
            {
                "match": True,
                "cut_set": sorted(got.cut_set),
                "log_weight": got.log_weight,
                "probability": got.probability,
                "solver_id": got.solver_id,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_export_wcnf(args) -> int:
    tree = _load_tree(args.file)
    instance = build_wcnf(tree)
    text = format_wcnf(instance)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        params = GeneratorParams(
            nodes=args.nodes,
            max_fanin=args.max_fanin,
            and_fraction=args.and_fraction,
            prob_low=args.prob_low,
            prob_high=args.prob_high,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    tree = random_fault_tree(params)
    text = serialize_fault_tree(tree)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpmcs",
        description=(
            "Maximum probability minimal cut sets of AND/OR fault trees, "
            "computed exactly via weighted partial MaxSAT."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one fault tree file")
    p_solve.add_argument("file", help="fault tree JSON file")
    p_solve.add_argument("--timeout", type=float, default=60.0,
                         help="per-strategy time budget in seconds")
    members = tuple(c.strategy.value for c in default_portfolio())
    p_solve.add_argument("--strategy", choices=("portfolio", *members),
                         default="portfolio",
                         help="the whole portfolio, or one of its members")
    p_solve.add_argument("--all-optima", action="store_true",
                         help="enumerate every cut set tied for the optimum")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser(
        "check", help="solve and cross-check against brute force (small trees)"
    )
    p_check.add_argument("file", help="fault tree JSON file")
    p_check.add_argument("--timeout", type=float, default=60.0)
    p_check.set_defaults(func=_cmd_check)

    p_export = sub.add_parser("export-wcnf", help="write the weighted CNF encoding")
    p_export.add_argument("file", help="fault tree JSON file")
    p_export.add_argument("-o", "--output", default="-",
                          help="output path (default stdout)")
    p_export.set_defaults(func=_cmd_export_wcnf)

    p_gen = sub.add_parser("generate", help="generate a random fault tree")
    p_gen.add_argument("--nodes", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-fanin", type=int, default=4)
    p_gen.add_argument("--and-fraction", type=float, default=0.4)
    p_gen.add_argument("--prob-low", type=float, default=0.01)
    p_gen.add_argument("--prob-high", type=float, default=0.9)
    p_gen.add_argument("-o", "--output", default="-",
                       help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
