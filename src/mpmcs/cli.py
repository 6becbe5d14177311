"""Command-line front end.

Subcommands: ``solve`` (JSON report on stdout), ``check`` (cross-check
against the brute-force reference), ``export-wcnf`` (DIMACS-style dump),
and ``generate`` (random benchmark trees).

Exit codes: 0 success, 1 invalid input, usage or path, 2 budget exhausted
before optimality was proven (the unproven report is still printed),
3 solver and reference disagree under ``check``.

``main`` builds its parser once per process; ``build_parser`` makes one per call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from .encoding import WcnfInstance, build_wcnf, format_wcnf
from .fault_tree import FaultTree, parse_fault_tree, serialize_fault_tree
from .generator import GeneratorParams, random_fault_tree
from .oracle import MAX_ORACLE_EVENTS, oracle_mpmcs
from .solver import (
    TIE_REL_TOL,
    MpmcsResult,
    OptimaTimeoutError,
    compute_mpmcs,
    default_portfolio,
    enumerate_optima,
    extract_mpmcs,
    solve_portfolio,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; keep 2 reserved for budgets."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_tree(path: str) -> FaultTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fault_tree(fh.read())


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(instance: WcnfInstance, result: Optional[MpmcsResult], proven: bool,
            solver_id: str, elapsed: float) -> dict:
    num_vars, num_clauses = instance.hard_size
    return {
        "cut_set": sorted(result.cut_set) if result is not None else None,
        "log_weight": result.log_weight if result is not None else None,
        "probability": result.probability if result is not None else None,
        "proven": proven,
        "solver_id": solver_id,
        "elapsed_ms": elapsed * 1000.0,
        "stats": {
            "events": len(instance.var_map.var_of_event),
            "gates": num_vars - len(instance.var_map.var_of_event),
            "vars": num_vars,
            "hard_clauses": num_clauses,
        },
    }


def _cmd_solve(args) -> int:
    instance = build_wcnf(_load_tree(args.file))
    # The events' weights are their -ln p, so no second walk of the tree.
    weights = dict(zip(instance.var_map.var_of_event, instance.weight[1:]))
    configs = default_portfolio(time_budget=args.timeout)
    if args.strategy != "portfolio":
        configs = [c for c in configs if c.strategy.value == args.strategy]

    if args.all_optima:
        proven, incumbent = True, None
        # The report's time is the whole enumeration's, every solve in it.
        start = time.perf_counter()
        try:
            optima = enumerate_optima(instance, weights, configs)
        except OptimaTimeoutError as exc:
            optima, proven, incumbent = exc.optima, False, exc.incumbent
        elapsed = time.perf_counter() - start
        # With no optimum proven, the first solve's incumbent is reported.
        first = optima[0] if optima else incumbent
        if first is None:
            print("error: no optimum proven within budget", file=sys.stderr)
            return EXIT_BUDGET
        report = _report(instance, first, proven, first.solver_id, elapsed)
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
        instance, result, solution.proven, solution.solver_id,
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
    try:
        got = compute_mpmcs(tree, default_portfolio(time_budget=args.timeout))
    except TimeoutError:
        print("error: budget exhausted before optimality was proven", file=sys.stderr)
        return EXIT_BUDGET
    want = oracle_mpmcs(tree)
    tol = TIE_REL_TOL * max(1.0, abs(want.log_weight))
    weight_ok = abs(got.log_weight - want.log_weight) <= tol
    # Distinct sets may tie for the optimum; the weight is the contract.
    if weight_ok:
        verdict = {
            "match": True,
            "cut_set": sorted(got.cut_set),
            "log_weight": got.log_weight,
            "probability": got.probability,
            "solver_id": got.solver_id,
        }
    else:
        verdict = {
            "match": False,
            "solver": {"cut_set": sorted(got.cut_set), "log_weight": got.log_weight},
            "reference": {"cut_set": sorted(want.cut_set), "log_weight": want.log_weight},
        }
    print(json.dumps(verdict, indent=2))
    return EXIT_OK if weight_ok else EXIT_MISMATCH


def _cmd_export_wcnf(args) -> int:
    _write(args.output, format_wcnf(build_wcnf(_load_tree(args.file))))
    return EXIT_OK


def _cmd_generate(args) -> int:
    params = GeneratorParams(
        nodes=args.nodes,
        max_fanin=args.max_fanin,
        and_fraction=args.and_fraction,
        prob_low=args.prob_low,
        prob_high=args.prob_high,
        seed=args.seed,
    )
    _write(args.output, serialize_fault_tree(random_fault_tree(params)) + "\n")
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


_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a path, FaultTreeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
