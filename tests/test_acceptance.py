"""Acceptance checks for the whole pipeline.

Every test prints one `[PASS]`/`[FAIL]` line (outside pytest's capture)
so a plain run shows the scorecard.  Each criterion collects all its
violations before reporting, so a failure names every offending case.
"""

from __future__ import annotations

import math
import time

from helpers import (
    FIRE_WEIGHTS,
    all_models,
    is_minimal_cut,
    project_models,
    satisfying_event_sets,
    small_random_tree,
)
from mpmcs.encoding import (
    WCNF_WEIGHT_SCALE,
    build_wcnf,
    event_weights,
    format_wcnf,
    to_log_space,
    tseitin,
)
from mpmcs.fault_tree import (
    dualize,
    formula_events,
    parse_fault_tree,
    serialize_fault_tree,
    to_formula,
)
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.oracle import oracle_mpmcs
from mpmcs.solver import (
    SolverConfig,
    Strategy,
    VarOrder,
    compute_mpmcs,
    default_portfolio,
    extract_mpmcs,
    solve_best_first,
    solve_branch_and_bound,
    solve_portfolio,
)

STRATEGY_MATRIX = [
    SolverConfig(strategy=Strategy.BRANCH_AND_BOUND, var_order=VarOrder.DESCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BRANCH_AND_BOUND, var_order=VarOrder.ASCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.DESCENDING_WEIGHT),
]


def _report(capsys, number: int, label: str, failures: list, detail: str = ""):
    ok = not failures
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} ({label}): " + "; ".join(
        str(f) for f in failures[:10]
    )


def _solve(instance, config):
    if config.strategy is Strategy.BEST_FIRST:
        return solve_best_first(instance, config)
    return solve_branch_and_bound(instance, config)


def test_criterion_1_golden_example(capsys, fire_tree):
    failures = []
    detail = ""
    try:
        start = time.perf_counter()
        res = compute_mpmcs(fire_tree)
        elapsed = time.perf_counter() - start
        if res.cut_set != frozenset({"x1", "x2"}):
            failures.append(f"cut set {sorted(res.cut_set)} != ['x1', 'x2']")
        if abs(res.probability - 0.02) > 1e-6:
            failures.append(f"probability {res.probability} not within 1e-6 of 0.02")
        if abs(res.log_weight - 3.91203) > 1e-4:
            failures.append(f"log weight {res.log_weight} not within 1e-4 of 3.91203")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.3f}s, limit 1s")
        detail = f"weight {res.log_weight:.6f}, p {res.probability:.6f}, {elapsed * 1000:.0f} ms"
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 1, "golden example cut set, probability, weight", failures, detail)


def test_criterion_2_weight_table(capsys):
    failures = []
    for eid, (p, expected_w) in sorted(FIRE_WEIGHTS.items()):
        got = to_log_space(p)
        if abs(got - expected_w) > 1e-5:
            failures.append(f"{eid}: -ln({p}) = {got:.6f}, table says {expected_w}")
    _report(capsys, 2, "log-space weight table within 1e-5", failures,
            f"{len(FIRE_WEIGHTS)} entries")


def test_criterion_3_oracle_equivalence(capsys):
    failures = []
    n_trees = 200
    start = time.perf_counter()
    try:
        for seed in range(n_trees):
            t = small_random_tree(seed)
            instance = build_wcnf(t)
            weights = event_weights(t)
            formula = to_formula(t)
            want = oracle_mpmcs(t)
            for config in STRATEGY_MATRIX:
                sol = _solve(instance, config)
                if not sol.proven:
                    failures.append(f"seed {seed} {config.solver_id}: not proven")
                    continue
                res = extract_mpmcs(sol, instance, weights)
                tol = 1e-9 * max(1.0, abs(want.log_weight))
                if abs(res.log_weight - want.log_weight) > tol:
                    failures.append(
                        f"seed {seed} {config.solver_id}: weight "
                        f"{res.log_weight!r} != oracle {want.log_weight!r}"
                    )
                if not is_minimal_cut(formula, res.cut_set):
                    failures.append(
                        f"seed {seed} {config.solver_id}: "
                        f"{sorted(res.cut_set)} is not a minimal cut set"
                    )
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _report(capsys, 3, "oracle equivalence on 200 random trees", failures,
            f"{n_trees} trees x {len(STRATEGY_MATRIX)} configs, {elapsed:.1f}s")


def test_criterion_4_tseitin_projection(capsys):
    failures = []
    n_formulas = 100
    try:
        for seed in range(1000, 1000 + n_formulas):
            t = small_random_tree(seed)
            f = to_formula(t)
            cnf, vm = tseitin(f)
            models = all_models(cnf)
            projected = project_models(models, vm)
            expected = satisfying_event_sets(f, formula_events(f))
            if projected != expected:
                failures.append(
                    f"seed {seed}: projection mismatch "
                    f"({len(projected)} vs {len(expected)} sets)"
                )
            elif len(models) != len(projected):
                failures.append(
                    f"seed {seed}: auxiliaries not pinned "
                    f"({len(models)} models for {len(projected)} event sets)"
                )
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 4, "projected CNF models equal formula models", failures,
            f"{n_formulas} formulas, exhaustive")


def test_criterion_5_scalability(capsys):
    failures = []
    detail_parts = []
    try:
        for nodes, limit, seed in ((1000, 10.0, 42), (5000, 60.0, 43)):
            t = random_fault_tree(GeneratorParams(nodes=nodes, seed=seed))
            start = time.perf_counter()
            instance = build_wcnf(t)
            weights = event_weights(t)
            sol = solve_portfolio(instance, default_portfolio(time_budget=limit))
            res = extract_mpmcs(sol, instance, weights)
            elapsed = time.perf_counter() - start
            if not sol.proven:
                failures.append(f"{nodes} nodes: optimality not proven")
            if elapsed >= limit:
                failures.append(f"{nodes} nodes: {elapsed:.1f}s, limit {limit}s")
            if not res.cut_set:
                failures.append(f"{nodes} nodes: empty cut set")
            detail_parts.append(f"{nodes}n {elapsed * 1000:.0f}ms")
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 5, "1000 nodes < 10 s, 5000 nodes < 60 s, proven", failures,
            ", ".join(detail_parts))


def test_criterion_6_portfolio_determinism_and_cancellation(capsys, fire_tree):
    failures = []
    runs = 20
    cancelled_seen = 0
    late_worst = 0.0
    try:
        instances = [("fire", fire_tree)]
        for i in range(5):
            instances.append(
                (f"random-{i}", random_fault_tree(GeneratorParams(nodes=200, seed=100 + i)))
            )
        for label, t in instances:
            instance = build_wcnf(t)
            weights = event_weights(t)
            seen = set()
            for _ in range(runs):
                sol = solve_portfolio(instance, default_portfolio())
                if not sol.proven:
                    failures.append(f"{label}: run not proven")
                    continue
                res = extract_mpmcs(sol, instance, weights)
                seen.add(res.log_weight)
                for r in sol.workers:
                    if r.cancelled:
                        cancelled_seen += 1
                    if r.exit_after_winner is not None:
                        late_worst = max(late_worst, r.exit_after_winner)
                        if r.exit_after_winner > 0.1:
                            failures.append(
                                f"{label}: worker {r.solver_id} exited "
                                f"{r.exit_after_winner * 1000:.0f} ms after winner"
                            )
            if len(seen) > 1 and max(seen) - min(seen) > 1e-9:
                failures.append(f"{label}: weights varied across runs: {sorted(seen)}")
        if cancelled_seen == 0:
            failures.append("no worker was ever cancelled; check is vacuous")
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 6, "20-run determinism and 100 ms cancellation", failures,
            f"{cancelled_seen} cancellations, worst exit {late_worst * 1000:.0f} ms")


def test_criterion_7_roundtrip_and_involution(capsys):
    failures = []
    n_cases = 100
    try:
        for seed in range(2000, 2000 + n_cases):
            f = to_formula(small_random_tree(seed))
            if dualize(dualize(f)) != f:
                failures.append(f"involution broke at seed {seed}")
        for seed in range(3000, 3000 + n_cases):
            nodes = 1 + seed % 60
            t = random_fault_tree(GeneratorParams(nodes=nodes, seed=seed))
            if parse_fault_tree(serialize_fault_tree(t)) != t:
                failures.append(f"round trip broke at seed {seed}")
        for seed in range(4000, 4000 + n_cases):
            t = random_fault_tree(GeneratorParams(nodes=1 + seed % 40, seed=seed))
            probs = t.probabilities()
            product = math.prod(probs.values())
            via_weights = math.exp(-math.fsum(to_log_space(p) for p in probs.values()))
            if abs(via_weights - product) > 1e-9 * max(1.0, abs(product)):
                failures.append(
                    f"seed {seed}: exp(-sum weights) {via_weights!r} "
                    f"!= product {product!r}"
                )
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 7, "involution, round trip, exp/product identities", failures,
            f"3 x {n_cases} cases")


def test_criterion_8_wcnf_determinism(capsys, fire_tree):
    failures = []
    cases = [fire_tree]
    for seed in (7, 19, 23):
        cases.append(random_fault_tree(GeneratorParams(nodes=50, seed=seed)))
    try:
        for t in cases:
            first = format_wcnf(build_wcnf(t))
            second = format_wcnf(build_wcnf(t))
            if first != second:
                failures.append(f"{t.name}: export not byte-identical")
                continue
            instance = build_wcnf(t)
            lines = first.splitlines()
            nvars, nclauses, top = (int(x) for x in lines[0].split()[2:])
            if nvars != instance.hard.num_vars:
                failures.append(f"{t.name}: header vars {nvars}")
            body = len(lines) - 1
            want_clauses = len(instance.hard.clauses) + len(instance.soft)
            if nclauses != want_clauses or body != want_clauses:
                failures.append(
                    f"{t.name}: header says {nclauses} clauses, "
                    f"body has {body}, instance has {want_clauses}"
                )
            scaled = [round(w * WCNF_WEIGHT_SCALE) for _, w in instance.soft]
            if top != sum(scaled) + 1:
                failures.append(f"{t.name}: top {top} != sum+1 {sum(scaled) + 1}")
            for (var, w), line in zip(instance.soft, lines[1 + len(instance.hard.clauses):]):
                if line != f"{round(w * WCNF_WEIGHT_SCALE)} -{var} 0":
                    failures.append(f"{t.name}: bad soft line {line!r}")
                    break
    except Exception as exc:
        failures.append(f"raised {exc!r}")
    _report(capsys, 8, "WCNF export byte-determinism and header counts", failures,
            f"{len(cases)} trees")
