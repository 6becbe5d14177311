"""Search strategies, the propagation engine, and the portfolio."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import threading

import pytest
from hypothesis import given, settings

import strategies
from helpers import is_minimal_cut, small_random_tree, tree
from mpmcs.encoding import CnfFormula, build_wcnf, event_weights
from mpmcs.fault_tree import evaluate, to_formula
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.oracle import oracle_mpmcs
from mpmcs.solver import (
    PRUNE_EPS,
    FrontierLimitError,
    InconsistencyError,
    PortfolioError,
    Propagator,
    SearchStats,
    Solution,
    SolverConfig,
    Strategy,
    UnsatisfiableError,
    VarOrder,
    _residual_bound,
    add_blocking_clause,
    complete_assignment,
    compute_mpmcs,
    default_portfolio,
    enumerate_optima,
    extract_mpmcs,
    solve_best_first,
    solve_branch_and_bound,
    solve_portfolio,
)

ALL_CONFIGS = [
    SolverConfig(strategy=Strategy.BRANCH_AND_BOUND, var_order=VarOrder.DESCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BRANCH_AND_BOUND, var_order=VarOrder.ASCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BRANCH_AND_BOUND, var_order=VarOrder.INPUT,
                 warm_start=False, use_lower_bound=False),
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.DESCENDING_WEIGHT),
]


def _solve(instance, config, cancel=None):
    if config.strategy is Strategy.BEST_FIRST:
        return solve_best_first(instance, config, cancel)
    return solve_branch_and_bound(instance, config, cancel)


# ---------------------------------------------------------------------------
# Propagator


def test_propagator_unit_chain():
    cnf = CnfFormula(num_vars=3, clauses=((1,), (-1, 2), (-2, 3)))
    prop = Propagator(cnf, {})
    assert prop.assert_units()
    assert prop.val[1:] == [1, 1, 1]
    assert prop.propagations >= 2


def test_propagator_root_conflict():
    cnf = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    prop = Propagator(cnf, {})
    assert not prop.assert_units()


def test_propagator_watches_wide_clause():
    cnf = CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    prop = Propagator(cnf, {})
    assert prop.assert_units()
    prop.decide(1, False)
    assert prop.propagate()
    assert prop.val[2] == prop.val[3] == 0  # two literals still open
    prop.decide(2, False)
    assert prop.propagate()
    assert prop.val[3] == 1  # clause became unit


def test_propagator_conflicting_units():
    cnf = CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1,), (-2,), (-3,)))
    prop = Propagator(cnf, {})
    assert not prop.assert_units()


def test_propagator_conflict_below_decisions():
    cnf = CnfFormula(num_vars=3, clauses=((1, 2, 3), (1, 2, -3)))
    prop = Propagator(cnf, {})
    assert prop.assert_units()
    prop.decide(1, False)
    assert prop.propagate()
    prop.decide(2, False)
    assert not prop.propagate()
    prop.backtrack(1)
    assert prop.val[2] == 0 and prop.val[3] == 0
    assert prop.val[1] == -1


def test_propagator_cost_and_backtrack():
    cnf = CnfFormula(num_vars=2, clauses=((1, 2),))
    prop = Propagator(cnf, {1: 2.5, 2: 4.0})
    prop.assert_units()
    prop.decide(1, True)
    prop.propagate()
    assert prop.cost == pytest.approx(2.5)
    prop.decide(2, True)
    prop.propagate()
    assert prop.cost == pytest.approx(6.5)
    prop.backtrack(1)
    assert prop.cost == pytest.approx(2.5)
    assert prop.val[2] == 0
    prop.backtrack(0)
    assert prop.cost == 0.0
    assert prop.val[1] == 0


def test_propagator_all_clauses_satisfied():
    cnf = CnfFormula(num_vars=2, clauses=((1, 2), (-1, 2)))
    prop = Propagator(cnf, {})
    prop.assert_units()
    assert not prop.all_clauses_satisfied()
    prop.decide(2, True)
    prop.propagate()
    assert prop.all_clauses_satisfied()


# ---------------------------------------------------------------------------
# Strategy correctness


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.solver_id + (
    "" if c.warm_start else "-bare"))
def test_fire_tree_all_configs(fire_instance, fire_weights, config):
    sol = _solve(fire_instance, config)
    assert sol.proven
    res = extract_mpmcs(sol, fire_instance, fire_weights)
    assert res.cut_set == frozenset({"x1", "x2"})
    assert res.log_weight == pytest.approx(3.912023, abs=1e-5)
    assert res.probability == pytest.approx(0.02, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(strategies.fault_trees(max_events=7))
def test_strategies_match_oracle(t):
    _assert_strategies_match_oracle(t)


@settings(max_examples=40, deadline=None)
@given(strategies.fault_trees(max_events=6, shared=True))
def test_strategies_match_oracle_on_dags(t):
    _assert_strategies_match_oracle(t)


def _assert_strategies_match_oracle(t):
    instance = build_wcnf(t)
    weights = event_weights(t)
    want = oracle_mpmcs(t)
    formula = to_formula(t)
    root = instance.var_map.root_var
    events = sorted(t.event_ids)
    for k in range(len(events) + 1):
        for chosen in itertools.combinations(events, k):
            circuit_says = complete_assignment(instance, frozenset(chosen))[root] > 0
            assert circuit_says == evaluate(formula, {e: True for e in chosen}), chosen
    prop = Propagator(instance.hard, dict(instance.soft))
    assert prop.assert_units()
    bound = _residual_bound(instance, prop.val, prop.weight)
    assert prop.cost + bound <= want.log_weight + PRUNE_EPS
    for config in ALL_CONFIGS:
        sol = _solve(instance, config)
        assert sol.proven, config.solver_id
        res = extract_mpmcs(sol, instance, weights)
        assert res.log_weight == pytest.approx(want.log_weight, rel=1e-9, abs=0), (
            config.solver_id
        )
        assert is_minimal_cut(formula, res.cut_set), config.solver_id


def test_weights_below_prune_eps():
    """The whole optimum weighs less than PRUNE_EPS; no slack may prune it."""
    t = tree(
        {
            "top": ("and", ["g1", "g2"]),
            "g1": ("or", ["s", "x"]),
            "g2": ("or", ["s", "y"]),
            "s": math.exp(-3e-13), "x": math.exp(-2e-13), "y": math.exp(-2e-13),
        },
        top="top",
    )
    want = oracle_mpmcs(t)
    assert want.cut_set == frozenset({"s"})
    instance = build_wcnf(t)
    weights = event_weights(t)
    results = [extract_mpmcs(_solve(instance, c), instance, weights) for c in ALL_CONFIGS]
    for res in results + [compute_mpmcs(t)]:
        assert res.cut_set == want.cut_set, res.solver_id
        assert res.log_weight == pytest.approx(want.log_weight, rel=1e-9, abs=0)


def test_instance_survives_deepcopy_and_pickle():
    t = tree(
        {
            "top": ("or", ["g1", "g2", "g3"]),
            "g1": ("and", ["a", "b"]),
            "g2": ("and", ["a", "c"]),
            "g3": ("and", ["b", "c", "d"]),
            "a": 0.3, "b": 0.4, "c": 0.5, "d": 0.9,
        },
        top="top",
    )
    instance = build_wcnf(t)
    assert not instance.tree_shaped
    want = solve_branch_and_bound(instance, SolverConfig())
    for clone in (copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        got = solve_branch_and_bound(clone, SolverConfig())
        assert got.weight == want.weight
        assert got.stats.decisions == want.stats.decisions


def test_repeat_solves_are_bit_identical():
    t = random_fault_tree(GeneratorParams(nodes=200, seed=31))
    instance = build_wcnf(t)
    weights = event_weights(t)
    baseline = None
    for _ in range(3):
        res = extract_mpmcs(
            solve_branch_and_bound(instance, SolverConfig()), instance, weights
        )
        if baseline is None:
            baseline = res
        assert res.log_weight == baseline.log_weight
        assert res.cut_set == baseline.cut_set


def test_bound_and_warm_start_do_not_change_the_answer():
    for seed in range(8):
        t = small_random_tree(seed, max_nodes=20)
        instance = build_wcnf(t)
        weights = event_weights(t)
        results = set()
        for warm in (False, True):
            for bound in (False, True):
                cfg = SolverConfig(warm_start=warm, use_lower_bound=bound)
                res = extract_mpmcs(
                    solve_branch_and_bound(instance, cfg), instance, weights
                )
                results.add(res.log_weight)
        assert len(results) == 1, f"seed {seed} diverged: {results}"


def test_weight_recomputed_matches_soft_sum(fire_instance):
    sol = solve_branch_and_bound(fire_instance, SolverConfig())
    total = math.fsum(
        w for var, w in fire_instance.soft if sol.assignment[var] > 0
    )
    assert sol.weight == total


# ---------------------------------------------------------------------------
# Budgets, cancellation, traces


def test_branch_and_bound_budget_returns_incumbent():
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    instance = build_wcnf(t)
    sol = solve_branch_and_bound(instance, SolverConfig(time_budget=1e-6))
    assert not sol.proven
    assert sol.assignment is not None  # warm start incumbent survives
    assert math.isfinite(sol.weight)
    res = extract_mpmcs(sol, instance, event_weights(t))
    assert res.cut_set


def test_best_first_budget_returns_empty():
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    instance = build_wcnf(t)
    sol = solve_best_first(instance, SolverConfig(time_budget=1e-6))
    assert not sol.proven
    assert sol.assignment is None
    assert sol.weight == math.inf


def test_pre_set_cancel_flag_stops_both(fire_instance):
    cancel = threading.Event()
    cancel.set()
    for config in (SolverConfig(), SolverConfig(strategy=Strategy.BEST_FIRST)):
        sol = _solve(fire_instance, config, cancel)
        assert not sol.proven
        assert sol.stats.cancelled


def test_frontier_limit_raises(fire_instance):
    cfg = SolverConfig(strategy=Strategy.BEST_FIRST, frontier_limit=1)
    with pytest.raises(FrontierLimitError):
        solve_best_first(fire_instance, cfg)


def test_branch_costs_grow_along_paths():
    t = small_random_tree(17, max_nodes=25)
    instance = build_wcnf(t)
    prop = Propagator(instance.hard, dict(instance.soft))
    assert prop.assert_units()
    order = sorted(instance.var_map.var_of_event.values())
    path_costs = [prop.cost]  # cost after each decision on the current path
    decisions = 0

    def descend(depth: int) -> None:
        nonlocal decisions
        var = next((v for v in order if prop.val[v] == 0), None)
        if var is None:
            return
        for value in (False, True):
            decisions += 1
            prop.decide(var, value)
            assert prop.cost >= path_costs[-1] - 1e-9
            if prop.propagate():
                assert prop.cost >= path_costs[-1] - 1e-9
                path_costs.append(prop.cost)
                descend(depth + 1)
                path_costs.pop()
            prop.backtrack(depth)
            assert prop.cost == pytest.approx(path_costs[-1], abs=1e-9)

    descend(0)
    assert decisions > 2, "search must have explored below the root"


def test_stats_are_populated(fire_instance):
    sol = solve_branch_and_bound(
        fire_instance, SolverConfig(warm_start=False, use_lower_bound=False)
    )
    assert sol.stats.decisions > 0
    assert sol.stats.propagations > 0
    assert sol.stats.elapsed > 0.0
    assert not sol.stats.cancelled


# ---------------------------------------------------------------------------
# Unsatisfiable instances


def test_blocked_single_event_is_unsat():
    t = tree({"e": 0.5}, top="e")
    instance = add_blocking_clause(build_wcnf(t), frozenset({"e"}))
    with pytest.raises(UnsatisfiableError):
        solve_branch_and_bound(instance, SolverConfig())
    with pytest.raises(UnsatisfiableError):
        solve_best_first(instance, SolverConfig())
    with pytest.raises(UnsatisfiableError):
        solve_portfolio(instance, default_portfolio())


def test_unsat_that_needs_search():
    """No root-level conflict; exhaustion is what proves emptiness."""
    t = tree(
        {
            "top": ("or", ["g1", "g2"]),
            "g1": ("and", ["a", "b"]),
            "g2": ("and", ["a", "c"]),
            "a": 0.3, "b": 0.4, "c": 0.5,
        },
        top="top",
    )
    blocked = add_blocking_clause(
        add_blocking_clause(build_wcnf(t), frozenset({"a", "b"})),
        frozenset({"a", "c"}),
    )
    with pytest.raises(UnsatisfiableError):
        solve_branch_and_bound(blocked, SolverConfig())
    with pytest.raises(UnsatisfiableError):
        solve_best_first(blocked, SolverConfig())


# ---------------------------------------------------------------------------
# Portfolio


def test_portfolio_on_fire_tree(fire_instance, fire_weights):
    sol = solve_portfolio(fire_instance, default_portfolio())
    assert sol.proven
    assert len(sol.workers) == 2
    assert {r.solver_id for r in sol.workers} == {"bnb-desc", "bestfirst-asc"}
    res = extract_mpmcs(sol, fire_instance, fire_weights)
    assert res.cut_set == frozenset({"x1", "x2"})
    winner = [r for r in sol.workers if r.solver_id == sol.solver_id]
    assert winner and winner[0].proven


def test_portfolio_single_config_passthrough(fire_instance):
    cfg = SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT)
    sol = solve_portfolio(fire_instance, [cfg])
    assert sol.proven
    assert sol.solver_id == "bestfirst-asc"
    (report,) = sol.workers
    assert report.proven
    assert report.exit_after_winner is not None
    assert report.within_grace is True


def test_portfolio_rejects_empty_config_list(fire_instance):
    with pytest.raises(ValueError):
        solve_portfolio(fire_instance, [])


def test_portfolio_reports_cancelled_losers():
    t = random_fault_tree(GeneratorParams(nodes=300, seed=8))
    instance = build_wcnf(t)
    sol = solve_portfolio(instance, default_portfolio())
    assert sol.proven
    late = [r for r in sol.workers if r.exit_after_winner is not None]
    assert late, "some worker must have exited after the winner"
    for r in late:
        assert r.within_grace


def test_portfolio_all_errors_aggregate(fire_instance):
    configs = [
        SolverConfig(strategy=Strategy.BEST_FIRST, frontier_limit=1),
        SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT,
                     frontier_limit=1),
    ]
    with pytest.raises(PortfolioError) as info:
        solve_portfolio(fire_instance, configs)
    assert len(info.value.errors) == 2


def test_portfolio_survives_one_failing_worker(fire_instance, fire_weights):
    configs = [
        SolverConfig(strategy=Strategy.BEST_FIRST, frontier_limit=1),
        SolverConfig(),
    ]
    sol = solve_portfolio(fire_instance, configs)
    assert sol.proven
    assert sol.solver_id == "bnb-desc"
    failed = [r for r in sol.workers if r.error is not None]
    assert len(failed) == 1


def test_portfolio_unproven_returns_best_incumbent():
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    instance = build_wcnf(t)
    sol = solve_portfolio(instance, default_portfolio(time_budget=1e-6))
    assert not sol.proven
    assert sol.assignment is not None  # branch and bound incumbent wins
    assert math.isfinite(sol.weight)


# ---------------------------------------------------------------------------
# Extraction and helpers


def test_extract_sweeps_redundant_members(fire_instance, fire_weights):
    fat = complete_assignment(fire_instance, frozenset({"x1", "x2", "x3"}))
    sol = Solution(
        assignment=fat,
        weight=math.fsum(fire_weights[e] for e in ("x1", "x2", "x3")),
        proven=False,
        stats=SearchStats(),
        solver_id="manual",
    )
    res = extract_mpmcs(sol, fire_instance, fire_weights)
    assert res.cut_set == frozenset({"x1", "x2"})
    assert res.log_weight == math.fsum(fire_weights[e] for e in ("x1", "x2"))


def test_extract_rejects_non_model(fire_instance, fire_weights):
    vals = tuple([0] + [-1] * fire_instance.hard.num_vars)
    sol = Solution(
        assignment=vals, weight=0.0, proven=False,
        stats=SearchStats(), solver_id="manual",
    )
    with pytest.raises(InconsistencyError):
        extract_mpmcs(sol, fire_instance, fire_weights)


def test_extract_requires_assignment(fire_instance, fire_weights):
    sol = Solution(
        assignment=None, weight=math.inf, proven=False,
        stats=SearchStats(), solver_id="manual",
    )
    with pytest.raises(ValueError):
        extract_mpmcs(sol, fire_instance, fire_weights)


def test_probability_equals_exp_of_negative_weight(fire_instance, fire_weights):
    sol = solve_portfolio(fire_instance, default_portfolio())
    res = extract_mpmcs(sol, fire_instance, fire_weights)
    assert res.probability == math.exp(-res.log_weight)


def test_add_blocking_clause_is_pure(fire_instance):
    before = len(fire_instance.hard.clauses)
    blocked = add_blocking_clause(fire_instance, frozenset({"x1", "x2"}))
    assert len(fire_instance.hard.clauses) == before
    assert blocked.hard.clauses[-1] == (-1, -2)


def test_enumerate_optima_unique(fire_instance, fire_weights):
    optima = enumerate_optima(fire_instance, fire_weights, default_portfolio())
    assert [sorted(r.cut_set) for r in optima] == [["x1", "x2"]]


def test_enumerate_optima_ties():
    t = tree({"top": ("or", ["a", "b"]), "a": 0.25, "b": 0.25}, top="top")
    instance = build_wcnf(t)
    optima = enumerate_optima(instance, event_weights(t), default_portfolio())
    assert sorted(sorted(r.cut_set) for r in optima) == [["a"], ["b"]]
    assert optima[0].log_weight == optima[1].log_weight


def test_enumerate_optima_exhausts_single_event():
    t = tree({"e": 0.5}, top="e")
    instance = build_wcnf(t)
    optima = enumerate_optima(instance, event_weights(t), default_portfolio())
    assert [sorted(r.cut_set) for r in optima] == [["e"]]


def test_compute_mpmcs_end_to_end(fire_tree):
    res = compute_mpmcs(fire_tree)
    assert res.cut_set == frozenset({"x1", "x2"})
    assert res.probability == pytest.approx(0.02, abs=1e-6)


def test_compute_mpmcs_timeout():
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    with pytest.raises(TimeoutError):
        compute_mpmcs(t, default_portfolio(time_budget=1e-6))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_budget=0.0)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(frontier_limit=0)


def test_solver_ids():
    assert SolverConfig().solver_id == "bnb-desc"
    assert SolverConfig(
        strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT
    ).solver_id == "bestfirst-asc"
    assert SolverConfig(var_order=VarOrder.INPUT).solver_id == "bnb-input"
