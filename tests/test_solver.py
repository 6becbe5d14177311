"""Search strategies, the propagation engine, and the portfolio."""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import pickle
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import strategies
from helpers import (
    TIES_100_2_FIRST,
    is_minimal_cut,
    reference_build_wcnf,
    reference_complete_assignment,
    reference_cores,
    reference_enumerate_optima,
    satisfying_event_sets,
    seeded_dag,
    small_random_tree,
    tie_tree,
    tree,
    unit_propagate,
)
from mpmcs import solver
from mpmcs.encoding import build_wcnf, event_weights
from mpmcs.fault_tree import BasicEvent, FaultTree, Gate, GateOp, evaluate
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.oracle import enumerate_mcs, oracle_mpmcs
from mpmcs.solver import (
    GRACE_PERIOD,
    PRUNE_EPS,
    TIE_REL_TOL,
    FrontierLimitError,
    InconsistencyError,
    PortfolioError,
    Propagator,
    SearchStats,
    Solution,
    SolverConfig,
    Strategy,
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
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT),
    SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.DESCENDING_WEIGHT),
]


def _solve(instance, config, cancel=None):
    if config.strategy is Strategy.BEST_FIRST:
        return solve_best_first(instance, config, cancel)
    return solve_branch_and_bound(instance, config, cancel)


def _assert_no_model(sol, instance, cutoff=math.inf):
    """A proof that no model within ``cutoff`` is left: a proven solution
    with no assignment to extract, weighing the cutoff."""
    assert (sol.proven, sol.assignment, sol.weight) == (True, None, cutoff)
    with pytest.raises(ValueError, match="no model"):
        extract_mpmcs(sol, instance, {})


# ---------------------------------------------------------------------------
# Propagator


def _root_prop(spec: dict, top: str, blocked=()) -> Propagator:
    """A propagator over ``tree(spec, top)`` with each set in ``blocked``
    blocked.  ``build_wcnf`` numbers the events in the order a depth-first,
    left-to-right walk from the top first meets them."""
    instance = build_wcnf(tree(spec, top=top))
    for events in blocked:
        instance = add_blocking_clause(instance, frozenset(events))
    return Propagator(instance)


def test_propagator_unit_chain():
    # top = AND(g, a), g = AND(b, c): the root forces everything below it.
    prop = _root_prop(
        {"a": 0.5, "b": 0.5, "c": 0.5, "g": ("and", ["b", "c"]),
         "top": ("and", ["g", "a"])},
        top="top",
    )
    assert prop.assert_units()
    assert prop.val[1:] == [1, 1, 1, 1, 1]
    assert prop.propagations == 4


def test_propagator_root_conflict():
    # A blocked event under an AND top.
    prop = _root_prop({"a": 0.5, "b": 0.5, "top": ("and", ["a", "b"])},
                      top="top", blocked=[{"a"}])
    assert not prop.assert_units()


def test_propagator_wide_gate_forces_last_open_child():
    prop = _root_prop({"a": 0.5, "b": 0.5, "c": 0.5, "top": ("or", ["a", "b", "c"])},
                      top="top")
    assert prop.assert_units()
    prop.decide(1, False)
    assert prop.propagate()
    assert prop.val[2] == prop.val[3] == 0  # two children still open
    prop.decide(2, False)
    assert prop.propagate()
    assert prop.val[3] == 1  # the last open child is forced


def test_propagator_conflicting_units():
    # Every child of an OR top is blocked on its own.
    prop = _root_prop({"a": 0.5, "b": 0.5, "c": 0.5, "top": ("or", ["a", "b", "c"])},
                      top="top", blocked=[{"a"}, {"b"}, {"c"}])
    assert not prop.assert_units()


def test_propagator_one_event_block_is_a_unit():
    """A blocking gate over one event is a unit clause in the exported
    CNF, so the event it forbids is asserted, not propagated."""
    prop = _root_prop({"a": 0.5, "b": 0.5, "top": ("or", ["a", "b"])},
                      top="top", blocked=[{"a"}])
    assert prop.assert_units()
    assert prop.val[1:3] == [-1, 1]
    assert prop.propagations == 1  # b, forced by the OR top


def test_propagator_conflict_below_decisions():
    # top = AND(OR(a, b, c), OR(a, b, d)) with {c, d} blocked: a and b
    # false force c and d true, which the blocking gate forbids.
    prop = _root_prop(
        {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5,
         "g1": ("or", ["a", "b", "c"]), "g2": ("or", ["a", "b", "d"]),
         "top": ("and", ["g1", "g2"])},
        top="top", blocked=[{"c", "d"}],
    )
    assert prop.assert_units()
    prop.decide(1, False)
    assert prop.propagate()
    prop.decide(2, False)
    assert not prop.propagate()
    prop.backtrack(1)
    assert prop.val[2] == prop.val[3] == prop.val[4] == 0
    assert prop.val[1] == -1


def test_bound_table_cost_and_undo():
    """The weights' table adds each event's weight as it turns true, and
    ``undo`` puts back the cost of the level it returns to exactly."""
    instance = build_wcnf(tree({"a": math.exp(-2.5), "b": math.exp(-4.0),
                                "top": ("or", ["a", "b"])}, top="top"))
    root = solver._root(instance)
    prop, table = root.prop.fork(), solver._BoundTable(instance, *root.tables[0])
    assert table.cost == 0.0
    prop.decide(1, True)
    assert prop.propagate()
    table.update(prop)
    after_a = table.cost
    assert after_a == pytest.approx(2.5)
    prop.decide(2, True)
    assert prop.propagate()
    table.update(prop)
    assert table.cost == pytest.approx(6.5)
    prop.backtrack(1)
    table.undo(1)
    assert table.cost == after_a
    assert prop.val[2] == 0
    prop.backtrack(0)
    table.undo(0)
    assert table.cost == 0.0
    assert prop.val[1] == 0


@pytest.mark.parametrize("shared", [False, True], ids=["tree", "dag"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_propagator_matches_clause_propagation(shared, data):
    """Random decide, propagate and backtrack sequences, with 0-2 blocked
    sets: the same conflict verdicts and values as naive unit
    propagation over the exported clauses."""
    t = data.draw(strategies.fault_trees(shared=shared))
    instance = build_wcnf(t)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        blocked = data.draw(st.sets(st.sampled_from(sorted(t.event_ids)), min_size=1))
        instance = add_blocking_clause(instance, frozenset(blocked))
    cnf = instance.hard
    prop = Propagator(instance)
    decided: list[int] = []

    def check(clean: bool) -> None:
        want = unit_propagate(cnf, decided)
        assert clean == (want is not None)
        if clean:
            assert prop.val[:cnf.num_vars + 1] == want

    clean = prop.assert_units()
    check(clean)
    if not clean:
        return
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        open_vars = [v for v in range(1, cnf.num_vars + 1) if prop.val[v] == 0]
        if open_vars and (not decided or data.draw(st.booleans())):
            var = data.draw(st.sampled_from(open_vars))
            value = data.draw(st.booleans())
            prop.decide(var, value)
            decided.append(var if value else -var)
            clean = prop.propagate()
            check(clean)
            if clean:
                continue
        if decided:  # after a conflict, or by choice
            level = data.draw(st.integers(min_value=0, max_value=len(decided) - 1))
            prop.backtrack(level)
            del decided[level:]
            check(True)


# ---------------------------------------------------------------------------
# Strategy correctness


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.solver_id)
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
@given(strategies.dags(max_events=6), st.data())
def test_strategies_match_oracle_on_dags(t, data):
    """Also with a blocking clause over at least two events, which the
    core pass's bound and second warm start must respect."""
    _assert_strategies_match_oracle(t)
    events = sorted(t.event_ids)
    if len(events) > 1:
        blocked = data.draw(st.sets(st.sampled_from(events), min_size=2))
        _assert_strategies_match_oracle(t, frozenset(blocked))


def test_dag_strategy_reaches_the_core_pass(monkeypatch):
    """The core pass runs at the root of at least a quarter of the DAGs
    the oracle fuzz draws; ``fault_trees(shared=True)`` alone reached it
    in 5 of the same 200 draws."""
    real, ran, drawn = solver._cores, [], []
    monkeypatch.setattr(solver, "_cores", lambda *a: ran.append(1) or real(*a))

    @settings(max_examples=200, derandomize=True, database=None,
              phases=[Phase.generate], deadline=None)
    @given(strategies.dags(max_events=6))
    def draw(t):
        drawn.append(1)
        solver._root(build_wcnf(t))

    draw()
    assert len(ran) >= len(drawn) / 4, (len(ran), len(drawn))


def _assert_strategies_match_oracle(t, blocked=None):
    """Every configuration proves the least-weight cut set of ``t`` that
    does not contain all of ``blocked``; the root's bounds, the core
    pass's included, do not exceed it."""
    instance = build_wcnf(t)
    weights = event_weights(t)
    root = instance.var_map.root_var
    events = sorted(t.event_ids)
    for k in range(len(events) + 1):
        for chosen in itertools.combinations(events, k):
            circuit_says = complete_assignment(instance, frozenset(chosen))[root] > 0
            assert circuit_says == evaluate(t, {e: True for e in chosen}), chosen
    if blocked is None:
        want = oracle_mpmcs(t).log_weight
    else:
        instance = add_blocking_clause(instance, blocked)
        allowed = [math.fsum(weights[e] for e in cut)
                   for cut in satisfying_event_sets(t) if not blocked <= cut]
        if not allowed:
            _assert_no_model(solve_branch_and_bound(instance, SolverConfig()), instance)
            return
        want = min(allowed)
    assert solver._root(instance).lower <= want + PRUNE_EPS
    for config in ALL_CONFIGS:
        sol = _solve(instance, config)
        assert sol.proven, config.solver_id
        res = extract_mpmcs(sol, instance, weights)
        assert res.log_weight == pytest.approx(want, rel=1e-9, abs=0), (
            config.solver_id
        )
        assert is_minimal_cut(t, res.cut_set), config.solver_id


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
    _assert_every_config_finds(t, {"s"})


@pytest.mark.parametrize(
    "spec, want_cut",
    [
        # w(t) ~ 1.1e-15 lies below the relative prune slack, so the search
        # may keep t; the extraction sweep must drop it.
        ({"top": ("or", ["g", "a"]), "g": ("and", ["a", "t"]),
          "a": 0.5, "t": 1 - 1e-15}, {"a"}),
        # p -> 0: weights near the top of the float range, one from a
        # subnormal probability.
        ({"top": ("or", ["a", "b"]), "a": 1e-300, "b": 5e-324}, {"a"}),
    ],
    ids=["p-near-one", "p-near-zero"],
)
def test_extreme_probabilities_match_oracle(spec, want_cut):
    _assert_every_config_finds(tree(spec, top="top"), want_cut)


def _assert_every_config_finds(t, want_cut):
    """Every configuration and ``compute_mpmcs`` return the oracle's optimum."""
    want = oracle_mpmcs(t)
    assert want.cut_set == frozenset(want_cut)
    instance = build_wcnf(t)
    weights = event_weights(t)
    results = [extract_mpmcs(_solve(instance, c), instance, weights) for c in ALL_CONFIGS]
    for res in results + [compute_mpmcs(t)]:
        assert res.cut_set == want.cut_set, res.solver_id
        assert res.log_weight == pytest.approx(want.log_weight, rel=1e-9, abs=0)


def test_root_bound_table_is_built_once(fire_instance, monkeypatch):
    """The warm start's root table also serves the root prune check, and
    portfolio members start from forks of one root: one propagator and
    one bound pass per solve, whatever the number of members."""
    calls, props = [], []

    def counted(*args):
        calls.append(args)
        return _residual_bound(*args)

    def counted_prop(instance):
        props.append(Propagator(instance))
        return props[-1]

    monkeypatch.setattr(solver, "_residual_bound", counted)
    monkeypatch.setattr(solver, "Propagator", counted_prop)
    for members in (0, 2, 3):
        calls.clear()
        props.clear()
        if members:
            sol = solve_portfolio(fire_instance, ALL_CONFIGS[:members])
        else:
            sol = solve_branch_and_bound(fire_instance, SolverConfig())
        assert sol.proven
        assert sol.stats.decisions == 0
        assert (len(props), len(calls)) == (1, 1), members


@pytest.mark.parametrize(
    "search, decisions",
    [(solve_branch_and_bound, 1110), (solve_best_first, 1083)],
    ids=["bnb", "bestfirst"],
)
def test_root_bound_table_is_built_once_in_a_search(search, decisions, monkeypatch):
    """Branching keeps the root tables current instead of recomputing
    them: the root builds two, the first table and the core pass's
    residual table, and the search builds none."""
    calls, before_search = [], []
    real_search = solver._search

    def counted(*args):
        calls.append(args)
        return _residual_bound(*args)

    def counted_search(*args, **kwargs):
        before_search.append(len(calls))
        return real_search(*args, **kwargs)

    instance = build_wcnf(seeded_dag(1000, 2.0, 1))
    monkeypatch.setattr(solver, "_residual_bound", counted)
    monkeypatch.setattr(solver, "_search", counted_search)
    sol = search(instance, SolverConfig())
    assert sol.proven
    assert sol.stats.decisions == decisions
    assert (before_search, len(calls)) == ([2], 2)


def _four_event_dag():
    return tree(
        {
            "top": ("or", ["g1", "g2", "g3"]),
            "g1": ("and", ["a", "b"]),
            "g2": ("and", ["a", "c"]),
            "g3": ("and", ["b", "c", "d"]),
            "a": 0.3, "b": 0.4, "c": 0.5, "d": 0.9,
        },
        top="top",
    )


def test_instance_survives_deepcopy_and_pickle():
    instance = build_wcnf(_four_event_dag())
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


def test_strategies_match_oracle_on_small_random_trees():
    for seed in range(8):
        _assert_strategies_match_oracle(small_random_tree(seed, max_nodes=20))


@settings(max_examples=60, deadline=None)
@given(strategies.fault_trees(max_events=7), st.data())
def test_warm_start_is_optimal_with_events_blocked(t, data):
    """Unit-blocked events are false at the root; on a tree the walk of
    the root bound table is still the optimum, so nothing is searched."""
    blocked = data.draw(st.sets(st.sampled_from(sorted(t.event_ids))))
    instance = build_wcnf(t)
    for eid in sorted(blocked):
        instance = add_blocking_clause(instance, frozenset({eid}))
    allowed = [cs for cs in enumerate_mcs(t) if not cs.events & blocked]
    sol = solve_branch_and_bound(instance, SolverConfig())
    if not allowed:
        _assert_no_model(sol, instance)
        return
    assert sol.proven
    assert sol.stats.decisions == 0
    weights = event_weights(t)
    want = math.fsum(weights[e] for e in allowed[0].events)  # most probable first
    assert sol.weight == pytest.approx(want, rel=1e-9, abs=0)


def test_warm_start_skips_blocked_single_event():
    t = tree(
        {
            "top": ("or", ["a", "b", "g"]),
            "g": ("and", ["c", "d"]),
            "a": 0.25, "b": 0.25, "c": 0.4, "d": 0.4,
        },
        top="top",
    )
    instance = add_blocking_clause(build_wcnf(t), frozenset({"a"}))
    sol = solve_branch_and_bound(instance, SolverConfig())
    assert sol.proven
    assert sol.stats.decisions == 0
    res = extract_mpmcs(sol, instance, event_weights(t))
    assert res.cut_set == frozenset({"b"})


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
    """The blocking clause spans three events, so there is no warm-start
    incumbent for either search to return."""
    instance = _tied_tree_second_solve()
    for search in (solve_best_first, solve_branch_and_bound):
        sol = search(instance, SolverConfig(time_budget=1e-6))
        assert not sol.proven
        assert sol.assignment is None
        assert sol.weight == math.inf


def test_portfolio_budget_holds_at_size():
    """The budget counts from the start of the one root set-up, which on a
    DAG of 100,000 nodes is a good part of a second: a 1 s portfolio
    solve must still return within 1.5 s of wall time."""
    instance = build_wcnf(seeded_dag(100_000, 0.1, 1))
    began = time.perf_counter()
    sol = solve_portfolio(instance, default_portfolio(time_budget=1.0))
    assert time.perf_counter() - began < 1.5
    assert sol.assignment is not None


def test_core_pass_stops_at_the_budget():
    """A root whose budget runs out during set-up runs no core: it keeps
    the residual weights, the events true at the root folded into the
    bound, and its first warm start, which the search returns unproven."""
    instance = build_wcnf(seeded_dag(2000, 0.2, 1))
    root = solver._root(instance, 1e-9)
    (cost, bound), (lb, _) = root.tables
    assert lb == cost
    assert lb < solver._root(instance).tables[1][0]
    assert root.warm == complete_assignment(
        instance, solver._cheapest_events(instance, bound)
    )
    sol = solve_branch_and_bound(instance, SolverConfig(time_budget=1e-6))
    assert not sol.proven
    assert sol.assignment == root.warm


def test_core_pass_skips_tree_shaped_instances(monkeypatch):
    """On a tree the first table (sum at AND) is already at least as
    tight as the core pass's bound, so the pass never runs, even with
    the root open."""
    def refuse(*args):
        raise AssertionError("the core pass ran on a tree")

    monkeypatch.setattr(solver, "_cores", refuse)
    big = build_wcnf(random_fault_tree(GeneratorParams(nodes=2000, seed=1)))
    for instance in (_tied_tree_second_solve(), big):
        assert instance.tree_shaped
        assert len(solver._root(instance).tables) == 1
        assert solve_branch_and_bound(instance, SolverConfig()).proven


def test_pre_set_cancel_flag_stops_both(fire_instance, monkeypatch):
    """A search cancelled before it starts still sets up its root once,
    and returns the warm start unproven without deciding anything."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _residual_bound(*args)

    monkeypatch.setattr(solver, "_residual_bound", counted)
    cancel = threading.Event()
    cancel.set()
    # Proven at the root with no decisions, so its model is the warm start.
    warm = solve_branch_and_bound(fire_instance, SolverConfig())
    assert solver._closed(solver._root(fire_instance), SolverConfig()) is not None
    for config in (SolverConfig(), SolverConfig(strategy=Strategy.BEST_FIRST)):
        calls.clear()
        sol = _solve(fire_instance, config, cancel)
        assert not sol.proven
        assert sol.stats.cancelled
        assert sol.stats.decisions == 0
        assert sol.assignment == warm.assignment
        assert len(calls) == 1


def test_frontier_limit_raises(monkeypatch):
    monkeypatch.setattr(solver, "FRONTIER_LIMIT", 1)
    cfg = SolverConfig(strategy=Strategy.BEST_FIRST)
    with pytest.raises(FrontierLimitError):
        solve_best_first(build_wcnf(_four_event_dag()), cfg)


def test_branch_costs_grow_along_paths():
    t = small_random_tree(17, max_nodes=25)
    instance = build_wcnf(t)
    root = solver._root(instance)
    prop, table = root.prop.fork(), solver._BoundTable(instance, *root.tables[0])
    order = sorted(instance.var_map.var_of_event.values())
    path_costs = [table.cost]  # cost after each decision on the current path
    decisions = 0

    def descend(depth: int) -> None:
        nonlocal decisions
        var = next((v for v in order if prop.val[v] == 0), None)
        if var is None:
            return
        for value in (False, True):
            decisions += 1
            prop.decide(var, value)
            if prop.propagate():
                table.update(prop)
                assert table.cost >= path_costs[-1]
                path_costs.append(table.cost)
                descend(depth + 1)
                path_costs.pop()
            prop.backtrack(depth)
            table.undo(depth)
            assert table.cost == path_costs[-1]

    descend(0)
    assert decisions > 2, "search must have explored below the root"


def _walk_bound_table(instance, t, blocked=frozenset()) -> None:
    """Exhaustive decide/propagate/backtrack walk that drives the root's
    ``_BoundTable``s beside a fork of its ``Propagator``; after every
    clean propagate and every backtrack each table must equal the full
    pass exactly.  Where the core pass ran, the residual table's cost
    must be its ``lb`` plus the residual weight of the true events, and
    at every clean node its bound must not exceed the least weight of a
    cut set of ``t`` that extends the node's assignment, by brute force."""
    root = solver._root(instance)
    if not root.tables:  # the blocked units conflict: nothing to walk
        return
    prop = root.prop.fork()
    table, *rest = [solver._BoundTable(instance, *pair) for pair in root.tables]
    rtable = rest[0] if rest else None
    # Read only where the core pass ran: its ``lb``, and its root table,
    # where an event's entry is its residual weight.
    lb, residual = root.tables[-1]
    top = instance.var_map.root_var
    events = instance.var_map.var_of_event
    weights = event_weights(t)
    # Cut sets as bitmasks over event variables, with their weights.
    cuts = [(sum(1 << events[e] for e in cut), math.fsum(weights[e] for e in cut))
            for cut in satisfying_event_sets(t) if not blocked or not blocked <= cut]

    def check(clean: bool) -> None:
        assert table.bound == _residual_bound(instance, prop.val, instance.weight)
        if rtable is None:
            return
        assert rtable.bound == _residual_bound(instance, prop.val, residual)
        true = [v for v in events.values() if prop.val[v] > 0]
        assert rtable.cost == pytest.approx(
            math.fsum([lb] + [residual[v] for v in true]), rel=1e-12, abs=1e-12
        )
        if clean:
            on = sum(1 << v for v in true)
            off = sum(1 << v for v in events.values() if prop.val[v] < 0)
            least = min((w for cut, w in cuts if cut & (on | off) == on),
                        default=math.inf)
            lower = rtable.cost + rtable.bound[top]
            assert lower <= least + PRUNE_EPS * max(1.0, least)

    def descend(depth: int) -> None:
        var = next((v for v in order if prop.val[v] == 0), None)
        if var is None:
            return
        for value in (False, True):
            prop.decide(var, value)
            if prop.propagate():
                table.update(prop)
                if rtable is not None:
                    rtable.update(prop)
                check(True)
                descend(depth + 1)
            prop.backtrack(depth)
            table.undo(depth)
            if rtable is not None:
                rtable.undo(depth)
            check(False)

    order = sorted(events.values())
    check(True)
    descend(0)


@pytest.mark.parametrize("shared", [False, True], ids=["tree", "dag"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bound_table_matches_full_pass(shared, data):
    """Also with a blocking clause over several events, which makes a
    tree-shaped (sum at AND) instance search."""
    t = data.draw(strategies.dags() if shared else strategies.fault_trees())
    instance = build_wcnf(t)
    _walk_bound_table(instance, t)
    events = sorted(t.event_ids)
    if len(events) > 1:
        blocked = frozenset(data.draw(st.sets(st.sampled_from(events), min_size=2)))
        _walk_bound_table(add_blocking_clause(instance, blocked), t, blocked)


@pytest.mark.parametrize("shared", [False, True], ids=["tree", "dag"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bound_tables_keep_each_node_cost(shared, data):
    """Random decide, propagate and backtrack sequences, with 0-2 blocked
    sets, drive the root's tables beside a fork of its propagator.  After
    each clean propagate, each table's ``cost + bound[top]`` is its cost
    at the root plus the weight, in its own root entries, of the events
    true since, plus a fresh full pass's bound; after ``undo(level)``
    each cost is the one recorded at that level, bit for bit."""
    t = data.draw(strategies.fault_trees(shared=shared))
    instance = build_wcnf(t)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        blocked = data.draw(st.sets(st.sampled_from(sorted(t.event_ids)), min_size=1))
        instance = add_blocking_clause(instance, frozenset(blocked))
    root = solver._root(instance)
    if not root.tables:  # the blocked units conflict: nothing to walk
        return
    prop = root.prop.fork()
    tables = [solver._BoundTable(instance, *pair) for pair in root.tables]
    top, events = instance.var_map.root_var, instance.var_map.event_of_var
    costs: list[list[float]] = []  # per decision level, the costs before it

    def check() -> None:
        true = [v for v in events if prop.val[v] > 0]
        assert tables[0].cost == pytest.approx(solver._exact_weight(prop.val, instance),
                                               rel=1e-12)
        for table, (cost, entries) in zip(tables, root.tables):
            want = (math.fsum([cost] + [entries[v] for v in true])
                    + _residual_bound(instance, prop.val, entries)[top])
            assert table.cost + table.bound[top] == pytest.approx(want, rel=1e-12)

    check()
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        open_events = [v for v in events if prop.val[v] == 0]
        if open_events and (not costs or data.draw(st.booleans())):
            costs.append([table.cost for table in tables])
            prop.decide(data.draw(st.sampled_from(open_events)), data.draw(st.booleans()))
            if prop.propagate():
                for table in tables:
                    table.update(prop)
                check()
                continue
        if costs:  # after a conflict, or by choice
            level = data.draw(st.integers(min_value=0, max_value=len(costs) - 1))
            prop.backtrack(level)
            for table in tables:
                table.undo(level)
            assert [table.cost for table in tables] == costs[level]
            del costs[level:]


def _assert_cores_match_reference(instance) -> None:
    prop = Propagator(instance)
    if prop.assert_units():
        cost = solver._exact_weight(prop.val, instance)
        assert solver._cores(instance, prop.val, cost, math.inf, math.inf) == reference_cores(
            instance, prop.val, math.inf)


@pytest.mark.parametrize("blocked", [False, True], ids=["free", "blocked"])
@settings(max_examples=60, deadline=None)
@given(t=strategies.dags(), data=st.data())
def test_core_pass_equals_a_full_re_score(blocked, t, data):
    """Settling only the ancestors of each round's path set gives the
    bound, residuals and zero set of re-scoring every gate, bit for bit,
    also with a blocking gate over two or more events."""
    instance = build_wcnf(t)
    events = sorted(t.event_ids)
    if blocked and len(events) > 1:
        chosen = data.draw(st.sets(st.sampled_from(events), min_size=2))
        instance = add_blocking_clause(instance, frozenset(chosen))
    _assert_cores_match_reference(instance)


@pytest.mark.parametrize("nodes, share, seed",
                         [(16, 0.5, 1), (16, 0.5, 14), (16, 1.0, 15), (20, 0.5, 21)])
def test_core_pass_bounds_small_dags(nodes, share, seed):
    """Small DAGs whose root the first table leaves open, so the core
    pass runs: it equals the full re-score, its bound holds at every node
    of an exhaustive walk, and every configuration finds the optimum,
    also with it blocked."""
    t = seeded_dag(nodes, share, seed)
    instance = build_wcnf(t)
    assert len(solver._root(instance).tables) == 2
    _assert_cores_match_reference(instance)
    _assert_strategies_match_oracle(t)
    _walk_bound_table(instance, t)
    best = oracle_mpmcs(t).cut_set
    _assert_strategies_match_oracle(t, best)
    _assert_cores_match_reference(add_blocking_clause(instance, best))
    _walk_bound_table(add_blocking_clause(instance, best), t, best)


def test_core_pass_pins_many_rounds_at_scale():
    """Two DAGs whose core pass runs many rounds: the bound is pinned bit
    for bit, and the second proves at the root."""
    _, (lb, _) = solver._root(build_wcnf(seeded_dag(20000, 0.5, 3))).tables
    assert lb == 49.342680069271715
    root = solver._root(build_wcnf(seeded_dag(50000, 0.5, 1)))
    _, (lb, _) = root.tables
    assert lb == 47.822762350677095
    sol = solver._search(root, SolverConfig(), None)
    assert sol.proven
    assert sol.stats.decisions == 0


def test_seeded_dag_stops_at_the_free_gate_event_pairs():
    """A tree with fewer unlinked gate-event pairs than the extra edges
    asked for gets every one of them, instead of a search for more."""
    for nodes, share, seed in ((3, 0.3, 7), (3, 1.0, 7), (9, 10.0, 2)):
        t = seeded_dag(nodes, share, seed)
        events = set(t.event_ids)
        assert all(events <= set(n.children) for n in t.nodes.values()
                   if isinstance(n, Gate))


def test_stats_are_populated():
    # Trees prove with 0 decisions; this DAG needs a little search.
    sol = solve_branch_and_bound(build_wcnf(_four_event_dag()), SolverConfig())
    assert sol.stats.decisions > 0
    assert sol.stats.propagations > 0
    assert sol.stats.elapsed > 0.0
    assert not sol.stats.cancelled


def _tied_tree_second_solve():
    """``tie_tree(100, 2)`` with its first optimum blocked: the blocking
    clause spans three events, so the warm start is ruled out and the
    tree-shaped bound searches."""
    return add_blocking_clause(build_wcnf(tie_tree(100, 2)), TIES_100_2_FIRST)


@pytest.mark.parametrize(
    "make, bnb_decisions, bnb_propagations, bestfirst_decisions, "
    "bestfirst_propagations",
    [
        (lambda: build_wcnf(_four_event_dag()), 2, 6, 2, 6),
        (lambda: build_wcnf(seeded_dag(200, 0.3, 1)), 0, 11, 0, 11),
        (lambda: build_wcnf(seeded_dag(300, 0.3, 3)), 0, 37, 0, 37),
        (lambda: build_wcnf(seeded_dag(1000, 2.0, 1)), 1110, 1849, 1083, 2165),
        (_tied_tree_second_solve, 94, 99, 105, 230),
    ],
    ids=["four-event", "dag-200-1", "dag-300-3", "dag-1000-2.0-1",
         "ties-100-2-blocked"],
)
def test_search_counts_are_frozen(make, bnb_decisions, bnb_propagations,
                                  bestfirst_decisions, bestfirst_propagations):
    """A change to the search that alters these counts must say so.  The
    core pass proves the first two DAGs at the root; the tied tree is
    tree-shaped, so the pass skips it and its counts stay those of the
    first table alone."""
    instance = make()
    bnb = solve_branch_and_bound(instance, SolverConfig())
    best = solve_best_first(instance, SolverConfig(strategy=Strategy.BEST_FIRST))
    assert bnb.proven and best.proven
    assert bnb.weight == best.weight
    assert (bnb.stats.decisions, bnb.stats.propagations) == (
        bnb_decisions, bnb_propagations
    )
    assert (best.stats.decisions, best.stats.propagations) == (
        bestfirst_decisions, bestfirst_propagations
    )


@pytest.mark.parametrize(
    "make, counts",
    [
        (lambda: build_wcnf(seeded_dag(200, 0.3, 1)),
         {"bnb": (0, 11), "bestfirst": (0, 11)}),
        (lambda: build_wcnf(seeded_dag(1000, 2.0, 1)),
         {"bnb": (1110, 1849), "bestfirst": (1083, 2165)}),
        (_tied_tree_second_solve, {"bnb": (94, 99), "bestfirst": (105, 230)}),
    ],
    ids=["dag-200-1", "dag-1000-2.0-1", "ties-100-2-blocked"],
)
def test_forks_of_one_root_keep_frozen_counts(make, counts):
    """Searches from forks of one root, one after another, and a portfolio
    of one member reproduce the frozen counts for either frontier order:
    a fork changes nothing that another fork reads."""
    instance = make()
    root = solver._root(instance)
    for strategy in (*Strategy, *Strategy):
        sol = solver._search(root, SolverConfig(strategy=strategy), None)
        assert (sol.stats.decisions, sol.stats.propagations) == counts[strategy.value]
    for strategy in Strategy:
        sol = solve_portfolio(instance, [SolverConfig(strategy=strategy)])
        assert sol.proven
        assert (sol.stats.decisions, sol.stats.propagations) == counts[strategy.value]


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_portfolio_best_first_member_proves_small_dags(seed):
    """The portfolio's best-first member prunes and seeds with branch and
    bound's bound table, so it proves the DAGs branch and bound proves."""
    instance = build_wcnf(seeded_dag(200, 0.3, seed))
    sol = solve_best_first(instance, default_portfolio(time_budget=60)[1])
    want = solve_branch_and_bound(instance, SolverConfig())
    assert sol.proven
    assert sol.weight == pytest.approx(want.weight, rel=1e-9, abs=0)


def test_dag_700_is_proven_with_frozen_counts():
    """A DAG that took branch and bound 67,272 decisions on the first
    table alone; the core pass proves it at the root.  The optimum is the
    one an independent MILP (``bench/reference.py``) finds."""
    instance = build_wcnf(seeded_dag(700, 0.1, 1))
    sol = solve_branch_and_bound(instance, SolverConfig(time_budget=600.0))
    assert sol.proven
    assert sol.stats.decisions == 0
    assert sol.weight == pytest.approx(6.15490275856601, rel=1e-9, abs=0)


def test_dag_3000_is_proven_with_frozen_counts():
    """A DAG on which branch and bound still searches for long, on the
    larger of its two bounds: 8,214 decisions.  The weight is the MILP's.
    The budget is generous so that the test pins counts, not speed."""
    instance = build_wcnf(seeded_dag(3000, 1.0, 1))
    sol = solve_branch_and_bound(instance, SolverConfig(time_budget=600.0))
    assert sol.proven
    assert sol.stats.decisions == 8_214
    assert sol.weight == pytest.approx(2.693475001801103, rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# No model left


def _both_cuts_blocked():
    """A tree whose two cut sets are both blocked: its root has no
    conflict, so only an exhausted search proves that no model is left."""
    t = tree({"top": ("or", ["g1", "g2"]), "g1": ("and", ["a", "b"]),
              "g2": ("and", ["a", "c"]), "a": 0.3, "b": 0.4, "c": 0.5}, top="top")
    instance = build_wcnf(t)
    for blocked in ({"a", "b"}, {"a", "c"}):
        instance = add_blocking_clause(instance, frozenset(blocked))
    return instance


# Per path: the instance, the cutoff, and whether the root has tables and is open.
_NO_MODEL_PATHS = {
    # The only event is blocked: the root's units conflict.
    "root-conflict": (lambda: add_blocking_clause(build_wcnf(tree({"e": 0.5}, top="e")),
                                                  frozenset({"e"})), math.inf, False, False),
    # The optimum, 2 ln 2, proves at the root above the cutoff, so the
    # warm start is dropped and the closed root has none.
    "closed-root": (lambda: build_wcnf(tree({"a": 0.5, "b": 0.5, "top": ("and", ["a", "b"])},
                                            top="top")), 1.0, True, False),
    "exhausted-search": (_both_cuts_blocked, math.inf, True, True),
}

_ENTRY_POINTS = {
    "bnb": lambda instance, budget: solve_branch_and_bound(instance, SolverConfig(
        time_budget=budget)),
    "bestfirst": lambda instance, budget: solve_best_first(instance, SolverConfig(
        time_budget=budget)),
    "portfolio": lambda instance, budget: solve_portfolio(instance, default_portfolio(budget)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("path", sorted(_NO_MODEL_PATHS))
def test_no_model_left_is_a_proven_solution(path, entry, monkeypatch):
    """Whichever way a solve proves that no model within its cutoff is
    left, each entry point reports it as it reports an optimum: a proven
    solution, with no assignment, the cutoff's weight and the solve's
    stats; with its budget spent first, the same solution unproven."""
    make, cutoff, tables, open_root = _NO_MODEL_PATHS[path]
    instance, real_root = make(), solver._root
    root = real_root(instance, math.inf, cutoff)
    assert root.warm is None
    assert (bool(root.tables), solver._closed(root, SolverConfig()) is None) == (
        tables, open_root)
    monkeypatch.setattr(solver, "_root", lambda inst, budget: real_root(inst, budget, cutoff))
    sol = _ENTRY_POINTS[entry](instance, 60.0)
    _assert_no_model(sol, instance, cutoff)
    assert (sol.stats.decisions > 0) == open_root
    assert sol.stats.elapsed > 0.0 and not sol.stats.cancelled
    if entry == "portfolio" and open_root:
        assert any(r.proven and r.weight == cutoff for r in sol.workers)
    else:  # no race ran, so nothing reports on one
        assert sol.workers == ()
    spent = _ENTRY_POINTS[entry](instance, 1e-9)
    assert (spent.proven, spent.assignment, spent.weight) == (False, None, cutoff)


# ---------------------------------------------------------------------------
# Portfolio


def test_portfolio_on_fire_tree(fire_instance, fire_weights):
    """The fire tree closes at its root: one outcome, no race to report."""
    sol = solve_portfolio(fire_instance, default_portfolio())
    assert sol.proven and sol.solver_id == "bnb-desc"
    assert sol.workers == ()
    res = extract_mpmcs(sol, fire_instance, fire_weights)
    assert res.cut_set == frozenset({"x1", "x2"})


def test_portfolio_reports_each_member_of_a_race():
    """A race reports once per member, and the winner proved."""
    instance = _tied_tree_second_solve()
    assert solver._closed(solver._root(instance), SolverConfig()) is None
    sol = solve_portfolio(instance, default_portfolio())
    assert sol.proven
    assert [r.solver_id for r in sol.workers] == ["bnb-desc", "bestfirst-asc"]
    winner = [r for r in sol.workers if r.solver_id == sol.solver_id]
    assert winner and winner[0].proven


def test_portfolio_single_config_passthrough(fire_instance):
    cfg = SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT)
    sol = solve_portfolio(fire_instance, [cfg])
    assert sol.proven
    assert sol.solver_id == "bestfirst-asc"
    assert sol.workers == ()  # closed at the root
    sol = solve_portfolio(_tied_tree_second_solve(), [cfg])
    assert sol.proven and sol.solver_id == "bestfirst-asc"
    (report,) = sol.workers
    assert report.proven
    assert report.exit_after_winner is not None
    assert report.within_grace is True


def test_portfolio_rejects_empty_config_list(fire_instance):
    with pytest.raises(ValueError):
        solve_portfolio(fire_instance, [])


def test_portfolio_reports_cancelled_losers():
    """Only a root that leaves a gap is raced, so the race needs one."""
    instance = _tied_tree_second_solve()
    assert solver._closed(solver._root(instance), SolverConfig()) is None
    sol = solve_portfolio(instance, default_portfolio())
    assert sol.proven
    late = [r for r in sol.workers if r.exit_after_winner is not None]
    assert late, "some worker must have exited after the winner"
    for r in late:
        assert r.within_grace
    assert any(r.cancelled for r in sol.workers)


def test_portfolio_proof_of_no_model_cancels_the_race(monkeypatch):
    """A blocked instance whose root is open and which has no model left:
    branch and bound proves so by search, and that proof ends the race.
    The other member stops only when cancelled, and must do so within
    the grace period; its unproven outcome does not win over the proof."""
    instance = _both_cuts_blocked()
    assert solver._closed(solver._root(instance), SolverConfig()) is None
    search, proved, exited = solver._search, [], []

    def racing(root, config, cancel):
        if config.solver_id == "bnb-desc":
            sol = search(root, config, cancel)
            proved.append(time.perf_counter())
            return sol
        deadline = time.perf_counter() + 5.0
        while not cancel.is_set() and time.perf_counter() < deadline:
            time.sleep(0.001)
        exited.append(time.perf_counter())
        return Solution(root.warm, root.warm_w, False, SearchStats(cancelled=cancel.is_set()),
                        config.solver_id)

    monkeypatch.setattr(solver, "_search", racing)
    sol = solve_portfolio(instance, default_portfolio())
    _assert_no_model(sol, instance)
    assert sol.solver_id == "bnb-desc"
    assert [(r.proven, r.cancelled) for r in sol.workers] == [(True, False), (False, True)]
    assert proved and exited
    assert exited[0] - proved[0] <= GRACE_PERIOD


def _refuse(*args, **kwargs):
    raise AssertionError("a solve closed at the root started a race")


@pytest.mark.parametrize(
    "make",
    [lambda: build_wcnf(seeded_dag(200, 0.3, 1)),
     lambda: build_wcnf(random_fault_tree(GeneratorParams(nodes=1000, seed=3)))],
    ids=["dag-200-1", "tree-1000-3"],
)
def test_portfolio_on_a_closed_root_starts_no_thread(make, monkeypatch):
    """A root whose bound reaches the warm start's weight leaves nothing
    to race: the portfolio returns what branch and bound alone returns,
    with no reports, and starts no thread."""
    instance = make()
    assert solver._closed(solver._root(instance), SolverConfig()) is not None
    want = solve_branch_and_bound(instance, SolverConfig())
    monkeypatch.setattr(threading, "Thread", _refuse)
    monkeypatch.setattr(threading, "Event", _refuse)
    sol = solve_portfolio(instance, default_portfolio())
    assert sol.proven and sol.stats.decisions == 0 and not sol.stats.cancelled
    assert (sol.assignment, sol.weight, sol.solver_id) == (
        want.assignment, want.weight, "bnb-desc"
    )
    assert sol.workers == ()


def test_closed_root_reports_the_first_member_whose_budget_holds(fire_instance, monkeypatch):
    """A member out of budget loses a closed root as it loses a race;
    with every budget spent the first member's warm start comes back
    unproven.  Either way the one outcome carries no reports."""
    monkeypatch.setattr(threading, "Thread", _refuse)
    spent, held = SolverConfig(time_budget=1e-9), SolverConfig(Strategy.BEST_FIRST)
    sol = solve_portfolio(fire_instance, [spent, held])
    assert sol.proven and sol.solver_id == "bestfirst-desc"
    assert sol.workers == ()
    sol = solve_portfolio(fire_instance, [spent, spent])
    assert not sol.proven and sol.solver_id == "bnb-desc"
    assert sol.assignment == solver._root(fire_instance).warm
    assert sol.workers == ()


def test_portfolio_all_errors_aggregate(monkeypatch):
    monkeypatch.setattr(solver, "FRONTIER_LIMIT", 1)
    configs = [
        SolverConfig(strategy=Strategy.BEST_FIRST),
        SolverConfig(strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT),
    ]
    with pytest.raises(PortfolioError) as info:
        solve_portfolio(build_wcnf(_four_event_dag()), configs)
    assert len(info.value.errors) == 2


def test_portfolio_forks_hold_under_fast_thread_switching(monkeypatch):
    """Four members, switching threads as often as the interpreter
    allows: each member searches its own fork, so every
    proven member agrees on the weight and the shared root is left as it
    was set up."""
    real_root, roots = solver._root, []

    def kept(*args):
        roots.append(real_root(*args))
        return roots[-1]

    monkeypatch.setattr(solver, "_root", kept)
    instance = build_wcnf(seeded_dag(1000, 2.0, 1))
    want = solve_branch_and_bound(instance, SolverConfig()).weight
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sol = solve_portfolio(instance, ALL_CONFIGS)
    finally:
        sys.setswitchinterval(switch)
    assert sol.proven and sol.weight == want
    assert all(r.weight == want for r in sol.workers if r.proven)
    root, fresh = roots[-1], real_root(instance)
    assert (root.prop.val, root.prop.trail, root.tables) == (
        fresh.prop.val, fresh.prop.trail, fresh.tables
    )


def test_portfolio_survives_one_failing_worker(monkeypatch):
    monkeypatch.setattr(solver, "FRONTIER_LIMIT", 1)
    configs = [
        SolverConfig(strategy=Strategy.BEST_FIRST),
        SolverConfig(),
    ]
    sol = solve_portfolio(build_wcnf(_four_event_dag()), configs)
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


@settings(max_examples=60, deadline=None)
@given(strategies.fault_trees(max_events=7, shared=True), st.data())
def test_extract_matches_greedy_sweep(t, data):
    """Any model that fails the top sweeps to the heaviest-first greedy cut."""
    failing = data.draw(st.sampled_from(sorted(satisfying_event_sets(t), key=sorted)))
    instance = build_wcnf(t)
    weights = event_weights(t)
    sol = Solution(
        assignment=complete_assignment(instance, failing),
        weight=math.fsum(weights[e] for e in failing),
        proven=False,
        stats=SearchStats(),
        solver_id="manual",
    )
    want = set(failing)
    for eid in sorted(failing, key=lambda e: (-weights[e], e)):
        if evaluate(t, {e: True for e in want - {eid}}):
            want.discard(eid)
    assert extract_mpmcs(sol, instance, weights).cut_set == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(strategies.fault_trees(), strategies.dags()), st.data())
def test_complete_assignment_equals_a_full_pass(t, data):
    """Evaluating only the gates above true events gives every gate the
    value a pass over all of them gives, blocking gates included."""
    events = sorted(t.event_ids)
    instance = build_wcnf(t)
    if len(events) > 1 and data.draw(st.booleans()):
        blocked = data.draw(st.sets(st.sampled_from(events), min_size=1))
        instance = add_blocking_clause(instance, frozenset(blocked))
    chosen = data.draw(st.sets(st.sampled_from(events)))
    assert complete_assignment(instance, chosen) == reference_complete_assignment(
        instance, chosen)


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


@settings(max_examples=60, deadline=None)
@given(st.one_of(strategies.fault_trees(max_events=7), strategies.dags(max_events=6)),
       st.data())
def test_blocking_leaves_the_parent_instance_alone(t, data):
    """A blocked instance shares no table its solves could change with the
    instances it extends: along a chain of blocks, each one's gate table,
    parent index and weights stay as they were, the unblocked instance
    still solves to the unblocked optimum, and the last CNF is the
    reference compile's plus one clause per block."""
    events = sorted(t.event_ids)
    chain = [build_wcnf(t)]
    before = [copy.deepcopy((chain[0].ctl, chain[0].kids, chain[0].parents, chain[0].weight))]
    clauses = []
    for _ in range(data.draw(st.integers(1, 4), label="blocks")):
        blocked = data.draw(st.frozensets(st.sampled_from(events), min_size=1))
        child = add_blocking_clause(chain[-1], blocked)
        solve_branch_and_bound(child, SolverConfig())
        var_of = child.var_map.var_of_event
        clauses.append(tuple(-var_of[e] for e in sorted(blocked)))
        chain.append(child)
        before.append(copy.deepcopy((child.ctl, child.kids, child.parents, child.weight)))
    assert [(i.ctl, i.kids, i.parents, i.weight) for i in chain] == before
    sol = solve_branch_and_bound(chain[0], SolverConfig())
    assert sol.proven
    assert sol.weight == pytest.approx(oracle_mpmcs(t).log_weight, rel=1e-9, abs=0)
    want = reference_build_wcnf(t).hard
    assert chain[-1].hard == replace(want, clauses=want.clauses + tuple(clauses))


@settings(max_examples=80, deadline=None)
@given(st.one_of(strategies.fault_trees(), strategies.dags()), st.data())
def test_blocked_instances_share_the_tree_tables(t, data):
    """Along a chain of blocks, each instance's parent index and weights
    equal a fresh derivation from its own gate table and the tree's event
    weights; the entries of the events a block leaves out are the
    instance's own list objects, the blocked events' entries new ones."""
    events = sorted(t.event_ids)
    weights = event_weights(t)
    instance = build_wcnf(t)
    for _ in range(data.draw(st.integers(1, 4), label="blocks")):
        size = data.draw(st.integers(1, min(3, len(events))), label="size")
        blocked = data.draw(st.frozensets(st.sampled_from(events), min_size=size, max_size=size))
        child = add_blocking_clause(instance, blocked)
        parents = [[] for _ in child.kids]
        for g, kids in enumerate(child.kids):
            for c in kids:
                parents[c].append(g)
        weight = [0.0] * len(child.kids)
        for e, v in child.var_map.var_of_event.items():
            weight[v] = weights[e]
        assert child.parents == parents
        assert list(child.weight) == weight
        blocked_vars = {child.var_map.var_of_event[e] for e in blocked}
        assert [entry is child.parents[v] for v, entry in enumerate(instance.parents)] == [
            v not in blocked_vars for v in range(len(instance.parents))
        ]
        instance = child


@pytest.mark.parametrize("events, message", [
    (frozenset(), "empty set"),
    (frozenset({"nope"}), "unknown event 'nope'"),
    (frozenset({"x1", "nope"}), "unknown event 'nope'"),
])
def test_blocking_rejects_sets_it_cannot_block(fire_instance, events, message):
    with pytest.raises(ValueError, match=message):
        add_blocking_clause(fire_instance, events)


def test_enumerate_optima_unique(fire_instance, fire_weights):
    optima = enumerate_optima(fire_instance, fire_weights, default_portfolio())
    assert [sorted(r.cut_set) for r in optima] == [["x1", "x2"]]


def test_enumerate_optima_ties():
    t = tree({"top": ("or", ["a", "b"]), "a": 0.25, "b": 0.25}, top="top")
    instance = build_wcnf(t)
    optima = enumerate_optima(instance, event_weights(t), default_portfolio())
    assert sorted(sorted(r.cut_set) for r in optima) == [["a"], ["b"]]
    assert optima[0].log_weight == optima[1].log_weight


@settings(max_examples=40, deadline=None)
@given(strategies.fault_trees(max_events=7, shared=True), st.data())
def test_enumerate_optima_on_dags_matches_oracle(t, data):
    """Probabilities from a small set make ties; every tied cut is found."""
    probs = {
        eid: data.draw(st.sampled_from((0.1, 0.01, 0.5)), label=eid)
        for eid in t.event_ids
    }
    t = FaultTree(
        name=t.name,
        nodes={
            nid: BasicEvent(nid, probs[nid]) if nid in probs else node
            for nid, node in t.nodes.items()
        },
        top=t.top,
    )
    weights = event_weights(t)
    optima = enumerate_optima(build_wcnf(t), weights, default_portfolio())
    cut_weights = {
        cs.events: math.fsum(weights[e] for e in cs.events) for cs in enumerate_mcs(t)
    }
    best = min(cut_weights.values())
    tol = TIE_REL_TOL * max(1.0, best)
    want = {cut for cut, w in cut_weights.items() if w <= best + tol}
    got = [r.cut_set for r in optima]
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize(
    "nodes, seed, want",
    [(60, 5, ["e1", "e8", "e9", "e10", "e11", "e12", "e26", "e27", "e28", "e29",
              "e30", "e31", "e32", "e33"]),
     (80, 0, ["e2", "e3", "e26", "e27", "e28", "e41"])],
    ids=["ties-60-5", "ties-80-0"],
)
def test_enumerate_optima_order_on_closed_roots(nodes, seed, want, monkeypatch):
    """Every optimum of these tie trees is one event, whose block is a
    unit that keeps the warm start, so every re-solve closes at the root
    and starts no thread.  Each returns the warm start, as the race did:
    the order is the one the portfolio found when it raced every solve."""
    monkeypatch.setattr(threading, "Thread", _refuse)
    t = tie_tree(nodes, seed)
    optima = enumerate_optima(build_wcnf(t), event_weights(t), default_portfolio())
    assert [sorted(r.cut_set) for r in optima] == [[e] for e in want]


def test_enumerate_optima_exhausts_single_event():
    t = tree({"e": 0.5}, top="e")
    instance = build_wcnf(t)
    optima = enumerate_optima(instance, event_weights(t), default_portfolio())
    assert [sorted(r.cut_set) for r in optima] == [["e"]]


@st.composite
def _tied(draw, trees) -> FaultTree:
    """A tree from ``trees`` with every probability drawn from (0.1, 0.01),
    so that many cut sets tie."""
    t = draw(trees)
    return FaultTree(t.name, {
        nid: BasicEvent(nid, draw(st.sampled_from((0.1, 0.01)), label=nid))
        if isinstance(node, BasicEvent) else node
        for nid, node in t.nodes.items()
    }, t.top)


_TIED_INSTANCES = st.one_of(
    st.builds(tie_tree, st.integers(2, 60), st.integers(0, 10**4)),
    _tied(strategies.dags()),
    _tied(st.builds(seeded_dag, st.integers(2, 40), st.sampled_from((0.3, 1.0)),
                    st.integers(0, 10**4))),
)


@settings(max_examples=100, deadline=None)
@given(_TIED_INSTANCES)
def test_enumerate_optima_matches_the_blocking_loop(t):
    """Sub-roots bounded by the tie cutoff, stopping at the first
    optimum's weight, find the optima the plain blocking loop finds: the
    same first one, and the same set, each once.  The rest come in the
    split's order, not the loop's."""
    instance, weights = build_wcnf(t), event_weights(t)
    got = [(r.cut_set, r.log_weight) for r in enumerate_optima(instance, weights,
                                                               [SolverConfig()])]
    want = [(r.cut_set, r.log_weight) for r in reference_enumerate_optima(instance, weights)]
    assert got[0] == want[0]
    assert len(got) == len(want)
    assert set(got) == set(want)


def _root_state(root, n=None):
    """A root's values, tables, warm start, its weight and lower bound,
    over its first ``n`` variables."""
    return (root.prop.val[:n], [(cost, entries[:n]) for cost, entries in root.tables],
            None if root.warm is None else root.warm[:n], root.warm_w, root.lower)


@settings(max_examples=100, deadline=None)
@given(_TIED_INSTANCES, st.data())
def test_root_units_hold_in_warm_starts(t, data):
    """A root with random event units asserted has its warm start hold
    the units; units that conflict leave it with no tables.  With false
    units only, it is the root of the instance with those events
    blocked: values, tables, warm start, its weight and the lower bound."""
    instance = build_wcnf(t)
    events = sorted(instance.var_map.event_of_var)
    chosen = data.draw(st.lists(st.sampled_from(events), unique=True, max_size=6))
    units = tuple(v if data.draw(st.booleans(), label=f"true {v}") else -v for v in chosen)
    sub = solver._root(instance, units=units)
    if not sub.tables:  # the units conflict
        assert sub.warm is None and sub.lower == math.inf
        return
    if sub.warm is not None:
        assert all((sub.warm[abs(u)] > 0) == (u > 0) for u in units)
    if all(u < 0 for u in units):
        blocked = instance
        for u in units:
            blocked = add_blocking_clause(blocked, frozenset({instance.var_map.event_of_var[-u]}))
        assert _root_state(sub) == _root_state(solver._root(blocked), len(instance.ctl))


def _full_pass_root_state(instance, units=()):
    """``_root_state`` of a root set up from scratch: a new propagator
    with the hard units and ``units`` asserted at once, each table from
    a full ``_residual_bound`` pass and each weight from ``_exact_weight``
    over a whole assignment."""
    prop = Propagator(instance)
    if not prop.assert_units(units):
        return prop.val, [], None, math.inf, math.inf
    val, weight, top = prop.val, instance.weight, instance.var_map.root_var
    var_of = instance.var_map.var_of_event
    cost, bound = solver._exact_weight(val, instance), _residual_bound(instance, val, weight)
    held = [instance.var_map.event_of_var[u] for u in units if u > 0]
    warm = complete_assignment(instance, solver._cheapest_events(instance, bound) + held)
    warm = warm if solver._meets_hard(instance, warm) else None
    warm_w = math.inf if warm is None else solver._exact_weight(warm, instance)
    tables = [(cost, bound)]
    target = warm_w - solver._prune_slack(warm_w)
    if not instance.tree_shaped and cost + bound[top] < target:
        lb, residual, zero = solver._cores(instance, val, cost, target, math.inf)
        if zero is not None:
            cut = solver._sweep(instance, complete_assignment(instance, zero),
                                lambda e: weight[var_of[e]])
            swept = complete_assignment(instance, [*cut, *held])
            swept_w = solver._exact_weight(swept, instance)
            if solver._meets_hard(instance, swept) and swept_w < warm_w:
                warm, warm_w = swept, swept_w
        tables.append((lb, _residual_bound(instance, val, residual)))
    return val, tables, warm, warm_w, max(c + entries[top] for c, entries in tables)


@settings(max_examples=100, deadline=None)
@given(_TIED_INSTANCES, st.data())
def test_roots_from_one_base_equal_full_passes(t, data):
    """Roots with random event units, each its instance's one base plus
    its units, equal roots set up from scratch bit for bit: values,
    tables, warm start, its weight and the lower bound.  Their weights'
    tables are full passes over their own values, and the base is left
    as it was set up."""
    instance = build_wcnf(t)
    events = sorted(instance.var_map.event_of_var)
    base = solver._base(instance)
    before = (base.prop.val[:], base.prop.trail[:], base.bound[:])
    for k in range(3):
        chosen = data.draw(st.lists(st.sampled_from(events), unique=True, max_size=6))
        units = tuple(v if data.draw(st.booleans(), label=f"{k}: true {v}") else -v
                      for v in chosen)
        root = solver._root(instance, units=units, base=base)
        got, want = _root_state(root), _full_pass_root_state(instance, units)
        if not root.tables:  # the units conflict, leaving values half propagated
            got, want = got[1:], want[1:]
        assert got == want
        if root.tables:
            val = root.prop.val
            assert root.tables[0] == (solver._exact_weight(val, instance),
                                      _residual_bound(instance, val, instance.weight))
        if root.warm is not None:
            assert root.warm_w == solver._exact_weight(root.warm, instance)
    assert (base.prop.val, base.prop.trail, base.bound) == before


@pytest.mark.parametrize("make", [
    *(lambda n=n, s=s, k=k: seeded_dag(n, s, k)
      for n, s, k in ((300, 0.1, 1), (300, 0.3, 1), (500, 0.2, 1), (700, 0.3, 4))),
    *(lambda n=n, k=k: random_fault_tree(GeneratorParams(nodes=n, seed=k))
      for n, k in ((10_000, 0), (20_000, 1))),
], ids=["dag-300-0.1-1", "dag-300-0.3-1", "dag-500-0.2-1", "dag-700-0.3-4",
        "tree-10000-0", "tree-20000-1"])
def test_roots_with_no_units_equal_full_passes(make):
    """Benchmark catalogue shapes: a root with no units shares its base
    and equals a root set up from scratch bit for bit."""
    instance = build_wcnf(make())
    root = solver._root(instance)
    assert root.prop is root.base.prop and root.tables[0][1] is root.base.bound
    assert _root_state(root) == _full_pass_root_state(instance)


def test_sub_root_warm_start_holds_a_unit_the_walk_skips():
    """With b true, the cheapest way to the top is still a, so the walk
    over the table skips b, whose entry is 0; the warm start holds it."""
    t = tree({"top": ("or", ["a", "g"]), "g": ("and", ["b", "c"]),
              "a": 0.5, "b": 0.9, "c": 0.1}, top="top")
    instance, weights = build_wcnf(t), event_weights(t)
    b = instance.var_map.var_of_event["b"]
    sub = solver._root(instance, units=(b,))
    assert solver._cheapest_events(instance, sub.tables[0][1]) == ["a"]
    assert {e for e, v in instance.var_map.var_of_event.items() if sub.warm[v] > 0} == {"a", "b"}
    assert sub.warm_w == math.fsum([weights["a"], weights["b"]]) == sub.lower


def test_swept_warm_start_holds_the_true_unit():
    """On this shared-node DAG the core pass runs with e2, e5 or e6 true,
    and its swept set, lighter than the walk, leaves the unit out: the
    swept warm start must hold it too."""
    instance = build_wcnf(seeded_dag(12, 0.3, 5))
    for e in ("e2", "e5", "e6"):
        v = instance.var_map.var_of_event[e]
        root = solver._root(instance, units=(v,))
        assert len(root.tables) == 2, e
        assert root.warm[v] > 0, e


@pytest.mark.parametrize("nodes, seed, optima, decisions, blocking_decisions", [
    (60, 1, 80, 0, 24_274),
    (100, 2, 3, 0, 410),
], ids=["ties-60-1", "ties-100-2"])
def test_enumerate_optima_decisions_are_frozen(nodes, seed, optima, decisions,
                                               blocking_decisions, monkeypatch):
    """Branch and bound's decisions over a whole enumeration, against the
    plain blocking loop's: a change to either must say so.  These tie
    trees have optima of several events; on a tree the weights' table is
    exact, so every sub-root closes at its root and the portfolio starts
    no thread."""
    counted = []
    search = solver._search

    def counting(*args, **kwargs):
        sol = search(*args, **kwargs)
        counted.append(sol.stats.decisions)
        return sol

    monkeypatch.setattr(solver, "_search", counting)
    t = tie_tree(nodes, seed)
    instance, weights = build_wcnf(t), event_weights(t)
    thread = threading.Thread
    monkeypatch.setattr(threading, "Thread", _refuse)
    got = enumerate_optima(instance, weights, default_portfolio())
    monkeypatch.setattr(threading, "Thread", thread)
    assert len(got) == optima
    assert any(len(r.cut_set) > 1 for r in got)
    assert sum(counted) == decisions
    counted.clear()
    assert len(reference_enumerate_optima(instance, weights)) == optima
    assert sum(counted) == blocking_decisions


def test_compute_mpmcs_end_to_end(fire_tree):
    res = compute_mpmcs(fire_tree)
    assert res.cut_set == frozenset({"x1", "x2"})
    assert res.probability == pytest.approx(0.02, abs=1e-6)


def _wide_gate(op: GateOp, fan_in: int) -> FaultTree:
    nodes = {f"e{i}": BasicEvent(f"e{i}", 0.5) for i in range(fan_in)}
    nodes["top"] = Gate("top", op, tuple(nodes))
    return FaultTree(name="wide", nodes=nodes, top="top")


@pytest.mark.parametrize("op, cut_size", [(GateOp.AND, 10_000), (GateOp.OR, 1)],
                         ids=["and", "or"])
def test_compute_mpmcs_on_a_gate_of_fan_in_10k(op, cut_size):
    """The extraction sweep walks only the gates a trial drop turns
    false; rescanning the live gates on every trial took 22.8 s CPU on
    the AND gate."""
    start = time.process_time()
    res = compute_mpmcs(_wide_gate(op, 10_000))
    assert len(res.cut_set) == cut_size
    assert time.process_time() - start < 5.0


def test_compute_mpmcs_on_a_chain_of_100k_gates():
    """Alternating AND/OR gates, each over the gate below and one event:
    no layer may recurse along the chain or walk it once per gate."""
    nodes = {"e0": BasicEvent("e0", 0.5)}
    below = "e0"
    for i in range(1, 100_001):
        nodes[f"e{i}"] = BasicEvent(f"e{i}", 0.5)
        op = GateOp.AND if i % 2 else GateOp.OR
        nodes[f"g{i}"] = Gate(f"g{i}", op, (below, f"e{i}"))
        below = f"g{i}"
    res = compute_mpmcs(FaultTree(name="chain", nodes=nodes, top=below))
    assert res.cut_set == frozenset({"e100000"})  # the top is an OR


def _chain(gates: int, alternate: bool) -> FaultTree:
    """Gates each over the gate below and one event: AND gates over events
    of probability 0.99 and, with ``alternate``, every second gate an OR
    over an event of probability 1e-300, so the optimum runs down the
    whole chain."""
    nodes = {"e0": BasicEvent("e0", 0.99)}
    below = "e0"
    for i in range(1, gates + 1):
        is_or = alternate and i % 2 == 0
        nodes[f"e{i}"] = BasicEvent(f"e{i}", 1e-300 if is_or else 0.99)
        nodes[f"g{i}"] = Gate(f"g{i}", GateOp.OR if is_or else GateOp.AND,
                              (below, f"e{i}"))
        below = f"g{i}"
    return FaultTree(name="chain", nodes=nodes, top=below)


@pytest.mark.parametrize("alternate", [False, True], ids=["and", "and-or"])
def test_extract_is_linear_on_a_chain_of_20k_gates(alternate):
    """Every member of the cut is critical, so the sweep tries none: a
    sweep that tried each one walked to the root and back, 11.9 s CPU on
    an AND chain of 8,000 gates."""
    t = _chain(20_000, alternate)
    instance = build_wcnf(t)
    sol = solve_branch_and_bound(instance, SolverConfig())
    start = time.process_time()
    res = extract_mpmcs(sol, instance, event_weights(t))
    assert time.process_time() - start < 2.0
    step = 2 if alternate else 1
    assert res.cut_set == {"e0"} | {f"e{i}" for i in range(1, 20_001, step)}


def test_compute_mpmcs_timeout():
    t = random_fault_tree(GeneratorParams(nodes=1000, seed=3))
    with pytest.raises(TimeoutError):
        compute_mpmcs(t, default_portfolio(time_budget=1e-6))


def test_config_validation():
    """NaN is rejected too: no deadline test against it would fire."""
    for budget in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="budget"):
            SolverConfig(time_budget=budget)
    assert SolverConfig(time_budget=math.inf).time_budget == math.inf


def test_solver_ids():
    assert SolverConfig().solver_id == "bnb-desc"
    assert SolverConfig(
        strategy=Strategy.BEST_FIRST, var_order=VarOrder.ASCENDING_WEIGHT
    ).solver_id == "bestfirst-asc"


@pytest.mark.parametrize("entry", ["bnb", "bestfirst", "portfolio"])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.solver_id)
def test_solution_label_names_the_order_that_ran(config, entry, monkeypatch):
    """In the solver, only best first pushes onto a heap, which shows the
    order that searched the four-event DAG's open root: the entry point's
    own, or the member's strategy in a portfolio.  ``solver_id`` names
    that order and the configuration's variable order."""
    pushes = []
    monkeypatch.setattr(solver, "heapq", SimpleNamespace(
        heappush=lambda *args: pushes.append(1) or heapq.heappush(*args),
        heappop=heapq.heappop))
    solve = {"bnb": solve_branch_and_bound, "bestfirst": solve_best_first,
             "portfolio": lambda instance, cfg: solve_portfolio(instance, [cfg])}[entry]
    sol = solve(build_wcnf(_four_event_dag()), config)
    assert sol.proven and sol.stats.decisions > 0
    ran = "bestfirst" if pushes else "bnb"
    assert ran == (config.strategy.value if entry == "portfolio" else entry)
    assert sol.solver_id == f"{ran}-{config.var_order.value}"
