"""Exact weighted partial MaxSAT solving for fault-tree instances.

One branch-and-bound search over event variables serves two
complementary strategies.  Both share the propagation engine, the
lower bounds, the warm-start incumbent and the prune test; they differ
only in the order in which open nodes leave the frontier:

* branch and bound: depth first, preferred value (event absent) first;
* best first: least cost plus lower bound first (A*), so the incumbent
  is proven once no open node's bound can beat it.

Every solve sets up its root once: its instance's base (the hard units
propagated and the root bound table) plus its event units, the warm
start and, on shared-node instances whose root that table leaves open,
the core pass's bound, table and warm start (see ``circuit``).  A root
whose bound reaches the warm start's weight is proven there, with no
search and no thread.  Otherwise a portfolio races several
configurations, each from its own fork of that one root; the first
proven-optimal finisher wins and the rest are cancelled cooperatively
through a flag they poll at every decision.

Weight bookkeeping: search-time costs accumulate incrementally, but any
weight that leaves this module is recomputed with ``math.fsum`` over the
cut set's weights.  ``fsum`` rounds the exact sum once, so equal sets
report bit-identical totals in whatever order the terms come and
whichever strategy produced them.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, count
from typing import NamedTuple, Optional, Sequence

from .circuit import (Propagator, _BoundTable, _cheapest_events, _cores, _exact_weight,
                      _meets_hard, _residual_bound, _sweep, complete_assignment)
from .encoding import WcnfInstance, WeightMap, build_wcnf, event_weights, joint_probability
from .fault_tree import FaultTree

PRUNE_EPS = 1e-12
# Seconds a losing portfolio worker may take to stop once a winner reports.
GRACE_PERIOD = 0.1
# Best-first frontier size beyond which the search gives up (memory guard).
FRONTIER_LIMIT = 500_000
# Relative weight difference within which two optima count as tied.
TIE_REL_TOL = 1e-9


class FrontierLimitError(RuntimeError):
    """Best-first frontier outgrew ``FRONTIER_LIMIT`` states."""


class InconsistencyError(RuntimeError):
    """A produced result failed its own consistency checks: solver bug."""


class OptimaTimeoutError(TimeoutError):
    """A solve ran out of budget; carries the optima proven before it and,
    when the first solve ran out, its best cut set so far (``incumbent``,
    unproven, None when there is none)."""

    def __init__(self, optima: Sequence["MpmcsResult"],
                 incumbent: Optional["MpmcsResult"] = None):
        super().__init__(
            f"budget exhausted after {len(optima)} proven optima; more may exist"
        )
        self.optima = list(optima)
        self.incumbent = incumbent


class PortfolioError(RuntimeError):
    """Every portfolio worker failed; carries the per-worker errors."""

    def __init__(self, errors: Sequence[BaseException]):
        super().__init__("; ".join(f"{e.__class__.__name__}: {e}" for e in errors))
        self.errors = tuple(errors)


class Strategy(Enum):
    BRANCH_AND_BOUND = "bnb"
    BEST_FIRST = "bestfirst"


class VarOrder(Enum):
    DESCENDING_WEIGHT = "desc"
    ASCENDING_WEIGHT = "asc"


@dataclass(frozen=True)
class SolverConfig:
    strategy: Strategy = Strategy.BRANCH_AND_BOUND
    var_order: VarOrder = VarOrder.DESCENDING_WEIGHT
    time_budget: float = 60.0

    def __post_init__(self):
        if not self.time_budget > 0:  # NaN too: no deadline test would fire
            raise ValueError(f"time budget must be positive, not {self.time_budget!r}")

    @property
    def solver_id(self) -> str:
        return f"{self.strategy.value}-{self.var_order.value}"


def default_portfolio(time_budget: float = 60.0) -> list[SolverConfig]:
    """Two deliberately different configurations, per strategy diversity."""
    return [
        SolverConfig(Strategy.BRANCH_AND_BOUND, VarOrder.DESCENDING_WEIGHT, time_budget),
        SolverConfig(Strategy.BEST_FIRST, VarOrder.ASCENDING_WEIGHT, time_budget),
    ]


@dataclass(frozen=True)
class SearchStats:
    decisions: int = 0
    propagations: int = 0
    elapsed: float = 0.0
    cancelled: bool = False


@dataclass(frozen=True)
class WorkerReport:
    solver_id: str
    proven: bool
    weight: float
    elapsed: float
    cancelled: bool
    error: Optional[str] = None
    # Seconds between the winner being declared and this worker exiting;
    # None when there was no winner to wait on.
    exit_after_winner: Optional[float] = None
    # Whether that exit landed inside the portfolio's grace period.
    within_grace: Optional[bool] = None


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: a model over all circuit variables plus bookkeeping.

    ``assignment`` maps variable index to +1/-1 (index 0 unused).
    ``weight`` is the falsified-soft total, recomputed exactly from the
    assignment.  The assignment is None when the solve found no model:
    proven, no model within the cutoff is left (only the cutoff, blocking
    gates or an enumeration sub-root's event units can rule every model
    out), and ``weight`` is that cutoff, inf when there is none;
    unproven, a budget ran out before any incumbent existed.
    ``workers`` holds one report per member of a portfolio race, and is
    empty when no race ran (a single strategy, or a closed root).
    """

    assignment: Optional[tuple[int, ...]]
    weight: float
    proven: bool
    stats: SearchStats
    solver_id: str
    workers: tuple[WorkerReport, ...] = ()


@dataclass(frozen=True)
class MpmcsResult:
    cut_set: frozenset[str]
    log_weight: float
    probability: float
    solver_id: str
    elapsed: float


# ---------------------------------------------------------------------------
# Search


def _prune_slack(incumbent: float) -> float:
    # Relative, so float noise in large accumulated sums cannot keep
    # provably-dead branches alive, while an incumbent smaller than
    # PRUNE_EPS itself still leaves a non-negative threshold.
    if incumbent == math.inf:
        return PRUNE_EPS
    return PRUNE_EPS * abs(incumbent)


class _Base(NamedTuple):
    """An instance's root with no event units, shared by its roots: the
    hard units propagated and the weights' table from the one full
    ``_residual_bound`` pass (None when the hard units conflict)."""

    prop: Propagator
    bound: Optional[list[float]]


def _base(instance: WcnfInstance) -> _Base:
    prop = Propagator(instance)
    ok = prop.assert_units()
    return _Base(prop, _residual_bound(instance, prop.val, instance.weight) if ok else None)


@dataclass(frozen=True)
class _Root:
    """A solve's starting state: its base (``_Base``) plus its event
    units, set up once and shared by its searches, which fork ``prop``
    and change nothing here.  Each of ``tables`` is a ``(cost, entries)``
    pair from which a search starts a ``_BoundTable``: the weights'
    table, and the core pass's residual table when it ran.  Budgets and
    ``SearchStats.elapsed`` count from ``start``."""

    instance: WcnfInstance
    prop: Propagator  # root, blocking gates and units asserted and propagated
    tables: tuple[tuple[float, list[float]], ...]
    warm: Optional[tuple[int, ...]]  # the warm start, unless blocked or too heavy
    warm_w: float  # its weight, else the cutoff (inf when there is none)
    start: float
    lower: float  # the root's lower bound, as ``_search`` bounds a node
    floor: float  # known to bound every model from below: one this light is optimal
    base: _Base  # what the root was set up from, to set up its instance's next roots


def _root(instance: WcnfInstance, time_budget: float = math.inf,
          cutoff: float = math.inf, floor: float = -math.inf,
          units: Sequence[int] = (), base: Optional[_Base] = None) -> _Root:
    """Set up a solve: ``base`` (built here when None) plus the event
    ``units`` (signed variables), so that the solve covers only the
    models that hold them.  The units are asserted on a fork of the
    base's propagator, and a copy of its weights' table is brought up to
    date from the new trail entries alone, as ``_BoundTable.update``
    does; with no units the root shares both.  The table's cost, and a
    warm start's weight, is the ``fsum`` of the weights of its true events.

    Walk the table to a warm start, optimal on trees, so those prove
    with no decisions (and their table, exact, is never weaker than the
    core pass's bound).  Under sharing, while the root is open, the core
    pass adds a second table, whose cost is the pass's ``lb``, and a
    second warm start, its zero-residual events swept to a minimal cut
    set.  Both warm starts hold the true units, which the walk and the
    sweep can skip.  The budget stops only the core pass, so a search
    out of time still returns a warm start; a pass cut short makes no
    second one.

    Only a model no heavier than ``cutoff`` is wanted: a heavier warm
    start is dropped, and the cutoff stands as the incumbent's weight.
    ``floor`` is a lower bound on every model's weight known from
    elsewhere (see ``enumerate_optima``)."""
    start = time.perf_counter()
    if base is None:
        base = _base(instance)
    prop, bound = base
    if units and bound is not None:
        prop = prop.fork()
        mark = len(prop.trail)
        if prop.assert_units(units):
            table = _BoundTable(instance, 0.0, bound)
            table.assign(prop.trail[mark:], prop.val)
            bound = table.bound
        else:
            bound = None
    if bound is None:  # the units conflict: no model at all
        return _Root(instance, prop, (), None, cutoff, start, math.inf, floor, base)
    weight, top = instance.weight, instance.var_map.root_var
    var_of = instance.var_map.var_of_event

    def weight_of(event: str) -> float:
        return weight[var_of[event]]

    cost = math.fsum(weight[v] for v in prop.trail if v > 0)
    held = {instance.var_map.event_of_var[u] for u in units if u > 0}
    walked = held.union(_cheapest_events(instance, bound))
    warm = complete_assignment(instance, walked)
    # Blocking gates over several events can rule the walked set out.
    ok = _meets_hard(instance, warm)
    warm, warm_w = (warm, math.fsum(map(weight_of, walked))) if ok else (None, math.inf)
    if warm_w > cutoff:
        warm, warm_w = None, cutoff
    target = warm_w - _prune_slack(warm_w)
    tables = [(cost, bound)]
    if not instance.tree_shaped and cost + bound[top] < target:
        lb, residual, zero = _cores(instance, prop.val, cost, target, start + time_budget)
        if zero is not None:
            cut = held | _sweep(instance, complete_assignment(instance, zero), weight_of)
            swept = complete_assignment(instance, cut)
            swept_w = math.fsum(map(weight_of, cut))
            if _meets_hard(instance, swept) and swept_w < warm_w:
                warm, warm_w = swept, swept_w
        tables.append((lb, _residual_bound(instance, prop.val, residual)))
    lower = max(c + entries[top] for c, entries in tables)
    return _Root(instance, prop, tuple(tables), warm, warm_w, start, lower, floor, base)


def _closed(root: _Root, config: SolverConfig,
            cancel: Optional[threading.Event] = None) -> Optional[Solution]:
    """What ``_search`` returns when the root's bound reaches the warm
    start's weight, or the warm start reaches the floor: the warm start,
    unproven once cancelled or out of budget, else proven (no warm start:
    no model within the cutoff is left); None if open."""
    if root.lower < root.warm_w - _prune_slack(root.warm_w) and root.warm_w > root.floor:
        return None
    cancelled = cancel is not None and cancel.is_set()
    now = time.perf_counter()
    proven = not cancelled and now <= root.start + config.time_budget
    stats = SearchStats(0, root.prop.propagations, now - root.start, cancelled)
    return Solution(root.warm, root.warm_w, proven, stats, config.solver_id)


def _search(root: _Root, config: SolverConfig, cancel: Optional[threading.Event]) -> Solution:
    """Branch and bound over event variables from a fork of ``root``;
    ``config.strategy`` chooses only the order in which open nodes leave
    the frontier.  Only a root that leaves a gap (see ``_closed``) is forked.

    The incumbent starts as the root's warm start, or as the cutoff's
    weight with no model, and a model that reaches the root's floor ends
    the search proven.  A node is pruned when
    its bound cannot beat the incumbent: the largest ``cost + bound[top]``
    over the root's tables, each a ``_BoundTable`` kept current along the
    trail (see there).  A node branches on the next open event in the
    branching order, sorted once by weight, after its own; gate
    propagation forces the gates once the events settle.

    A node is one decision with a parent link, ``(parent, depth,
    position in order, value)``; the root is None.  Depth first, the
    frontier is a stack that yields the preferred value first, so every
    move is one chronological backtrack.  Best first, it is a heap keyed
    by the parent's cost plus bound, a lower bound on every completion
    below the node, so the incumbent is proven once the least key cannot
    beat it.  Exhausting the frontier also proves it, a proof that no
    model is left when there is no incumbent; running out of budget or
    being cancelled, even before deciding, returns the incumbent unproven.
    """
    if (closed := _closed(root, config, cancel)) is not None:
        return closed
    instance = root.instance
    deadline = root.start + config.time_budget
    prop = root.prop.fork()
    tables = [_BoundTable(instance, cost, entries) for cost, entries in root.tables]
    var_of = instance.var_map.var_of_event
    # Stable, so equal weights keep event-id order.
    order = sorted(map(var_of.__getitem__, sorted(var_of)), key=instance.weight.__getitem__,
                   reverse=config.var_order is VarOrder.DESCENDING_WEIGHT)
    top = instance.var_map.root_var
    best_first = config.strategy is Strategy.BEST_FIRST
    decisions = 0

    incumbent, incumbent_w = root.warm, root.warm_w
    node: Optional[tuple] = None
    path: list[tuple] = []  # the nodes on the trail, one per decision level
    frontier: list = []
    tie = count()
    proven = False
    lower, expand = root.lower, True  # ``_closed`` found the root open
    while True:
        if expand:
            # Every event before this node's was set when it decided.
            pos = node[2] + 1 if node else 0
            while pos < len(order) and prop.val[order[pos]] != 0:
                pos += 1
            if pos == len(order):
                # complete model: all aux were forced by propagation
                w = _exact_weight(prop.val, instance)
                if w < incumbent_w:
                    incumbent = tuple(prop.val)
                    incumbent_w = w
            elif best_first:
                for value in (False, True):
                    child = (node, len(path) + 1, pos, value)
                    heapq.heappush(frontier, (lower, next(tie), child))
                if len(frontier) > FRONTIER_LIMIT:
                    raise FrontierLimitError(
                        f"frontier exceeded {FRONTIER_LIMIT} states"
                    )
            else:
                # Preferred value last, so it comes off first.  The stack
                # holds at most two nodes per level, so needs no limit.
                frontier.append((node, len(path) + 1, pos, True))
                frontier.append((node, len(path) + 1, pos, False))

        cancelled = cancel is not None and cancel.is_set()
        if cancelled or time.perf_counter() > deadline:
            break
        if not frontier or incumbent_w <= root.floor or best_first and (
            frontier[0][0] >= incumbent_w - _prune_slack(incumbent_w)
        ):
            proven = True
            break
        node = heapq.heappop(frontier)[2] if best_first else frontier.pop()
        # Back up to the deepest ancestor still on the trail (depth first,
        # the parent) and decide the nodes below it.  Replayed ancestors
        # propagated cleanly from this same root when they were expanded,
        # so only the node's own decision can conflict.
        steps = [node]
        while (up := steps[-1][0]) is not None and (
            up[1] > len(path) or path[up[1] - 1] is not up
        ):
            steps.append(up)
        level = steps[-1][1] - 1
        prop.backtrack(level)
        for t in tables:
            t.undo(level)
        del path[level:]
        for step in reversed(steps):
            prop.decide(order[step[2]], step[3])
            clean = prop.propagate()
            if clean:
                for t in tables:
                    t.update(prop)
                path.append(step)
        decisions += 1
        lower = max(t.cost + t.bound[top] for t in tables) if clean else math.inf
        expand = lower < incumbent_w - _prune_slack(incumbent_w)

    elapsed = time.perf_counter() - root.start
    return Solution(
        assignment=incumbent,
        weight=incumbent_w,
        proven=proven,
        stats=SearchStats(decisions, prop.propagations, elapsed, cancelled),
        solver_id=config.solver_id,
    )


def solve_branch_and_bound(instance: WcnfInstance, config: SolverConfig,
                           cancel: Optional[threading.Event] = None) -> Solution:
    """Depth-first branch and bound (see ``_search``), whatever
    ``config.strategy`` says; the solution's ``solver_id`` names this order."""
    config = replace(config, strategy=Strategy.BRANCH_AND_BOUND)
    return _search(_root(instance, config.time_budget), config, cancel)


def solve_best_first(instance: WcnfInstance, config: SolverConfig,
                     cancel: Optional[threading.Event] = None) -> Solution:
    """Best-first branch and bound (see ``_search``): A* order over the
    same nodes, bound and pruning, whatever ``config.strategy`` says; the
    solution's ``solver_id`` names this order."""
    config = replace(config, strategy=Strategy.BEST_FIRST)
    return _search(_root(instance, config.time_budget), config, cancel)


# ---------------------------------------------------------------------------
# Portfolio


def solve_portfolio(instance: WcnfInstance, configs: Sequence[SolverConfig]) -> Solution:
    """Race all configurations on the root's gap; first proof wins.

    The root is set up once: the instance's base, with no units.  A
    root that ``_closed`` settles leaves nothing to race: no thread
    starts, and it returns one outcome with empty ``workers`` (see
    ``_race``).  Otherwise each worker searches its own fork of the root
    in its ``config.strategy``'s order (see ``_search``), polling a
    cancellation flag at every decision, so losers stop within a small
    grace period once a winner proves; each reports in ``workers``.  A
    proof is a proven solution, one with no model included (none is
    left).  If nobody proves anything in budget, the best incumbent is
    returned unproven.  A member that raises has failed; if every member
    fails, the portfolio raises, aggregating the errors.
    """
    return _race(_root(instance, _budget(configs)), configs)


def _budget(configs: Sequence[SolverConfig]) -> float:
    """The largest member budget: the members share one root."""
    if not configs:
        raise ValueError("portfolio needs at least one configuration")
    return max(cfg.time_budget for cfg in configs)


def _race(root: _Root, configs: Sequence[SolverConfig]) -> Solution:
    """``solve_portfolio`` from a root already set up.  A root that
    ``_closed`` settles returns one outcome, with no reports: that of the
    first member whose budget holds, else the first member's, unproven."""
    first = _closed(root, configs[0])
    if first is not None:
        rest = (_closed(root, cfg) for cfg in configs[1:])
        return next((out for out in chain((first,), rest) if out.proven), first)
    # Per worker: its Solution or the exception it raised, and its exit time.
    records: list = [None] * len(configs)
    cancel = threading.Event()

    def work(i: int, cfg: SolverConfig) -> None:
        try:
            outcome = _search(root, cfg, cancel)
            if outcome.proven:
                cancel.set()
        except BaseException as exc:  # reported, not swallowed
            outcome = exc
        records[i] = (outcome, time.perf_counter())

    threads = [threading.Thread(target=work, args=(i, cfg), daemon=True)
               for i, cfg in enumerate(configs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    solved = [out for out, _ in records if isinstance(out, Solution)]
    if not solved:
        raise PortfolioError([out for out, _ in records])

    # The winner is the first worker to exit with a proof.
    won = min((t for out, t in records if isinstance(out, Solution) and out.proven),
              default=None)
    reports = []
    for cfg, (out, exited) in zip(configs, records):
        after = None if won is None else max(0.0, exited - won)
        inside = None if after is None else after <= GRACE_PERIOD
        summary = ((out.proven, out.weight, out.stats.elapsed, out.stats.cancelled, None)
                   if isinstance(out, Solution) else (False, math.inf, 0.0, False, str(out)))
        reports.append(WorkerReport(cfg.solver_id, *summary, exit_after_winner=after,
                                    within_grace=inside))

    # Proven first, then lightest; ties keep configuration order.
    best = min(solved, key=lambda s: (not s.proven, s.weight))
    return replace(best, workers=tuple(reports))


# ---------------------------------------------------------------------------
# Result extraction


def extract_mpmcs(solution: Solution, instance: WcnfInstance,
                  weights: WeightMap) -> MpmcsResult:
    """Read the cut set off a solution and certify it.

    The set-minimality sweep tries to drop members heaviest-first.  It
    trims unproven incumbents, and proven solutions too: the search's
    relative prune slack cannot tell apart two models whose weights
    differ by less than ``PRUNE_EPS`` times the incumbent, so an optimal
    solution may carry a redundant member lighter than that, such as an
    event whose probability is that close to 1.

    The model must be the circuit's evaluation of its own events, with
    the root true and every blocking gate false; ``_sweep`` drops the
    members.
    """
    if solution.assignment is None:
        raise ValueError("solution carries no model to extract from")
    val = solution.assignment
    var_of_event = instance.var_map.var_of_event
    cut = {eid for eid, var in var_of_event.items() if val[var] > 0}
    if val != complete_assignment(instance, cut) or not _meets_hard(instance, val):
        raise InconsistencyError("solution is not a model of the hard constraints")
    cut = _sweep(instance, val, weights.__getitem__)
    if complete_assignment(instance, cut)[instance.var_map.root_var] <= 0:
        raise InconsistencyError("extracted cut set does not fail the top event")
    ws = [weights[e] for e in cut]
    log_weight = math.fsum(ws)
    return MpmcsResult(
        cut_set=frozenset(cut),
        log_weight=log_weight,
        probability=joint_probability(ws),
        solver_id=solution.solver_id,
        elapsed=solution.stats.elapsed,
    )


def add_blocking_clause(instance: WcnfInstance, events: frozenset[str]) -> WcnfInstance:
    """Forbid this exact cut set (and its supersets) in later solves: the
    circuit gains a blocking gate, an AND over ``events``.  The result
    shares ``instance``'s tables and changes none of its lists: only the
    blocked events get new parent lists, which end in the gate."""
    if not events:
        raise ValueError("cannot block the empty set")
    var_of = instance.var_map.var_of_event
    if not events <= var_of.keys():
        raise ValueError(f"cannot block unknown event {min(events - var_of.keys())!r}")
    kids = tuple(var_of[e] for e in sorted(events))
    gate, parents = len(instance.kids), instance.parents + [[]]
    for c in kids:
        parents[c] = parents[c] + [gate]
    return replace(instance, ctl=instance.ctl + (-1,), kids=instance.kids + (kids,),
                   weight=instance.weight + (0.0,), parents=parents,
                   blocking=instance.blocking + 1)


def compute_mpmcs(tree: FaultTree,
                  configs: Optional[Sequence[SolverConfig]] = None) -> MpmcsResult:
    """Encode ``tree``, run the portfolio, and extract the certified result.

    Raises ``TimeoutError`` if no configuration proved optimality within
    its budget; partial incumbents are deliberately not promoted to
    results here (callers wanting them should drive the solvers
    directly).
    """
    instance = build_wcnf(tree)
    weights = event_weights(tree)
    if configs is None:
        configs = default_portfolio()
    solution = solve_portfolio(instance, configs)
    if not solution.proven:
        raise TimeoutError("no strategy proved optimality within its budget")
    return extract_mpmcs(solution, instance, weights)


def enumerate_optima(instance: WcnfInstance, weights: WeightMap,
                     configs: Sequence[SolverConfig]) -> list[MpmcsResult]:
    """All cut sets tied (within ``TIE_REL_TOL``) for the optimal weight.

    The first solve finds an optimum of weight w*; a tie is a minimal
    cut set no heavier than the tie cutoff, w* plus the tolerance.  The
    rest split the first root's models on each model found (Lawler's
    partition).  A sub-problem holds the models with some event units U.
    Once its solve finds a model M, let m1..mk be M's true events not
    already true under U: the sub-problems U + (m1..m(i-1) true) +
    (mi false), for i = 1..k, hold every model of U but M's supersets,
    each in exactly one of them.  A tie D in U is either a superset of
    M, and then, being minimal, M's swept cut set, or it lies in the
    sub-problem of the first mi not in D.  A sub-problem that holds a tie
    has a model within the cutoff, so its solve finds one; each split
    adds a unit, so every branch ends, at a solve that proves no model
    within the cutoff is left.  So every tie is found.

    Each sub-problem is a sub-root: the instance's one base (see
    ``_root``) plus its units, raced with the cutoff as its incumbent's
    weight and w* as its floor, so it stops, proven, at the first model
    as light as w*.  On trees every sub-root closes at its root and
    answers once, with no thread.  A model may carry a true unit
    lighter than the tolerance, so that its swept cut set lies in
    another leaf too: results are deduplicated on the cut set.  They
    come back with the first optimum first, then in the split's
    depth-first order.  Raises ``OptimaTimeoutError``, carrying the
    optima found so far, if any solve ends unproven; if the first one
    does, the error carries its incumbent instead.
    """
    budget = _budget(configs)
    results: list[MpmcsResult] = []
    seen: set[frozenset[str]] = set()
    events = sorted(instance.var_map.event_of_var)
    cutoff, floor, base = math.inf, -math.inf, None
    pending: list[tuple[int, ...]] = [()]  # each sub-problem's units; the next is last
    while pending:
        units = pending.pop()
        root = _root(instance, budget, cutoff, floor, units, base)
        base = root.base
        sol = _race(root, configs)
        if not sol.proven:
            incumbent = None
            if not results and sol.assignment is not None:
                incumbent = extract_mpmcs(sol, instance, weights)
            raise OptimaTimeoutError(results, incumbent)
        if sol.assignment is None:
            continue
        res = extract_mpmcs(sol, instance, weights)
        if not results:
            floor = res.log_weight
            cutoff = floor + max(TIE_REL_TOL, TIE_REL_TOL * abs(floor))
        if res.cut_set not in seen:
            seen.add(res.cut_set)
            results.append(res)
        free = [v for v in events if sol.assignment[v] > 0 and root.prop.val[v] <= 0]
        pending += [units + tuple(free[:i]) + (-free[i],) for i in reversed(range(len(free)))]
    return results
