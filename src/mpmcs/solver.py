"""Exact weighted partial MaxSAT solving for fault-tree instances.

One branch-and-bound search over event variables serves two
complementary strategies.  Both share the propagation engine, the
lower-bound table, the warm-start incumbent and the prune test; they
differ only in the order in which open nodes leave the frontier:

* branch and bound: depth first, preferred value (event absent) first;
* best first: least cost plus lower bound first (A*), so the incumbent
  is proven once no open node's bound can beat it.

Every solve sets up its root once: the hard units propagated, the root
bound table and the warm start.  A portfolio runs several configurations
concurrently, each from its own fork of that one root; the first
proven-optimal finisher wins and the rest are cancelled cooperatively
through a flag they poll at every decision.

Weight bookkeeping: search-time costs accumulate incrementally, but any
weight that leaves this module is recomputed with ``math.fsum`` over the
cut set's weights.  ``fsum`` rounds the exact sum once, so equal sets
report bit-identical totals in whatever order the terms come and
whichever strategy produced them.
"""

from __future__ import annotations

import copy
import heapq
import math
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import count
from typing import Iterable, Optional, Sequence

from .encoding import (
    WcnfInstance,
    WeightMap,
    build_wcnf,
    event_weights,
    joint_probability,
)
from .fault_tree import FaultTree

PRUNE_EPS = 1e-12
# Seconds a losing portfolio worker may take to stop once a winner reports.
GRACE_PERIOD = 0.1
# Best-first frontier size beyond which the search gives up (memory guard).
FRONTIER_LIMIT = 500_000
# Relative weight difference within which two optima count as tied.
TIE_REL_TOL = 1e-9


class UnsatisfiableError(RuntimeError):
    """Hard constraints admit no model (only blocking gates can cause this)."""


class FrontierLimitError(RuntimeError):
    """Best-first frontier outgrew ``FRONTIER_LIMIT`` states."""


class InconsistencyError(RuntimeError):
    """A produced result failed its own consistency checks: solver bug."""


class OptimaTimeoutError(TimeoutError):
    """A re-solve ran out of budget; carries the optima proven before it."""

    def __init__(self, optima: Sequence["MpmcsResult"]):
        super().__init__(
            f"budget exhausted after {len(optima)} proven optima; more may exist"
        )
        self.optima = list(optima)


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
        if self.time_budget <= 0:
            raise ValueError("time budget must be positive")

    @property
    def solver_id(self) -> str:
        return f"{self.strategy.value}-{self.var_order.value}"


def default_portfolio(time_budget: float = 60.0) -> list[SolverConfig]:
    """Two deliberately different configurations, per strategy diversity."""
    return [
        SolverConfig(
            strategy=Strategy.BRANCH_AND_BOUND,
            var_order=VarOrder.DESCENDING_WEIGHT,
            time_budget=time_budget,
        ),
        SolverConfig(
            strategy=Strategy.BEST_FIRST,
            var_order=VarOrder.ASCENDING_WEIGHT,
            time_budget=time_budget,
        ),
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

    ``assignment`` maps variable index to +1/-1 (index 0 unused); it is
    None only when a budget ran out before any incumbent existed.
    ``weight`` is the falsified-soft total, recomputed exactly from the
    assignment.
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
# Propagation engine


class Propagator:
    """Unit propagation on the circuit's gates, with a backtrackable trail.

    Write ``c`` for a gate's controlling value (false for AND, true for
    OR).  A child with value ``c`` gives its gate ``c``; once every child
    holds ``-c``, so does the gate; a gate with ``-c`` gives it to every
    child; a gate with ``c`` whose children all hold ``-c`` but one open
    child forces that child to ``c``: unit propagation on each gate's
    Tseitin clauses.  Per variable ``v``: ``ctl[v]`` is its controlling
    value as a gate (-1 AND, 1 OR, 0 for an event), ``kids[v]`` its
    children, ``parents[v]`` the gates with child ``v``, ``_other[v]``
    its children holding ``-c``.  ``assert_units`` asserts the root true
    and every blocking gate false.  The running ``cost``, the weight of
    the events assigned true, serves pruning only, never reported totals.
    """

    __slots__ = ("val", "weight", "ctl", "kids", "parents", "_other", "_units",
                 "trail", "level_starts", "qhead", "cost", "propagations")

    def __init__(self, instance: WcnfInstance):
        first_gate = len(instance.var_map.var_of_event) + 1
        n = first_gate + len(instance.circuit)
        self.val = [0] * n
        self.weight = [0.0] * n
        for v, w in instance.soft:
            self.weight[v] = w
        self.ctl = [0] * first_gate + [-1 if a else 1 for a, _ in instance.circuit]
        self.kids = [()] * first_gate + [kids for _, kids in instance.circuit]
        self.parents: list[list[int]] = [[] for _ in range(n)]
        for g in range(first_gate, n):
            for c in self.kids[g]:
                self.parents[c].append(g)
        self._other = [0] * n
        self._units = [instance.var_map.root_var]
        for g in range(n - instance.blocking, n):
            # One event's blocking gate is a unit clause: assert the event.
            self._units += [-g, -self.kids[g][0]] if len(self.kids[g]) == 1 else [-g]
        self.trail: list[int] = []
        self.level_starts: list[int] = []
        self.qhead = 0
        self.cost = 0.0
        self.propagations = 0

    def fork(self) -> "Propagator":
        """A copy that shares the circuit's read-only arrays and owns its
        assignment, so forks search independently of each other."""
        twin = copy.copy(self)
        twin.val, twin._other = self.val[:], self._other[:]
        twin.trail, twin.level_starts = self.trail[:], self.level_starts[:]
        return twin

    def _set(self, v: int, x: int) -> bool:
        """Give an open ``v`` the value ``x``; False if ``v`` holds ``-x``."""
        if self.val[v]:
            return self.val[v] == x
        self.val[v] = x
        if x > 0:
            self.cost += self.weight[v]
        for p in self.parents[v]:
            if x != self.ctl[p]:
                self._other[p] += 1
        self.trail.append(v if x > 0 else -v)
        return True

    def _last_child(self, g: int) -> bool:
        """For ``g`` holding its controlling value: conflict when no child
        can hold it too, force the one child left that can."""
        kids, c = self.kids[g], self.ctl[g]
        left = len(kids) - self._other[g]
        if left == 1:
            return self._set(next(k for k in kids if self.val[k] != -c), c)
        return left > 0

    def assert_units(self) -> bool:
        """Assert the root and the blocking gates; False on conflict."""
        units = all(self._set(abs(u), 1 if u > 0 else -1) for u in self._units)
        return units and self.propagate()

    def decide(self, var: int, value: bool) -> None:
        self.level_starts.append(len(self.trail))
        self._set(var, 1 if value else -1)

    def propagate(self) -> bool:
        """Propagate everything pending; False on conflict."""
        trail, val, ctl, kids, other = (
            self.trail, self.val, self.ctl, self.kids, self._other
        )
        start = len(trail)
        try:
            while self.qhead < len(trail):
                lit = trail[self.qhead]
                self.qhead += 1
                v, x = (lit, 1) if lit > 0 else (-lit, -1)
                if ctl[v] == x:
                    if not self._last_child(v):
                        return False
                elif ctl[v] and not all(self._set(k, x) for k in kids[v]):
                    return False
                for p in self.parents[v]:
                    if ctl[p] == x or other[p] == len(kids[p]):
                        if not self._set(p, x):
                            return False
                    elif val[p] == ctl[p] and not self._last_child(p):
                        return False
            return True
        finally:
            self.propagations += len(trail) - start

    def backtrack(self, level: int) -> None:
        """Undo all decisions beyond ``level`` (0 keeps only root units)."""
        if len(self.level_starts) <= level:
            return
        pos = self.level_starts[level]
        del self.level_starts[level:]
        for lit in reversed(self.trail[pos:]):
            v, x = (lit, 1) if lit > 0 else (-lit, -1)
            if x > 0:
                self.cost -= self.weight[v]
            self.val[v] = 0
            for p in self.parents[v]:
                if x != self.ctl[p]:
                    self._other[p] -= 1
        del self.trail[pos:]
        self.qhead = len(self.trail)


# ---------------------------------------------------------------------------
# Shared helpers


def _exact_weight(val: Sequence[int], instance: WcnfInstance) -> float:
    return math.fsum(w for var, w in instance.soft if val[var] > 0)


def complete_assignment(
    instance: WcnfInstance, true_events: Iterable[str]
) -> tuple[int, ...]:
    """Model with exactly ``true_events`` true and every gate evaluated."""
    var_of_event = instance.var_map.var_of_event
    val = [-1] * (len(var_of_event) + len(instance.circuit) + 1)
    val[0] = 0
    for eid in true_events:
        val[var_of_event[eid]] = 1
    for g, (is_and, kids) in enumerate(instance.circuit, len(var_of_event) + 1):
        if is_and:
            true = all(val[c] > 0 for c in kids)
        else:
            true = any(val[c] > 0 for c in kids)
        val[g] = 1 if true else -1
    return tuple(val)


def _meets_hard(instance: WcnfInstance, val: Sequence[int]) -> bool:
    """Whether ``val`` holds the root true and every blocking gate false."""
    blocking = val[len(val) - instance.blocking:]
    return val[instance.var_map.root_var] > 0 and all(v < 0 for v in blocking)


def _residual_bound(
    instance: WcnfInstance, val: Sequence[int], weight: Sequence[float]
) -> list[float]:
    """Admissible lower bound, per variable, on the extra weight to make it true.

    Evaluates the circuit under the current assignment: a true event
    costs nothing more, a false event or gate can no longer provide
    support, an open event costs its weight.  AND combines children by
    sum on tree-shaped instances (each event appears once) and by max
    under sharing, which never overestimates.  Entry ``root_var`` bounds
    the whole completion; on a tree it is exact.  ``weight`` is indexed
    by variable.

    This is the one full pass over the circuit: a solve runs it once,
    in ``_root``, and each search's ``_BoundTable`` keeps its own copy
    of the result current from there, bit for bit.
    """
    first_gate = len(instance.var_map.var_of_event) + 1
    bound = [
        0.0 if v > 0 else math.inf if v < 0 else w
        for v, w in zip(val[:first_gate], weight)
    ]
    combine = math.fsum if instance.tree_shaped else max
    for g, (is_and, kids) in enumerate(instance.circuit, first_gate):
        if val[g] < 0:
            bound.append(math.inf)
        else:
            child_bounds = [bound[c] for c in kids]
            bound.append(combine(child_bounds) if is_and else min(child_bounds))
    return bound


class _BoundTable:
    """A copy of the root's ``_residual_bound`` table, kept current on one
    search's trail.

    ``update`` follows a clean propagate: it sets the entries of the
    variables the newest decision level assigned (a true event costs 0,
    a false variable is ``inf``; a true gate's entry still comes from its
    children) and re-evaluates their ancestors in increasing variable
    order, so each gate is recomputed once, after its children, with the
    full pass's own expression, and stops where an entry does not
    change.  The floats are therefore those a full pass would compute.
    ``undo(level)`` restores the entries logged since that level, as
    ``Propagator.backtrack(level)`` does for values; a level whose
    propagate conflicted was never updated and has nothing to undo.
    Gates and parents come from the propagator's per-variable arrays.
    """

    def __init__(self, instance: WcnfInstance, bound: Sequence[float]):
        self.bound = list(bound)
        self._combine = math.fsum if instance.tree_shaped else max
        self._log: list[tuple[int, float]] = []  # (variable, entry before)
        self._marks: list[int] = []  # log length at the start of each level

    def update(self, prop: Propagator) -> None:
        """Bring the table up to date with the newest decision level."""
        parents, bound, log = prop.parents, self.bound, self._log
        val, ctl, kids, combine = prop.val, prop.ctl, prop.kids, self._combine
        self._marks.append(len(log))
        # Children have smaller variables than their gates, so popping in
        # increasing order recomputes each gate once, after its children.
        queue = [
            abs(lit) for lit in prop.trail[prop.level_starts[-1]:]
            if lit < 0 or not ctl[lit]  # true gates keep their entries
        ]
        queued = set(queue)
        heapq.heapify(queue)
        while queue:
            v = heapq.heappop(queue)
            if val[v] < 0:
                new = math.inf
            elif not ctl[v]:
                new = 0.0
            else:
                child_bounds = [bound[c] for c in kids[v]]
                new = combine(child_bounds) if ctl[v] < 0 else min(child_bounds)
            if bound[v] != new:
                log.append((v, bound[v]))
                bound[v] = new
                for p in parents[v]:
                    if p not in queued:
                        queued.add(p)
                        heapq.heappush(queue, p)

    def undo(self, level: int) -> None:
        """Restore the entries of every level beyond ``level``."""
        if len(self._marks) <= level:
            return
        mark = self._marks[level]
        del self._marks[level:]
        bound = self.bound
        for v, old in reversed(self._log[mark:]):
            bound[v] = old
        del self._log[mark:]


def _cheapest_events(instance: WcnfInstance, bound: Sequence[float]) -> list[str]:
    """Events reached from the root through every AND child and, at each
    OR, the child with the least ``bound``: an optimal completion on a
    tree, a feasible guess under sharing."""
    event_of_var = instance.var_map.event_of_var
    first_gate = len(event_of_var) + 1
    seen: set[int] = set()
    walk = [instance.var_map.root_var]
    while walk:
        v = walk.pop()
        if v >= first_gate and v not in seen:
            is_and, kids = instance.circuit[v - first_gate]
            walk.extend(kids if is_and else (min(kids, key=bound.__getitem__),))
        seen.add(v)
    return [event_of_var[v] for v in seen if v < first_gate]


def _prune_slack(incumbent: float) -> float:
    # Relative, so float noise in large accumulated sums cannot keep
    # provably-dead branches alive, while an incumbent smaller than
    # PRUNE_EPS itself still leaves a non-negative threshold.
    if incumbent == math.inf:
        return PRUNE_EPS
    return PRUNE_EPS * abs(incumbent)


# ---------------------------------------------------------------------------
# Search


@dataclass(frozen=True)
class _Root:
    """A solve's starting state, set up once and shared by its searches,
    which fork ``prop`` and change nothing here.  Budgets and
    ``SearchStats.elapsed`` count from ``start``."""

    instance: WcnfInstance
    prop: Propagator  # root and blocking gates asserted and propagated
    bound: list[float]  # the root ``_residual_bound`` table
    warm: Optional[tuple[int, ...]]  # the warm start, unless blocked
    events: list[int]  # event variables in event-id order
    start: float


def _root(instance: WcnfInstance) -> _Root:
    """Set up a solve; the warm start walks the root table, so it is
    optimal on trees and those prove with no decisions."""
    start = time.perf_counter()
    prop = Propagator(instance)
    if not prop.assert_units():
        raise UnsatisfiableError("hard constraints conflict at root level")
    bound = _residual_bound(instance, prop.val, prop.weight)
    walked = complete_assignment(instance, _cheapest_events(instance, bound))
    # Blocking gates over several events can rule the walked set out.
    warm = walked if _meets_hard(instance, walked) else None
    events = [var for _, var in sorted(instance.var_map.var_of_event.items())]
    return _Root(instance, prop, bound, warm, events, start)


def _search(
    root: _Root,
    config: SolverConfig,
    cancel: Optional[threading.Event],
    best_first: bool,
) -> Solution:
    """Branch and bound over event variables from a fork of ``root``;
    ``best_first`` chooses only the order in which open nodes leave the
    frontier.

    The incumbent starts as the root's warm start, and each node is
    pruned when its cost plus the root's ``_residual_bound`` table
    cannot beat the incumbent.  A ``_BoundTable`` keeps this search's
    copy of the table current along the trail: each decision
    re-evaluates only the ancestors of the variables it assigned, and
    backtracking restores the entries it changed.  A node branches on
    the next open event in the branching order after its own; auxiliary
    variables are never decided, gate propagation forces them once the
    events settle.

    A node is one decision with a parent link, ``(parent, depth,
    position in order, value)``; the root is None.  Depth first, the
    frontier is a stack that yields the preferred value first, so every
    move is one chronological backtrack.  Best first, it is a heap keyed
    by the parent's cost plus bound, a lower bound on every completion
    below the node, so the incumbent is proven once the least key cannot
    beat it.  Exhausting the frontier also proves it; running out of
    budget or being cancelled, even before deciding, returns the
    incumbent unproven.
    """
    instance = root.instance
    deadline = root.start + config.time_budget
    prop = root.prop.fork()
    table = _BoundTable(instance, root.bound)
    bound = table.bound
    # Branching order; the sort is stable, so equal weights keep event-id order.
    order = sorted(root.events, key=prop.weight.__getitem__,
                   reverse=config.var_order is VarOrder.DESCENDING_WEIGHT)
    top = instance.var_map.root_var
    decisions = 0

    incumbent = root.warm
    incumbent_w = math.inf if incumbent is None else _exact_weight(incumbent, instance)
    node: Optional[tuple] = None
    path: list[tuple] = []  # the nodes on the trail, one per decision level
    frontier: list = []
    tie = count()
    clean = True  # the current node propagated without conflict
    proven = False
    while True:
        lower = prop.cost + bound[top] if clean else math.inf
        if lower < incumbent_w - _prune_slack(incumbent_w):
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
        if not frontier or best_first and (
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
        table.undo(level)
        del path[level:]
        for step in reversed(steps):
            prop.decide(order[step[2]], step[3])
            clean = prop.propagate()
            if clean:
                table.update(prop)
                path.append(step)
        decisions += 1

    if proven and incumbent is None:
        raise UnsatisfiableError("search space exhausted without a model")
    elapsed = time.perf_counter() - root.start
    return Solution(
        assignment=incumbent,
        weight=incumbent_w,
        proven=proven,
        stats=SearchStats(decisions, prop.propagations, elapsed, cancelled),
        solver_id=config.solver_id,
    )


def solve_branch_and_bound(
    instance: WcnfInstance,
    config: SolverConfig,
    cancel: Optional[threading.Event] = None,
) -> Solution:
    """Depth-first branch and bound (see ``_search``), whatever
    ``config.strategy`` says."""
    return _search(_root(instance), config, cancel, best_first=False)


def solve_best_first(
    instance: WcnfInstance,
    config: SolverConfig,
    cancel: Optional[threading.Event] = None,
) -> Solution:
    """Best-first branch and bound (see ``_search``): A* order over the
    same nodes, bound and pruning, whatever ``config.strategy`` says."""
    return _search(_root(instance), config, cancel, best_first=True)


# ---------------------------------------------------------------------------
# Portfolio


def solve_portfolio(
    instance: WcnfInstance,
    configs: Sequence[SolverConfig],
) -> Solution:
    """Run all configurations concurrently; first proven result wins.

    The root is set up once, before any worker starts, and every worker
    searches its own fork of it; ``config.strategy`` picks the worker's
    frontier order (see ``_search``).  Workers poll a cancellation flag
    at every decision, so losers stop within a small grace period once a
    winner reports.  If nobody proves optimality in budget, the best
    incumbent is returned unproven.  Only if every worker raises does
    the portfolio raise, aggregating the errors.
    """
    if not configs:
        raise ValueError("portfolio needs at least one configuration")
    root = _root(instance)
    cancel = threading.Event()
    # Per worker: its Solution or the exception it raised, and its exit time.
    records: list = [None] * len(configs)

    def work(i: int, cfg: SolverConfig) -> None:
        try:
            outcome = _search(root, cfg, cancel, cfg.strategy is Strategy.BEST_FIRST)
            if outcome.proven:
                cancel.set()
        except BaseException as exc:  # reported, not swallowed
            outcome = exc
        records[i] = (outcome, time.perf_counter())

    threads = [
        threading.Thread(target=work, args=(i, cfg), daemon=True)
        for i, cfg in enumerate(configs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    solved = [out for out, _ in records if isinstance(out, Solution)]
    if not solved:
        errs = [out for out, _ in records]
        if all(isinstance(e, UnsatisfiableError) for e in errs):
            raise UnsatisfiableError(str(errs[0]))
        raise PortfolioError(errs)

    # The winner is the first worker to exit with a proof.
    won = min(
        (t for out, t in records if isinstance(out, Solution) and out.proven),
        default=None,
    )
    reports = []
    for cfg, (out, exited) in zip(configs, records):
        after = None if won is None else max(0.0, exited - won)
        inside = None if after is None else after <= GRACE_PERIOD
        if isinstance(out, Solution):
            summary = (out.proven, out.weight, out.stats.elapsed, out.stats.cancelled, None)
        else:
            summary = (False, math.inf, 0.0, False, str(out))
        reports.append(WorkerReport(cfg.solver_id, *summary, exit_after_winner=after,
                                    within_grace=inside))

    # Proven first, then lightest; ties keep configuration order.
    best = min(solved, key=lambda s: (not s.proven, s.weight))
    return replace(best, workers=tuple(reports))


# ---------------------------------------------------------------------------
# Result extraction


def extract_mpmcs(
    solution: Solution, instance: WcnfInstance, weights: WeightMap
) -> MpmcsResult:
    """Read the cut set off a solution and certify it.

    The set-minimality sweep tries to drop members heaviest-first.  It
    trims unproven incumbents, and proven solutions too: the search's
    relative prune slack cannot tell apart two models whose weights
    differ by less than ``PRUNE_EPS`` times the incumbent, so an optimal
    solution may carry a redundant member lighter than that, such as an
    event whose probability is that close to 1.

    The model must be the circuit's evaluation of its own events, with
    the root true and every blocking gate false.  The circuit is
    monotone, so a gate false under the model stays false under every
    subset of its events.  The sweep keeps the true gates above each
    true variable and a slack per true variable (1 for an event or AND
    gate, the number of true children for an OR gate); a trial drop
    walks only the variables whose slack reaches 0, and is undone if
    the root is among them.
    """
    if solution.assignment is None:
        raise ValueError("solution carries no model to extract from")
    val = solution.assignment
    var_of_event = instance.var_map.var_of_event
    cut = {eid for eid, var in var_of_event.items() if val[var] > 0}
    if val != complete_assignment(instance, cut) or not _meets_hard(instance, val):
        raise InconsistencyError("solution is not a model of the hard constraints")
    root = instance.var_map.root_var
    slack = [1 if v > 0 else 0 for v in val]
    up: dict[int, list[int]] = {}
    for g, (is_and, kids) in enumerate(instance.circuit, len(var_of_event) + 1):
        if val[g] > 0:
            true_kids = [c for c in kids if val[c] > 0]
            for c in true_kids:
                up.setdefault(c, []).append(g)
            if not is_and:
                slack[g] = len(true_kids)
    for eid in sorted(cut, key=lambda e: (-weights[e], e)):
        fell = [var_of_event[eid]]
        slack[fell[0]] = 0
        for v in fell:  # grows as gates turn false
            for g in up.get(v, ()):
                slack[g] -= 1
                if slack[g] == 0:
                    fell.append(g)
        if slack[root] > 0:
            cut.discard(eid)
        else:  # the root fell: undo the walk
            slack[fell[0]] = 1
            for g in (g for v in fell for g in up.get(v, ())):
                slack[g] += 1
    if complete_assignment(instance, cut)[root] <= 0:
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
    circuit gains a blocking gate, an AND over ``events``."""
    if not events:
        raise ValueError("cannot block the empty set")
    var_of = instance.var_map.var_of_event
    gate = (True, tuple(var_of[e] for e in sorted(events)))
    return replace(
        instance, circuit=instance.circuit + (gate,), blocking=instance.blocking + 1
    )


def compute_mpmcs(
    tree: FaultTree,
    configs: Optional[Sequence[SolverConfig]] = None,
) -> MpmcsResult:
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


def enumerate_optima(
    instance: WcnfInstance,
    weights: WeightMap,
    configs: Sequence[SolverConfig],
) -> list[MpmcsResult]:
    """All cut sets tied (within ``TIE_REL_TOL``) for the optimal weight.

    Each optimum found is blocked with a blocking gate and the instance is
    re-solved until the optimum weight rises or the instance becomes
    unsatisfiable.  Results come back in discovery order.  Raises
    ``OptimaTimeoutError``, carrying the optima found so far, if any solve
    ends unproven.
    """
    results: list[MpmcsResult] = []
    first: Optional[float] = None
    current = instance
    while True:
        try:
            sol = solve_portfolio(current, configs)
        except UnsatisfiableError:
            break
        if not sol.proven:
            raise OptimaTimeoutError(results)
        res = extract_mpmcs(sol, current, weights)
        if first is None:
            first = res.log_weight
        elif res.log_weight > first + max(TIE_REL_TOL, TIE_REL_TOL * abs(first)):
            break
        results.append(res)
        current = add_blocking_clause(current, res.cut_set)
    return results
