"""Exact weighted partial MaxSAT solving for fault-tree instances.

Two complementary strategies share one propagation engine:

* branch and bound: depth-first over event variables, preferred value
  first (event absent), pruning against the best solution found so far;
* best first: Dijkstra over partial event assignments keyed by the
  weight already paid, so the first fully satisfied state popped is
  optimal.

A portfolio runs several configurations concurrently on the shared
immutable instance; the first proven-optimal finisher wins and the rest
are cancelled cooperatively through a flag they poll at every decision.

Weight bookkeeping: search-time costs accumulate incrementally, but any
weight that leaves this module is recomputed with ``math.fsum`` over the
cut set's weights in sorted-event-id order, so equal sets report
bit-identical totals no matter which strategy produced them.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import count
from typing import Iterable, Optional, Sequence

from .encoding import (
    CnfFormula,
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
# Relative weight difference within which two optima count as tied.
TIE_REL_TOL = 1e-9


class UnsatisfiableError(RuntimeError):
    """Hard clauses admit no model (impossible for a valid fault tree)."""


class FrontierLimitError(RuntimeError):
    """Best-first frontier outgrew its configured cap."""


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
    INPUT = "input"


@dataclass(frozen=True)
class SolverConfig:
    strategy: Strategy = Strategy.BRANCH_AND_BOUND
    var_order: VarOrder = VarOrder.DESCENDING_WEIGHT
    time_budget: float = 60.0
    # Extras beyond the basic contract, all defaulted:
    use_lower_bound: bool = True  # admissible residual bound in branch and bound
    warm_start: bool = True  # greedy tree solution seeds the incumbent
    frontier_limit: int = 500_000  # best-first queue cap

    def __post_init__(self):
        if self.time_budget <= 0:
            raise ValueError("time budget must be positive")
        if self.frontier_limit < 1:
            raise ValueError("frontier limit must be positive")

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
    """Outcome of one solve: a model over all CNF variables plus bookkeeping.

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


def _widx(lit: int) -> int:
    return 2 * lit if lit > 0 else -2 * lit + 1


class Propagator:
    """Two-watched-literal unit propagation with a backtrackable trail.

    Clause literal positions 0 and 1 are the watched pair.  The running
    ``cost`` is the weight of soft variables currently assigned true;
    it is maintained incrementally and only used for pruning decisions,
    never for reported totals.
    """

    def __init__(self, cnf: CnfFormula, weight_of_var: dict[int, float]):
        n = cnf.num_vars
        self.num_vars = n
        self.clauses = [list(c) for c in cnf.clauses]
        self.val = [0] * (n + 1)
        self.weight = [0.0] * (n + 1)
        for v, w in weight_of_var.items():
            self.weight[v] = w
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.trail: list[int] = []
        self.level_starts: list[int] = []
        self.qhead = 0
        self.cost = 0.0
        self.propagations = 0
        self._unit_lits: list[int] = []
        for ci, clause in enumerate(self.clauses):
            if len(clause) == 1:
                self._unit_lits.append(clause[0])
            else:
                self.watches[_widx(clause[0])].append(ci)
                self.watches[_widx(clause[1])].append(ci)

    def lit_val(self, lit: int) -> int:
        v = self.val[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int) -> None:
        v = abs(lit)
        if lit > 0:
            self.val[v] = 1
            self.cost += self.weight[v]
        else:
            self.val[v] = -1
        self.trail.append(lit)

    def assert_units(self) -> bool:
        """Enqueue the initial unit clauses; False if they already clash."""
        for lit in self._unit_lits:
            lv = self.lit_val(lit)
            if lv == -1:
                return False
            if lv == 0:
                self._enqueue(lit)
        return self.propagate()

    def decide(self, var: int, value: bool) -> None:
        self.level_starts.append(len(self.trail))
        self._enqueue(var if value else -var)

    def propagate(self) -> bool:
        """Propagate everything pending; False on conflict."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watch_list = self.watches[_widx(falsified)]
            kept: list[int] = []
            conflict = False
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                ov = self.lit_val(other)
                if ov == 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(clause)):
                    cand = clause[k]
                    if self.lit_val(cand) != -1:
                        clause[1], clause[k] = cand, falsified
                        self.watches[_widx(cand)].append(ci)
                        break
                else:
                    kept.append(ci)
                    if ov == -1:
                        kept.extend(watch_list[i:])
                        conflict = True
                        break
                    self._enqueue(other)
                    self.propagations += 1
            self.watches[_widx(falsified)] = kept
            if conflict:
                return False
        return True

    def backtrack(self, level: int) -> None:
        """Undo all decisions beyond ``level`` (0 keeps only root units)."""
        if len(self.level_starts) <= level:
            return
        pos = self.level_starts[level]
        del self.level_starts[level:]
        for lit in reversed(self.trail[pos:]):
            v = abs(lit)
            if lit > 0:
                self.cost -= self.weight[v]
            self.val[v] = 0
        del self.trail[pos:]
        self.qhead = len(self.trail)

    def all_clauses_satisfied(self) -> bool:
        return _satisfies(self.clauses, self.val)


# ---------------------------------------------------------------------------
# Shared helpers


def _decision_order(instance: WcnfInstance, config: SolverConfig) -> list[int]:
    """Event variables in the configured branching order."""
    entries = sorted(instance.var_map.var_of_event.items())  # by event id
    weight = dict(instance.soft)
    if config.var_order is VarOrder.DESCENDING_WEIGHT:
        entries.sort(key=lambda ev: -weight[ev[1]])
    elif config.var_order is VarOrder.ASCENDING_WEIGHT:
        entries.sort(key=lambda ev: weight[ev[1]])
    else:
        entries.sort(key=lambda ev: ev[1])
    return [var for _, var in entries]


def _sorted_event_vars(instance: WcnfInstance) -> list[tuple[int, float]]:
    weight = dict(instance.soft)
    return [
        (var, weight[var])
        for _, var in sorted(instance.var_map.var_of_event.items())
    ]


def _exact_weight(val: Sequence[int], event_vars: list[tuple[int, float]]) -> float:
    return math.fsum(w for var, w in event_vars if val[var] > 0)


def _satisfies(clauses: Sequence[Sequence[int]], val: Sequence[int]) -> bool:
    """Whether every clause has a literal that is true under ``val``."""
    for clause in clauses:
        for lit in clause:
            if (val[lit] if lit > 0 else -val[-lit]) == 1:
                break
        else:
            return False
    return True


def complete_assignment(
    instance: WcnfInstance, true_events: Iterable[str]
) -> tuple[int, ...]:
    """Model with exactly ``true_events`` true and every gate evaluated."""
    var_of_event = instance.var_map.var_of_event
    val = [-1] * (instance.hard.num_vars + 1)
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


def _greedy_tree_events(
    instance: WcnfInstance, weight: Sequence[float]
) -> frozenset[str]:
    """Cheapest event set satisfying the formula, by the obvious tree walk.

    Exact on tree-shaped inputs; on shared (DAG) inputs the cost used to
    pick OR branches may double-count shared events, so the result is
    just a feasible warm start there.  ``weight`` is indexed by variable.
    """
    event_of_var = instance.var_map.event_of_var
    first_gate = len(event_of_var) + 1
    cost = list(weight)
    for g, (is_and, kids) in enumerate(instance.circuit, first_gate):
        child_costs = [cost[c] for c in kids]
        cost[g] = math.fsum(child_costs) if is_and else min(child_costs)

    chosen: set[str] = set()
    seen: set[int] = set()
    walk = [instance.var_map.root_var]
    while walk:
        v = walk.pop()
        if v in seen:
            continue
        seen.add(v)
        if v < first_gate:
            chosen.add(event_of_var[v])
            continue
        is_and, kids = instance.circuit[v - first_gate]
        if is_and:
            walk.extend(kids)
        else:
            walk.append(min(kids, key=cost.__getitem__))
    return frozenset(chosen)


def _residual_bound(
    instance: WcnfInstance, val: Sequence[int], weight: Sequence[float]
) -> float:
    """Admissible lower bound on the extra weight any completion must pay.

    Evaluates the circuit under the current assignment: a true event or
    gate costs nothing more, a false one can no longer provide support,
    an open event costs its weight.  AND combines children by sum on
    tree-shaped instances (each event appears once) and by max under
    sharing, which never overestimates.  ``weight`` is indexed by variable.
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
    return bound[instance.var_map.root_var]


def _prune_slack(incumbent: float) -> float:
    # Relative, so float noise in large accumulated sums cannot keep
    # provably-dead branches alive, while an incumbent smaller than
    # PRUNE_EPS itself still leaves a non-negative threshold.
    if incumbent == math.inf:
        return PRUNE_EPS
    return PRUNE_EPS * abs(incumbent)


# ---------------------------------------------------------------------------
# Branch and bound


def solve_branch_and_bound(
    instance: WcnfInstance,
    config: SolverConfig,
    cancel: Optional[threading.Event] = None,
) -> Solution:
    """Depth-first search over event variables with incumbent pruning.

    Events are branched preferred-value-first (absent).  Auxiliary
    variables are never decided; the biconditional clauses force them
    once the events settle.  Exhausting the tree proves optimality;
    running out of budget returns the incumbent unproven.
    """
    start = time.perf_counter()
    deadline = start + config.time_budget
    prop = Propagator(instance.hard, dict(instance.soft))
    event_vars = _sorted_event_vars(instance)
    order = _decision_order(instance, config)
    decisions = 0

    if not prop.assert_units():
        raise UnsatisfiableError("hard clauses conflict at root level")

    incumbent: Optional[tuple[int, ...]] = None
    incumbent_w = math.inf
    if config.warm_start:
        warm = complete_assignment(instance, _greedy_tree_events(instance, prop.weight))
        # Extra hard clauses (e.g. blocking) can invalidate the greedy set.
        if _satisfies(instance.hard.clauses, warm):
            incumbent = warm
            incumbent_w = _exact_weight(warm, event_vars)

    use_bound = config.use_lower_bound
    stack: list[list] = []  # [var, tried_true]
    cancelled = False
    timed_out = False

    def over_budget() -> bool:
        nonlocal cancelled, timed_out
        if cancel is not None and cancel.is_set():
            cancelled = True
            return True
        if time.perf_counter() > deadline:
            timed_out = True
            return True
        return False

    conflict = not prop.propagate()
    while True:
        if over_budget():
            break
        if not conflict:
            threshold = incumbent_w - _prune_slack(incumbent_w)
            if prop.cost >= threshold:
                conflict = True
            elif use_bound and prop.cost + _residual_bound(
                instance, prop.val, prop.weight
            ) >= threshold:
                conflict = True
        if not conflict:
            var = next((v for v in order if prop.val[v] == 0), None)
            if var is None:
                # complete model: all aux were forced by propagation
                w = _exact_weight(prop.val, event_vars)
                if w < incumbent_w:
                    incumbent = tuple(prop.val)
                    incumbent_w = w
                conflict = True
            else:
                stack.append([var, False])
                decisions += 1
                prop.decide(var, False)
                conflict = not prop.propagate()
                continue
        # conflict (or prune, or explored leaf): chronological backtracking
        while stack and stack[-1][1]:
            stack.pop()
        if not stack:
            if incumbent is None:
                raise UnsatisfiableError("search space exhausted without a model")
            elapsed = time.perf_counter() - start
            return Solution(
                assignment=incumbent,
                weight=incumbent_w,
                proven=True,
                stats=SearchStats(decisions, prop.propagations, elapsed, False),
                solver_id=config.solver_id,
            )
        frame = stack[-1]
        frame[1] = True
        prop.backtrack(len(stack) - 1)
        decisions += 1
        prop.decide(frame[0], True)
        conflict = not prop.propagate()

    elapsed = time.perf_counter() - start
    return Solution(
        assignment=incumbent,
        weight=incumbent_w,
        proven=False,
        stats=SearchStats(decisions, prop.propagations, elapsed, cancelled),
        solver_id=config.solver_id,
    )


# ---------------------------------------------------------------------------
# Best first


def solve_best_first(
    instance: WcnfInstance,
    config: SolverConfig,
    cancel: Optional[threading.Event] = None,
) -> Solution:
    """Uniform-cost search over partial event assignments.

    States are decision sequences; the priority is the weight already
    paid after propagation.  Weights are non-negative, so the first
    popped state whose clauses are all satisfied is optimal.  The state
    space is a tree (the branching variable is a function of the state),
    so no duplicate detection is needed.
    """
    start = time.perf_counter()
    deadline = start + config.time_budget
    weight_of_var = dict(instance.soft)
    prop = Propagator(instance.hard, weight_of_var)
    event_vars = _sorted_event_vars(instance)
    order = _decision_order(instance, config)
    decisions = 0
    cancelled = False

    if not prop.assert_units() or not prop.propagate():
        raise UnsatisfiableError("hard clauses conflict at root level")

    tie = count()
    heap: list[tuple[float, int, tuple[tuple[int, bool], ...]]] = [
        (prop.cost, next(tie), ())
    ]
    while heap:
        if cancel is not None and cancel.is_set():
            cancelled = True
            break
        if time.perf_counter() > deadline:
            break
        g, _, path = heapq.heappop(heap)
        prop.backtrack(0)
        ok = True
        for var, value in path:
            prop.decide(var, value)
            if not prop.propagate():
                ok = False
                break
        if not ok:
            continue  # cannot happen: children are pushed only when clean
        if prop.all_clauses_satisfied():
            val = list(prop.val)
            for v in range(1, prop.num_vars + 1):
                if val[v] == 0:
                    val[v] = -1
            elapsed = time.perf_counter() - start
            return Solution(
                assignment=tuple(val),
                weight=_exact_weight(val, event_vars),
                proven=True,
                stats=SearchStats(decisions, prop.propagations, elapsed, False),
                solver_id=config.solver_id,
            )
        var = next((v for v in order if prop.val[v] == 0), None)
        if var is None:
            continue
        base = len(path)
        for value in (False, True):
            prop.decide(var, value)
            decisions += 1
            if prop.propagate():
                heapq.heappush(
                    heap, (prop.cost, next(tie), path + ((var, value),))
                )
                if len(heap) > config.frontier_limit:
                    raise FrontierLimitError(
                        f"frontier exceeded {config.frontier_limit} states"
                    )
            prop.backtrack(base)
    else:
        raise UnsatisfiableError("search space exhausted without a model")

    elapsed = time.perf_counter() - start
    return Solution(
        assignment=None,
        weight=math.inf,
        proven=False,
        stats=SearchStats(decisions, prop.propagations, elapsed, cancelled),
        solver_id=config.solver_id,
    )


# ---------------------------------------------------------------------------
# Portfolio


def _solve_one(
    instance: WcnfInstance, config: SolverConfig, cancel: Optional[threading.Event]
) -> Solution:
    if config.strategy is Strategy.BRANCH_AND_BOUND:
        return solve_branch_and_bound(instance, config, cancel)
    return solve_best_first(instance, config, cancel)


def solve_portfolio(
    instance: WcnfInstance,
    configs: Sequence[SolverConfig],
) -> Solution:
    """Run all configurations concurrently; first proven result wins.

    Workers share the immutable instance and poll a cancellation flag at
    every decision, so losers stop within a small grace period once a
    winner reports.  If nobody proves optimality in budget, the best
    incumbent is returned unproven.  Only if every worker raises does
    the portfolio raise, aggregating the errors.
    """
    if not configs:
        raise ValueError("portfolio needs at least one configuration")
    cancel = threading.Event()
    lock = threading.Lock()
    outcomes: list[Optional[Solution]] = [None] * len(configs)
    errors: list[Optional[BaseException]] = [None] * len(configs)
    exit_times: list[Optional[float]] = [None] * len(configs)
    winner_time: list[Optional[float]] = [None]

    def work(i: int, cfg: SolverConfig) -> None:
        try:
            sol = _solve_one(instance, cfg, cancel)
        except BaseException as exc:  # reported, not swallowed
            errors[i] = exc
        else:
            outcomes[i] = sol
            if sol.proven:
                with lock:
                    if winner_time[0] is None:
                        winner_time[0] = time.perf_counter()
                        cancel.set()
        finally:
            exit_times[i] = time.perf_counter()

    threads = [
        threading.Thread(target=work, args=(i, cfg), daemon=True)
        for i, cfg in enumerate(configs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if all(sol is None for sol in outcomes):
        errs = [e for e in errors if e is not None]
        if errs and all(isinstance(e, UnsatisfiableError) for e in errs):
            raise UnsatisfiableError(str(errs[0]))
        raise PortfolioError(errs)

    won = winner_time[0]
    reports = []
    for i, cfg in enumerate(configs):
        sol = outcomes[i]
        after = None
        if won is not None and exit_times[i] is not None:
            after = max(0.0, exit_times[i] - won)
        inside = None if after is None else after <= GRACE_PERIOD
        if sol is None:
            reports.append(
                WorkerReport(cfg.solver_id, False, math.inf, 0.0, False,
                             error=str(errors[i]), exit_after_winner=after,
                             within_grace=inside)
            )
        else:
            reports.append(
                WorkerReport(cfg.solver_id, sol.proven, sol.weight,
                             sol.stats.elapsed, sol.stats.cancelled,
                             exit_after_winner=after, within_grace=inside)
            )

    proven = [s for s in outcomes if s is not None and s.proven]
    if proven:
        best = min(proven, key=lambda s: s.weight)
    else:
        candidates = [s for s in outcomes if s is not None]
        best = min(candidates, key=lambda s: s.weight)
    return replace(best, workers=tuple(reports))


# ---------------------------------------------------------------------------
# Result extraction


def extract_mpmcs(
    solution: Solution, instance: WcnfInstance, weights: WeightMap
) -> MpmcsResult:
    """Read the cut set off a solution and certify it.

    The set-minimality sweep tries to drop members heaviest-first.  With
    strictly positive weights and an optimal solution it never fires, but
    it runs unconditionally as a safety net for incumbents.
    """
    if solution.assignment is None:
        raise ValueError("solution carries no model to extract from")
    val = solution.assignment
    if not _satisfies(instance.hard.clauses, val):
        raise InconsistencyError("solution does not satisfy the hard clauses")
    cut = {
        eid
        for eid, var in instance.var_map.var_of_event.items()
        if val[var] > 0
    }
    root = instance.var_map.root_var
    for eid in sorted(cut, key=lambda e: (-weights[e], e)):
        trial = cut - {eid}
        if complete_assignment(instance, trial)[root] > 0:
            cut = trial
    if complete_assignment(instance, cut)[root] <= 0:
        raise InconsistencyError("extracted cut set does not fail the top event")
    ordered = sorted(cut)
    ws = [weights[e] for e in ordered]
    log_weight = math.fsum(ws)
    return MpmcsResult(
        cut_set=frozenset(cut),
        log_weight=log_weight,
        probability=joint_probability(ws),
        solver_id=solution.solver_id,
        elapsed=solution.stats.elapsed,
    )


def add_blocking_clause(instance: WcnfInstance, events: frozenset[str]) -> WcnfInstance:
    """Forbid this exact cut set (and its supersets) in later solves."""
    var_of = instance.var_map.var_of_event
    clause = tuple(-var_of[e] for e in sorted(events))
    hard = CnfFormula(
        num_vars=instance.hard.num_vars, clauses=instance.hard.clauses + (clause,)
    )
    return replace(instance, hard=hard)


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

    Each optimum found is blocked with a hard clause and the instance is
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
