"""Reasoning over the compiled circuit: unit propagation on its gates,
evaluation, the set-minimality sweep, and the search's lower bounds (the
bound tables and the core pass).  Every solve-time walk of the gate
table ``WcnfInstance.ctl``/``kids`` is here.  Evaluation, the bound
tables and the core pass's rounds all re-evaluate a circuit through one
incremental evaluator, ``_settle``: only the gates above what changed."""

from __future__ import annotations

import copy
import heapq
import math
import time
from typing import Iterable, Optional, Sequence

from .encoding import WcnfInstance


class Propagator:
    """Unit propagation on the circuit's gates, with a backtrackable trail.

    Write ``c`` for a gate's controlling value (false for AND, true for
    OR).  A child with value ``c`` gives its gate ``c``; once every child
    holds ``-c``, so does the gate; a gate with ``-c`` gives it to every
    child; a gate with ``c`` whose children all hold ``-c`` but one open
    child forces that child to ``c``: unit propagation on each gate's
    Tseitin clauses.  ``ctl``, ``kids`` and ``parents`` are the
    instance's own tables (``ctl[v]`` is a gate's ``c``: -1 AND, 1 OR);
    ``_other[v]`` counts the children of ``v`` holding ``-c``.
    ``assert_units`` asserts the root true, every blocking gate false and
    any event units given.
    """

    __slots__ = ("val", "ctl", "kids", "parents", "_other", "_root",
                 "_blocking", "trail", "level_starts", "qhead", "propagations")

    def __init__(self, instance: WcnfInstance):
        self.ctl, self.kids, self.parents = instance.ctl, instance.kids, instance.parents
        n = len(self.ctl)
        self.val = [0] * n
        self._other = [0] * n
        self._root, self._blocking = instance.var_map.root_var, instance.blocking
        self.trail: list[int] = []
        self.level_starts: list[int] = []
        self.qhead = 0
        self.propagations = 0

    def fork(self) -> "Propagator":
        """A copy that shares the instance's tables and owns its
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

    def assert_units(self, events: Sequence[int] = ()) -> bool:
        """Assert the root, the blocking gates and ``events`` (signed
        variables: positive true, negative false); False on conflict."""
        n, kids, units = len(self.val), self.kids, [self._root, *events]
        for g in range(n - self._blocking, n):
            # One event's blocking gate is a unit clause: assert the event.
            units += [-g, -kids[g][0]] if len(kids[g]) == 1 else [-g]
        ok = all(self._set(abs(u), 1 if u > 0 else -1) for u in units)
        return ok and self.propagate()

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
            self.val[v] = 0
            for p in self.parents[v]:
                if x != self.ctl[p]:
                    self._other[p] -= 1
        del self.trail[pos:]
        self.qhead = len(self.trail)


def _exact_weight(val: Sequence[int], instance: WcnfInstance) -> float:
    return math.fsum(w for x, w in zip(val, instance.weight) if x > 0)


def _settle(entry: list, changed: Iterable[int], instance: WcnfInstance, and_op, or_op,
            val: Optional[Sequence[int]] = None, log: Optional[list] = None) -> None:
    """Re-evaluate every gate above ``changed``, whose entries the caller
    has set, as ``and_op`` or ``or_op`` of its children's entries; every
    other gate's entry must already be so.

    Children have smaller variables than their gates, so popping gates
    in increasing order computes each once, after its children; the walk
    stops where an entry does not change.  A gate false under ``val``
    keeps its entry.  Each change appends ``(gate, entry before)`` to
    ``log``."""
    parents, ctl, kids = instance.parents, instance.ctl, instance.kids
    get = entry.__getitem__
    queued = {p for v in changed for p in parents[v]}
    queue = list(queued)
    heapq.heapify(queue)
    while queue:
        g = heapq.heappop(queue)
        if val is not None and val[g] < 0:
            continue
        new = (and_op if ctl[g] < 0 else or_op)(map(get, kids[g]))
        if new != entry[g]:
            if log is not None:
                log.append((g, entry[g]))
            entry[g] = new
            for p in parents[g]:
                if p not in queued:
                    queued.add(p)
                    heapq.heappush(queue, p)


def complete_assignment(instance: WcnfInstance, true_events: Iterable[str]) -> tuple[int, ...]:
    """Model with exactly ``true_events`` true and every gate evaluated.
    Only a gate above a true event can be true, so ``_settle`` evaluates
    just those, over an all-false model (values +-1: AND is the least
    child value, OR the greatest)."""
    val = [-1] * len(instance.ctl)
    val[0] = 0
    true = [instance.var_map.var_of_event[eid] for eid in true_events]
    for v in true:
        val[v] = 1
    _settle(val, true, instance, min, max)
    return tuple(val)


def _meets_hard(instance: WcnfInstance, val: Sequence[int]) -> bool:
    """Whether ``val`` holds the root true and every blocking gate false."""
    blocking = val[len(val) - instance.blocking:]
    return val[instance.var_map.root_var] > 0 and all(v < 0 for v in blocking)


def _sweep(instance: WcnfInstance, val: Sequence[int], weight_of) -> set[str]:
    """The set-minimality sweep: the events true under ``val``, less each
    one, tried heaviest first (by ``weight_of`` an event id, ties by id),
    whose drop keeps the root true.  ``val`` must be the circuit's
    evaluation of its own events, with the root true.

    The circuit is monotone, so a gate false under ``val`` stays false
    under every subset of its events.  Each true variable has a slack (1
    for an event or AND gate, its true children for an OR gate); a trial
    drop walks up the true variables whose slack reaches 0, and is undone
    if the root is among them.  A first, top-down pass marks the critical
    variables, whose fall alone fails the root: the root, each child of a
    critical AND, the one true child of a critical OR.  Drops only make
    gates false, so a critical event stays critical and its trial, which
    would fail, is skipped: a chain of gates sweeps in linear time."""
    var_of_event, parents = instance.var_map.var_of_event, instance.parents
    ctl, kids = instance.ctl, instance.kids
    cut = {eid for eid, var in var_of_event.items() if val[var] > 0}
    root = instance.var_map.root_var
    slack = [1 if x > 0 else 0 for x in val]
    critical = {root}
    for g in range(len(val) - 1, 0, -1):
        if val[g] > 0 and ctl[g]:
            true_kids = [c for c in kids[g] if val[c] > 0]
            if ctl[g] > 0:
                slack[g] = len(true_kids)
            if g in critical and (ctl[g] < 0 or len(true_kids) == 1):
                critical.update(true_kids)
    trials = [eid for eid in cut if var_of_event[eid] not in critical]
    for eid in sorted(trials, key=lambda e: (-weight_of(e), e)):
        fell = [var_of_event[eid]]
        slack[fell[0]] = 0
        for v in fell:  # grows as gates turn false
            for g in parents[v]:
                if val[g] > 0:
                    slack[g] -= 1
                    if slack[g] == 0:
                        fell.append(g)
        if slack[root] > 0:
            cut.discard(eid)
        else:  # the root fell: undo the walk
            slack[fell[0]] = 1
            for g in (g for v in fell for g in parents[v] if val[g] > 0):
                slack[g] += 1
    return cut


def _residual_bound(instance: WcnfInstance, val: Sequence[int],
                    weight: Sequence[float]) -> list[float]:
    """Admissible lower bound, per variable, on the extra weight to make it true.

    Evaluates the circuit under the current assignment: a true event
    costs nothing more, a false event or gate can no longer provide
    support, an open event costs its weight.  AND combines children by
    sum on tree-shaped instances (each event appears once) and by max
    under sharing, which never overestimates.  Entry ``root_var`` bounds
    the whole completion; on a tree it is exact.  ``weight`` is indexed
    by variable.

    An instance runs this full pass for its weights' table once, in
    ``_base``, and each solve once more for the core pass's table; every
    root and search keeps a copy current with ``_BoundTable``, bit for
    bit.
    """
    bound = [0.0 if x > 0 else math.inf if x < 0 else w for x, w in zip(val, weight)]
    combine = math.fsum if instance.tree_shaped else max
    get, kids = bound.__getitem__, instance.kids
    for g, c in enumerate(instance.ctl):
        if c and val[g] >= 0:
            bound[g] = (combine if c < 0 else min)(map(get, kids[g]))
    return bound


class _BoundTable:
    """A node's cost and a copy of a root ``_residual_bound`` table, kept
    current on one search's trail; ``cost + bound[top]`` bounds every
    completion of the node.

    ``cost`` starts from the root's cost (the weight of the events true
    at the root, or the core pass's ``lb``) and adds the entries zeroed
    by events turning true: their weight in the table's own weights.
    ``update`` follows a clean propagate: ``assign`` sets the entries of
    the variables the newest decision level assigned (a true event costs
    0, a false variable is ``inf``; a true gate's entry still comes from
    its children) and ``_settle``s their ancestors with the full pass's
    own expressions, so the floats are those a full pass would compute.
    A root brings a copy of its base's table up to date with its units
    the same way (see ``solver._root``).
    ``undo(level)`` restores the entries logged since that level, and
    the cost recorded there, bit for bit, as ``Propagator.backtrack``
    does for values; a level whose propagate conflicted was never
    updated.
    """

    def __init__(self, instance: WcnfInstance, cost: float, bound: Sequence[float]):
        self.bound = list(bound)
        self.cost = cost
        self._instance = instance
        self._combine = math.fsum if instance.tree_shaped else max
        self._log: list[tuple[int, float]] = []  # (variable, entry before)
        self._marks: list[tuple[int, float]] = []  # (log length, cost) per level

    def update(self, prop: Propagator) -> None:
        """Bring the table up to date with the newest decision level."""
        self._marks.append((len(self._log), self.cost))
        self.assign(prop.trail[prop.level_starts[-1]:], prop.val)

    def assign(self, lits: Iterable[int], val: Sequence[int]) -> None:
        """Bring the table up to date with the trail entries ``lits``,
        just assigned under ``val``, logging every entry it changes."""
        ctl, bound, log = self._instance.ctl, self.bound, self._log
        changed = []
        for lit in lits:
            v = abs(lit)
            if lit > 0 and ctl[v]:
                continue  # a true gate's entry comes from its children
            new = 0.0 if lit > 0 else math.inf
            if bound[v] != new:
                if lit > 0:
                    self.cost += bound[v]
                log.append((v, bound[v]))
                bound[v] = new
                changed.append(v)
        _settle(bound, changed, self._instance, self._combine, min, val, log)

    def undo(self, level: int) -> None:
        """Restore the entries and the cost of every level beyond ``level``."""
        if len(self._marks) <= level:
            return
        mark, self.cost = self._marks[level]
        del self._marks[level:]
        bound = self.bound
        for v, old in reversed(self._log[mark:]):
            bound[v] = old
        del self._log[mark:]


def _cheapest_events(instance: WcnfInstance, bound: Sequence[float]) -> list[str]:
    """Events reached from the root through every AND child and, at each
    OR, the child with the least ``bound``: an optimal completion on a
    tree, a feasible guess under sharing."""
    ctl, kids = instance.ctl, instance.kids
    seen: set[int] = set()
    walk = [instance.var_map.root_var]
    while walk:
        v = walk.pop()
        if ctl[v] and v not in seen:
            walk.extend(kids[v] if ctl[v] < 0 else (min(kids[v], key=bound.__getitem__),))
        seen.add(v)
    return [instance.var_map.event_of_var[v] for v in seen if not ctl[v]]


def _cores(instance: WcnfInstance, val: Sequence[int], lb: float, target: float,
           deadline: float) -> tuple[float, list[float], Optional[list[str]]]:
    """Weight-split path sets (the cores of core-guided MaxSAT): a bound
    ``lb`` and residual event weights ``r`` such that every cut set C of
    the root weighs at least ``lb + sum(r[e] for e in C)``.

    ``val`` holds the root's values and ``lb`` starts as its cost: events
    true at the root are in every C, so their weight is in ``lb`` and
    their residual is 0.
    Each round takes the zero-residual events as true and walks down from
    the root over false nodes to a path set P, whose joint non-occurrence
    keeps the top from failing, so that every C meets it: every child of
    an OR, the false child of an AND with the least sum of ``1/r`` below
    it, never a variable false at the root.  P's least residual leaves
    every member and joins ``lb``.  The rounds stop once ``lb`` reaches
    ``target`` or the deadline passes, or once the zero-residual events
    fail the top, and then return those events.

    ``score`` reads the circuit dually: an open event scores ``1/r``, a
    gate the least score of an AND's children or the sum over an OR's, a
    variable made true by the zero-residual events ``inf`` and one false
    at the root 0.  Each round ``_settle``s only the ancestors of the
    events whose residuals it lowered: the last path set (at first, every
    event)."""
    ctl, kids, top = instance.ctl, instance.kids, instance.var_map.root_var
    r = [0.0 if x > 0 else w for x, w in zip(val, instance.weight)]
    score = [0.0] * len(val)  # all zero: a consistent start for _settle
    events = instance.var_map.event_of_var
    core, m = [v for v in events if val[v] >= 0], 0.0
    while True:
        for v in core:
            r[v] -= m
            score[v] = 1.0 / r[v] if r[v] else math.inf
        lb += m
        if lb >= target or time.perf_counter() > deadline:
            return lb, r, None
        _settle(score, core, instance, min, math.fsum, val)
        if score[top] == math.inf:
            return lb, r, [e for v, e in events.items() if r[v] == 0.0]
        core, walk, seen = [], [top], {top}
        while walk:
            v = walk.pop()
            if not ctl[v]:
                core.append(v)
                continue
            for c in (min(kids[v], key=score.__getitem__),) if ctl[v] < 0 else kids[v]:
                if 0.0 < score[c] < math.inf and c not in seen:
                    seen.add(c)
                    walk.append(c)
        if not core:  # no model is left; the search will find that out
            return lb, r, None
        m = min(r[v] for v in core)
