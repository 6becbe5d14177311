"""Weighted-instance assembly, and the CNF encoding it exports.

The failure formula is compiled to a circuit with one variable per basic
event and one per gate, stored as a gate table indexed by variable, which
the solver works on.  Event probabilities move to log space,
``w = -ln p``, so that minimising a sum of falsified soft-clause weights
maximises the joint probability of the chosen events.  The circuit's
Tseitin CNF is derived only for export.

Literals are DIMACS-style signed integers: ``v`` is the positive literal
of variable ``v >= 1`` and ``-v`` its negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .fault_tree import FaultTree, GateOp

Clause = tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")


@dataclass(frozen=True)
class VarMap:
    """Event id <-> event variable maps, and the variable of the top node."""

    var_of_event: dict[str, int]
    event_of_var: dict[int, str]
    root_var: int


# Event id -> strictly positive, finite log-space weight.
WeightMap = dict[str, float]


@dataclass(frozen=True)
class WcnfInstance:
    """Weighted partial MaxSAT instance for one fault tree.

    The failure formula is a circuit stored per variable: ``ctl[v]`` is
    -1 when ``v`` is an AND gate, 1 for an OR gate and 0 for a basic
    event, and ``kids[v]`` lists a gate's child variables (an event has
    none; index 0 is unused).  Every child variable is smaller than its
    gate's, so one forward pass values children before parents; the root
    is ``var_map.root_var`` (an event variable when the top is an event).
    The last ``blocking`` gates are AND gates over blocked cut sets.  The
    hard constraints are the circuit itself: the root is true and every
    blocking gate is false.  ``tree_shaped`` records that no variable is
    a child of two of the fault tree's gates, i.e. no node is shared.

    ``weight[v]`` is an event's ``-ln p`` and 0 for a gate: the cost of
    the event's unit soft clause, which prefers it false.  ``parents[v]``
    lists the gates (blocking gates too) with ``v`` as a child, in
    increasing order; derived on construction unless given, as
    ``add_blocking_clause`` gives it, sharing the tree's lists.
    """

    var_map: VarMap
    ctl: tuple[int, ...]
    kids: tuple[tuple[int, ...], ...]
    weight: tuple[float, ...]
    tree_shaped: bool
    blocking: int = 0
    parents: list[list[int]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.parents is None:
            parents: list[list[int]] = [[] for _ in self.kids]
            for g, kids in enumerate(self.kids):
                for c in kids:
                    parents[c].append(g)
            object.__setattr__(self, "parents", parents)

    @property
    def soft(self) -> tuple[tuple[int, float], ...]:
        """Each event's unit soft clause as ``(variable, weight)``, on read."""
        events = len(self.var_map.var_of_event)
        return tuple(zip(range(1, events + 1), self.weight[1:events + 1]))

    @property
    def hard(self) -> CnfFormula:
        """The Tseitin CNF of the hard constraints, derived on each read.

        Each fault-tree gate ``g`` emits its full biconditional: AND as
        ``(-g c_i)`` per child then ``(g -c_1 .. -c_k)``, OR as
        ``(-g c_1 .. c_k)`` then ``(g -c_i)`` per child.  A unit clause
        asserts the root, and each blocking gate is its single clause
        ``(-c_1 .. -c_k)``, with no variable of its own.  Restricted to
        event variables, the models are exactly the event sets that fail
        the top and contain no blocked set.
        """
        end = len(self.kids) - self.blocking
        clauses: list[Clause] = []
        for g in range(len(self.var_map.var_of_event) + 1, end):
            kids = self.kids[g]
            if self.ctl[g] < 0:
                clauses.extend((-g, c) for c in kids)
                clauses.append(tuple(-c for c in kids) + (g,))
            else:
                clauses.append((-g,) + kids)
                clauses.extend((-c, g) for c in kids)
        clauses.append((self.var_map.root_var,))
        clauses.extend(tuple(-c for c in kids) for kids in self.kids[end:])
        return CnfFormula(num_vars=end - 1, clauses=tuple(clauses))

    @property
    def hard_size(self) -> tuple[int, int]:
        """``(hard.num_vars, len(hard.clauses))``, counted without deriving
        the CNF: a gate of fan-in ``k`` emits ``k + 1`` clauses, the root
        one and each blocking gate one."""
        end = len(self.kids) - self.blocking
        gates = end - 1 - len(self.var_map.var_of_event)
        return end - 1, sum(map(len, self.kids[:end])) + gates + 1 + self.blocking


def to_log_space(p: float) -> float:
    """-ln(p) for p in the open interval (0, 1); strictly positive and finite."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability {p!r} outside open interval (0, 1)")
    return -math.log(p)


def joint_probability(weights: Iterable[float]) -> float:
    """exp(-sum of weights): the product of the encoded probabilities.

    The sum uses ``math.fsum``, which rounds once regardless of order,
    so equal weight multisets always produce the same probability.
    """
    return math.exp(-math.fsum(weights))


def event_weights(tree: FaultTree) -> WeightMap:
    return {eid: to_log_space(p) for eid, p in tree.probabilities().items()}


def build_wcnf(tree: FaultTree) -> WcnfInstance:
    """Compile a fault tree into its weighted partial MaxSAT instance.

    Variables follow ``tree.order`` (children before parents): events take
    ``1..E`` in the order the validating walk first meets them, gates
    ``E+1..`` in the order it finishes them, one variable per gate however
    often it is shared.  The hard constraint is that the root is true;
    restricted to event variables, its models are exactly the event sets
    that fail the top.  (The flipped success-tree reading makes this the
    complement of the all-events-held success condition, so no negated
    leaves are ever needed.)  Soft clauses prefer each event false at cost
    ``-ln p``; minimising the falsified weight therefore maximises the
    joint probability of the events that do occur.
    """
    order, nodes, num_events = tree.order, tree.nodes, tree.num_events
    var_of = dict(zip(order, range(1, len(order) + 1)))
    events = order[:num_events]
    gates = list(map(nodes.__getitem__, order[num_events:]))
    var_of_child, AND = var_of.__getitem__, GateOp.AND
    kids = [tuple(map(var_of_child, gate.children)) for gate in gates]
    head = num_events + 1  # variable 0 and the events: no children
    return WcnfInstance(
        var_map=VarMap(
            var_of_event=dict(zip(events, var_of.values())),
            event_of_var=dict(zip(var_of.values(), events)),
            root_var=var_of[tree.top],
        ),
        ctl=(0,) * head + tuple([-1 if gate.op is AND else 1 for gate in gates]),
        kids=((),) * head + tuple(kids),
        # -ln p, as ``to_log_space``; validation keeps p inside (0, 1).
        weight=(0.0, *[-math.log(nodes[e].probability) for e in events])
        + (0.0,) * len(gates),
        # Every node but the top has a parent, one in a tree; children are
        # distinct, so each shared node adds an edge.
        tree_shaped=sum(map(len, kids)) == len(order) - 1,
    )


WCNF_WEIGHT_SCALE = 10**6


def format_wcnf(instance: WcnfInstance) -> str:
    """Render the instance in DIMACS WCNF text form.

    Soft weights are scaled to integers by ``max(1, round(w * 10^6))``:
    WCNF soft weights are positive, so an event with probability above
    1 - 5e-7, whose weight rounds to 0, still weighs 1 and keeps its
    preference to be false.  The hard weight ``top`` is the scaled soft
    total plus one.  Output is deterministic byte for byte: the ``hard``
    clauses in encoding order, then one unit soft clause per event
    variable preferring it false.
    """
    hard = instance.hard
    scaled = [(var, max(1, round(w * WCNF_WEIGHT_SCALE))) for var, w in instance.soft]
    top = sum(s for _, s in scaled) + 1
    num_clauses = len(hard.clauses) + len(scaled)
    lines = [f"p wcnf {hard.num_vars} {num_clauses} {top}"]
    for clause in hard.clauses:
        lines.append(f"{top} " + " ".join(str(l) for l in clause) + " 0")
    for var, s in scaled:
        lines.append(f"{s} -{var} 0")
    return "\n".join(lines) + "\n"
