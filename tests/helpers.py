"""Shared test utilities: compact tree builders and exhaustive checkers.

Everything here is deliberately independent of the search code it is
used to judge; correctness checks go through plain formula evaluation
and bitmask enumeration only.
"""

from __future__ import annotations

import random

from mpmcs.encoding import CnfFormula, VarMap
from mpmcs.fault_tree import (
    BasicEvent,
    BooleanFormula,
    FaultTree,
    Gate,
    GateOp,
    evaluate,
)
from mpmcs.generator import GeneratorParams, random_fault_tree

# Worked example: probabilities and their log-space weights.
FIRE_WEIGHTS = {
    "x1": (0.2, 1.60944),
    "x2": (0.1, 2.30259),
    "x3": (0.001, 6.90776),
    "x4": (0.002, 6.21461),
    "x5": (0.05, 2.99573),
    "x6": (0.1, 2.30259),
    "x7": (0.05, 2.99573),
}


def tree(spec: dict, top: str, name: str = "test") -> FaultTree:
    """Build a FaultTree from ``{id: prob}`` and ``{id: (op, children)}``."""
    nodes = {}
    for nid, value in spec.items():
        if isinstance(value, tuple):
            op, children = value
            nodes[nid] = Gate(nid, GateOp(op), tuple(children))
        else:
            nodes[nid] = BasicEvent(nid, float(value))
    return FaultTree(name=name, nodes=nodes, top=top)


def small_random_tree(seed: int, max_nodes: int = 13) -> FaultTree:
    """Seeded tree with at most ``max_nodes - 1`` basic events."""
    nodes = random.Random(seed).randint(1, max_nodes)
    return random_fault_tree(GeneratorParams(nodes=nodes, seed=seed))


def satisfying_event_sets(
    formula: BooleanFormula, event_ids: list[str]
) -> set[frozenset[str]]:
    """All event subsets that satisfy ``formula``, by direct evaluation."""
    out = set()
    n = len(event_ids)
    for mask in range(1 << n):
        chosen = frozenset(event_ids[i] for i in range(n) if mask >> i & 1)
        if evaluate(formula, {e: True for e in chosen}):
            out.add(chosen)
    return out


def all_models(cnf: CnfFormula) -> list[int]:
    """Every satisfying assignment of ``cnf`` as a bitmask (bit v-1 = var v).

    Exhaustive over 2^num_vars; callers keep num_vars small.
    """
    masks = []
    for clause in cnf.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << cnf.num_vars) - 1
    models = []
    for m in range(1 << cnf.num_vars):
        inv = full & ~m
        if all(m & pos or inv & neg for pos, neg in masks):
            models.append(m)
    return models


def project_models(models: list[int], var_map: VarMap) -> set[frozenset[str]]:
    """Each model restricted to the events it sets true."""
    out = set()
    for m in models:
        out.add(
            frozenset(
                eid
                for eid, var in var_map.var_of_event.items()
                if m >> (var - 1) & 1
            )
        )
    return out


def is_minimal_cut(formula: BooleanFormula, events: frozenset[str]) -> bool:
    """Satisfies the formula, and no single drop still does."""
    if not evaluate(formula, {e: True for e in events}):
        return False
    for e in events:
        rest = events - {e}
        if evaluate(formula, {x: True for x in rest}):
            return False
    return True
