"""Shared test utilities: compact tree builders and exhaustive checkers.

Everything here is deliberately independent of the search code it is
used to judge; correctness checks go through direct evaluation of the
fault tree (``evaluate``, which reads gate types and child ids, never
the compiled circuit) and bitmask enumeration only.  The ``reference_*``
functions are plain full-pass versions of compiled-circuit code, sharing
no code with it, that tests require it to equal; the one exception,
``reference_enumerate_optima``, is the plain blocking loop over the
library's own solves that enumeration must equal.
"""

from __future__ import annotations

import json
import math
import random

from mpmcs.encoding import CnfFormula, VarMap, WcnfInstance, to_log_space
from mpmcs.fault_tree import BasicEvent, FaultTree, Gate, GateOp, evaluate
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.solver import (TIE_REL_TOL, MpmcsResult, SolverConfig, add_blocking_clause,
                          extract_mpmcs, solve_branch_and_bound)

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


def underflow_tree() -> FaultTree:
    """OR(AND(a, b), AND(c, d)) with a = b = 1e-200 and c = d = 1e-190:
    both cut sets' probability products underflow to 0.0, and {c, d},
    of log weight 874.98 against 921.03, is the optimum."""
    return tree({"top": ("or", ["g1", "g2"]), "g1": ("and", ["a", "b"]),
                 "g2": ("and", ["c", "d"]), "a": 1e-200, "b": 1e-200,
                 "c": 1e-190, "d": 1e-190}, top="top", name="underflow")


def small_random_tree(seed: int, max_nodes: int = 13) -> FaultTree:
    """Seeded tree with at most ``max_nodes - 1`` basic events."""
    nodes = random.Random(seed).randint(1, max_nodes)
    return random_fault_tree(GeneratorParams(nodes=nodes, seed=seed))


def seeded_dag(nodes: int, share: float, seed: int) -> FaultTree:
    """A seeded random tree plus ``share * #events`` extra gate -> event
    edges, or as many as there are gate-event pairs not yet linked."""
    base = random_fault_tree(GeneratorParams(nodes=nodes, seed=seed))
    rng = random.Random(f"dag:{seed}")
    children = {
        n.id: list(n.children) for n in base.nodes.values() if isinstance(n, Gate)
    }
    gates, events = list(children), base.event_ids
    event_set = set(events)
    linked = sum(c in event_set for kids in children.values() for c in kids)
    extra = min(round(share * len(events)), len(gates) * len(events) - linked)
    while extra:
        g, e = rng.choice(gates), rng.choice(events)
        if e not in children[g]:
            children[g].append(e)
            extra -= 1
    nodes_out = {
        nid: Gate(nid, node.op, tuple(children[nid])) if nid in children else node
        for nid, node in base.nodes.items()
    }
    return FaultTree(name="dag", nodes=nodes_out, top=base.top)


def tie_tree(nodes: int, seed: int) -> FaultTree:
    """``random_fault_tree(nodes, seed)`` with probabilities drawn from
    (0.1, 0.01), as the benchmark's ``all_optima`` workload draws them,
    so many cut sets tie."""
    return _tied(random_fault_tree(GeneratorParams(nodes=nodes, seed=seed)), seed)


def tie_dag(nodes: int, share: float, seed: int) -> FaultTree:
    """``seeded_dag(nodes, share, seed)`` with its probabilities drawn as
    ``tie_tree`` draws them."""
    return _tied(seeded_dag(nodes, share, seed), seed)


def _tied(base: FaultTree, seed: int) -> FaultTree:
    rng = random.Random(f"ties:{seed}")
    nodes_out = {
        nid: BasicEvent(nid, rng.choice((0.1, 0.01))) if isinstance(node, BasicEvent) else node
        for nid, node in base.nodes.items()
    }
    return FaultTree(name="ties", nodes=nodes_out, top=base.top)


# The first optimum ``enumerate_optima`` finds on ``tie_tree(100, 2)``.
TIES_100_2_FIRST = frozenset({"e8", "e9", "e24"})


def reference_build_wcnf(t: FaultTree) -> WcnfInstance:
    """``build_wcnf`` as a node-by-node loop over a depth-first walk of its
    own, independent of ``FaultTree.order``.

    The walk finishes a leaf as soon as it meets it; events take
    variables in the order they finish, gates after all events in the
    order they finish.
    """
    finished: list[str] = []
    seen = {t.top}
    stack = [(t.top, iter(getattr(t.nodes[t.top], "children", ())))]
    while stack:
        nid, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(getattr(t.nodes[child], "children", ()))))
                break
        else:
            finished.append(nid)
            stack.pop()
    num_events = len(t.event_ids)
    var_of: dict[str, int] = {}
    soft: list[tuple[int, float]] = []
    # Variable 0 and the events have no children.
    ctl: list[int] = [0] * (num_events + 1)
    kids: list[tuple[int, ...]] = [()] * (num_events + 1)
    for nid in finished:
        node = t.nodes[nid]
        if isinstance(node, BasicEvent):
            var = len(soft) + 1
            soft.append((var, to_log_space(node.probability)))
            var_of[nid] = var
            continue
        ctl.append(-1 if node.op is GateOp.AND else 1)
        kids.append(tuple(var_of[c] for c in node.children))
        var_of[nid] = len(kids) - 1
    var_of_event = {nid: v for nid, v in var_of.items() if v <= num_events}
    children = [c for gate_kids in kids for c in gate_kids]
    return WcnfInstance(
        weight=(0.0, *(w for _, w in soft)) + (0.0,) * (len(kids) - len(soft) - 1),
        var_map=VarMap(
            var_of_event=var_of_event,
            event_of_var={v: e for e, v in var_of_event.items()},
            root_var=var_of[t.top],
        ),
        ctl=tuple(ctl),
        kids=tuple(kids),
        tree_shaped=len(children) == len(set(children)),
    )


def reference_enumerate_optima(instance: WcnfInstance, weights) -> list[MpmcsResult]:
    """``enumerate_optima`` with branch and bound alone, as the plain
    blocking loop: each re-solve proves its blocked instance's own
    optimum, with no tie cutoff and no floor, and the loop stops at the
    first optimum heavier than the tie tolerance allows, or at none."""
    results: list[MpmcsResult] = []
    while True:
        sol = solve_branch_and_bound(instance, SolverConfig())
        assert sol.proven
        if sol.assignment is None:
            return results
        res = extract_mpmcs(sol, instance, weights)
        if results:
            first = results[0].log_weight
            if res.log_weight > first + max(TIE_REL_TOL, TIE_REL_TOL * abs(first)):
                return results
        results.append(res)
        instance = add_blocking_clause(instance, res.cut_set)


def reference_serialize_fault_tree(t: FaultTree) -> str:
    """``serialize_fault_tree`` as ``json.dumps`` of the tree's dict form."""
    out = []
    for node in t.nodes.values():
        if isinstance(node, Gate):
            out.append({"id": node.id, "type": node.op.value, "children": list(node.children)})
        else:
            out.append({"id": node.id, "type": "basic", "prob": node.probability})
    return json.dumps({"name": t.name, "top": t.top, "nodes": out}, indent=2)


def reference_complete_assignment(instance: WcnfInstance, true_events) -> tuple[int, ...]:
    """``complete_assignment`` as one forward pass over every gate."""
    val = [-1] * len(instance.ctl)
    val[0] = 0
    for eid in true_events:
        val[instance.var_map.var_of_event[eid]] = 1
    for g, (c, kids) in enumerate(zip(instance.ctl, instance.kids)):
        if c:
            val[g] = 1 if (all if c < 0 else any)(val[k] > 0 for k in kids) else -1
    return tuple(val)


def reference_cores(instance: WcnfInstance, val, target: float):
    """``circuit._cores`` with no deadline, re-scoring every gate in every
    round in one forward pass: per variable ``z`` (1 true, 0 false, -1
    false at the root), the sum of ``1/r`` over the path set a walk from
    it takes, and an AND's chosen child.  Returns ``(lb, r, zero)``."""
    ctl, kids, weight = instance.ctl, instance.kids, instance.weight
    top = instance.var_map.root_var
    r = [0.0 if x > 0 else w for x, w in zip(val, weight)]
    lb = math.fsum(w for x, w in zip(val, weight) if x > 0)
    z = [-1 if x < 0 else 0 for x in val]
    score, pick = [0.0] * len(val), [0] * len(val)
    gates = [g for g in range(1, len(val) - instance.blocking) if ctl[g] and val[g] >= 0]
    events = instance.var_map.event_of_var
    core, m = [v for v in events if val[v] >= 0], 0.0
    while True:
        for v in core:
            r[v] -= m
            z[v], score[v] = (1, 0.0) if r[v] == 0.0 else (0, 1.0 / r[v])
        lb += m
        if lb >= target:
            return lb, r, None
        for g in gates:
            if ctl[g] < 0:
                low, best = math.inf, 0
                for c in kids[g]:
                    if z[c] <= 0 and (not best or score[c] < low):
                        low, best = score[c], c
                z[g], score[g], pick[g] = (0, low, best) if best else (1, 0.0, 0)
            elif any(z[c] > 0 for c in kids[g]):
                z[g] = 1
            else:
                z[g], score[g] = 0, math.fsum(score[c] for c in kids[g])
        if z[top] > 0:
            return lb, r, [e for v, e in events.items() if z[v] > 0]
        core, walk, seen = [], [top], {top}
        while walk:
            v = walk.pop()
            if not ctl[v]:
                core.append(v)
                continue
            for c in (pick[v],) if ctl[v] < 0 else kids[v]:
                if z[c] == 0 and c not in seen:
                    seen.add(c)
                    walk.append(c)
        if not core:
            return lb, r, None
        m = min(r[v] for v in core)


def satisfying_event_sets(t: FaultTree) -> set[frozenset[str]]:
    """All event subsets that fail the top of ``t``, by direct evaluation."""
    out = set()
    event_ids = t.event_ids
    n = len(event_ids)
    for mask in range(1 << n):
        chosen = frozenset(event_ids[i] for i in range(n) if mask >> i & 1)
        if evaluate(t, {e: True for e in chosen}):
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


def is_minimal_cut(t: FaultTree, events: frozenset[str]) -> bool:
    """Fails the top of ``t``, and no single drop still does."""
    if not evaluate(t, {e: True for e in events}):
        return False
    for e in events:
        rest = events - {e}
        if evaluate(t, {x: True for x in rest}):
            return False
    return True


def unit_propagate(cnf: CnfFormula, decided: list[int]) -> list[int] | None:
    """Naive unit propagation of ``cnf`` plus the ``decided`` literals.

    Returns the value (+1/-1/0) of every variable at the fixpoint, index
    0 unused, or None on a conflict.  Rescans every clause until nothing
    changes; callers keep formulas small.
    """
    val = [0] * (cnf.num_vars + 1)
    for lit in decided:
        if val[abs(lit)] == (-1 if lit > 0 else 1):
            return None
        val[abs(lit)] = 1 if lit > 0 else -1
    changed = True
    while changed:
        changed = False
        for clause in cnf.clauses:
            open_lits = []
            for lit in clause:
                value = val[lit] if lit > 0 else -val[-lit]
                if value == 1:
                    break
                if value == 0:
                    open_lits.append(lit)
            else:
                if not open_lits:
                    return None
                if len(open_lits) == 1:
                    lit = open_lits[0]
                    val[abs(lit)] = 1 if lit > 0 else -1
                    changed = True
    return val
