"""Independent reference for MPMCS answers.

Everything here starts from a tree's JSON text and never calls the
program: an evaluator for the failure condition, and a MILP solved by
HiGHS through ``scipy.optimize.milp``.  The MILP has one binary per event
and per gate, fixes the top at 1, requires ``y_g <= y_c`` for every child
of an AND gate and ``y_g <= sum(y_c)`` for an OR gate, and minimises
``sum(-ln p * x_e)``.  scipy is needed by the benchmark only; the program
itself stays standard-library only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

# A reported weight must match the MILP optimum to this relative tolerance.
WEIGHT_REL_TOL = 1e-6
# Weights within this relative distance count as tied, as in the program's
# ``enumerate_optima``.
TIE_REL_TOL = 1e-9
# A reported weight may exceed the weight of the MILP's own set by float
# noise this small: the program prunes with a relative slack of 1e-12.
SLACK_REL = 1e-12


def _tol(rel: float, w: float) -> float:
    return rel * max(1.0, abs(w))


class RefTree:
    """A fault tree read straight from its JSON text."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.top: str = doc["top"]
        self.prob: dict[str, float] = {}
        self.gates: dict[str, tuple[str, list[str]]] = {}
        for node in doc["nodes"]:
            if node["type"] == "basic":
                self.prob[node["id"]] = node["prob"]
            else:
                self.gates[node["id"]] = (node["type"], node["children"])
        self.order = self._children_first()

    def _children_first(self) -> list[str]:
        order: list[str] = []
        done: set[str] = set()
        stack = [self.top]
        while stack:
            nid = stack[-1]
            if nid in done:
                stack.pop()
                continue
            pending = [c for c in self.gates.get(nid, ("", []))[1] if c not in done]
            if pending:
                stack.extend(pending)
                continue
            done.add(nid)
            order.append(nid)
            stack.pop()
        return order

    def weight(self, events) -> float:
        return math.fsum(-math.log(self.prob[e]) for e in sorted(events))

    def fails(self, events) -> bool:
        """Does the top event occur when exactly ``events`` occur?"""
        val: dict[str, bool] = {}
        for nid in self.order:
            if nid in self.prob:
                val[nid] = nid in events
            else:
                op, children = self.gates[nid]
                parts = (val[c] for c in children)
                val[nid] = all(parts) if op == "and" else any(parts)
        return val[self.top]


@dataclass(frozen=True)
class MilpOptimum:
    weight: float  # HiGHS objective value
    events: frozenset[str]  # the set HiGHS chose
    set_weight: float  # fsum weight of that set


def milp_optimum(tree: RefTree, forbidden=()) -> MilpOptimum | None:
    """Minimum-weight failing event set; None when no set is left.

    Each set in ``forbidden`` is cut off, with its supersets, by
    ``sum(x_e for e in S) <= |S| - 1``.
    """
    events = list(tree.prob)
    ids = events + list(tree.gates)
    idx = {nid: i for i, nid in enumerate(ids)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    upper: list[float] = []

    def row(entries, ub):
        r = len(upper)
        for col, v in entries:
            rows.append(r)
            cols.append(col)
            vals.append(v)
        upper.append(ub)

    for gid, (op, children) in tree.gates.items():
        g = idx[gid]
        if op == "and":
            for c in children:
                row([(g, 1.0), (idx[c], -1.0)], 0.0)
        else:
            row([(g, 1.0)] + [(idx[c], -1.0) for c in children], 0.0)
    for s in forbidden:
        row([(idx[e], 1.0) for e in s], len(s) - 1.0)

    cost = np.zeros(len(ids))
    cost[: len(events)] = [-math.log(tree.prob[e]) for e in events]
    lower = np.zeros(len(ids))
    lower[idx[tree.top]] = 1.0
    a = csr_matrix((vals, (rows, cols)), shape=(len(upper), len(ids)))
    res = milp(
        cost,
        constraints=LinearConstraint(a, -np.inf, np.array(upper)),
        integrality=np.ones(len(ids)),
        bounds=Bounds(lower, np.ones(len(ids))),
        options={"mip_rel_gap": 1e-9},
    )
    if res.status == 2:  # infeasible
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the reference MILP: {res.message}")
    chosen = frozenset(e for i, e in enumerate(events) if res.x[i] > 0.5)
    return MilpOptimum(float(res.fun), chosen, tree.weight(chosen))


def cut_set_problems(tree: RefTree, ref: MilpOptimum, entry: dict) -> list[str]:
    """Why ``entry`` is wrong, if it is: a ``solve`` report, or one optimum.

    Both carry ``cut_set``, ``log_weight`` and ``probability``.
    """
    cut = frozenset(entry["cut_set"])
    w = entry["log_weight"]
    problems = []
    if not cut <= tree.prob.keys():
        return [f"cut set names unknown events {sorted(cut - tree.prob.keys())[:3]}"]
    if not tree.fails(cut):
        problems.append("cut set does not fail the top event")
    elif any(tree.fails(cut - {e}) for e in cut):
        problems.append("cut set is not minimal")
    if w != tree.weight(cut):
        problems.append(f"log_weight {w!r} != fsum(-ln p) {tree.weight(cut)!r}")
    if entry["probability"] != math.exp(-w):
        problems.append("probability != exp(-log_weight)")
    if abs(w - ref.weight) > _tol(WEIGHT_REL_TOL, ref.weight):
        problems.append(f"log_weight {w!r} is not the MILP optimum {ref.weight!r}")
    if w > ref.set_weight + _tol(SLACK_REL, ref.set_weight):
        problems.append(f"log_weight {w!r} exceeds the MILP set's {ref.set_weight!r}")
    return problems


def optima_problems(tree: RefTree, ref: MilpOptimum, report: dict) -> list[str]:
    """Check one ``solve --all-optima`` report, completeness included."""
    optima = report.get("optima") or []
    if not optima:
        return ["no optima listed"]
    problems = []
    for k, entry in enumerate(optima):
        problems += [f"optimum {k}: {p}" for p in cut_set_problems(tree, ref, entry)]
    sets = [frozenset(o["cut_set"]) for o in optima]
    if len(set(sets)) != len(sets):
        problems.append("optima repeat a cut set")
    first = optima[0]["log_weight"]
    if any(abs(o["log_weight"] - first) > _tol(TIE_REL_TOL, first) for o in optima):
        problems.append("optima are not tied")
    if report["cut_set"] != optima[0]["cut_set"]:
        problems.append("cut_set is not the first optimum")
    rest = milp_optimum(tree, forbidden=sets)
    if rest is not None and rest.weight <= ref.weight + _tol(WEIGHT_REL_TOL, ref.weight):
        problems.append(
            f"optima list is incomplete: {sorted(rest.events)} also weighs {rest.weight!r}"
        )
    return problems
