"""Brute-force reference for small trees.

Deliberately the dumbest correct thing: enumerate all event subsets,
keep the ones that fail the top event, filter to set-minimal ones.  The
formula is monotone, so a satisfying set is minimal exactly when dropping
any single member stops it satisfying.  Everything downstream is tested
against this module, so it trades speed for auditability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import fsum, prod

from .encoding import event_weights, joint_probability
from .fault_tree import FaultTree, evaluate
from .solver import MpmcsResult

MAX_ORACLE_EVENTS = 20


@dataclass(frozen=True)
class CutSet:
    events: frozenset[str]
    probability: float


def enumerate_mcs(tree: FaultTree) -> list[CutSet]:
    """All minimal cut sets, most probable first (ties: lexicographic ids).

    They are ranked by log weight, the ``fsum`` of the members' ``-ln p``,
    not by ``probability``, so sets whose products underflow to 0.0 still
    rank by how probable they are.

    Refuses trees with more than 20 basic events; the full 2^n sweep is
    the point, not a limitation to engineer around.
    """
    event_ids = sorted(tree.event_ids)
    n = len(event_ids)
    if n > MAX_ORACLE_EVENTS:
        raise ValueError(
            f"{n} basic events exceed the {MAX_ORACLE_EVENTS}-event oracle cap"
        )
    probs = tree.probabilities()
    weight_of = event_weights(tree)

    satisfying: list[int] = []
    sat_lookup = set()
    for mask in range(1 << n):
        assignment = {event_ids[i]: True for i in range(n) if mask >> i & 1}
        if evaluate(tree, assignment):
            satisfying.append(mask)
            sat_lookup.add(mask)

    minimal = []
    for mask in satisfying:
        if all(
            (mask & ~(1 << i)) not in sat_lookup
            for i in range(n)
            if mask >> i & 1
        ):
            minimal.append(mask)

    ranked = []
    for mask in minimal:
        members = [event_ids[i] for i in range(n) if mask >> i & 1]
        cut = CutSet(events=frozenset(members), probability=prod(probs[e] for e in members))
        ranked.append((fsum(weight_of[e] for e in members), members, cut))
    ranked.sort(key=lambda r: r[:2])
    return [cut for _, _, cut in ranked]


def oracle_mpmcs(tree: FaultTree) -> MpmcsResult:
    """Best minimal cut set as an MpmcsResult with solver_id "oracle".

    The log weight is a ``math.fsum`` of the members' weights, as in the
    solvers; ``fsum`` rounds the exact sum once, so equal sets compare
    bit-for-bit equal whatever order the terms come in.
    """
    start = time.perf_counter()
    cut_sets = enumerate_mcs(tree)
    best = cut_sets[0]
    weight_of = event_weights(tree)
    weights = [weight_of[e] for e in best.events]
    log_weight = fsum(weights)
    return MpmcsResult(
        cut_set=best.events,
        log_weight=log_weight,
        probability=joint_probability(weights),
        solver_id="oracle",
        elapsed=time.perf_counter() - start,
    )
