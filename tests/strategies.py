"""Hypothesis strategies for fault trees and their probabilities."""

from __future__ import annotations

from hypothesis import strategies as st

from mpmcs.fault_tree import BasicEvent, FaultTree, Gate, GateOp

probabilities = st.floats(
    min_value=0.001, max_value=0.999, allow_nan=False, allow_infinity=False
)


@st.composite
def fault_trees(draw, max_events: int = 8, shared: bool = False) -> FaultTree:
    """Valid random trees: every node reachable, acyclic by construction.

    Gates are built bottom-up over an open list that starts with the
    events, so the final tree covers all of them.  With ``shared`` a few
    extra cross-references turn the tree into a DAG.
    """
    n_events = draw(st.integers(min_value=1, max_value=max_events))
    nodes = {}
    event_ids = []
    for i in range(1, n_events + 1):
        eid = f"e{i}"
        nodes[eid] = BasicEvent(eid, draw(probabilities))
        event_ids.append(eid)

    open_ids = list(event_ids)
    gate_children: dict[str, list[str]] = {}
    n_gates = 0
    while len(open_ids) > 1 or n_gates == 0:
        n_gates += 1
        gid = f"g{n_gates}"
        k = 1 if len(open_ids) == 1 else draw(
            st.integers(min_value=2, max_value=min(4, len(open_ids)))
        )
        children = open_ids[:k]
        del open_ids[:k]
        gate_children[gid] = children
        open_ids.append(gid)

    if shared and n_events > 1:
        # Re-route some events into extra parents; duplicates within one
        # gate stay forbidden, cross-gate sharing is the point.
        extra = draw(st.integers(min_value=1, max_value=n_events))
        for i in range(extra):
            gid = f"g{draw(st.integers(min_value=1, max_value=n_gates))}"
            eid = event_ids[i % n_events]
            if eid not in gate_children[gid]:
                gate_children[gid].append(eid)

    for gid, children in gate_children.items():
        op = GateOp.AND if draw(st.booleans()) else GateOp.OR
        nodes[gid] = Gate(gid, op, tuple(children))
    return FaultTree(name="hypo", nodes=nodes, top=open_ids[0])


@st.composite
def and_of_ors(draw, max_events: int = 6) -> FaultTree:
    """An AND over two to four OR gates of two or three events each, drawn
    from three to ``max_events`` events, so that the ORs share events.

    Under sharing the root bound table takes the max at an AND, not the
    sum, so it leaves most of these roots open and the core pass runs;
    on ``fault_trees(shared=True)`` it rarely does.
    """
    n_events = draw(st.integers(min_value=3, max_value=max_events))
    event_ids = [f"e{i}" for i in range(1, n_events + 1)]
    nodes: dict = {eid: BasicEvent(eid, draw(probabilities)) for eid in event_ids}
    n_ors = draw(st.integers(min_value=2, max_value=4))
    kids = [
        draw(st.lists(st.sampled_from(event_ids), min_size=2, max_size=3, unique=True))
        for _ in range(n_ors)
    ]
    for eid in event_ids:  # every event reachable
        if not any(eid in k for k in kids):
            kids[draw(st.integers(min_value=0, max_value=n_ors - 1))].append(eid)
    for i, k in enumerate(kids):
        nodes[f"o{i}"] = Gate(f"o{i}", GateOp.OR, tuple(k))
    nodes["top"] = Gate("top", GateOp.AND, tuple(f"o{i}" for i in range(n_ors)))
    return FaultTree(name="hypo", nodes=nodes, top="top")


def dags(max_events: int = 8):
    """Shared-node trees: ``fault_trees(shared=True)`` or ``and_of_ors``."""
    return st.one_of(fault_trees(max_events, shared=True), and_of_ors(max_events))
