"""Fault-tree data model: AND/OR gates over probability-weighted basic events.

A fault tree is a rooted graph of nodes keyed by id.  Internal nodes are
gates (AND / OR), leaves are basic events carrying an occurrence
probability in the open interval (0, 1).  Sharing of nodes (DAG shape) is
allowed as long as the graph stays acyclic and everything is reachable
from the top event.

The tree itself is the failure formula: ``evaluate`` reads it with
Boolean semantics in one pass over ``FaultTree.order``.  Complementation
is expressed purely by flipping gates (``dualize``), never by negation
nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Union


class FaultTreeError(ValueError):
    """Raised for structurally invalid trees or malformed input files."""


class GateOp(Enum):
    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class Gate:
    id: str
    op: GateOp
    children: tuple[str, ...]


@dataclass(frozen=True)
class BasicEvent:
    id: str
    probability: float


Node = Union[Gate, BasicEvent]


@dataclass(frozen=True)
class FaultTree:
    """Validated fault tree.  Construction runs all structural checks.

    ``order`` lists every node id once, children before parents: the
    order in which the validating depth-first walk from ``top`` finishes
    them.  It is derived, so it takes no part in construction or equality.
    """

    name: str
    nodes: Mapping[str, Node]
    top: str
    order: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order", _validate(self))

    @property
    def event_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if isinstance(n, BasicEvent)]

    @property
    def gate_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if isinstance(n, Gate)]

    def probabilities(self) -> dict[str, float]:
        return {
            n.id: n.probability
            for n in self.nodes.values()
            if isinstance(n, BasicEvent)
        }


# Event id -> truth value; ids absent from the mapping count as False.
Assignment = Mapping[str, bool]


def _validate(tree: FaultTree) -> tuple[str, ...]:
    """Run the structural checks; return the node ids in DFS finish order."""
    if not tree.nodes:
        raise FaultTreeError("tree has no nodes")
    for nid, node in tree.nodes.items():
        if nid != node.id:
            raise FaultTreeError(f"node keyed {nid!r} carries id {node.id!r}")
        if isinstance(node, BasicEvent):
            p = node.probability
            if not isinstance(p, float) or not (0.0 < p < 1.0):
                raise FaultTreeError(
                    f"basic event {nid!r}: probability {p!r} outside open interval (0, 1)"
                )
        else:
            if not node.children:
                raise FaultTreeError(f"gate {nid!r} has no children")
            if len(set(node.children)) != len(node.children):
                raise FaultTreeError(f"gate {nid!r} lists a duplicate child")
            for child in node.children:
                if child not in tree.nodes:
                    raise FaultTreeError(
                        f"gate {nid!r} references unknown child {child!r}"
                    )
    if tree.top not in tree.nodes:
        raise FaultTreeError(f"top {tree.top!r} is not a node")

    # One iterative three-state DFS from the top (trees can be deep, so no
    # recursion): reaching a node still on the stack closes a cycle, and
    # the nodes it finishes are exactly those reachable from the top.
    GREY, BLACK = 1, 2
    state = {tree.top: GREY}
    order: list[str] = []
    stack = [(tree.top, iter(getattr(tree.nodes[tree.top], "children", ())))]
    while stack:
        nid, children = stack[-1]
        for child in children:
            seen = state.get(child)
            if seen == GREY:
                raise FaultTreeError(f"cycle through node {child!r}")
            if seen is None:
                state[child] = GREY
                stack.append((child, iter(getattr(tree.nodes[child], "children", ()))))
                break
        else:
            state[nid] = BLACK
            order.append(nid)
            stack.pop()
    if len(state) < len(tree.nodes):
        shown = sorted(set(tree.nodes) - set(state))[0]
        raise FaultTreeError(f"node {shown!r} is not reachable from top {tree.top!r}")
    return tuple(order)


_GATE_KEYS = {"id", "type", "children"}
_EVENT_KEYS = {"id", "type", "prob"}


def parse_fault_tree(text: str) -> FaultTree:
    """Parse the JSON wire format into a validated FaultTree.

    Schema: ``{"name": str, "top": str, "nodes": [...]}`` where each node
    is either ``{"id", "type": "and"|"or", "children": [...]}`` or
    ``{"id", "type": "basic", "prob": number}``.  Unknown fields and
    unknown node types are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultTreeError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FaultTreeError("top-level JSON value must be an object")
    extra = set(doc) - {"name", "top", "nodes"}
    if extra:
        raise FaultTreeError(f"unknown top-level field {sorted(extra)[0]!r}")
    for key in ("name", "top", "nodes"):
        if key not in doc:
            raise FaultTreeError(f"missing required field {key!r}")
    name, top, raw_nodes = doc["name"], doc["top"], doc["nodes"]
    if not isinstance(name, str) or not isinstance(top, str):
        raise FaultTreeError("'name' and 'top' must be strings")
    if not isinstance(raw_nodes, list):
        raise FaultTreeError("'nodes' must be an array")

    nodes: dict[str, Node] = {}
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise FaultTreeError("each node must be an object")
        kind = raw.get("type")
        if kind in ("and", "or"):
            extra = set(raw) - _GATE_KEYS
            if extra:
                raise FaultTreeError(
                    f"gate {raw.get('id')!r}: unknown field {sorted(extra)[0]!r}"
                )
            nid, children = raw.get("id"), raw.get("children")
            if not isinstance(nid, str):
                raise FaultTreeError("gate id must be a string")
            if not isinstance(children, list) or not all(
                isinstance(c, str) for c in children
            ):
                raise FaultTreeError(f"gate {nid!r}: 'children' must be string ids")
            node: Node = Gate(nid, GateOp(kind), tuple(children))
        elif kind == "basic":
            extra = set(raw) - _EVENT_KEYS
            if extra:
                raise FaultTreeError(
                    f"event {raw.get('id')!r}: unknown field {sorted(extra)[0]!r}"
                )
            nid, prob = raw.get("id"), raw.get("prob")
            if not isinstance(nid, str):
                raise FaultTreeError("event id must be a string")
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise FaultTreeError(f"event {nid!r}: 'prob' must be a number")
            node = BasicEvent(nid, float(prob))
        else:
            raise FaultTreeError(f"node {raw.get('id')!r}: unknown type {kind!r}")
        if node.id in nodes:
            raise FaultTreeError(f"duplicate node id {node.id!r}")
        nodes[node.id] = node

    return FaultTree(name=name, nodes=nodes, top=top)


def serialize_fault_tree(tree: FaultTree) -> str:
    """Inverse of parse_fault_tree; node order is preserved."""
    out = []
    for node in tree.nodes.values():
        if isinstance(node, Gate):
            out.append(
                {"id": node.id, "type": node.op.value, "children": list(node.children)}
            )
        else:
            out.append({"id": node.id, "type": "basic", "prob": node.probability})
    return json.dumps({"name": tree.name, "top": tree.top, "nodes": out}, indent=2)


def dualize(tree: FaultTree) -> FaultTree:
    """The same tree with every AND gate made OR and every OR gate made AND.

    Name, top, node ids, child order and probabilities are kept.  Reading
    each event as its complement (the event does not occur), the result is
    the success tree: by De Morgan its top holds exactly when the original
    top fails to.  The operation is an involution.
    """
    swapped = {GateOp.AND: GateOp.OR, GateOp.OR: GateOp.AND}
    nodes = {
        nid: replace(node, op=swapped[node.op]) if isinstance(node, Gate) else node
        for nid, node in tree.nodes.items()
    }
    return FaultTree(name=tree.name, nodes=nodes, top=tree.top)


def evaluate(tree: FaultTree, assignment: Assignment) -> bool:
    """Whether the top event occurs; events missing from ``assignment`` are False."""
    value: dict[str, bool] = {}
    for nid in tree.order:
        node = tree.nodes[nid]
        if isinstance(node, BasicEvent):
            value[nid] = bool(assignment.get(nid, False))
        else:
            parts = (value[c] for c in node.children)
            value[nid] = all(parts) if node.op is GateOp.AND else any(parts)
    return value[tree.top]
