"""Fault-tree data model: AND/OR gates over probability-weighted basic events.

A fault tree is a rooted graph of nodes keyed by id.  Internal nodes are
gates (AND / OR), leaves are basic events carrying an occurrence
probability in the open interval (0, 1).  Sharing of nodes (DAG shape) is
allowed as long as the graph stays acyclic and everything is reachable
from the top event.

The tree translates into a positive-literal Boolean formula (``Var`` /
``And`` / ``Or``); complementation is expressed purely by flipping gates
(``dualize``), never by negation nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Union


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
    """Validated fault tree.  Construction runs all structural checks."""

    name: str
    nodes: Mapping[str, Node]
    top: str

    def __post_init__(self):
        _validate(self)

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


# Boolean formulas.  All leaves are positive; And/Or carry >= 1 child.
# Shared subtrees are represented by shared objects, which keeps derived
# encodings linear for DAG-shaped trees.


@dataclass(frozen=True)
class Var:
    event: str


@dataclass(frozen=True)
class And:
    children: tuple["BooleanFormula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["BooleanFormula", ...]


BooleanFormula = Union[Var, And, Or]

# Event id -> truth value; ids absent from the mapping count as False.
Assignment = Mapping[str, bool]


def _validate(tree: FaultTree) -> None:
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
            stack.pop()
    if len(state) < len(tree.nodes):
        shown = sorted(set(tree.nodes) - set(state))[0]
        raise FaultTreeError(f"node {shown!r} is not reachable from top {tree.top!r}")


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


def to_formula(tree: FaultTree) -> BooleanFormula:
    """Structure-preserving translation of the tree rooted at ``top``.

    Shared tree nodes become shared formula objects, so the result is a
    DAG whenever the tree is.
    """
    built: dict[str, BooleanFormula] = {}
    stack = [tree.top]
    while stack:
        nid = stack[-1]
        if nid in built:
            stack.pop()
            continue
        node = tree.nodes[nid]
        if isinstance(node, BasicEvent):
            built[nid] = Var(nid)
            stack.pop()
            continue
        pending = [c for c in node.children if c not in built]
        if pending:
            stack.extend(pending)
            continue
        parts = tuple(built[c] for c in node.children)
        built[nid] = And(parts) if node.op is GateOp.AND else Or(parts)
        stack.pop()
    return built[tree.top]


def _post_order(formula: BooleanFormula, leaf: Callable, gate: Callable):
    """Fold ``formula`` bottom-up, each shared node once; return the root's value.

    ``leaf(var)`` values a ``Var``; ``gate(is_and, child_values)`` values a
    gate once all its children have values, passed in their listed order.
    Nodes are reached in one fixed post-order: the stack takes a gate's
    last pending child first, so for ``And(Or(a, b), Or(c, d))`` the fold
    visits ``d, c, Or(c, d), b, a, Or(a, b)``, then the ``And``.  Shared
    nodes are keyed by identity.  The Tseitin gate numbering, and so the
    ``export-wcnf`` output byte for byte, depends on this order.
    """
    value: dict[int, object] = {}
    stack = [formula]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in value:
            stack.pop()
            continue
        if isinstance(node, Var):
            value[key] = leaf(node)
            stack.pop()
            continue
        pending = [c for c in node.children if id(c) not in value]
        if pending:
            stack.extend(pending)
            continue
        parts = [value[id(c)] for c in node.children]
        value[key] = gate(isinstance(node, And), parts)
        stack.pop()
    return value[id(formula)]


def dualize(formula: BooleanFormula) -> BooleanFormula:
    """Swap every And for Or and vice versa, leaving Var leaves as they are.

    Applied to the failure formula this yields the success-tree reading in
    which each leaf stands for the complement of its event; the operation
    is an involution.
    """
    return _post_order(
        formula,
        lambda var: var,
        lambda is_and, parts: Or(tuple(parts)) if is_and else And(tuple(parts)),
    )


def evaluate(formula: BooleanFormula, assignment: Assignment) -> bool:
    """Standard Boolean semantics; events missing from ``assignment`` are False."""
    return _post_order(
        formula,
        lambda var: bool(assignment.get(var.event, False)),
        lambda is_and, parts: all(parts) if is_and else any(parts),
    )


def formula_events(formula: BooleanFormula) -> list[str]:
    """Distinct event ids in first-appearance (depth-first, left-to-right) order."""
    seen: set[int] = set()
    order: list[str] = []
    named: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            if node.event not in named:
                named.add(node.event)
                order.append(node.event)
        else:
            stack.extend(reversed(node.children))
    return order
