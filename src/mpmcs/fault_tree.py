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
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping, NamedTuple, Union


class FaultTreeError(ValueError):
    """Raised for structurally invalid trees or malformed input files."""


class GateOp(Enum):
    AND = "and"
    OR = "or"


class Gate(NamedTuple):
    id: str
    op: GateOp
    children: tuple[str, ...]


class BasicEvent(NamedTuple):
    id: str
    probability: float


Node = Union[Gate, BasicEvent]


@dataclass(frozen=True)
class FaultTree:
    """Validated fault tree.  Construction runs all structural checks.

    ``order`` lists every node id once, children before parents: the
    ``num_events`` basic events in the order the validating depth-first
    walk from ``top`` first meets them, then the gates in the order it
    finishes them.  Both are derived, so they take no part in
    construction or equality.
    """

    name: str
    nodes: Mapping[str, Node]
    top: str
    order: tuple[str, ...] = field(init=False, compare=False, repr=False)
    num_events: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        events, gates = _validate(self)
        object.__setattr__(self, "order", tuple(events + gates))
        object.__setattr__(self, "num_events", len(events))

    @property
    def event_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if isinstance(n, BasicEvent)]

    @property
    def gate_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if isinstance(n, Gate)]

    def probabilities(self) -> dict[str, float]:
        return {n.id: n.probability for n in self.nodes.values() if isinstance(n, BasicEvent)}


# Event id -> truth value; ids absent from the mapping count as False.
Assignment = Mapping[str, bool]


def _validate(tree: FaultTree) -> tuple[list[str], list[str]]:
    """Run the structural checks in one iterative (trees can be deep),
    three-state depth-first walk from the top; return the events in the
    order it first meets them and the gates in the order it finishes them.
    Reaching a node still on the stack closes a cycle.  Each node is
    checked when first met; a node never met is unreachable, an error."""
    nodes = tree.nodes
    if not nodes:
        raise FaultTreeError("tree has no nodes")
    if not isinstance(tree.name, str) or not isinstance(tree.top, str):
        raise FaultTreeError("'name' and 'top' must be strings")
    if tree.top not in nodes:
        raise FaultTreeError(f"top {tree.top!r} is not a node")
    GREY, BLACK = 1, 2
    state: dict = {}
    events: list[str] = []
    gates: list[str] = []
    # The bottom frame stands above the top and is dropped at the end.
    stack = [(None, iter((tree.top,)))]
    while stack:
        nid, children = stack[-1]
        for child in children:
            seen = state.get(child)
            if seen is None:
                node = nodes.get(child)
                if node is None:
                    raise FaultTreeError(f"gate {nid!r} references unknown child {child!r}")
                if not isinstance(child, str):
                    raise FaultTreeError(f"node id {child!r} is not a string")
                event = isinstance(node, BasicEvent)
                if not event:
                    if not isinstance(node, Gate):
                        raise FaultTreeError(f"node {child!r} is a {type(node).__name__}, "
                                             "not a Gate or BasicEvent")
                    if not isinstance(node.op, GateOp):
                        raise FaultTreeError(f"gate {child!r}: op {node.op!r} is not a GateOp")
                if node.id != child:
                    raise FaultTreeError(f"node keyed {child!r} carries id {node.id!r}")
                if event:
                    p = node.probability
                    if not (isinstance(p, float) and 0.0 < p < 1.0):
                        raise FaultTreeError(f"basic event {child!r}: probability "
                                             f"{p!r} outside open interval (0, 1)")
                    state[child] = BLACK
                    events.append(child)
                    continue
                kids = node.children
                if not isinstance(kids, tuple):
                    raise FaultTreeError(f"gate {child!r}: children {kids!r} are not a tuple")
                if not kids:
                    raise FaultTreeError(f"gate {child!r} has no children")
                try:
                    distinct = len(set(kids))
                except TypeError:  # every string hashes, so some id is no string
                    raise FaultTreeError(f"gate {child!r}: child ids {kids!r} "
                                         "are not all strings") from None
                if distinct != len(kids):
                    raise FaultTreeError(f"gate {child!r} lists a duplicate child")
                state[child] = GREY
                stack.append((child, iter(kids)))
                break
            if seen == GREY:
                raise FaultTreeError(f"cycle through node {child!r}")
        else:
            state[nid] = BLACK
            gates.append(nid)
            stack.pop()
    gates.pop()
    if len(events) + len(gates) < len(nodes):
        shown = next(key for key in nodes if key not in state)
        raise FaultTreeError(f"node {shown!r} is not reachable from top {tree.top!r}")
    return events, gates


_GATE_KEYS = {"id", "type", "children"}
_EVENT_KEYS = {"id", "type", "prob"}
_OPS = {op.value: op for op in GateOp}
# A NamedTuple's own constructor without its Python-level ``__new__``.
_new = tuple.__new__
# Between two children, as indent=2 writes it (no backslash in f-string braces before 3.12).
_CHILD_SEP = ",\n        "
# A high surrogate code point followed by a low one: the writer escapes
# each, and JSON reads the two escapes back as one character.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


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
    except RecursionError:
        raise FaultTreeError("malformed JSON: nested too deeply") from None
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
        nid, kind = raw.get("id"), raw.get("type")
        if not isinstance(nid, str):
            raise FaultTreeError("node id must be a string")
        if kind == "basic":
            prob = raw.get("prob")
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise FaultTreeError(f"event {nid!r}: 'prob' must be a number")
            try:
                node: Node = _new(BasicEvent, (nid, float(prob)))
            except OverflowError:  # an integer beyond the float range
                raise FaultTreeError(f"event {nid!r}: probability out of range") from None
        else:
            op = _OPS.get(kind) if isinstance(kind, str) else None
            if op is None:
                raise FaultTreeError(f"node {nid!r}: unknown type {kind!r}")
            children = raw.get("children")
            if not isinstance(children, list) or not all(map(isinstance, children, repeat(str))):
                raise FaultTreeError(f"gate {nid!r}: 'children' must be string ids")
            node = _new(Gate, (nid, op, tuple(children)))
        if len(raw) != 3:  # the required fields are there, so one is unknown
            extra = sorted(set(raw) - (_EVENT_KEYS if kind == "basic" else _GATE_KEYS))[0]
            raise FaultTreeError(f"node {nid!r}: unknown field {extra!r}")
        nodes[nid] = node
    if len(nodes) < len(raw_nodes):
        dup = next(i for i, k in Counter(r["id"] for r in raw_nodes).items() if k > 1)
        raise FaultTreeError(f"duplicate node id {dup!r}")
    del doc, raw_nodes  # so the collector does not walk them during the walk below
    return FaultTree(name=name, nodes=nodes, top=top)


def serialize_fault_tree(tree: FaultTree) -> str:
    """Inverse of parse_fault_tree; node order is preserved.

    Writes the bytes ``json.dumps(doc, indent=2)`` writes for the dict
    form of the tree, one template per node: strings through the C
    encoder ``json.dumps`` uses for them, probabilities (finite, as
    validation keeps them) through ``float.__repr__`` as ``json`` does.
    A name or id holding a surrogate pair as two code points would not
    read back as written, so it raises ``FaultTreeError``.
    """
    # One scan over every string the document holds (children are node
    # ids), past at once when they are all ASCII.
    strings = "\n".join([tree.name, *tree.nodes])
    if not strings.isascii() and _SURROGATE_PAIR.search(strings):
        bad = next(x for x in (tree.name, *tree.nodes) if _SURROGATE_PAIR.search(x))
        raise FaultTreeError(f"{bad!r} holds a surrogate pair, which JSON reads back "
                             "as one character")
    nodes = ",\n".join(
        f'    {{\n      "id": {_quote(n.id)},\n      "type": "{n.op.value}",\n'
        f'      "children": [\n        {_CHILD_SEP.join(map(_quote, n.children))}\n      ]\n    }}'
        if isinstance(n, Gate) else
        f'    {{\n      "id": {_quote(n.id)},\n      "type": "basic",\n'
        f'      "prob": {float.__repr__(n.probability)}\n    }}'
        for n in tree.nodes.values()
    )
    return (f'{{\n  "name": {_quote(tree.name)},\n  "top": {_quote(tree.top)},\n'
            f'  "nodes": [\n{nodes}\n  ]\n}}')


def dualize(tree: FaultTree) -> FaultTree:
    """The same tree with every AND gate made OR and every OR gate made AND.

    Name, top, node ids, child order and probabilities are kept.  Reading
    each event as its complement (the event does not occur), the result is
    the success tree: by De Morgan its top holds exactly when the original
    top fails to.  The operation is an involution.
    """
    swapped = {GateOp.AND: GateOp.OR, GateOp.OR: GateOp.AND}
    nodes = {
        nid: node._replace(op=swapped[node.op]) if isinstance(node, Gate) else node
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
