"""Data model, parsing, evaluation and dualization."""

from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from helpers import reference_serialize_fault_tree, tree
from mpmcs.encoding import build_wcnf
from mpmcs.fault_tree import (
    BasicEvent,
    FaultTree,
    FaultTreeError,
    Gate,
    GateOp,
    dualize,
    evaluate,
    parse_fault_tree,
    serialize_fault_tree,
)
from mpmcs.solver import compute_mpmcs


def test_fire_tree_shape(fire_tree):
    assert fire_tree.name == "fire-protection"
    assert fire_tree.top == "system"
    assert fire_tree.event_ids == [f"x{i}" for i in range(1, 8)]
    assert fire_tree.gate_ids == [
        "system", "detection", "suppression", "trigger", "remote",
    ]
    assert fire_tree.probabilities()["x1"] == 0.2


def test_nodes_are_frozen(fire_tree):
    with pytest.raises(AttributeError):
        fire_tree.nodes["x1"].probability = 0.5
    with pytest.raises(AttributeError):
        fire_tree.top = "detection"


@pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, 1.5])
def test_probability_must_be_in_open_interval(prob):
    with pytest.raises(FaultTreeError):
        tree({"t": ("or", ["a"]), "a": prob}, top="t")


def test_gate_needs_children():
    with pytest.raises(FaultTreeError):
        tree({"t": ("or", []), "a": 0.1}, top="t")


def test_duplicate_children_rejected():
    with pytest.raises(FaultTreeError):
        tree({"t": ("and", ["a", "a"]), "a": 0.1}, top="t")


def test_unknown_child_rejected():
    with pytest.raises(FaultTreeError):
        tree({"t": ("or", ["missing"]), "a": 0.1}, top="t")


def test_missing_top_rejected():
    with pytest.raises(FaultTreeError):
        tree({"t": ("or", ["a"]), "a": 0.1}, top="nope")


def test_cycle_rejected():
    with pytest.raises(FaultTreeError):
        tree(
            {"t": ("or", ["g"]), "g": ("and", ["t", "a"]), "a": 0.1},
            top="t",
        )


def test_unreachable_node_rejected():
    with pytest.raises(FaultTreeError):
        tree({"t": ("or", ["a"]), "a": 0.1, "b": 0.2}, top="t")


@pytest.mark.parametrize("name, nodes, top, match", [
    (7, {"a": BasicEvent("a", 0.5)}, "a", "string"),
    ("t", {1: BasicEvent(1, 0.5)}, 1, "string"),
    ("t", {"g": Gate("g", GateOp.OR, (1,)), 1: BasicEvent(1, 0.5)}, "g", "string"),
    ("t", {"g": Gate("g", GateOp.OR, (["a"],)), "a": BasicEvent("a", 0.5)}, "g",
     re.escape("gate 'g': child ids (['a'],) are not all strings")),
    ("t", {"a": BasicEvent("a", 0.5), 5: BasicEvent(5, 0.5), "b": BasicEvent("b", 0.5)}, "a",
     "node 5 is not reachable from top 'a'"),
], ids=["name", "top", "child", "unhashable-child", "unreachable-int"])
def test_ids_name_and_top_must_be_strings(name, nodes, top, match):
    """Ids of any other type, one that cannot be hashed and one that
    cannot be ordered against strings included, raise ``FaultTreeError``."""
    with pytest.raises(FaultTreeError, match=match):
        FaultTree(name, nodes, top)


@pytest.mark.parametrize("node, match", [
    (Gate("g", "and", ("a", "b")), "gate 'g': op 'and' is not a GateOp"),
    (("g", GateOp.AND, ("a", "b")), "node 'g' is a tuple, not a Gate or BasicEvent"),
    (Gate("g", GateOp.OR, "ab"), "gate 'g': children 'ab' are not a tuple"),
    (Gate("g", GateOp.OR, ["a", "b"]), "gate 'g': children ['a', 'b'] are not a tuple"),
], ids=["string-op", "not-a-node", "string-children", "list-children"])
def test_nodes_must_be_gates_with_a_gate_op_or_events(node, match):
    """Trees built in code get the parser's checks: a gate whose op is a
    string, which evaluation and encoding would read as an OR, a value
    that is no node, and children that are no tuple (a string would be
    read as one child per character, and a list would not compare equal
    to the tuple the parser reads back) are refused where the walk meets
    them."""
    nodes = {"t": Gate("t", GateOp.OR, ("a", "g")), "g": node,
             "a": BasicEvent("a", 0.5), "b": BasicEvent("b", 0.5)}
    with pytest.raises(FaultTreeError, match=re.escape(match)):
        FaultTree("t", nodes, "t")


def test_event_as_top_is_legal():
    t = tree({"only": 0.3}, top="only")
    assert t.event_ids == ["only"]
    assert t.gate_ids == []


def test_parse_fire_file(fire_path, fire_tree):
    parsed = parse_fault_tree(fire_path.read_text(encoding="utf-8"))
    assert parsed == fire_tree


_B = '{"id": "b", "type": "basic", "prob": 0.1}'


def _nodes(*nodes: str, top: str = "a") -> str:
    return f'{{"name": "t", "top": "{top}", "nodes": [{", ".join(nodes)}]}}'


def _one_event(prob: str) -> str:
    return _nodes(f'{{"id": "a", "type": "basic", "prob": {prob}}}')


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"name": "t", "top": "a"}',
        '{"name": "t", "top": "a", "nodes": [], "extra": 1}',
        '{"name": "t", "top": "a", "nodes": {}}',
        '{"name": 1, "top": "a", "nodes": []}',
        '{"name": "t", "top": "a", "nodes": ["x"]}',
        '{"name": "t", "top": "a", "nodes": [{"id": "a", "type": "nand", "children": []}]}',
        '{"name": "t", "top": "a", "nodes": [{"id": "a", "type": "basic", "prob": 0.1, "label": "x"}]}',
        '{"name": "t", "top": "a", "nodes": [{"id": "a", "type": "or", "children": ["b"], "note": 1}, {"id": "b", "type": "basic", "prob": 0.1}]}',
        '{"name": "t", "top": "a", "nodes": [{"id": "a", "type": "basic", "prob": true}]}',
        '{"name": "t", "top": "a", "nodes": [{"id": 5, "type": "basic", "prob": 0.1}]}',
        '{"name": "t", "top": "a", "nodes": [{"id": "a", "type": "basic", "prob": 0.1}, {"id": "a", "type": "basic", "prob": 0.2}]}',
        # The structural checks above, and the CLI's, through the parser.
        *(_one_event(p) for p in ("0", "0.0", "1.0", "-0.1", "1.5", "1e400", "NaN")),
        _nodes('{"id": "a", "type": "or", "children": []}'),
        _nodes('{"id": "a", "type": "and", "children": ["b", "b"]}', _B),
        _nodes('{"id": "a", "type": "or", "children": ["missing"]}', _B),
        _nodes('{"id": "a", "type": "or", "children": [1]}', _B),
        _nodes('{"id": "a", "type": "or", "children": [["b"]]}', _B),
        _nodes('{"id": "a", "type": ["or"], "children": ["b"]}', _B),
        _nodes('{"id": 5, "type": "or", "children": ["b"]}', _B),
        _nodes('{"id": "a", "type": "or", "children": "b"}', _B),
        _nodes(_B, top="nope"),
        _nodes('{"id": "a", "type": "or", "children": ["g"]}',
               '{"id": "g", "type": "and", "children": ["a", "b"]}', _B),
        _nodes('{"id": "a", "type": "or", "children": ["b"]}', _B,
               '{"id": "c", "type": "basic", "prob": 0.2}'),
        '{"name": "t", "top": "a", "nodes": []}',
        '{"name": "t", "top": 1, "nodes": []}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(FaultTreeError):
        parse_fault_tree(text)


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"name": ' + "[" * 200_000 + "]" * 200_000 + "}"])
def test_parse_rejects_deeply_nested_json(text):
    """Nesting deeper than the decoder's recursion limit is a malformed
    document, not a ``RecursionError``."""
    with pytest.raises(FaultTreeError, match="nested too deeply"):
        parse_fault_tree(text)


def test_parse_rejects_a_probability_too_large_for_a_float():
    with pytest.raises(FaultTreeError, match="probability"):
        parse_fault_tree(_one_event("9" * 400))


def test_serialize_preserves_node_order(fire_tree):
    doc = json.loads(serialize_fault_tree(fire_tree))
    assert [n["id"] for n in doc["nodes"]] == list(fire_tree.nodes)


# Ids with quotes, backslashes, control characters, lone surrogates (which
# may draw as a high one followed by a low one) and non-ASCII text;
# probabilities at both ends of the open interval.
_awkward_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udc00\u00e9\U0001f600'), st.characters()))
_awkward_probability = st.one_of(
    st.sampled_from([5e-324, 1 - 2**-53, 0.1]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def _relabelled(draw, shared: bool) -> FaultTree:
    """``strategies.fault_trees`` with awkward ids, name and probabilities."""
    t = draw(strategies.fault_trees(shared=shared))
    ids = draw(st.lists(_awkward_text, min_size=len(t.nodes), max_size=len(t.nodes), unique=True))
    new = dict(zip(t.nodes, ids))
    nodes = {
        new[nid]: Gate(new[nid], n.op, tuple(new[c] for c in n.children))
        if isinstance(n, Gate) else BasicEvent(new[nid], draw(_awkward_probability))
        for nid, n in t.nodes.items()
    }
    return FaultTree(draw(_awkward_text), nodes, new[t.top])


def _holds_surrogate_pair(text: str) -> bool:
    return any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff"
               for a, b in zip(text, text[1:]))


def _check_serialization(t):
    """The writer emits ``json.dumps(indent=2)``'s bytes, which parse back
    to ``t``; a name or id holding a surrogate pair, which would read back
    as one character, is refused instead."""
    if any(map(_holds_surrogate_pair, (t.name, *t.nodes))):
        with pytest.raises(FaultTreeError, match="surrogate pair"):
            serialize_fault_tree(t)
        return
    text = serialize_fault_tree(t)
    assert text == reference_serialize_fault_tree(t)
    assert parse_fault_tree(text) == t


@settings(max_examples=200)
@given(_relabelled(shared=False))
def test_parse_serialize_identity(t):
    _check_serialization(t)


@settings(max_examples=200)
@given(_relabelled(shared=True))
def test_parse_serialize_identity_with_sharing(t):
    _check_serialization(t)


@pytest.mark.parametrize("which", ["fire", "single-event"])
def test_serialize_writes_the_bytes_of_json_dumps_on_fixed_trees(fire_tree, which):
    _check_serialization(fire_tree if which == "fire" else tree({"e": 0.5}, top="e"))


_PAIR = "\ud800\udc00"


@pytest.mark.parametrize("t", [
    FaultTree("", {"": BasicEvent("", 5e-324), _PAIR: Gate(_PAIR, GateOp.OR, ("",))}, _PAIR),
    FaultTree("x" + _PAIR, {"e": BasicEvent("e", 0.5)}, "e"),
], ids=["id", "name"])
def test_serialize_refuses_a_surrogate_pair(t):
    """Written as two escapes, a high surrogate followed by a low one
    reads back as the one character U+10000, so the tree would not
    round-trip; each surrogate alone does."""
    assert json.loads(json.dumps(_PAIR)) == "\U00010000"
    with pytest.raises(FaultTreeError, match="surrogate pair"):
        serialize_fault_tree(t)
    _check_serialization(FaultTree("\ud800", {"\udc00": BasicEvent("\udc00", 0.5)}, "\udc00"))


def test_dualize_swaps_gates(fire_tree):
    d = dualize(fire_tree)
    assert d.nodes["system"].op is GateOp.AND
    assert d.nodes["detection"].op is GateOp.OR
    assert d.nodes["suppression"].op is GateOp.AND
    assert d.nodes["detection"].children == ("x1", "x2")
    assert (d.name, d.top, list(d.nodes)) == (
        fire_tree.name, fire_tree.top, list(fire_tree.nodes),
    )
    assert d.probabilities() == fire_tree.probabilities()


@settings(max_examples=150)
@given(strategies.fault_trees(shared=True))
def test_dualize_is_an_involution(t):
    assert dualize(dualize(t)) == t


@settings(max_examples=100, deadline=None)
@given(strategies.fault_trees(max_events=6, shared=True))
def test_dualize_is_the_success_tree(t):
    """De Morgan: the dual, with every event read as its complement,
    holds exactly when the original top does not."""
    events = t.event_ids
    d = dualize(t)
    for k in range(len(events) + 1):
        for chosen in itertools.combinations(events, k):
            failed = set(chosen)
            held = {e: e not in failed for e in events}
            assert evaluate(d, held) == (not evaluate(t, {e: True for e in failed}))


def test_evaluate_fire_cases(fire_tree):
    assert not evaluate(fire_tree, {})
    assert evaluate(fire_tree, {"x1": True, "x2": True})
    assert not evaluate(fire_tree, {"x1": True})
    assert evaluate(fire_tree, {"x3": True})
    assert evaluate(fire_tree, {"x5": True, "x7": True})
    assert not evaluate(fire_tree, {"x6": True, "x7": True})
    assert evaluate(fire_tree, {e: True for e in fire_tree.event_ids})


def test_evaluate_missing_events_default_false():
    t = tree({"top": ("and", ["a", "b"]), "a": 0.1, "b": 0.2}, top="top")
    assert not evaluate(t, {"a": True})
    assert evaluate(t, {"a": True, "b": True})


@settings(max_examples=100)
@given(strategies.fault_trees())
def test_evaluate_is_monotone(t):
    """Turning one more event on can never turn the top event off."""
    events = t.event_ids
    base = {e: (hash((t.name, e)) % 2 == 0) for e in events}
    before = evaluate(t, base)
    for e in events:
        if not base[e]:
            widened = dict(base)
            widened[e] = True
            assert evaluate(t, widened) >= before


def test_deep_tree_does_not_recurse():
    """A 10^4-level chain exercises the iterative walks end to end."""
    spec: dict = {"e": 0.5}
    child = "e"
    for i in range(10_000):
        gid = f"g{i}"
        spec[gid] = ("and" if i % 2 else "or", [child])
        child = gid
    t = tree(spec, top=child)
    assert evaluate(t, {"e": True})
    assert not evaluate(t, {})
    assert dualize(dualize(t)) == t
    assert dualize(t).nodes[t.top].op is GateOp.OR
    assert sum(1 for c in build_wcnf(t).ctl if c) == 10_000
    assert compute_mpmcs(t).cut_set == frozenset({"e"})
    assert parse_fault_tree(serialize_fault_tree(t)).top == t.top
