"""Log-space weights, Tseitin CNF, and the WCNF export."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from helpers import (
    all_models,
    project_models,
    reference_build_wcnf,
    satisfying_event_sets,
    seeded_dag,
    tree,
)
from mpmcs.encoding import (
    WCNF_WEIGHT_SCALE,
    CnfFormula,
    build_wcnf,
    event_weights,
    format_wcnf,
    joint_probability,
    to_log_space,
)
from mpmcs.fault_tree import Gate, parse_fault_tree, serialize_fault_tree
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.solver import add_blocking_clause

FIRE_PATH = Path(__file__).resolve().parent.parent / "data" / "fire_protection.json"


def test_to_log_space_known_values():
    assert to_log_space(0.2) == pytest.approx(1.60944, abs=1e-5)
    assert to_log_space(0.5) == pytest.approx(math.log(2.0))
    assert to_log_space(math.exp(-3.0)) == pytest.approx(3.0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
def test_to_log_space_rejects_boundary(p):
    with pytest.raises(ValueError):
        to_log_space(p)


@settings(max_examples=150)
@given(strategies.probabilities)
def test_to_log_space_round_trips(p):
    assert math.exp(-to_log_space(p)) == pytest.approx(p, rel=1e-12)


def test_joint_probability_is_product():
    ws = [to_log_space(0.2), to_log_space(0.1)]
    assert joint_probability(ws) == pytest.approx(0.02, abs=1e-6)
    assert joint_probability([]) == 1.0


def test_joint_probability_order_independent():
    ws = [to_log_space(p) for p in (0.37, 0.011, 0.92, 0.5, 0.63)]
    assert joint_probability(ws) == joint_probability(list(reversed(ws)))


def test_event_weights(fire_tree):
    w = event_weights(fire_tree)
    assert set(w) == set(fire_tree.event_ids)
    assert w["x1"] == pytest.approx(1.60944, abs=1e-5)
    assert all(v > 0 for v in w.values())


def test_cnf_formula_rejects_bad_clauses():
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((0,),))


def test_tseitin_fire_layout(fire_tree):
    inst = build_wcnf(fire_tree)
    cnf, vm = inst.hard, inst.var_map
    assert vm.var_of_event == {f"x{i}": i for i in range(1, 8)}
    assert vm.event_of_var[3] == "x3"
    assert sum(1 for c in inst.ctl if c) == 5  # gate variables
    assert cnf.num_vars == 12
    # One aux per gate, full biconditional, one root unit.
    assert len(cnf.clauses) == 17
    assert cnf.clauses[-1] == (vm.root_var,)
    assert vm.root_var > len(vm.var_of_event)


def test_tseitin_on_bare_event():
    inst = build_wcnf(tree({"e": 0.4}, top="e"))
    cnf, vm = inst.hard, inst.var_map
    assert cnf.num_vars == 1
    assert cnf.clauses == ((1,),)
    assert inst.ctl == (0, 0) and inst.kids == ((), ())
    assert vm.root_var == 1


def test_tseitin_encodes_shared_gate_once():
    t = tree(
        {
            "top": ("and", ["a", "b"]),
            "a": ("or", ["shared", "e1"]),
            "b": ("or", ["shared", "e2"]),
            "shared": ("and", ["e3", "e4"]),
            "e1": 0.1, "e2": 0.2, "e3": 0.3, "e4": 0.4,
        },
        top="top",
    )
    inst = build_wcnf(t)
    # four distinct gates despite two references
    assert sum(1 for c in inst.ctl if c) == 4
    assert inst.hard.num_vars == 8


@settings(max_examples=100, deadline=None)
@given(strategies.fault_trees(max_events=6))
def test_tseitin_projection_equals_formula_models(t):
    """Projected CNF models are exactly the satisfying event sets, 1:1."""
    inst = build_wcnf(t)
    cnf, vm = inst.hard, inst.var_map
    if cnf.num_vars > 16:
        return
    models = all_models(cnf)
    projected = project_models(models, vm)
    expected = satisfying_event_sets(t)
    assert projected == expected
    # The biconditional pins every auxiliary, so the projection is 1:1.
    assert len(models) == len(projected)


@settings(max_examples=100, deadline=None)
@given(strategies.fault_trees(max_events=6, shared=True))
def test_tseitin_projection_equals_formula_models_on_dags(t):
    """The same 1:1 projection when gates and events are shared."""
    inst = build_wcnf(t)
    models = all_models(inst.hard)
    projected = project_models(models, inst.var_map)
    assert projected == satisfying_event_sets(t)
    assert len(models) == len(projected)


def _first_appearance(t):
    """Distinct events in depth-first, left-to-right order from the top."""
    seen: set[str] = set()
    events: list[str] = []

    def visit(nid: str) -> None:
        if nid in seen:
            return
        seen.add(nid)
        node = t.nodes[nid]
        if isinstance(node, Gate):
            for child in node.children:
                visit(child)
        else:
            events.append(nid)

    visit(t.top)
    return events


@settings(max_examples=150, deadline=None)
@given(st.one_of(strategies.fault_trees(), strategies.fault_trees(shared=True)))
def test_one_walk_orders_nodes_and_numbers_variables(t):
    """``tree.order`` is a topological order, and the encoding numbers by it."""
    assert sorted(t.order) == sorted(t.nodes)
    position = {nid: i for i, nid in enumerate(t.order)}
    for nid in t.gate_ids:
        assert all(position[c] < position[nid] for c in t.nodes[nid].children)
    assert t.order[-1] == t.top
    inst = build_wcnf(t)
    assert list(inst.var_map.var_of_event) == _first_appearance(t)
    for g, kids in enumerate(inst.kids):
        assert all(c < g for c in kids)


@settings(max_examples=150, deadline=None)
@given(st.one_of(strategies.fault_trees(), strategies.dags()))
def test_build_wcnf_equals_the_reference_compile(t):
    """The one-pass compile gives the node-by-node loop's instance: the
    same gate table, weights, numbering (in order) and sharing flag."""
    got, want = build_wcnf(t), reference_build_wcnf(t)
    assert got.ctl == want.ctl
    assert got.kids == want.kids
    assert got.weight == want.weight
    assert got.soft == want.soft
    assert list(got.var_map.var_of_event.items()) == list(want.var_map.var_of_event.items())
    assert list(got.var_map.event_of_var.items()) == list(want.var_map.event_of_var.items())
    assert got.var_map.root_var == want.var_map.root_var
    assert got.tree_shaped == want.tree_shaped


def test_fire_circuit_numbering(fire_instance):
    """Gates numbered in DFS finish order; frozen regression."""
    assert fire_instance.ctl == (0,) * 8 + (-1, 1, -1, 1, 1)
    assert fire_instance.kids == ((),) * 8 + (
        (1, 2),  # 8: detection = x1 AND x2
        (6, 7),  # 9: remote = x6 OR x7
        (5, 9),  # 10: trigger = x5 AND remote
        (3, 4, 10),  # 11: suppression = x3 OR x4 OR trigger
        (8, 11),  # 12: system = detection OR suppression
    )
    assert fire_instance.var_map.root_var == 12


def test_fire_formula_model_count(fire_tree):
    """113 of the 128 event assignments fail the system; frozen regression."""
    expected = satisfying_event_sets(fire_tree)
    assert len(expected) == 113
    inst = build_wcnf(fire_tree)
    cnf, vm = inst.hard, inst.var_map
    models = all_models(cnf)
    assert len(models) == 113
    assert project_models(models, vm) == expected


def test_build_wcnf_fire(fire_tree, fire_instance, fire_weights):
    inst = fire_instance
    assert inst.hard.num_vars == 12
    assert len(inst.hard.clauses) == 17
    assert inst.tree_shaped
    assert [v for v, _ in inst.soft] == list(range(1, 8))
    for var, w in inst.soft:
        eid = inst.var_map.event_of_var[var]
        assert w == pytest.approx(fire_weights[eid])
    assert dict(inst.soft)[1] == pytest.approx(to_log_space(0.2))


def test_build_wcnf_flags_sharing():
    t = tree(
        {
            "top": ("or", ["g1", "g2"]),
            "g1": ("and", ["e1", "e2"]),
            "g2": ("and", ["e1", "e3"]),
            "e1": 0.5, "e2": 0.3, "e3": 0.2,
        },
        top="top",
    )
    assert not build_wcnf(t).tree_shaped


def _blocked_dag():
    instance = build_wcnf(seeded_dag(300, 0.3, 3))
    instance = add_blocking_clause(instance, frozenset({"e1"}))
    return add_blocking_clause(instance, frozenset({"e5", "e2"}))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_wcnf(parse_fault_tree(FIRE_PATH.read_text(encoding="utf-8"))),
        lambda: build_wcnf(seeded_dag(200, 0.3, 1)),
        _blocked_dag,
    ],
    ids=["fire", "dag-200-1", "dag-300-3-blocked"],
)
def test_hard_size_counts_the_derived_cnf(make):
    instance = make()
    hard = instance.hard
    assert instance.hard_size == (hard.num_vars, len(hard.clauses))


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: build_wcnf(parse_fault_tree(FIRE_PATH.read_text(encoding="utf-8"))),
         "82ea14d25545c8307ef03ffd19ef1d72c769d853e6e7dccb5d28af917f028c99"),
        (lambda: build_wcnf(seeded_dag(200, 0.3, 1)),
         "c20c1ff846f2f7a9d3d114f90e44928f02b62f6b9869bf65b1e0412196a176ae"),
        (_blocked_dag,
         "b2f41605085044164317a7271dee245883ca241f88b05cb0e1d4eb82d1721a7a"),
        # ``mpmcs generate --nodes 20000 --seed 1``, then ``export-wcnf``.
        (lambda: build_wcnf(parse_fault_tree(serialize_fault_tree(
            random_fault_tree(GeneratorParams(nodes=20000, seed=1))))),
         "7ce0ae3c766751752ccfbee2ef80cb5b02fc14e49df247b412325e9b58388683"),
    ],
    ids=["fire", "dag-200-1", "dag-300-3-blocked", "tree-20000-1"],
)
def test_format_wcnf_bytes_are_pinned(make, digest):
    """The first three digests were taken while ``build_wcnf`` still
    emitted the clauses and the solver propagated on them, the last
    while it compiled node by node: deriving the clauses from the
    circuit, and compiling in one pass, must not move a byte."""
    assert hashlib.sha256(format_wcnf(make()).encode()).hexdigest() == digest


def test_format_wcnf_layout(fire_instance):
    text = format_wcnf(fire_instance)
    lines = text.splitlines()
    header = lines[0].split()
    assert header[:2] == ["p", "wcnf"]
    nvars, nclauses, top = map(int, header[2:])
    assert nvars == 12
    assert nclauses == len(lines) - 1 == 17 + 7
    scaled = [round(w * WCNF_WEIGHT_SCALE) for _, w in fire_instance.soft]
    assert top == sum(scaled) + 1
    assert round(to_log_space(0.2) * WCNF_WEIGHT_SCALE) == 1609438
    for line in lines[1 : 1 + 17]:
        parts = line.split()
        assert int(parts[0]) == top
        assert parts[-1] == "0"
    soft_lines = lines[1 + 17 :]
    assert len(soft_lines) == 7
    for (var, w), line in zip(fire_instance.soft, soft_lines):
        assert line == f"{round(w * WCNF_WEIGHT_SCALE)} -{var} 0"
    assert text.endswith("\n")


def test_format_wcnf_soft_weights_are_positive():
    """An event so probable that its scaled weight rounds to 0 still
    weighs 1, and ``top`` sums the clamped weights."""
    instance = build_wcnf(tree({"top": ("or", ["a", "b"]), "a": 0.9999999, "b": 0.5},
                               top="top"))
    a, b = (instance.var_map.var_of_event[e] for e in "ab")
    assert round(instance.weight[a] * WCNF_WEIGHT_SCALE) == 0
    lines = format_wcnf(instance).splitlines()
    soft = lines[-2:]
    assert sorted(soft) == sorted([f"1 -{a} 0", f"693147 -{b} 0"])
    assert lines[0].split()[-1] == str(1 + 693147 + 1)
    assert not any(line.startswith("0 ") for line in lines)


def test_format_wcnf_deterministic(fire_tree):
    a = format_wcnf(build_wcnf(fire_tree))
    b = format_wcnf(build_wcnf(fire_tree))
    assert a == b
