"""Tests of the benchmark's own code: instance builders and the checker.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math

import pytest

from mpmcs.encoding import build_wcnf
from mpmcs.fault_tree import Gate, parse_fault_tree, serialize_fault_tree
from workloads import TIE_PROBS, WORKLOADS, dag_tree, relabel, tie_tree

reference = pytest.importorskip("reference")


def _parents(tree) -> dict[str, int]:
    count: dict[str, int] = {}
    for node in tree.nodes.values():
        if isinstance(node, Gate):
            for c in node.children:
                count[c] = count.get(c, 0) + 1
    return count


@pytest.mark.parametrize("nodes,share,seed", [(300, 0.1, 1), (500, 0.3, 3), (40, 0.2, 7)])
def test_dag_is_a_valid_shared_fault_tree(nodes, share, seed):
    dag = dag_tree(nodes, share, seed)
    assert parse_fault_tree(serialize_fault_tree(dag)) == dag
    assert len(dag.nodes) == nodes
    parents = _parents(dag)
    assert max(parents.values()) > 1
    extra = sum(parents.values()) - (len(dag.nodes) - 1)
    assert extra == round(share * len(dag.event_ids))


def test_tie_tree_draws_probabilities_from_the_list():
    tree = tie_tree(60, 3, TIE_PROBS)
    assert parse_fault_tree(serialize_fault_tree(tree)) == tree
    assert set(tree.probabilities().values()) == set(TIE_PROBS)


def test_relabel_keeps_the_encoding():
    dag = dag_tree(200, 0.2, 1)
    renamed = relabel(dag, 5)
    assert set(renamed.nodes).isdisjoint(dag.event_ids)
    assert build_wcnf(renamed).hard == build_wcnf(dag).hard
    assert sorted(renamed.probabilities().values()) == sorted(dag.probabilities().values())


def test_relabel_keeps_the_order_of_names():
    # The program breaks ties between equal weights by name.
    tree = tie_tree(150, 0, TIE_PROBS)
    renamed = relabel(tree, 5)

    def by_name(t):
        return [t.probabilities()[e] for e in sorted(t.event_ids)]

    assert by_name(renamed) == by_name(tree)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    workload = WORKLOADS[name]
    first = workload.instances(3)
    assert first == workload.instances(3)
    assert first != workload.instances(4)
    for _, text in first:
        parse_fault_tree(text)


# top = OR(g = AND(a, b), c, d): {a, b} is the unique optimum.
SINGLE = {"a": 0.5, "b": 0.5, "c": 0.1, "d": 0.1}
# Same shape, c and d tie: {c} and {d} are both optimal.
TIED = {"a": 0.1, "b": 0.1, "c": 0.5, "d": 0.5}


def _tree(probs):
    nodes = [
        {"id": "top", "type": "or", "children": ["g", "c", "d"]},
        {"id": "g", "type": "and", "children": ["a", "b"]},
    ] + [{"id": e, "type": "basic", "prob": p} for e, p in probs.items()]
    tree = reference.RefTree(json.dumps({"name": "t", "top": "top", "nodes": nodes}))
    return tree, reference.milp_optimum(tree)


def _entry(probs, cut):
    w = math.fsum(-math.log(probs[e]) for e in sorted(cut))
    return {"cut_set": sorted(cut), "log_weight": w, "probability": math.exp(-w)}


def test_checker_accepts_the_optimum():
    tree, ref = _tree(SINGLE)
    assert ref.events == {"a", "b"}
    assert reference.cut_set_problems(tree, ref, _entry(SINGLE, "ab")) == []


@pytest.mark.parametrize("cut,why", [
    ("abc", "not minimal"),
    ("a", "does not fail"),
    ("c", "not the MILP optimum"),
])
def test_checker_rejects_a_wrong_cut_set(cut, why):
    tree, ref = _tree(SINGLE)
    problems = reference.cut_set_problems(tree, ref, _entry(SINGLE, cut))
    assert any(why in p for p in problems), problems


def test_checker_rejects_a_weight_off_by_1e6():
    tree, ref = _tree(SINGLE)
    entry = _entry(SINGLE, "ab")
    entry["log_weight"] += 1e-6
    assert reference.cut_set_problems(tree, ref, entry)


def test_checker_wants_every_tied_optimum():
    tree, ref = _tree(TIED)
    both = [_entry(TIED, "c"), _entry(TIED, "d")]
    report = dict(both[0], optima=both)
    assert reference.optima_problems(tree, ref, report) == []
    report = dict(both[0], optima=both[:1])
    problems = reference.optima_problems(tree, ref, report)
    assert any("incomplete" in p for p in problems), problems
    report = dict(both[0], optima=[both[0], both[0]])
    assert any("repeat" in p for p in reference.optima_problems(tree, ref, report))
