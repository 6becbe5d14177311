"""Brute-force reference behaviour."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

import strategies
from helpers import is_minimal_cut, tree, underflow_tree
from mpmcs.generator import GeneratorParams, random_fault_tree
from mpmcs.oracle import MAX_ORACLE_EVENTS, enumerate_mcs, oracle_mpmcs

FIRE_MCS = [
    ({"x1", "x2"}, 0.02),
    ({"x5", "x6"}, 0.005),
    ({"x5", "x7"}, 0.0025),
    ({"x4"}, 0.002),
    ({"x3"}, 0.001),
]


def test_fire_minimal_cut_sets(fire_tree):
    got = enumerate_mcs(fire_tree)
    assert [(set(cs.events), pytest.approx(cs.probability, rel=1e-9)) for cs in got] == [
        (events, pytest.approx(p, rel=1e-9)) for events, p in FIRE_MCS
    ]


def test_fire_mcs_sorted_most_probable_first(fire_tree):
    probs = [cs.probability for cs in enumerate_mcs(fire_tree)]
    assert probs == sorted(probs, reverse=True)


def test_ties_break_lexicographically():
    t = tree(
        {"top": ("or", ["b", "a"]), "a": 0.25, "b": 0.25},
        top="top",
    )
    got = enumerate_mcs(t)
    assert [sorted(cs.events) for cs in got] == [["a"], ["b"]]


def test_ranks_by_log_weight_when_products_underflow():
    """Both products are 0.0; the log weights still tell the sets apart."""
    t = underflow_tree()
    got = enumerate_mcs(t)
    assert [sorted(cs.events) for cs in got] == [["c", "d"], ["a", "b"]]
    assert [cs.probability for cs in got] == [0.0, 0.0]
    res = oracle_mpmcs(t)
    assert res.cut_set == frozenset({"c", "d"})
    assert res.log_weight == pytest.approx(-2 * math.log(1e-190), rel=1e-12)


def test_oracle_mpmcs_fields(fire_tree):
    res = oracle_mpmcs(fire_tree)
    assert res.cut_set == frozenset({"x1", "x2"})
    assert res.solver_id == "oracle"
    assert res.probability == pytest.approx(0.02, abs=1e-6)
    assert res.log_weight == pytest.approx(3.912023, abs=1e-5)
    assert res.probability == pytest.approx(math.exp(-res.log_weight), rel=1e-12)
    assert res.elapsed >= 0.0


def test_event_cap_enforced():
    t = random_fault_tree(GeneratorParams(nodes=60, seed=0))
    assert len(t.event_ids) > MAX_ORACLE_EVENTS
    with pytest.raises(ValueError):
        enumerate_mcs(t)


def test_single_event_tree():
    t = tree({"e": 0.7}, top="e")
    got = enumerate_mcs(t)
    assert len(got) == 1
    assert got[0].events == frozenset({"e"})
    assert got[0].probability == pytest.approx(0.7)


@settings(max_examples=60, deadline=None)
@given(strategies.fault_trees(max_events=7))
def test_every_returned_set_is_a_minimal_cut(t):
    cut_sets = enumerate_mcs(t)
    assert cut_sets, "a valid tree always has at least one cut set"
    for cs in cut_sets:
        assert is_minimal_cut(t, cs.events)
    # No returned set contains another; minimality is global.
    sets = [cs.events for cs in cut_sets]
    for a in sets:
        for b in sets:
            assert a == b or not a < b


@settings(max_examples=60, deadline=None)
@given(strategies.fault_trees(max_events=7, shared=True))
def test_minimality_holds_under_sharing(t):
    for cs in enumerate_mcs(t):
        assert is_minimal_cut(t, cs.events)


@settings(max_examples=40, deadline=None)
@given(strategies.fault_trees(max_events=6))
def test_probability_matches_member_product(t):
    probs = t.probabilities()
    for cs in enumerate_mcs(t):
        expected = math.prod(probs[e] for e in cs.events)
        assert cs.probability == pytest.approx(expected, rel=1e-12)
