"""Schedules from colorings: conversion, duty cycles, serialization."""

from fractions import Fraction

import pytest

from multicolor import (
    Graph,
    InvalidParams,
    Multicoloring,
    RefusedInvalid,
    TdmaSchedule,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
    to_schedule,
    utilization,
    verify,
)

K2 = Graph(2, {1: {2}, 2: {1}})


def test_two_node_schedule():
    m = Multicoloring(3, {1: {1, 3}, 2: {2}}, params={"algorithm": "x", "seed": 7})
    s = to_schedule(m, K2)
    assert s.frame_length == 3
    assert s.slots == {1: (1, 3), 2: (2,)}
    assert s.meta["algorithm"] == "x"
    assert s.meta["seed"] == 7
    assert s.meta["epsilon"] is None
    assert s.meta["params"] == {}


def test_meta_keeps_leftover_params():
    m = Multicoloring(
        2,
        {1: {1}, 2: {2}},
        params={"algorithm": "x", "epsilon": 0.5, "seed": 1, "k": 2},
    )
    s = to_schedule(m, K2)
    assert s.meta == {"algorithm": "x", "epsilon": 0.5, "seed": 1, "params": {"k": 2}}


def test_conflicting_coloring_is_refused():
    with pytest.raises(RefusedInvalid):
        to_schedule(Multicoloring(2, {1: {1}, 2: {1}}), K2)


def test_schedule_validation_and_normalization():
    s = TdmaSchedule(4, {1: (3, 1)})
    assert s.slots[1] == (1, 3)  # sorted on construction
    with pytest.raises(InvalidParams):
        TdmaSchedule(0, {})
    with pytest.raises(InvalidParams):
        TdmaSchedule(4, {1: (5,)})
    with pytest.raises(InvalidParams):
        TdmaSchedule(4, {1: (0,)})
    with pytest.raises(InvalidParams, match="node 2: slot 9 outside"):
        TdmaSchedule(4, {1: (), 2: (2, 9, 3)})


def test_everyone_transmits_always_on_an_edgeless_graph():
    g = Graph(3, {1: set(), 2: set(), 3: set()})
    m = Multicoloring(2, {1: {1, 2}, 2: {1, 2}, 3: {1, 2}})
    s = to_schedule(m, g)
    u = utilization(s, g)
    assert u.duty == {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
    assert u.mean_duty == 1 and u.min_duty == 1
    assert u.baseline == Fraction(1, 2)
    assert u.speedup == {1: 2, 2: 2, 3: 2}


def test_utilization_is_exact_and_matches_verify():
    path = Graph(3, {1: {2}, 2: {1, 3}, 3: {2}})
    m = Multicoloring(6, {1: {1, 2}, 2: {3}, 3: {4, 5, 6}})
    s = to_schedule(m, path)
    u = utilization(s, path)
    r = verify(path, m)
    assert u.duty == r.fractions
    assert u.mean_duty == Fraction(Fraction(2, 6) + Fraction(1, 6) + Fraction(3, 6), 3)
    assert u.min_duty == Fraction(1, 6)
    assert u.speedup == {1: 2, 2: 1, 3: 3}
    got = u.summary()
    assert got["mean_speedup"] == "2" and got["baseline"] == "1/6"


def test_utilization_requires_every_node():
    with pytest.raises(InvalidParams):
        utilization(TdmaSchedule(2, {1: (1,)}), K2)


def test_json_round_trip_is_exact():
    m = Multicoloring(3, {1: {1, 3}, 2: {2}}, params={"algorithm": "x"})
    s = to_schedule(m, K2)
    text = schedule_to_json(s)
    assert text.endswith("\n")
    assert schedule_from_json(text) == s
    assert schedule_to_json(schedule_from_json(text)) == text
    with pytest.raises(InvalidParams):
        schedule_from_json("{not json")
    with pytest.raises(InvalidParams):
        schedule_from_json('{"frame_length": 3}')
    with pytest.raises(InvalidParams):
        schedule_from_json('{"frame_length": 3, "nodes": [{"id": "a"}]}')
    with pytest.raises(InvalidParams):
        schedule_from_json('{"frame_length": 1e400, "nodes": []}')


def test_csv_lists_one_row_per_slot():
    s = TdmaSchedule(4, {2: (1, 4), 1: (2,)})
    text = schedule_to_csv(s)
    lines = text.strip().splitlines()
    assert lines[0] == "node,slot"
    assert lines[1:] == ["1,2", "2,1", "2,4"]
    assert len(lines) - 1 == sum(len(v) for v in s.slots.values())
