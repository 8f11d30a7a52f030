"""Schedules from colorings: conversion, duty cycles, serialization."""

import copy
import hashlib
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    gnp_graph,
    run_one_shot,
    unit_disk_graph,
    verify,
)
from multicolor import verifier
from multicolor.permcolor import PackedWords

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


def test_refusal_names_the_first_conflict_and_the_count():
    g = Graph(3, {1: {2, 3}, 2: {1, 3}, 3: {1, 2}})
    m = Multicoloring(4, {1: {2, 4}, 2: {1, 2, 4}, 3: {1, 4}})
    with pytest.raises(RefusedInvalid) as err:
        to_schedule(m, g)
    assert str(err.value) == "coloring has 5 slot conflicts (first: nodes 1 and 2 share color 2)"


def test_a_verified_conflict_is_refused_with_the_same_message():
    g = Graph(3, {1: {2, 3}, 2: {1, 3}, 3: {1, 2}})
    m = Multicoloring(4, {1: {2, 4}, 2: {1, 2, 4}, 3: {1, 4}})
    assert verify(g, m).violation_count == 5
    for _ in range(2):
        with pytest.raises(RefusedInvalid) as err:
            to_schedule(m, g)
        assert str(err.value) == "coloring has 5 slot conflicts (first: nodes 1 and 2 share color 2)"


def test_schedule_slots_are_the_colorings_tuples():
    g = gnp_graph(40, 0.15, 100, seed=2)
    for name in ("randomized", "algebraic-weighted"):
        m, _ = run_one_shot(g, name, seed=4, eps=0.5)
        s = to_schedule(m, g)
        assert all(s.slots[v] is m.assignment[v] for v in g.node_ids())


def test_graphs_colorings_and_schedules_are_read_only():
    adj = {1: {2}, 2: {1}}
    g = Graph(2, adj)
    adj[3] = set()  # the graph holds its own copy
    m = Multicoloring(3, {1: {1, 3}, 2: {2}})
    s = to_schedule(m, g)
    for mapping in (g.adj, m.assignment, s.slots):
        with pytest.raises(TypeError):
            mapping[1] = ()
    assert g.n == 2 and g.adj == {1: {2}, 2: {1}}
    assert s.slots == m.assignment == {1: (1, 3), 2: (2,)}
    assert TdmaSchedule(3, {1: (2,)}).slots == {1: (2,)}
    with pytest.raises(TypeError):
        TdmaSchedule(3, {1: (2,)}).slots[1] = (1,)


def test_read_only_records_still_pickle_and_copy():
    g = Graph(3, {1: {2}, 2: {1}, 3: set()})
    m = Multicoloring(3, {1: {1}, 2: {2}, 3: {1, 3}}, params={"seed": 1})
    verify(g, m)  # leaves its check on m, which no copy takes along
    s = to_schedule(m, g)
    for record in (g, m, s, PackedWords.pack([1, 2, 300])):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert twin == record and twin is not record
    assert to_schedule(pickle.loads(pickle.dumps(m)), g) == s


def test_verify_then_to_schedule_scans_the_edges_once(monkeypatch):
    scanned = []
    scan = verifier._scan_edges

    def counted(g, a):
        scanned.append(g)
        return scan(g, a)

    monkeypatch.setattr(verifier, "_scan_edges", counted)
    g = gnp_graph(40, 0.15, 100, seed=2)
    m, _ = run_one_shot(g, "randomized", seed=4, eps=0.5)
    assert verify(g, m).valid
    to_schedule(m, g)
    assert len(scanned) == 1 and scanned[0] is g
    # an equal graph that is another object is checked again
    twin = Graph(g.id_space, g.adj)
    assert twin == g and twin is not g
    to_schedule(m, twin)
    assert len(scanned) == 2 and scanned[1] is twin


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


@pytest.mark.parametrize("node", [0, -4, True, "5"], ids=["zero", "negative", "bool", "string"])
def test_schedule_node_ids_are_ints_of_at_least_one(node):
    """schedule_from_json refuses these ids, so the record refuses them too."""
    message = rf"^id {node} outside \[1, inf\]$" if type(node) is int else f"^id {node!r} is not an int$"
    with pytest.raises(InvalidParams, match=message):
        TdmaSchedule(3, {node: (1,)})


@pytest.mark.parametrize("meta", [5, [1], None, "seed"], ids=["number", "list", "none", "string"])
def test_schedule_meta_is_a_dict(meta):
    with pytest.raises(InvalidParams, match="meta must be a dict"):
        TdmaSchedule(3, {1: (1,)}, meta=meta)


def test_everyone_transmits_always_on_an_edgeless_graph():
    g = Graph(3, {1: set(), 2: set(), 3: set()})
    m = Multicoloring(2, {1: {1, 2}, 2: {1, 2}, 3: {1, 2}})
    s = to_schedule(m, g)
    u = utilization(s, g)
    assert [len(s.slots[v]) for v in g.node_ids()] == [s.frame_length] * 3 == [2] * 3
    assert u.mean_duty == 1 and u.min_duty == 1
    assert u.baseline == Fraction(1, 2) and u.frame_length == 2


def test_utilization_is_exact_and_matches_verify():
    path = Graph(3, {1: {2}, 2: {1, 3}, 3: {2}})
    m = Multicoloring(6, {1: {1, 2}, 2: {3}, 3: {4, 5, 6}})
    s = to_schedule(m, path)
    u = utilization(s, path)
    r = verify(path, m)
    shares = [m.fraction_of(v) for v in path.node_ids()]
    assert shares == [Fraction(len(s.slots[v]), s.frame_length) for v in path.node_ids()]
    assert shares == [Fraction(2, 6), Fraction(1, 6), Fraction(3, 6)]
    assert u.mean_duty == Fraction(sum(shares), 3)
    assert u.min_duty == min(shares) == Fraction(1, 6)
    assert u.min_duty == min(rho / (d + 1) for d, rho in r.rho_by_degree.items())
    assert u.mean_duty * u.frame_length == 2 and u.baseline == Fraction(1, 6)


def test_utilization_is_the_per_node_mean_and_minimum():
    for seed in range(5):
        g = gnp_graph(30, 0.15, 80, seed=seed)
        m, _ = run_one_shot(g, "randomized", seed=seed, eps=0.5)
        u = utilization(to_schedule(m, g), g)
        shares = [m.fraction_of(v) for v in g.node_ids()]
        assert u.mean_duty == sum(shares) / len(shares)
        assert u.min_duty == min(shares)
    empty = utilization(TdmaSchedule(4, {}), Graph(5, {}))
    assert (empty.mean_duty, empty.min_duty) == (0, 0)


def test_utilization_requires_every_node():
    with pytest.raises(InvalidParams, match=r"^schedule misses nodes \[2\]$"):
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
    for bad in (
        '{"frame_length": 3.9, "nodes": [{"id": "1_0", "slots": [1.5, "2"]}, {"id": 10, "slots": [3]}]}',
        '{"frame_length": 3.9, "nodes": []}',
        '{"frame_length": "3", "nodes": []}',
        '{"frame_length": true, "nodes": []}',
        '{"frame_length": 3, "nodes": [{"id": "1", "slots": [1]}]}',
        '{"frame_length": 3, "nodes": [{"id": true, "slots": [1]}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": [1.5]}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": ["2"]}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": [true]}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": {"1": 1}}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": {}}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "slots": [1]}, {"id": 1, "slots": [2]}]}',
        '{"frame_length": 3, "nodes": [{"id": 1, "id": 2, "slots": [1]}]}',
        '{"frame_length": 4, "nodes": [{"id": 1, "slots": [2, 2, 2]}]}',
        '{"frame_length": 4, "nodes": [{"id": 1, "slots": [1]}, {"id": 2, "slots": [3, 4, 3]}]}',
        '{"frame_length": 3, "nodes": [{"id": -4, "slots": [1]}]}',
        '{"frame_length": 3, "nodes": [{"id": 0, "slots": [1]}]}',
        '{"frame_length": 3, "meta": 5, "nodes": []}',
        '{"frame_length": 3, "meta": [1], "nodes": []}',
        '{"frame_length": 3, "meta": null, "nodes": []}',
    ):
        with pytest.raises(InvalidParams):
            schedule_from_json(bad)


def test_json_reads_distinct_slots_in_any_order():
    text = '{"frame_length": 4, "nodes": [{"id": 1, "slots": [4, 1, 3]}, {"id": 2, "slots": [2]}, {"id": 3, "slots": []}]}'
    s = schedule_from_json(text)
    assert s.slots == {1: (1, 3, 4), 2: (2,), 3: ()}
    assert all(type(slots) is tuple for slots in s.slots.values())
    assert schedule_from_json(schedule_to_json(s)) == s


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_meta = st.dictionaries(
    st.text(),
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


@st.composite
def schedules(draw):
    frame = draw(st.integers(1, 40))
    slots = draw(
        st.dictionaries(
            st.integers(1, 10**6),
            st.lists(st.integers(1, frame), unique=True, max_size=frame).map(tuple),
            max_size=6,
        )
    )
    return TdmaSchedule(frame, slots, draw(json_meta))


def indented_json(s: TdmaSchedule) -> str:
    """The schedule's payload through json's own indenting encoder."""
    payload = {
        "frame_length": s.frame_length,
        "nodes": [{"id": v, "slots": list(slots)} for v, slots in sorted(s.slots.items())],
        "meta": s.meta,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300)
@given(schedules())
def test_json_text_equals_the_indenting_encoder(s):
    assert schedule_to_json(s) == indented_json(s)


def test_json_text_of_edge_cases():
    meta = {"é": {"x": [1.5, None, True, False, "ü\n"], "y": {}}, "a": []}
    # slots past the table of decimal strings (2^17) are written one by one
    wide = TdmaSchedule(10**6, {1: (7, 2**17 - 1, 2**17, 2**17 + 1, 10**6), 2: (200_000,)})
    for s in (TdmaSchedule(1, {}), TdmaSchedule(3, {2: (), 1: (3, 1)}, meta), wide):
        assert schedule_to_json(s) == indented_json(s)


def test_csv_lists_one_row_per_slot():
    s = TdmaSchedule(4, {2: (1, 4), 1: (2,)})
    text = schedule_to_csv(s)
    lines = text.strip().splitlines()
    assert lines[0] == "node,slot"
    assert lines[1:] == ["1,2", "2,1", "2,4"]
    assert len(lines) - 1 == sum(len(v) for v in s.slots.values())


# (graph, algorithm) -> SHA-256 of its schedule's JSON at seed 7 and eps 0.5;
# randomized and shared-order re-recorded when draws and keys became the whole
# fields of one read of the stream, the algebraic ones unchanged; narrow
# randomized once more when draws took the keys' fixed 5-byte fields (wide
# randomized already cut 5-byte fields: k*40^4 is 32 bits long)
PINNED_GRAPHS = {
    "wide": lambda: gnp_graph(40, 0.1, 10**6, 3),
    "narrow": lambda: unit_disk_graph(40, 0.2, 120, 3),
    "certified": lambda: unit_disk_graph(12, 0.3, 30, 6),
}
PINNED_SCHEDULES = {
    ("wide", "randomized"): "f3fe705ebf52ee041e97fb710485dcbc71f38646d14147e9cdb0f382068051ec",
    ("wide", "algebraic-basic"): "1c9fc1a0e9606d36a7f52dd0ca584fbeac304d0cc12b3404e4e92b35740e4803",
    ("wide", "algebraic-weighted"): "23e2fc4e413f41617bb91a84d08839e2e41feeb9e717efabbb9f05880166ab19",
    ("narrow", "randomized"): "cf9c5e21b0be628ddef34a3f557ab6406d55877d0d9e6e4051ba2712b1fd55f2",
    ("narrow", "shared-order"): "ca573cfaf649e405c09cd424d12421fe90fe278d8a3cac28888eb9fb210d98db",
    ("narrow", "algebraic-basic"): "ac6bd7e039d25e59760c8e16ea1e31ed9f76d0acd8fefda8d89a6909a9c721e1",
    ("narrow", "algebraic-weighted"): "afa1e2c0a727ac127ab8132ac27aced469af5d019d1bd51e5388ff174495909c",
    # the deployed family is the one the certificate over all 30 ids passed
    ("certified", "shared-order"): "71b5fb50adef2c7d4b1067f283daf7af4b3041045b2b7cfd67253e79053162d5",
}


@pytest.mark.parametrize("case", sorted(PINNED_SCHEDULES), ids="-".join)
def test_schedules_are_byte_stable(case):
    graph, algo = case
    g = PINNED_GRAPHS[graph]()
    opts = {"certify_attempts": 3} if graph == "certified" else {}
    m, _ = run_one_shot(g, algo, 7, eps=0.5, **opts)
    text = schedule_to_json(to_schedule(m, g))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SCHEDULES[case]
