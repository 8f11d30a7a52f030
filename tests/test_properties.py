"""Properties of every registered algorithm on small graphs, and reader fuzzers.

Every construction must be disjoint on every edge, replay to the same color
set from a node's view alone, and survive a coloring-JSON round trip; the
deterministic ones must also meet their exact per-node floor. The readers of
untrusted text must fail only with the package's input errors.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings, strategies as st

from multicolor import (
    Graph,
    InvalidParams,
    ParseError,
    build_weighted_scheme,
    choose_tower,
    coloring_from_json,
    coloring_to_json,
    parse_edge_list,
    replay_view,
    run_one_shot,
    schedule_from_json,
    verify,
)
from multicolor.simulator import build_program, registered_algorithms


@st.composite
def small_graphs(draw):
    """A graph of 2 to 12 nodes with ids from an id space of at most 40."""
    n = draw(st.integers(2, 12))
    id_space = draw(st.integers(n, 40))
    ids = draw(st.lists(st.integers(1, id_space), min_size=n, max_size=n, unique=True))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in ids}
    for (a, b), keep in zip(pairs, present):
        if keep:
            adj[a].add(b)
            adj[b].add(a)
    return Graph(id_space, adj)


def floor(name: str, g: Graph, eps):
    """The exact per-node share a deterministic construction guarantees, by degree."""
    delta = g.max_degree()
    if name == "algebraic-basic":
        tower = choose_tower(g.id_space, delta)
        return lambda d: Fraction(tower.guaranteed_colors, tower.palette_size)
    if name == "algebraic-weighted":
        return build_weighted_scheme(g.id_space, max(1, delta), eps).guaranteed_fraction
    return None


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    g=small_graphs(),
    name=st.sampled_from(registered_algorithms()),
    eps=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_algorithm_is_disjoint_exact_replayable_and_serializable(g, name, eps, seed):
    program = build_program(name, g, seed=seed, eps=eps)
    coloring, trace = run_one_shot(g, program, seed)
    assert verify(g, coloring).valid
    share = floor(name, g, eps)
    if share is not None:
        for v in g.node_ids():
            assert coloring.fraction_of(v) >= share(g.degree(v))
    for v in g.node_ids():
        again = replay_view(g.view(v), trace.nodes[v].received, program, seed)
        assert again == coloring.assignment[v]
    assert coloring_from_json(coloring_to_json(coloring)) == coloring


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
coloring_payloads = st.fixed_dictionaries(
    {},
    optional={
        "palette_size": json_values,
        "assignment": json_values
        | st.dictionaries(st.text(max_size=3), json_values, max_size=3),
        "params": json_values,
    },
)
schedule_payloads = st.fixed_dictionaries(
    {},
    optional={
        "frame_length": json_values,
        "nodes": json_values
        | st.lists(
            st.fixed_dictionaries({}, optional={"id": json_values, "slots": json_values}),
            max_size=3,
        ),
        "meta": json_values,
    },
)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=40) | coloring_payloads.map(json.dumps) | json_values.map(json.dumps))
@example(text='{"palette_size": 3, "assignment": [1]}')
@example(text='{"palette_size": 1e400, "assignment": {}}')
@example(text="[" * 100_000 + "]" * 100_000)
def test_coloring_reader_fails_only_with_invalid_params(text):
    try:
        coloring_from_json(text)
    except InvalidParams:
        pass


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=40) | schedule_payloads.map(json.dumps) | json_values.map(json.dumps))
@example(text='{"frame_length": 1e400, "nodes": []}')
@example(text="[" * 100_000 + "]" * 100_000)
def test_schedule_reader_fails_only_with_invalid_params(text):
    try:
        schedule_from_json(text)
    except InvalidParams:
        pass


edge_list_text = st.text(alphabet="0123456789 #N=nodes,\n-x\t", max_size=60)


@settings(max_examples=300, deadline=None)
@given(text=edge_list_text | st.text(max_size=40))
@example(text="# N=" + "9" * 5000 + "\n1 2\n")
@example(text="# nodes=" + "9" * 5000 + "\n")
def test_edge_list_parser_fails_only_with_parse_or_param_errors(text):
    try:
        parse_edge_list(text)
    except (ParseError, InvalidParams):
        pass
