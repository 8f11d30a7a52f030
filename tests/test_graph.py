"""Graph construction, seeded generators, and the edge-list text format."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import (
    Graph,
    InvalidParams,
    NotFound,
    OneHopView,
    ParseError,
    disjoint_stars,
    format_edge_list,
    gnp_graph,
    parse_edge_list,
    unit_disk_graph,
)


def components(g):
    """Connected components by BFS; independent of any Graph method."""
    seen = set()
    count = 0
    for start in g.node_ids():
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


# -- views --------------------------------------------------------------


def test_view_of_triangle():
    g = Graph(3, {1: {2, 3}, 2: {1, 3}, 3: {1, 2}})
    assert g.view(1) == OneHopView(1, frozenset({2, 3}))


def test_view_of_path_midpoint():
    g = parse_edge_list("1 2\n2 3\n")
    assert g.view(2) == OneHopView(2, frozenset({1, 3}))


def test_view_of_isolated_node():
    g = parse_edge_list("# N=9\n# nodes=5\n1 2\n")
    assert g.view(5) == OneHopView(5, frozenset())
    assert g.view(5).degree == 0


def test_view_of_unknown_node():
    g = parse_edge_list("1 2\n")
    with pytest.raises(NotFound):
        g.view(7)


def test_view_rejects_self_membership():
    with pytest.raises(InvalidParams):
        OneHopView(3, frozenset({1, 3}))
    with pytest.raises(InvalidParams):
        OneHopView(0, frozenset())
    with pytest.raises(InvalidParams):
        OneHopView(2, frozenset({0}))


@pytest.mark.parametrize("bad", [2.5, 2.0, True], ids=["float", "integral-float", "bool"])
def test_view_refuses_an_id_that_is_not_an_int(bad):
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        OneHopView(bad, frozenset({3}))
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        OneHopView(3, frozenset({4, bad}))


# -- graph validation ----------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidParams):
        Graph(3, {1: {1}, 2: set()})


def test_graph_rejects_asymmetry():
    with pytest.raises(InvalidParams):
        Graph(3, {1: {2}, 2: set()})


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(InvalidParams):
        Graph(5, {1: {4}})


def test_graph_rejects_id_outside_space():
    with pytest.raises(InvalidParams):
        Graph(3, {4: set()})
    with pytest.raises(InvalidParams, match="id space"):
        Graph(0)


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "integral-float"])
def test_graph_refuses_a_node_id_that_is_not_an_int(bad):
    # such a key would be written as "# nodes=True" or "2.0", which reads back as a comment
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        Graph(3, {bad: set(), 3: set()})
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        Graph(3, {bad: {3}, 3: {bad}})


def test_graph_rejects_more_nodes_than_ids():
    with pytest.raises(InvalidParams):
        Graph(1, {1: set(), 2: set()})


def test_graph_basic_accessors():
    g = Graph(10, {2: {7}, 7: {2, 9}, 9: {7}})
    assert g.n == 3
    assert g.node_ids() == (2, 7, 9)
    assert g.degree(7) == 2
    assert g.max_degree() == 2
    assert g.edge_count() == 2
    assert g.edges() == [(2, 7), (7, 9)]
    assert g.has_node(9) and not g.has_node(3)
    with pytest.raises(NotFound):
        g.neighbors(1)


def test_empty_graph():
    g = Graph(1, {})
    assert g.n == 0
    assert g.max_degree() == 0
    assert g.edges() == []


# -- generators ----------------------------------------------------------


def test_gnp_extremes():
    g0 = gnp_graph(4, 0.0, 4, seed=1)
    assert g0.n == 4 and g0.edge_count() == 0
    g1 = gnp_graph(4, 1.0, 4, seed=1)
    assert g1.edge_count() == 6  # K4


def test_gnp_is_deterministic():
    a = gnp_graph(100, 0.05, 1000, seed=7)
    b = gnp_graph(100, 0.05, 1000, seed=7)
    assert a == b
    c = gnp_graph(100, 0.05, 1000, seed=8)
    assert a != c


def test_gnp_rejects_bad_params():
    with pytest.raises(InvalidParams):
        gnp_graph(5, 0.5, 4, seed=0)
    with pytest.raises(InvalidParams):
        gnp_graph(5, 1.5, 10, seed=0)


def test_generators_reject_an_empty_id_space():
    with pytest.raises(InvalidParams):
        gnp_graph(0, 0.5, 0, seed=0)
    with pytest.raises(InvalidParams):
        unit_disk_graph(0, 0.5, 0, seed=0)
    with pytest.raises(InvalidParams):
        disjoint_stars(0, 1, 0, seed=0)


GENERATORS = {
    "gnp": (lambda n: gnp_graph(n, 0.5, 10, seed=1), "^need an int 0 <= n <= id_space"),
    "udg": (lambda n: unit_disk_graph(n, 0.5, 10, seed=1), "^need an int 0 <= n <= id_space"),
    "stars": (lambda count: disjoint_stars(count, 2, 10, seed=1), "^count and leaves must be ints"),
    "leaves": (lambda leaves: disjoint_stars(2, leaves, 10, seed=1), "^count and leaves must be ints"),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("model", sorted(GENERATORS))
def test_generators_refuse_a_node_count_that_is_not_an_int(model, bad):
    generate, message = GENERATORS[model]
    with pytest.raises(InvalidParams, match=message):
        generate(bad)


def test_stars_refuse_a_negative_count():
    with pytest.raises(InvalidParams, match="count and leaves"):
        disjoint_stars(-1, 2, 10, seed=0)


def test_udg_extremes():
    assert unit_disk_graph(20, 0.0, 20, seed=3).edge_count() == 0
    # radius above sqrt(2) reaches every pair in the unit square
    full = unit_disk_graph(12, 1.4143, 12, seed=3)
    assert full.edge_count() == math.comb(12, 2)


def test_udg_refuses_a_nan_radius():
    with pytest.raises(InvalidParams, match="radius"):
        unit_disk_graph(5, float("nan"), 5, seed=3)


def test_udg_is_deterministic():
    a = unit_disk_graph(50, 0.2, 50, seed=3)
    b = unit_disk_graph(50, 0.2, 50, seed=3)
    assert a == b


def test_stars_tiny_shapes():
    k12 = disjoint_stars(1, 2, 3, seed=0)
    assert k12.n == 3 and k12.edge_count() == 2 and k12.max_degree() == 2
    matching = disjoint_stars(2, 1, 4, seed=0)
    assert matching.n == 4 and matching.edge_count() == 2
    assert all(matching.degree(v) == 1 for v in matching.node_ids())


def test_stars_component_structure():
    g = disjoint_stars(3, 4, 100, seed=1)
    assert g.n == 15
    assert g.edge_count() == 12
    assert components(g) == 3
    degrees = sorted(g.degree(v) for v in g.node_ids())
    assert degrees == [1] * 12 + [4] * 3


def test_stars_capacity_check():
    with pytest.raises(InvalidParams):
        disjoint_stars(3, 4, 14, seed=0)


def test_stars_zero_leaves():
    g = disjoint_stars(4, 0, 10, seed=2)
    assert g.n == 4 and g.edge_count() == 0


@settings(max_examples=50)
@given(
    n=st.integers(min_value=0, max_value=30),
    p=st.floats(min_value=0, max_value=1),
    extra=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_gnp_invariants(n, p, extra, seed):
    id_space = max(1, n + extra)
    g = gnp_graph(n, p, id_space, seed)
    ids = g.node_ids()
    assert len(ids) == n
    assert len(set(ids)) == n  # the id injection never repeats
    assert all(1 <= v <= id_space for v in ids)
    assert g.max_degree() <= max(0, n - 1)
    for v in ids:
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


# -- edge-list format ----------------------------------------------------


def test_parse_basic_with_header():
    g = parse_edge_list("# N=4\n1 2\n2 3\n")
    assert g.id_space == 4
    assert g.node_ids() == (1, 2, 3)
    assert g.edges() == [(1, 2), (2, 3)]


def test_parse_without_header_uses_max_id():
    g = parse_edge_list("3 9\n")
    assert g.id_space == 9


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n1 2\n\n# another\n")
    assert g.edges() == [(1, 2)]


def test_parse_self_loop():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("1 1\n")
    assert exc.value.line == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("# N=9\n1 2\n1 2 3\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 x\n", 1),
        ("1 2\n1_0 +2\n", 2),  # int() reads `_` separators and signs
        ("# N=9\n\u0661 3\n", 2),  # an Arabic-Indic digit one
        ("1 2\n# N=\u0661\u0662\n", 2),  # \d matches any Unicode digit
        ("# nodes=4, \u0665\n1 2\n", 1),
    ],
    ids=["letter", "underscore-and-sign", "arabic-id", "arabic-N", "arabic-nodes"],
)
def test_parse_non_integer_id(text, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


def test_parse_duplicate_edge_either_orientation():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("1 2\n2 1\n")
    assert exc.value.line == 2


def test_parse_duplicate_header():
    with pytest.raises(ParseError):
        parse_edge_list("# N=4\n# N=5\n1 2\n")


def test_parse_id_beyond_declared_space():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("# N=3\n1 4\n")
    assert exc.value.line == 2


def test_parse_nonpositive_id():
    with pytest.raises(ParseError):
        parse_edge_list("0 2\n")


def test_isolated_nodes_round_trip():
    g = parse_edge_list("# N=9\n# nodes=5, 8\n1 2\n")
    assert g.node_ids() == (1, 2, 5, 8)
    assert g.degree(5) == 0
    again = parse_edge_list(format_edge_list(g))
    assert again == g


def test_format_parse_round_trip_on_generated_graphs():
    for seed in range(5):
        g = gnp_graph(40, 0.1, 120, seed=seed)
        assert parse_edge_list(format_edge_list(g)) == g


def test_format_is_canonical():
    """Parsing a scrambled 100-edge file reproduces the canonical text."""
    g = gnp_graph(60, 0.07, 200, seed=11)
    text = format_edge_list(g)
    lines = text.strip().splitlines()
    scrambled = "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n"
    assert format_edge_list(parse_edge_list(scrambled)) == text


@settings(max_examples=40)
@given(
    n=st.integers(min_value=0, max_value=25),
    p=st.floats(min_value=0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(n, p, seed):
    g = gnp_graph(n, p, 2 * n + 1, seed)
    assert parse_edge_list(format_edge_list(g)) == g
