"""One guard per input fact: every id, count, size and budget is refused by
one helper each (graph._check_id, _check_count, _check_positive and
_check_budget), with one message form, and every construction still runs on
the smallest graphs."""

import ast
from pathlib import Path

import pytest

from multicolor import (
    Graph,
    InvalidParams,
    Multicoloring,
    OrderFamily,
    TdmaSchedule,
    TowerParams,
    build_weighted_scheme,
    choose_tower,
    disjoint_stars,
    generate_draws,
    gnp_graph,
    randomized_palette_size,
    unit_disk_graph,
)
from multicolor.cli import main
from multicolor.simulator import build_program, registered_algorithms, run_one_shot
from multicolor.verifier import certify_on_neighborhood, nbr_vertex_count, verify

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "multicolor").glob("*.py"))

ID_SPACE_USERS = {
    "Graph": lambda n: Graph(n, {}),
    "gnp_graph": lambda n: gnp_graph(2, 0.5, n, 1),
    "choose_tower": lambda n: choose_tower(n, 2),
    "OrderFamily": lambda n: OrderFamily(1, n, 1),
    "nbr_vertex_count": lambda n: nbr_vertex_count(n, 1),
}


@pytest.mark.parametrize("bad", [0, 2.5, True], ids=["zero", "float", "bool"])
@pytest.mark.parametrize("user", sorted(ID_SPACE_USERS))
def test_a_malformed_id_space_is_refused(user, bad):
    with pytest.raises(InvalidParams, match=f"^id space {bad!r} is not an int >= 1$"):
        ID_SPACE_USERS[user](bad)


# name -> (call with the count, its noun, its bound)
COUNT_USERS = {
    "gnp_graph": (lambda n: gnp_graph(n, 0.5, 10, 1), "node count", 10),
    "unit_disk_graph": (lambda n: unit_disk_graph(n, 0.5, 10, 1), "node count", 10),
    "randomized_palette_size": (lambda n: randomized_palette_size(n, 3, 0.5), "node count", "inf"),
    "star-count": (lambda c: disjoint_stars(c, 2, 10, 1), "star count", "inf"),
    "leaf-count": (lambda c: disjoint_stars(2, c, 10, 1), "leaf count", "inf"),
    "choose_tower-depth": (lambda d: choose_tower(10**6, 3, d), "depth", "inf"),
    "weighted-depth": (lambda d: build_weighted_scheme(10**6, 8, 0.5, d), "depth", "inf"),
    "certify-attempts": (
        lambda a: build_program("shared-order", Graph(5, {}), 1, certify_attempts=a),
        "certify attempts",
        "inf",
    ),
}


@pytest.mark.parametrize("bad", [-1, 2.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("user", sorted(COUNT_USERS))
def test_a_malformed_count_is_refused(user, bad):
    call, what, bound = COUNT_USERS[user]
    with pytest.raises(InvalidParams, match=rf"^{what} {bad!r} is not an int in \[0, {bound}\]$"):
        call(bad)


@pytest.mark.parametrize("bad", [7.0, True], ids=["float", "bool"])
def test_a_malformed_field_order_is_refused(bad):
    with pytest.raises(InvalidParams, match=f"^field order {bad!r} is not an int >= 1$"):
        TowerParams(30, 3, (bad,), (1,), 2)


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_a_malformed_tower_degree_bound_is_refused(bad):
    with pytest.raises(InvalidParams, match=f"^degree bound {bad!r} is not an int >= 1$"):
        TowerParams(30, 3, (11,), (bad,), 2)


@pytest.mark.parametrize("bad", [0, 2.5, True], ids=["zero", "float", "bool"])
def test_draws_refuse_a_malformed_node_id(bad):
    message = rf"^id {bad} outside \[1, inf\]$" if type(bad) is int else f"^id {bad!r} is not an int$"
    with pytest.raises(InvalidParams, match=message):
        generate_draws(bad, 3, 1)


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "integral-float"])
def test_an_order_family_refuses_an_id_equal_to_a_cached_one(bad):
    family = OrderFamily(4, 10, 1)
    family.keys(int(bad))
    family.select_mask(int(bad), (3,))
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        family.keys(bad)
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        family.beats_row(bad)
    with pytest.raises(InvalidParams, match=f"^id {bad!r} is not an int$"):
        family.select_mask(bad, (3,))


def test_an_order_family_refuses_a_neighbor_that_is_not_an_int():
    with pytest.raises(InvalidParams, match="^id 1.0 is not an int$"):
        OrderFamily(4, 10, 1).select_mask(2, (1.0,))


@pytest.mark.parametrize("bad", [2.5, True, 3.0], ids=["float", "bool", "integral-float"])
def test_a_malformed_palette_is_refused_by_its_records(bad):
    with pytest.raises(InvalidParams, match=f"^palette size {bad!r} is not an int >= 1$"):
        Multicoloring(bad, {1: (1,)})
    with pytest.raises(InvalidParams, match=f"^frame length {bad!r} is not an int >= 1$"):
        TdmaSchedule(bad, {1: (1,)})


@pytest.mark.parametrize("bad", [-1, 2.5], ids=["negative", "float"])
def test_a_certificate_refuses_a_malformed_palette(bad):
    with pytest.raises(InvalidParams, match=f"^palette size {bad!r} is not an int >= 1$"):
        certify_on_neighborhood(lambda view: (), 3, 1, bad)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--model", "gnp", "--n", "2", "--p", "0.5", "--N", "0", "-o", "OUT"],
         "id space 0"),
        (["nbrgraph", "--N", "0", "--Delta", "1"], "id space 0"),
        (["nbrgraph", "--N", "5", "--Delta", "1", "--certify", "shared-order",
          "--attempts", "0"], "max attempts 0"),
    ],
    ids=["gen", "nbrgraph", "nbrgraph-attempts"],
)
def test_the_cli_exits_2_on_a_malformed_size(tmp_path, capsys, argv, message):
    argv = [str(tmp_path / "g.edges") if a == "OUT" else a for a in argv]
    assert main([*argv, "--seed", "1"]) == 2
    assert f"error: {message} is not an int >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "g",
    [Graph(1, {1: frozenset()}), Graph(5, {1: frozenset()}), Graph(5, {})],
    ids=["one-node-N1", "one-node-N5", "empty"],
)
@pytest.mark.parametrize("algo", registered_algorithms())
def test_every_algorithm_colors_the_smallest_graphs(algo, g):
    coloring, _ = run_one_shot(g, algo, 1)
    report = verify(g, coloring, eps=coloring.params.get("epsilon"))
    assert report.valid and report.meets_target is not False
    assert all(coloring.assignment.values())  # a lone node keeps some color


@pytest.mark.parametrize("algo", ["shared-order", "algebraic-basic"])
def test_nbrgraph_certifies_a_one_id_space(capsys, algo):
    assert main(["nbrgraph", "--N", "1", "--Delta", "1", "--certify", algo, "--seed", "1"]) == 0
    assert "certify=PASS views=0" in capsys.readouterr().out


# -- structure: the guards exist once ----------------------------------------


def _raise_sites(node, owner=None):
    """(function, raise) pairs, each raise under its innermost function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raise_sites(child, child.name)
        else:
            if isinstance(child, ast.Raise):
                yield owner, child
            yield from _raise_sites(child, owner)


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


GUARDS = {"_check_id", "_check_count", "_check_positive", "_check_budget"}
# per-view hot paths that test an int inline and call a guard only to raise,
# the JSON reader, whose refusal is a TypeError its caller reports, and the
# records' color normalizer, which tests a node's colors at once through their sum
INLINE_INT_TESTS = {
    ("graph.py", "OneHopView.__post_init__"),
    ("permcolor.py", "OrderFamily.select_mask"),
    ("coloring.py", "_json_int"),
    ("coloring.py", "_sorted_set"),
}


def test_too_large_is_raised_only_by_the_budget_helper():
    sites = [
        (path.name, owner)
        for path in SOURCES
        for owner, node in _raise_sites(ast.parse(path.read_text()))
        if node.exc is not None and "TooLarge" in _names(node.exc)
    ]
    # _palette's refusal is a float overflow, not a count against a guard
    assert sorted(sites) == [("graph.py", "_check_budget"), ("permcolor.py", "_palette")]


def _is_id_space(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "id_space") or (
        isinstance(node, ast.Attribute) and node.attr == "id_space"
    )


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_no_id_space_is_compared_with_a_literal_outside_the_graph_guards():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if path.name == "graph.py" and func.name in GUARDS:
                continue
            for cmp in ast.walk(func):
                if isinstance(cmp, ast.Compare):
                    operands = [cmp.left, *cmp.comparators]
                    if any(map(_is_id_space, operands)) and any(map(_is_number, operands)):
                        found.append(f"{path.name}:{cmp.lineno} in {func.name}")
    assert not found, found


def _owned(node, owner=None):
    """(qualified name of the innermost function, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if owner is None else f"{owner}.{child.name}"
        yield owner, child
        yield from _owned(child, inner)


def _is_int_type_test(node) -> bool:
    """type(...) is int, or type(...) is not int."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    )


def test_ints_are_tested_only_by_the_graph_guards_and_the_per_view_paths():
    sites = {
        (path.name, owner)
        for path in SOURCES
        for owner, node in _owned(ast.parse(path.read_text()))
        if _is_int_type_test(node)
    }
    outside = sites - {("graph.py", name) for name in GUARDS}
    assert outside == INLINE_INT_TESTS
