"""One guard per size: every id space, palette size and budget is refused by
one helper each (graph._check_positive and graph._check_budget), with one
message form, and every construction still runs on the smallest graphs."""

import ast
from pathlib import Path

import pytest

from multicolor import (
    Graph,
    InvalidParams,
    Multicoloring,
    OrderFamily,
    TdmaSchedule,
    choose_tower,
    gnp_graph,
)
from multicolor.cli import main
from multicolor.simulator import registered_algorithms, run_one_shot
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
    helpers = {"_check_id", "_check_degree", "_check_positive", "_check_budget"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if path.name == "graph.py" and func.name in helpers:
                continue
            for cmp in ast.walk(func):
                if isinstance(cmp, ast.Compare):
                    operands = [cmp.left, *cmp.comparators]
                    if any(map(_is_id_space, operands)) and any(map(_is_number, operands)):
                        found.append(f"{path.name}:{cmp.lineno} in {func.name}")
    assert not found, found
