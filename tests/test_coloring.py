"""Multicoloring record validation and JSON round-trips."""

from fractions import Fraction

import pytest

from multicolor import InvalidParams, Multicoloring, coloring_from_json, coloring_to_json


def test_colors_must_fit_palette():
    with pytest.raises(InvalidParams):
        Multicoloring(3, {1: {4}})
    with pytest.raises(InvalidParams):
        Multicoloring(3, {1: {0}})
    with pytest.raises(InvalidParams, match="node 2: color 7 outside"):
        Multicoloring(3, {1: {1}, 2: {2, 3, 7}})
    with pytest.raises(InvalidParams, match="color -1 outside"):
        Multicoloring(3, {1: {-1, 2, 9}})
    with pytest.raises(InvalidParams):
        Multicoloring(0, {})


@pytest.mark.parametrize("node", [0, -4, True, "5"], ids=["zero", "negative", "bool", "string"])
def test_node_ids_are_ints_of_at_least_one(node):
    """coloring_from_json refuses these ids, so the record refuses them too."""
    message = rf"^id {node} outside \[1, inf\]$" if type(node) is int else f"^id {node!r} is not an int$"
    with pytest.raises(InvalidParams, match=message):
        Multicoloring(3, {node: {1}})


@pytest.mark.parametrize("params", [5, [1], None, "seed"], ids=["number", "list", "none", "string"])
def test_params_is_a_dict(params):
    with pytest.raises(InvalidParams, match="params must be a dict"):
        Multicoloring(3, {1: {1}}, params=params)


def test_colors_become_one_sorted_tuple():
    """Unsorted, repeated and set input alike become the strictly increasing
    tuple; a tuple that already is one is kept, the same object."""
    kept = (2, 5, 9)
    m = Multicoloring(9, {1: [3, 1, 2], 2: (5, 5, 4), 3: {7, 6}, 4: kept, 5: iter((8, 1))})
    assert m.assignment == {1: (1, 2, 3), 2: (4, 5), 3: (6, 7), 4: (2, 5, 9), 5: (1, 8)}
    assert m.assignment[4] is kept
    assert all(type(cols) is tuple for cols in m.assignment.values())


@pytest.mark.parametrize("cols", [(0, 1), (1, 4), (0,), (4,), [4, 1], {0, 2}])
def test_sorted_input_is_range_checked_too(cols):
    """Color 0 and color k+1 are refused whether the input was sorted or not."""
    with pytest.raises(InvalidParams, match="outside \\[1, 3\\]"):
        Multicoloring(3, {1: cols})


def test_fraction_is_exact():
    m = Multicoloring(7, {1: {1, 2, 3}, 2: frozenset()})
    assert m.fraction_of(1) == Fraction(3, 7)
    assert m.fraction_of(2) == Fraction(0)
    assert m.assignment == {1: (1, 2, 3), 2: ()}


def test_json_round_trip():
    m = Multicoloring(
        5,
        {3: {1, 4}, 1: {2}},
        params={"algorithm": "x", "seed": 9, "epsilon": 0.5},
    )
    text = coloring_to_json(m)
    assert text.endswith("\n")
    again = coloring_from_json(text)
    assert again == m
    # serialization is canonical: stable under a second round trip
    assert coloring_to_json(again) == text


def test_json_rejects_malformed_payloads():
    with pytest.raises(InvalidParams):
        coloring_from_json("{not json")
    with pytest.raises(InvalidParams):
        coloring_from_json('{"palette_size": 4}')
    with pytest.raises(InvalidParams):
        coloring_from_json('{"palette_size": 4, "assignment": {"1": "abc"}}')
    with pytest.raises(InvalidParams):
        coloring_from_json('{"palette_size": 3, "assignment": [1]}')
    with pytest.raises(InvalidParams):
        coloring_from_json('{"palette_size": 1e400, "assignment": {}}')
    for bad in (
        '{"palette_size": 3, "assignment": {"1": [1], " 1": [2], "1_0": [2.9], "+4": [true], "5": ["3"]}}',
        '{"palette_size": 3, "assignment": {" 1": [2]}}',
        '{"palette_size": 3, "assignment": {"1_0": [2]}}',
        '{"palette_size": 3, "assignment": {"+4": [1]}}',
        '{"palette_size": 3, "assignment": {"-4": [1]}}',
        '{"palette_size": 3, "assignment": {"\u0661": [1]}}',
        '{"palette_size": 3, "assignment": {"1": [2.9]}}',
        '{"palette_size": 3, "assignment": {"1": [true]}}',
        '{"palette_size": 3, "assignment": {"1": ["3"]}}',
        '{"palette_size": 3, "assignment": {"1": {"2": 2}}}',
        '{"palette_size": 3, "assignment": {"1": ""}}',
        '{"palette_size": "3", "assignment": {}}',
        '{"palette_size": 3.0, "assignment": {}}',
        '{"palette_size": true, "assignment": {}}',
        '{"palette_size": 3, "assignment": {"1": [1], "01": [2]}}',
        '{"palette_size": 3, "assignment": {"1": [1], "1": [2]}}',
        '{"palette_size": 3, "assignment": {"1": [2, 2, 2]}}',
        '{"palette_size": 3, "assignment": {"1": [1, 3], "2": [1, 2, 1]}}',
        '{"palette_size": 3, "assignment": {"0": [1]}}',
    ):
        with pytest.raises(InvalidParams):
            coloring_from_json(bad)


@pytest.mark.parametrize(
    "params", ["[1, 2]", '"seed"', "3", "null"], ids=["list", "string", "number", "null"]
)
def test_json_rejects_params_that_are_not_an_object(params):
    text = '{"palette_size": 2, "assignment": {"1": [1]}, "params": %s}' % params
    with pytest.raises(InvalidParams, match="params must be an object"):
        coloring_from_json(text)
