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


def test_fraction_is_exact():
    m = Multicoloring(7, {1: {1, 2, 3}, 2: frozenset()})
    assert m.fraction_of(1) == Fraction(3, 7)
    assert m.fraction_of(2) == Fraction(0)
    assert m.colors_of(1) == frozenset({1, 2, 3})


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
