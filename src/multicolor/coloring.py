"""The multicoloring record produced by every algorithm in this package."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParams, ParseError
from .graph import _read_int

__all__ = ["Multicoloring", "coloring_to_json", "coloring_from_json"]


@dataclass(frozen=True)
class Multicoloring:
    """Assignment of a color subset of [1..palette_size] to every node.

    params records how the coloring was produced (algorithm name, epsilon,
    seed, degree bound, id space, ...) so runs can be reproduced exactly.
    """

    palette_size: int
    assignment: dict[int, frozenset[int]]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.palette_size < 1:
            raise InvalidParams("palette size must be >= 1")
        object.__setattr__(
            self,
            "assignment",
            {v: frozenset(cols) for v, cols in self.assignment.items()},
        )
        for v, cols in self.assignment.items():
            if not cols:
                continue
            for c in (min(cols), max(cols)):
                if not 1 <= c <= self.palette_size:
                    raise InvalidParams(
                        f"node {v}: color {c} outside [1, {self.palette_size}]"
                    )

    def fraction_of(self, v: int) -> Fraction:
        """Share of the palette held by node v, exact."""
        return Fraction(len(self.assignment[v]), self.palette_size)


def coloring_to_json(m: Multicoloring) -> str:
    payload = {
        "palette_size": m.palette_size,
        "assignment": {str(v): sorted(cols) for v, cols in sorted(m.assignment.items())},
        "params": m.params,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: an object that repeats a key is refused."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError("an object repeats a key")
    return obj


def _json_int(x) -> int:
    """x when it is a JSON integer; bools, floats and strings are refused."""
    if type(x) is not int:
        raise TypeError(f"{x!r:.20} is not an integer")
    return x


def _int_lists(pairs, read_id) -> dict[int, list[int]]:
    """{read_id(key): xs} of (key, xs) pairs, xs distinct JSON integers; ids are unique."""
    out: dict[int, list[int]] = {}
    for key, xs in pairs:
        if (v := read_id(key)) in out:
            raise ValueError(f"node {v} appears twice")
        if type(xs) is not list:
            raise TypeError(f"{xs!r:.20} is not a list of integers")
        out[v] = list(map(_json_int, xs))
        if len(set(xs)) < len(xs):
            raise ValueError(f"node {v} lists a value twice")
    return out


_MALFORMED = (AttributeError, KeyError, OverflowError, ParseError, RecursionError, TypeError, ValueError)


def coloring_from_json(text: str) -> Multicoloring:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise TypeError(f"params must be an object, not {type(params).__name__}")
        return Multicoloring(
            palette_size=_json_int(payload["palette_size"]),
            assignment=_int_lists(payload["assignment"].items(), _read_int),
            params=params,
        )
    except _MALFORMED as exc:
        raise InvalidParams(f"malformed coloring JSON: {exc}") from exc
