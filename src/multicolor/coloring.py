"""The multicoloring record produced by every algorithm in this package.

A node's colors are one strictly increasing tuple from end to end: the
per-view rules return them so, the record keeps them so (normalizing any
other iterable once), and replays and schedules hold the same tuples.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt
from types import MappingProxyType

from .errors import InvalidParams, ParseError
from .graph import _check_id, _check_positive, _read_int

__all__ = ["Multicoloring", "coloring_to_json", "coloring_from_json"]


def _sorted_set(v: int, vals, top: int, noun: str = "color") -> tuple[int, ...]:
    """Node v's set as a strictly increasing tuple of ints in [1, top].

    A strictly increasing tuple is kept as it is, the same object; any other
    iterable becomes tuple(sorted(set(vals))). Sorted, only the two ends need
    the range check; a bool (True is 1) can only come first, and a float
    anywhere makes the sum a float, so one sum tests every value's type. A
    value that cannot be compared with an int, or hashed, makes the compare,
    the set or the sort raise TypeError, which is refused the same way; so
    is a set that is not an iterable at all, named with its type.
    """
    try:
        if type(vals) is not tuple or not all(map(lt, vals, vals[1:])):
            vals = tuple(vals)  # read again below if the set or the sort refuses it
            vals = tuple(sorted(set(vals)))
        ints = not vals or (type(vals[0]) is int and type(sum(vals)) is int)
    except TypeError:
        if type(vals) is not tuple:  # not an iterable: no value to name
            kind = type(vals).__name__
            msg = f"node {v}: {noun}s {vals!r} ({kind}) are not an iterable of ints"
            raise InvalidParams(msg) from None
        ints = False
    if not ints:
        bad = next(x for x in vals if type(x) is not int)
        raise InvalidParams(f"node {v}: {noun} {bad!r} is not an int")
    if vals and not (1 <= vals[0] and vals[-1] <= top):
        bad = vals[0] if vals[0] < 1 else vals[-1]
        raise InvalidParams(f"node {v}: {noun} {bad} outside [1, {top}]")
    return vals


def _check_record(nodes: Mapping, extra, name: str) -> None:
    """Refuse a record its JSON reader would refuse to read back.

    Every node id must pass graph._check_id (an int of at least 1; a bool
    is not an id), and extra, the record's params or meta, be a dict.
    """
    if not isinstance(extra, dict):
        raise InvalidParams(f"{name} must be a dict, not {type(extra).__name__}")
    for v in nodes:
        _check_id(v)


@dataclass(frozen=True)
class Multicoloring:
    """Assignment of a color subset of [1..palette_size] to every node.

    Each node's colors are held as a strictly increasing tuple: any iterable
    given is normalized to one, and a tuple that already is one is kept.
    assignment is a read-only view of the dict built here, so the colors
    cannot change once made, and verifier._conflicts can keep its check on
    the record. params records how the coloring was produced (algorithm
    name, epsilon, seed, degree bound, id space, ...) so runs can be
    reproduced exactly. Node ids are ints >= 1 and params is a dict, or
    InvalidParams is raised, so coloring_from_json reads back every record.
    """

    palette_size: int
    assignment: Mapping[int, tuple[int, ...]]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_positive(self.palette_size, "palette size")
        _check_record(self.assignment, self.params, "params")
        k = self.palette_size
        assignment = {v: _sorted_set(v, cols, k) for v, cols in self.assignment.items()}
        object.__setattr__(self, "assignment", MappingProxyType(assignment))

    def __reduce__(self):
        # a mapping proxy cannot be pickled: rebuild from a plain dict
        return type(self), (self.palette_size, dict(self.assignment), self.params)

    def fraction_of(self, v: int) -> Fraction:
        """Share of the palette held by node v, exact."""
        return Fraction(len(self.assignment[v]), self.palette_size)


def coloring_to_json(m: Multicoloring) -> str:
    payload = {
        "palette_size": m.palette_size,
        "assignment": {str(v): cols for v, cols in sorted(m.assignment.items())},
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


def _json_object(payload: dict, key: str) -> dict:
    """payload[key] when it is a JSON object, {} when it is missing."""
    if isinstance(obj := payload.get(key, {}), dict):
        return obj
    raise TypeError(f"{key} must be an object, not {type(obj).__name__}")


def _int_tuples(pairs, read_id) -> dict[int, tuple[int, ...]]:
    """{read_id(key): tuple(xs)} of (key, xs) pairs, xs distinct JSON integers; unique ids.

    The record built from it refuses an id below 1. Each parsed list is
    emptied once its tuple is made, so a document's values are not held
    twice. A strictly increasing list, as the writers lay them out, needs no
    set to show its values distinct.
    """
    out: dict[int, tuple[int, ...]] = {}
    for key, xs in pairs:
        if (v := read_id(key)) in out:
            raise ValueError(f"node {v} appears twice")
        if type(xs) is not list:
            raise TypeError(f"{xs!r:.20} is not a list of integers")
        vals = tuple(map(_json_int, xs))
        xs.clear()
        if not all(map(lt, vals, vals[1:])) and len(set(vals)) < len(vals):
            raise ValueError(f"node {v} lists a value twice")
        out[v] = vals
    return out


_MALFORMED = (AttributeError, KeyError, OverflowError, ParseError, RecursionError, TypeError, ValueError)


def coloring_from_json(text: str) -> Multicoloring:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
        return Multicoloring(
            palette_size=_json_int(payload["palette_size"]),
            assignment=_int_tuples(payload["assignment"].items(), _read_int),
            params=_json_object(payload, "params"),
        )
    except _MALFORMED as exc:
        raise InvalidParams(f"malformed coloring JSON: {exc}") from exc
