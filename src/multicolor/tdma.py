"""Turning verified multicolorings into TDMA frame schedules.

Color i becomes slot i of a frame of palette_size slots: a schedule's slots
are its coloring's read-only assignment, the same mapping. Conversion
refuses colorings that are not disjoint on every edge, so neighboring nodes
in a produced schedule never share a slot; a coloring already verified
against the same graph object is not scanned again.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .coloring import _MALFORMED, Multicoloring, _check_record, _int_tuples, _json_int
from .coloring import _json_object, _sorted_set, _unique_keys
from .errors import InvalidParams, RefusedInvalid
from .graph import Graph, _check_positive
from .verifier import _conflicts, _kept_by_degree
from .verifier import verify  # noqa: F401  perfbench's tracer hooks tdma.verify

__all__ = [
    "TdmaSchedule",
    "to_schedule",
    "utilization",
    "UtilizationReport",
    "schedule_to_json",
    "schedule_from_json",
    "schedule_to_csv",
]


@dataclass(frozen=True)
class TdmaSchedule:
    """Per-node transmit slots within a frame of frame_length slots.

    Each node's slots are a strictly increasing tuple, normalized as a
    Multicoloring's colors are, and slots is read-only, as its assignment is.
    Node ids are ints >= 1 and meta is a dict, as schedule_from_json requires.
    """

    frame_length: int
    slots: Mapping[int, tuple[int, ...]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_positive(self.frame_length, "frame length")
        _check_record(self.slots, self.meta, "meta")
        n = self.frame_length
        slots = {v: _sorted_set(v, s, n, "slot") for v, s in self.slots.items()}
        object.__setattr__(self, "slots", MappingProxyType(slots))

    def __reduce__(self):
        # a mapping proxy cannot be pickled: rebuild from a plain dict
        return type(self), (self.frame_length, dict(self.slots), self.meta)


def _unchecked_schedule(m: Multicoloring, meta: dict) -> TdmaSchedule:
    """TdmaSchedule(m.palette_size, m.assignment, meta) without __post_init__'s normalizer.

    Only for to_schedule: a Multicoloring already holds every node's colors
    as a strictly increasing tuple within [1, palette_size], in a read-only
    mapping the schedule can share, and its palette size, at least 1, is the
    frame length, so normalizing them again would change nothing. Every
    other caller goes through the checked constructor.
    """
    schedule = object.__new__(TdmaSchedule)
    fields = schedule.__dict__
    fields["frame_length"] = m.palette_size
    fields["slots"] = m.assignment
    fields["meta"] = meta
    return schedule


def to_schedule(m: Multicoloring, g: Graph) -> TdmaSchedule:
    """Convert a coloring to a schedule after checking it is disjoint on g.

    Raises RefusedInvalid if two neighbors share a color. The check is
    verifier._conflicts, so after verify(g, m) the edges are not scanned
    again. The schedule's slots are the coloring's read-only assignment
    itself, taken without a second normalizing pass.
    """
    violations, count = _conflicts(g, m)
    if count:
        u, v, c = violations[0]
        raise RefusedInvalid(
            f"coloring has {count} slot conflicts "
            f"(first: nodes {u} and {v} share color {c})"
        )
    params = dict(m.params)
    meta = {
        "algorithm": params.pop("algorithm", None),
        "epsilon": params.pop("epsilon", None),
        "seed": params.pop("seed", None),
        "params": params,
    }
    return _unchecked_schedule(m, meta)


@dataclass(frozen=True)
class UtilizationReport:
    """Mean and least duty cycle of a schedule's nodes, exact, against one slot per frame.

    A single node's duty cycle is len(s.slots[v]) / s.frame_length.
    """

    frame_length: int
    mean_duty: Fraction
    min_duty: Fraction
    baseline: Fraction


def utilization(s: TdmaSchedule, g: Graph) -> UtilizationReport:
    """Duty-cycle metrics of a schedule for the nodes of g, from verifier's per-degree tally."""
    if missing := sorted(g.adj.keys() - s.slots.keys()):
        raise InvalidParams(f"schedule misses nodes {missing[:5]}")
    kept = _kept_by_degree(g, s.slots).values()
    n = s.frame_length
    return UtilizationReport(
        frame_length=n,
        mean_duty=Fraction(sum(total for _, _, total in kept), n * max(1, g.n)),
        min_duty=Fraction(min((low for _, low, _ in kept), default=0), n),
        baseline=Fraction(1, n),
    )


# largest palette whose decimal strings schedule_to_json keeps in one table:
# about 7 MB at 2^17; larger slots are written through str()
_MAX_STRING_TABLE = 1 << 17


@lru_cache(maxsize=4)
def _decimal_strings(size: int) -> tuple[str, ...]:
    """str(i) for i in range(size), made once per palette."""
    return tuple(map(str, range(size)))


def _json_slots(slots: tuple[int, ...], strings: tuple[str, ...]) -> str:
    """A node's sorted slots as indent=2 lays them out, six spaces deep."""
    if not slots:
        return "[]"
    cut = bisect_left(slots, len(strings))
    items = [strings[c] for c in slots[:cut]]
    items += map(str, slots[cut:])
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def schedule_to_json(s: TdmaSchedule) -> str:
    """The text of json.dumps(payload, indent=2, sort_keys=True) plus a newline.

    payload is {"frame_length", "meta", "nodes": [{"id", "slots"}, ...]}.
    indent forces json's pure-Python encoder, so only meta goes through it;
    each node's slots are joined from a table of the palette's decimal
    strings, and one join of the nodes' texts makes the whole text, so no
    copy of it is made and dropped on the way.
    """
    meta = json.dumps(s.meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    strings = _decimal_strings(min(s.frame_length, _MAX_STRING_TABLE) + 1)
    head = (
        "{\n"
        f'  "frame_length": {json.dumps(s.frame_length)},\n'
        f'  "meta": {meta},\n'
        '  "nodes": '
    )
    rows = [
        f'    {{\n      "id": {json.dumps(v)},\n      "slots": {_json_slots(slots, strings)}\n    }}'
        for v, slots in sorted(s.slots.items())
    ]
    if not rows:
        return head + "[]\n}\n"
    rows[0] = head + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def schedule_from_json(text: str) -> TdmaSchedule:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
        return TdmaSchedule(
            frame_length=_json_int(payload["frame_length"]),
            slots=_int_tuples(((r["id"], r["slots"]) for r in payload["nodes"]), _json_int),
            meta=_json_object(payload, "meta"),
        )
    except _MALFORMED as exc:
        raise InvalidParams(f"malformed schedule JSON: {exc}") from exc


def schedule_to_csv(s: TdmaSchedule) -> str:
    """One (node, slot) row per assigned slot."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["node", "slot"])
    for v, slots in sorted(s.slots.items()):
        for slot in slots:
            writer.writerow([v, slot])
    return buf.getvalue()
