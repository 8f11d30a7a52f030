"""Turning verified multicolorings into TDMA frame schedules.

Color i becomes slot i of a frame of palette_size slots. Conversion refuses
colorings that fail disjointness verification, so neighboring nodes in a
produced schedule never share a slot.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .coloring import Multicoloring
from .errors import InvalidParams, RefusedInvalid
from .graph import Graph
from .verifier import verify

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
    """Per-node transmit slots within a frame of frame_length slots."""

    frame_length: int
    slots: dict[int, tuple[int, ...]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.frame_length < 1:
            raise InvalidParams("frame length must be >= 1")
        object.__setattr__(
            self,
            "slots",
            {v: tuple(sorted(s)) for v, s in self.slots.items()},
        )
        for v, s in self.slots.items():
            # slots are sorted, so the extremes decide
            for slot in s[:1] + s[-1:]:
                if not 1 <= slot <= self.frame_length:
                    raise InvalidParams(
                        f"node {v}: slot {slot} outside [1, {self.frame_length}]"
                    )


def to_schedule(m: Multicoloring, g: Graph) -> TdmaSchedule:
    """Convert a coloring to a schedule after re-verifying disjointness."""
    report = verify(g, m)
    if not report.valid:
        u, v, c = report.violations[0]
        raise RefusedInvalid(
            f"coloring has {report.violation_count} slot conflicts "
            f"(first: nodes {u} and {v} share color {c})"
        )
    params = dict(m.params)
    meta = {
        "algorithm": params.pop("algorithm", None),
        "epsilon": params.pop("epsilon", None),
        "seed": params.pop("seed", None),
        "params": params,
    }
    return TdmaSchedule(
        frame_length=m.palette_size,
        slots=m.assignment,
        meta=meta,
    )


@dataclass(frozen=True)
class UtilizationReport:
    """Duty cycles of a schedule against the one-slot-per-frame baseline."""

    frame_length: int
    duty: dict[int, Fraction]
    mean_duty: Fraction
    min_duty: Fraction
    baseline: Fraction
    speedup: dict[int, int]  # slots per frame vs the single-slot baseline

    def summary(self) -> dict:
        return {
            "frame_length": self.frame_length,
            "mean_duty": str(self.mean_duty),
            "min_duty": str(self.min_duty),
            "baseline": str(self.baseline),
            "mean_speedup": str(
                Fraction(sum(self.speedup.values()), max(1, len(self.speedup)))
            ),
        }


def utilization(s: TdmaSchedule, g: Graph) -> UtilizationReport:
    """Duty-cycle metrics of a schedule for the nodes of g."""
    missing = [v for v in g.node_ids() if v not in s.slots]
    if missing:
        raise InvalidParams(f"schedule misses nodes {missing[:5]}")
    duty = {
        v: Fraction(len(s.slots[v]), s.frame_length) for v in g.node_ids()
    }
    count = max(1, len(duty))
    return UtilizationReport(
        frame_length=s.frame_length,
        duty=duty,
        mean_duty=Fraction(sum(duty.values(), Fraction(0)), count),
        min_duty=min(duty.values(), default=Fraction(0)),
        baseline=Fraction(1, s.frame_length),
        speedup={v: len(s.slots[v]) for v in g.node_ids()},
    )


def schedule_to_json(s: TdmaSchedule) -> str:
    payload = {
        "frame_length": s.frame_length,
        "nodes": [
            {"id": v, "slots": list(slots)} for v, slots in sorted(s.slots.items())
        ],
        "meta": s.meta,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def schedule_from_json(text: str) -> TdmaSchedule:
    try:
        payload = json.loads(text)
        return TdmaSchedule(
            frame_length=int(payload["frame_length"]),
            slots={
                int(rec["id"]): tuple(int(x) for x in rec["slots"])
                for rec in payload["nodes"]
            },
            meta=payload.get("meta", {}),
        )
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
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
