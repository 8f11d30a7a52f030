"""The multicoloring record produced by every algorithm in this package."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParams

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

    def colors_of(self, v: int) -> frozenset[int]:
        return self.assignment[v]

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


def coloring_from_json(text: str) -> Multicoloring:
    try:
        payload = json.loads(text)
        return Multicoloring(
            palette_size=int(payload["palette_size"]),
            assignment={
                int(v): frozenset(int(c) for c in cols)
                for v, cols in payload["assignment"].items()
            },
            params=payload.get("params", {}),
        )
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed coloring JSON: {exc}") from exc
