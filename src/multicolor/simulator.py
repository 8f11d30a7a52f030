"""One-shot message-passing harness.

A run has exactly three steps: every node draws its private random bits
(empty for deterministic algorithms), every node sends one envelope with its
id and bits to all neighbors, and every node computes its color set from its
own envelope plus the envelopes it received. Node computations never see the
graph object, only envelopes, so locality is enforced structurally: there is
nothing beyond the one-hop view to query.

Each construction registers one builder, whose signature is the one place its
options and their defaults are declared; build_program routes every option to
the builders that name it and refuses a name that none of them reads.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .coloring import Multicoloring
from .errors import ContractViolation, InvalidParams
from .graph import Graph, OneHopView

__all__ = [
    "NodeEnvelope",
    "NodeProgram",
    "NodeTrace",
    "RoundTrace",
    "run_one_shot",
    "replay_view",
    "register_builder",
    "build_program",
    "registered_algorithms",
]


@dataclass(frozen=True)
class NodeEnvelope:
    """The single message a node broadcasts: its id and its random bits."""

    node_id: int
    bits: tuple = ()

    def payload_bytes(self) -> int:
        """Size of the bits under a minimal big-endian integer encoding."""
        lengths = Counter(map(int.bit_length, self.bits))
        return sum(count * max(1, (bl + 7) // 8) for bl, count in lengths.items())


@dataclass(frozen=True)
class NodeProgram:
    """A node computation: optional bit generation plus the color rule.

    compute receives the node's own envelope and the envelopes of its
    neighbors (sorted by id) and returns 1-based palette colors. A program is
    deterministic exactly when generate_bits is None; its envelopes carry no
    bits.
    """

    name: str
    palette_size: int
    compute: Callable[[NodeEnvelope, tuple[NodeEnvelope, ...]], frozenset[int]]
    generate_bits: Callable[[int, int], tuple] | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NodeTrace:
    node_id: int
    sent: NodeEnvelope
    received: tuple[NodeEnvelope, ...]


@dataclass(frozen=True)
class RoundTrace:
    """What happened on the wire during one run.

    payload_bytes_total counts every delivered copy: each node's payload
    once per neighbor it reaches.
    """

    algorithm: str
    nodes: dict[int, NodeTrace]
    message_count: int
    max_payload_bytes: int
    payload_bytes_total: int

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "nodes": len(self.nodes),
            "message_count": self.message_count,
            "max_payload_bytes": self.max_payload_bytes,
            "payload_bytes_total": self.payload_bytes_total,
        }


_BUILDERS: dict[str, tuple[Callable[..., NodeProgram], frozenset[str]]] = {}


def register_builder(name: str, builder: Callable[..., NodeProgram]) -> None:
    """Register builder(g, max_degree, **options) under name.

    The options are the parameters its signature declares after the first
    two, seed included when it reads one; build_program passes it only those.
    """
    options = frozenset(list(inspect.signature(builder).parameters)[2:])
    _BUILDERS[name] = (builder, options)


def registered_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_program(
    name: str, g: Graph, seed: int | None = None, max_degree: int | None = None, **opts
) -> NodeProgram:
    """Instantiate a registered node computation for a graph's global facts.

    The palette is set up for max_degree, which defaults to g's max degree
    and may not be below it. The builder receives only the options its
    signature names; an option of another construction is dropped, and a
    name that no registered builder reads is refused.
    """
    try:
        builder, options = _BUILDERS[name]
    except KeyError:
        known = ", ".join(registered_algorithms()) or "(none registered)"
        raise InvalidParams(f"unknown algorithm {name!r}; known: {known}") from None
    readable = frozenset().union(*(names for _, names in _BUILDERS.values()))
    unknown = sorted(set(opts) - readable)
    if unknown:
        raise InvalidParams(
            f"unknown option(s) {', '.join(unknown)}; known: {', '.join(sorted(readable))}"
        )
    delta = g.max_degree() if max_degree is None else max_degree
    if delta < g.max_degree():
        raise InvalidParams(
            f"declared degree bound {delta} below actual max degree {g.max_degree()}"
        )
    given = {"seed": seed, **opts}
    return builder(g, delta, **{k: v for k, v in given.items() if k in options})


def _make_bits(program: NodeProgram, node_id: int, seed: int | None) -> tuple:
    if program.generate_bits is None:
        return ()
    if seed is None:
        raise InvalidParams(f"program {program.name!r} needs a seed")
    return tuple(program.generate_bits(node_id, seed))


def run_one_shot(
    g: Graph,
    program: NodeProgram | str,
    seed: int | None = None,
    **opts,
) -> tuple[Multicoloring, RoundTrace]:
    """Run one round of the given node computation on every node of g."""
    if isinstance(program, str):
        program = build_program(program, g, seed=seed, **opts)
    elif opts:
        raise InvalidParams("options are only accepted with an algorithm name")

    ids = g.node_ids()
    envelopes = {v: NodeEnvelope(v, _make_bits(program, v, seed)) for v in ids}
    inboxes = {
        v: tuple(envelopes[u] for u in sorted(g.neighbors(v))) for v in ids
    }
    assignment = {
        v: frozenset(program.compute(envelopes[v], inboxes[v])) for v in ids
    }
    traces = {v: NodeTrace(v, envelopes[v], inboxes[v]) for v in ids}
    payloads = {v: e.payload_bytes() for v, e in envelopes.items()}

    coloring = Multicoloring(
        palette_size=program.palette_size,
        assignment=assignment,
        params={**program.meta, "algorithm": program.name, "seed": seed},
    )
    trace = RoundTrace(
        algorithm=program.name,
        nodes=traces,
        message_count=sum(len(inb) for inb in inboxes.values()),
        max_payload_bytes=max(payloads.values(), default=0),
        payload_bytes_total=sum(payloads[v] * len(inboxes[v]) for v in ids),
    )
    return coloring, trace


def replay_view(
    view: OneHopView,
    envelopes: tuple[NodeEnvelope, ...],
    program: NodeProgram,
    seed: int | None = None,
) -> frozenset[int]:
    """Recompute one node's color set from its view and received envelopes.

    Returns exactly what the node would produce inside run_one_shot on any
    host graph inducing this view (same seed for randomized programs).
    """
    got = frozenset(e.node_id for e in envelopes)
    if got != view.neighbors:
        raise InvalidParams(
            f"envelope ids {sorted(got)} do not match the view's neighbors"
        )
    if len(envelopes) != len(view.neighbors):
        raise InvalidParams("duplicate envelopes")
    if program.generate_bits is None and any(e.bits for e in envelopes):
        raise ContractViolation(
            f"deterministic program {program.name!r} received nonempty bits"
        )
    own = NodeEnvelope(view.node_id, _make_bits(program, view.node_id, seed))
    ordered = tuple(sorted(envelopes, key=lambda e: e.node_id))
    return frozenset(program.compute(own, ordered))
