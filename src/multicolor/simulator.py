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
from collections.abc import Iterable, MutableSequence, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .coloring import Multicoloring, _sorted_set
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
    """The single message a node broadcasts: its id and its random bits.

    bits is a sequence of ints: a tuple, or the randomized draws' packed
    words, which size themselves through an encoded_bytes() method.
    """

    node_id: int
    bits: Sequence[int] = ()

    def payload_bytes(self) -> int:
        """Size of the bits under a minimal big-endian integer encoding."""
        encoded_bytes = getattr(self.bits, "encoded_bytes", None)
        if encoded_bytes is not None:
            return encoded_bytes()
        lengths = Counter(map(int.bit_length, self.bits))
        return sum(count * max(1, (bl + 7) // 8) for bl, count in lengths.items())


@dataclass(frozen=True)
class NodeProgram:
    """A node computation: optional bit generation plus the color rule.

    A construction's one registered builder makes it. compute receives the
    node's own envelope and the envelopes of its neighbors (sorted by id) and
    returns 1-based palette colors, as any iterable; the coloring holds them
    as a sorted tuple, and takes a rule's sorted tuple as it is. A program
    is deterministic exactly when generate_bits is None; its envelopes
    carry no bits. generate_bits may return any iterable of ints: an immutable
    sequence (a tuple, or packed words) is sent as it is, anything else, a
    list, an array or a generator, as a tuple of its items.
    """

    name: str
    palette_size: int
    compute: Callable[[NodeEnvelope, tuple[NodeEnvelope, ...]], Iterable[int]]
    generate_bits: Callable[[int, int], Iterable[int]] | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NodeTrace:
    node_id: int
    sent: NodeEnvelope
    received: tuple[NodeEnvelope, ...]


@dataclass(frozen=True)
class RoundTrace:
    """What went over the wire during one run: each node's exchange, nothing else.

    The counts are derived when read, each payload sized at most once;
    payload_bytes_total counts it once per neighbor it reaches.
    """

    algorithm: str
    nodes: dict[int, NodeTrace]

    @cached_property
    def _payloads(self) -> dict[int, int]:
        return {v: t.sent.payload_bytes() for v, t in self.nodes.items()}

    @property
    def message_count(self) -> int:
        return sum(len(t.received) for t in self.nodes.values())

    @property
    def max_payload_bytes(self) -> int:
        return max(self._payloads.values(), default=0)

    @property
    def payload_bytes_total(self) -> int:
        return sum(self._payloads[v] * len(t.received) for v, t in self.nodes.items())

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


def _make_bits(program: NodeProgram, node_id: int, seed: int | None) -> Sequence[int]:
    if program.generate_bits is None:
        return ()
    if seed is None:
        raise InvalidParams(f"program {program.name!r} needs a seed")
    bits = program.generate_bits(node_id, seed)
    if isinstance(bits, Sequence) and not isinstance(bits, MutableSequence):
        return bits
    return tuple(bits)


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

    envelopes = {v: NodeEnvelope(v, _make_bits(program, v, seed)) for v in g.node_ids()}
    nodes = {
        v: NodeTrace(v, sent, tuple(envelopes[u] for u in sorted(g.neighbors(v))))
        for v, sent in envelopes.items()
    }
    coloring = Multicoloring(
        palette_size=program.palette_size,
        assignment={v: program.compute(t.sent, t.received) for v, t in nodes.items()},
        params={**program.meta, "algorithm": program.name, "seed": seed},
    )
    return coloring, RoundTrace(program.name, nodes)


def replay_view(
    view: OneHopView,
    envelopes: tuple[NodeEnvelope, ...],
    program: NodeProgram,
    seed: int | None = None,
) -> tuple[int, ...]:
    """Recompute one node's color set from its view and received envelopes.

    Returns exactly what the node would produce inside run_one_shot on any
    host graph inducing this view (same seed for randomized programs): the
    sorted tuple its coloring would hold.
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
    return _sorted_set(view.node_id, program.compute(own, ordered), program.palette_size)
