"""Interference graphs with IDs drawn from a bounded space.

Nodes carry distinct integer IDs from [1, id_space]; the id space may be much
larger than the node count, so generators inject IDs by a seeded partial
Fisher-Yates shuffle of the prefix of [1..id_space]. All generators are pure
functions of their arguments: same arguments, bit-identical graph.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InvalidParams, NotFound, ParseError, TooLarge
from .rng import keyed_rng

__all__ = [
    "OneHopView",
    "Graph",
    "gnp_graph",
    "unit_disk_graph",
    "disjoint_stars",
    "parse_edge_list",
    "format_edge_list",
]


def _check_id(x: int, id_space=math.inf) -> None:
    """Refuse anything but an int in [1, id_space] with InvalidParams: the one id guard.

    Graphs, views, records, order families, the tower's memo and
    generate_draws send their ids through here. A bool or a float is not an
    id: Graph would write it to an edge list that reads back without it.
    Without an id space, only 1 bounds an id.
    """
    if type(x) is not int:
        raise InvalidParams(f"id {x!r} is not an int")
    if not 1 <= x <= id_space:
        raise InvalidParams(f"id {x} outside [1, {id_space}]")


def _check_count(value, what: str, bound=math.inf) -> None:
    """Refuse anything but an int in [0, bound] with InvalidParams: the one count guard.

    Degrees, degree bounds, node counts, tower depths and attempt counts
    pass through here; a bool or a float is not a count. Without a bound,
    only 0 bounds a count.
    """
    if type(value) is not int or not 0 <= value <= bound:
        raise InvalidParams(f"{what} {value!r} is not an int in [0, {bound}]")


def _check_positive(value, what: str) -> None:
    """Refuse anything but an int >= 1 with InvalidParams: the one size guard.

    Id spaces, palette and frame sizes, field orders, the tower's per-level
    degree bounds and attempt budgets pass through here; a bool is not a
    size, as it is not a node id.
    """
    if type(value) is not int or value < 1:
        raise InvalidParams(f"{what} {value!r} is not an int >= 1")


def _check_budget(count: int, guard: int, what: str) -> None:
    """Refuse a count above its guard with TooLarge: the one budget guard."""
    if count > guard:
        raise TooLarge(f"{count} {what} exceed the guard of {guard}")


@dataclass(frozen=True)
class OneHopView:
    """What a single node sees in one communication round: itself and Γ."""

    node_id: int
    neighbors: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "neighbors", frozenset(self.neighbors))
        _check_id(self.node_id)
        for y in self.neighbors:
            if type(y) is not int or y < 1:  # inline: a view is built per node; the helper raises
                _check_id(y)
        if self.node_id in self.neighbors:
            raise InvalidParams(f"view of {self.node_id} contains itself")

    @property
    def degree(self) -> int:
        return len(self.neighbors)


def _unchecked_view(node_id: int, neighbors: frozenset[int]) -> OneHopView:
    """OneHopView(node_id, neighbors) without __post_init__'s checks.

    Only for the verifier's view enumeration, whose ids already lie in
    [1, id_space], never include node_id, and number at most the degree
    bound; every other caller goes through the checked constructor.
    """
    view = object.__new__(OneHopView)
    fields = view.__dict__
    fields["node_id"] = node_id
    fields["neighbors"] = neighbors
    return view


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adjacency keyed by node id.

    adj is a read-only view of the dict of frozensets built and checked on
    construction, which nothing else holds: a graph cannot change once
    built, so a check of a coloring against it stays true.
    """

    id_space: int
    adj: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        _check_positive(self.id_space, "id space")
        adj = {v: frozenset(nbrs) for v, nbrs in self.adj.items()}
        for v, nbrs in adj.items():
            _check_id(v, self.id_space)
            if v in nbrs:
                raise InvalidParams(f"self-loop at node {v}")
            for u in nbrs:
                if u not in adj:
                    raise InvalidParams(f"edge {v}-{u} references unknown node {u}")
                if v not in adj[u]:
                    raise InvalidParams(f"adjacency not symmetric at {v}-{u}")
        object.__setattr__(self, "adj", MappingProxyType(adj))

    def __reduce__(self):
        # a mapping proxy cannot be pickled: rebuild from a plain dict
        return type(self), (self.id_space, dict(self.adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.adj))

    def has_node(self, v: int) -> bool:
        return v in self.adj

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self.adj[v]
        except KeyError:
            raise NotFound(f"no node with id {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj.values()), default=0)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, sorted."""
        return sorted((v, u) for v in self.adj for u in self.adj[v] if v < u)

    def view(self, v: int) -> OneHopView:
        """The one-hop view of node v. Raises NotFound for unknown ids."""
        return OneHopView(v, self.neighbors(v))


def _draw_ids(rng, n: int, id_space: int) -> list[int]:
    """First n entries of a seeded Fisher-Yates shuffle of [1..id_space].

    Sparse bookkeeping keeps this O(n) even for huge id spaces; the output
    matches a full shuffle prefix draw for draw. The generators check n and
    the id space only here.
    """
    _check_positive(id_space, "id space")
    _check_count(n, "node count", id_space)
    picked = []
    moved: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, id_space)
        vi = moved.get(i, i + 1)
        vj = moved.get(j, j + 1)
        picked.append(vj)
        moved[j] = vi
    return picked


def _from_index_edges(ids: list[int], index_edges, id_space: int) -> Graph:
    adj: dict[int, set[int]] = {v: set() for v in ids}
    for i, j in index_edges:
        adj[ids[i]].add(ids[j])
        adj[ids[j]].add(ids[i])
    return Graph(id_space, {v: frozenset(nbrs) for v, nbrs in adj.items()})


def gnp_graph(n: int, p: float, id_space: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with IDs injected into [1, id_space]."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParams(f"edge probability {p} outside [0, 1]")
    rng = keyed_rng("gnp", n, p, id_space, seed)
    ids = _draw_ids(rng, n, id_space)
    index_edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return _from_index_edges(ids, index_edges, id_space)


def unit_disk_graph(n: int, radius: float, id_space: int, seed: int) -> Graph:
    """n points uniform in the unit square; edge iff distance <= radius."""
    if not radius >= 0:  # also refuses nan
        raise InvalidParams(f"radius {radius} must be >= 0")
    rng = keyed_rng("udg", n, radius, id_space, seed)
    ids = _draw_ids(rng, n, id_space)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = radius * radius
    index_edges = []
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx = xi - pts[j][0]
            dy = yi - pts[j][1]
            if dx * dx + dy * dy <= r2:
                index_edges.append((i, j))
    return _from_index_edges(ids, index_edges, id_space)


def disjoint_stars(count: int, leaves: int, id_space: int, seed: int) -> Graph:
    """count vertex-disjoint stars, each one center with `leaves` leaves."""
    _check_count(count, "star count")
    _check_count(leaves, "leaf count")
    n = count * (leaves + 1)
    rng = keyed_rng("stars", count, leaves, id_space, seed)
    ids = _draw_ids(rng, n, id_space)
    index_edges = []
    for s in range(count):
        base = s * (leaves + 1)
        index_edges.extend((base, base + t) for t in range(1, leaves + 1))
    return _from_index_edges(ids, index_edges, id_space)


_HEADER_N = re.compile(r"^#\s*N\s*=\s*(\d+)\s*$")
_HEADER_NODES = re.compile(r"^#\s*nodes\s*=\s*([\d,\s]*)$")


def _read_int(token: str, lineno: int | None = None) -> int:
    # ASCII digits only: int() also reads a sign, `_` separators and any
    # Unicode digit, and the headers' \d matches any Unicode digit
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"non-integer id {token[:20]!r}", lineno)
    try:
        return int(token)
    except ValueError:  # longer than int() reads
        raise ParseError(f"non-integer id {token[:20]!r}", lineno) from None


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Lines: optional `# N=<int>` header fixing the id space, optional
    `# nodes=<id,id,...>` header declaring edge-free nodes, other `#` lines
    are comments, and every remaining nonempty line is one edge `<a> <b>`.
    Without a header the id space is the largest id seen.
    """
    id_space: int | None = None
    extra_nodes: list[tuple[int, int]] = []
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_N.match(line)
            if m:
                if id_space is not None:
                    raise ParseError("duplicate N header", lineno)
                id_space = _read_int(m.group(1), lineno)
                continue
            m = _HEADER_NODES.match(line)
            if m:
                for tok in m.group(1).replace(",", " ").split():
                    extra_nodes.append((_read_int(tok, lineno), lineno))
                continue
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two ids, got {line!r}", lineno)
        a, b = _read_int(tokens[0], lineno), _read_int(tokens[1], lineno)
        if a == b:
            raise ParseError(f"self-loop at id {a}", lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(f"duplicate edge {key[0]} {key[1]}", lineno)
        seen.add(key)
        edges.append((a, b, lineno))

    all_ids = [(a, ln) for a, b, ln in edges] + [(b, ln) for a, b, ln in edges]
    all_ids += extra_nodes
    if id_space is None:
        id_space = max((v for v, _ in all_ids), default=1)
    for v, ln in all_ids:
        if v > id_space:
            raise ParseError(f"id {v} exceeds id space {id_space}", ln)
        if v < 1:
            raise ParseError(f"id {v} must be >= 1", ln)
    adj: dict[int, set[int]] = {v: set() for v, _ in all_ids}
    for a, b, _ in edges:
        adj[a].add(b)
        adj[b].add(a)
    return Graph(id_space, {v: frozenset(nbrs) for v, nbrs in adj.items()})


def format_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format; inverse of parse_edge_list."""
    lines = [f"# N={g.id_space}"]
    isolated = sorted(v for v in g.adj if not g.adj[v])
    if isolated:
        lines.append("# nodes=" + ",".join(str(v) for v in isolated))
    lines.extend(f"{a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"
