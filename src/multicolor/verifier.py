"""Checking colorings, and exhaustive certificates over all possible views.

The neighborhood graph over an id space N with degree bound Delta has one
vertex per one-hop view (x, Gamma), 1 <= |Gamma| <= Delta, and an edge
between two views exactly when they could be adjacent nodes of one host
graph: x_u != x_v, x_u in Gamma_v \\ Gamma_u and x_v in Gamma_u \\ Gamma_v.
A deterministic algorithm whose outputs are disjoint across every edge of
this graph is conflict-free on every host graph at once.

All pass/fail arithmetic is exact (integers and Fractions); floats never
decide an outcome. The limits no caller varies are module constants:
VIOLATION_CAP conflicts named per report, _KNOWN_MASKS color tuples whose
masks a certificate keeps, MAX_EDGES materialized view-graph edges, and
MAX_CHI_VERTICES vertices and MAX_CHI_WORK work units per chromatic search;
only the view budget is a parameter. A sweep holds no view, only (N+1)^2
ints of color unions (an order family's certificate: N rows of N ints), so
its default MAX_VIEWS bounds time; neighborhood_graph keeps every view,
about 312 B each, so its default MAX_GRAPH_VIEWS bounds memory (10^7 views:
3 GB).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, filterfalse, islice
from typing import Callable, Iterator, Mapping

from .coloring import Multicoloring
from .errors import Incomplete, InvalidParams
from .graph import Graph, OneHopView, _check_budget, _check_count, _check_positive, _unchecked_view

__all__ = [
    "VerificationReport",
    "min_colors_required",
    "verify",
    "NeighborhoodGraph",
    "neighborhood_graph",
    "nbr_vertex_count",
    "nbr_edge_count",
    "chromatic_number",
    "NeighborhoodCertificate",
    "certify_on_neighborhood",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a multicoloring against its graph.

    valid reflects disjointness only. Shares are checked per degree, as the
    guarantee is stated: rho_by_degree[d] is the fewest colors kept at degree
    d times (d+1)/k, worst_ratio their least, and meets_target, when an eps
    was supplied, whether each fewest count reaches min_colors_required(k,
    eps, d), a share of (1-eps)/(d+1). A node's share is m.fraction_of(v).
    """

    valid: bool
    palette_size: int
    node_count: int
    edge_count: int
    violations: list[tuple[int, int, int]]  # (u, v, shared color), capped
    violation_count: int
    worst_ratio: Fraction | None
    rho_by_degree: dict[int, Fraction]
    epsilon: Fraction | None = None
    meets_target: bool | None = None

    def summary(self) -> dict:
        return {
            "valid": self.valid,
            "palette_size": self.palette_size,
            "nodes": self.node_count,
            "edges": self.edge_count,
            "violations": self.violation_count,
            "worst_ratio": str(self.worst_ratio) if self.worst_ratio is not None else None,
            "rho_by_degree": {d: str(r) for d, r in sorted(self.rho_by_degree.items())},
            "meets_target": self.meets_target,
        }


VIOLATION_CAP = 100  # conflicts a report or certificate names; all are counted
_KNOWN_MASKS = 4096  # result tuples whose masks one certify_on_neighborhood call keeps


def _unit_eps(eps) -> Fraction:
    if not 0 <= eps <= 1:  # before Fraction(), which raises on nan and inf
        raise InvalidParams(f"epsilon {eps} outside [0, 1]")
    return Fraction(eps)


def min_colors_required(palette_size: int, eps, delta: int) -> int:
    """Smallest count c with c/k >= (1-eps)/(delta+1), computed exactly; eps in [0, 1]."""
    _check_count(delta, "degree")
    target = (1 - _unit_eps(eps)) * palette_size / (delta + 1)
    return math.ceil(target)


def _scan_edges(
    g: Graph, a: Mapping[int, tuple[int, ...]]
) -> tuple[list[tuple[int, int, int]], int]:
    """The first VIOLATION_CAP shared colors (u, v, c) of assignment a on g, and their count.

    Ordered as the sorted edges (u < v), colors ascending within an edge.
    One set is alive at a time: node u's colors, tested against each of its
    higher-id neighbors' sorted tuples. a must color exactly g's nodes.
    """
    violations: list[tuple[int, int, int]] = []
    count = 0
    for u in g.node_ids():
        higher = sorted(v for v in g.adj[u] if v > u)
        if not higher or not a[u]:
            continue
        mine = set(a[u])
        for v in higher:
            if mine.isdisjoint(a[v]):
                continue
            shared = [c for c in a[v] if c in mine]
            count += len(shared)
            violations.extend((u, v, c) for c in shared[: VIOLATION_CAP - len(violations)])
    return violations, count


def _conflicts(g: Graph, m: Multicoloring) -> tuple[list[tuple[int, int, int]], int]:
    """_scan_edges of m on g, the edges scanned once for each graph object.

    Raises Incomplete unless m colors exactly g's nodes. The result is kept
    on m, beside its fields, for the last graph it was checked against, and
    a later check against that same graph object (is, not ==) returns it
    without scanning again. That is sound because neither record can change:
    m.assignment and g.adj are read-only mappings of tuples and frozensets.
    The graph is held by a weak reference, so the coloring keeps no graph
    alive, and every call returns its own list of violations.
    """
    kept = m.__dict__.get("_checked")
    if kept is not None and kept[0]() is g:
        return list(kept[1]), kept[2]
    a = m.assignment
    if a.keys() != g.adj.keys():
        missing, extra = sorted(g.adj.keys() - a.keys()), sorted(a.keys() - g.adj.keys())
        raise Incomplete(
            f"coloring does not match the node set (missing {missing[:5]}, "
            f"extra {extra[:5]})"
        )
    violations, count = _scan_edges(g, a)
    object.__setattr__(m, "_checked", (weakref.ref(g), tuple(violations), count))
    return violations, count


def _kept_by_degree(g: Graph, sets: Mapping[int, tuple]) -> dict[int, tuple[int, int, int]]:
    """{degree: (nodes, fewest colors kept, total kept)}: the one walk over g's nodes for shares."""
    kept: dict[int, list[int]] = {}
    for v, nbrs in g.adj.items():
        kept.setdefault(len(nbrs), []).append(len(sets[v]))
    return {d: (len(counts), min(counts), sum(counts)) for d, counts in sorted(kept.items())}


def verify(g: Graph, m: Multicoloring, eps=None) -> VerificationReport:
    """Check edge disjointness of m on g, and the fewest colors kept at each degree."""
    e = None if eps is None else _unit_eps(eps)
    violations, violation_count = _conflicts(g, m)
    k = m.palette_size
    fewest = {d: low for d, (_, low, _) in _kept_by_degree(g, m.assignment).items()}
    rho = {d: Fraction(low * (d + 1), k) for d, low in fewest.items()}
    meets = None if e is None else all(
        low >= min_colors_required(k, e, d) for d, low in fewest.items()
    )
    return VerificationReport(
        valid=violation_count == 0,
        palette_size=k,
        node_count=g.n,
        edge_count=g.edge_count(),
        violations=violations,
        violation_count=violation_count,
        worst_ratio=min(rho.values(), default=None),
        rho_by_degree=rho,
        epsilon=e,
        meets_target=meets,
    )


# ---------------------------------------------------------------------------
# the neighborhood graph of all possible views


def _check_view_space(id_space: int, max_degree: int) -> None:
    """The closed forms' arguments: an id space >= 1 and a degree bound >= 0."""
    _check_positive(id_space, "id space")
    _check_count(max_degree, "degree")


def nbr_vertex_count(id_space: int, max_degree: int) -> int:
    """Closed-form vertex count: sum over delta of N * C(N-1, delta)."""
    _check_view_space(id_space, max_degree)
    return sum(
        id_space * math.comb(id_space - 1, d) for d in range(1, max_degree + 1)
    )


def nbr_edge_count(id_space: int, max_degree: int) -> int:
    """Closed-form edge count.

    An edge is an ordered choice of two distinct ids a, b plus independent
    rests of the two neighborhoods: C(N,2) * (sum_{s<=Delta-1} C(N-2,s))^2.
    """
    _check_view_space(id_space, max_degree)
    # at N = 1, C(N, 2) is 0: the rests are read over an empty set of ids
    rests = sum(math.comb(max(id_space, 2) - 2, s) for s in range(0, max_degree))
    return math.comb(id_space, 2) * rests * rests


MAX_VIEWS = 10**7  # default view budget of every sweep
MAX_EDGES = 10**7  # largest edge list a NeighborhoodGraph materializes
MAX_GRAPH_VIEWS = 10**6  # default view budget of neighborhood_graph, about 300 MB


def _iter_views(id_space: int, max_degree: int, max_views: int = MAX_VIEWS):
    """All views as groups (x, d, gammas): one per own id x and degree d.

    gammas is combinations(others, d) over the ids other than x, so every
    neighbor lies in [1, id_space], none is x and there are d <= max_degree
    of them; a group is empty when fewer than d ids remain. Groups come by x,
    degree ascending. Every sweep over all views walks these groups, and
    this is the one place their budget is enforced: the count is checked
    when this is called, before any view is made, and only then is the
    generator returned. The black-box sweeps make each view from gammas;
    certify_family takes only (x, d) and builds the unions of its views'
    rows itself, in the same order.
    """
    _check_budget(nbr_vertex_count(id_space, max_degree), max_views, "views")
    ids = range(1, id_space + 1) if max_degree else ()  # no view: no lists of others

    def views():
        for x in ids:
            others = [y for y in ids if y != x]
            for d in range(1, max_degree + 1):
                yield x, d, combinations(others, d)

    return views()


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Explicit graph of all one-hop views over an id space."""

    id_space: int
    max_degree: int
    vertices: tuple[OneHopView, ...]
    _edges: list[tuple[int, int]] | None = field(default=None, compare=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return nbr_edge_count(self.id_space, self.max_degree)

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as vertex index pairs; at most MAX_EDGES of them."""
        if self._edges is not None:
            return self._edges
        total = self.edge_count
        _check_budget(total, MAX_EDGES, "edges")
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, view in enumerate(self.vertices):
            for y in view.neighbors:
                groups.setdefault((view.node_id, y), []).append(idx)
        edges = []
        for (a, b), left in groups.items():
            if a >= b:
                continue
            right = groups.get((b, a), ())
            edges.extend((i, j) for i in left for j in right)
        assert len(edges) == total
        object.__setattr__(self, "_edges", edges)
        return edges


def neighborhood_graph(
    id_space: int, max_degree: int, max_views: int | None = None
) -> NeighborhoodGraph:
    """Materialize the neighborhood graph of at most max_views (MAX_GRAPH_VIEWS) views."""
    if max_views is None:
        max_views = MAX_GRAPH_VIEWS
    views = _iter_views(id_space, max_degree, max_views)
    vertices = tuple(
        _unchecked_view(x, frozenset(gamma)) for x, _, gammas in views for gamma in gammas
    )
    return NeighborhoodGraph(id_space, max_degree, vertices)


# ---------------------------------------------------------------------------
# exact chromatic number (branch and bound on top of DSATUR)


MAX_CHI_VERTICES = 10**4  # largest graph chromatic_number searches
MAX_CHI_WORK = 2 * 10**7  # work budget of chromatic_number, a few seconds of search


def chromatic_number(ng: NeighborhoodGraph | Graph) -> int:
    """Exact chromatic number via DSATUR branch and bound.

    Each branch step scans at most every vertex and both ends of every edge,
    through adjacency masks one bit per vertex wide. A mask operation costs
    about its fixed overhead again for every 600 bits (twenty 30-bit digits),
    so a step is charged (vertices + 2 * edges) * (1 + vertices // 600) of
    work; past MAX_CHI_WORK the search raises TooLarge instead of running on.
    """
    nv = ng.vertex_count if isinstance(ng, NeighborhoodGraph) else ng.n
    _check_budget(nv, MAX_CHI_VERTICES, "vertices")
    if nv == 0:
        return 0
    if isinstance(ng, NeighborhoodGraph):
        edges = ng.edge_list()
    else:
        pos = {v: i for i, v in enumerate(ng.node_ids())}
        edges = [(pos[a], pos[b]) for a, b in ng.edges()]
    if not edges:
        return 1
    adj = [0] * nv
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    degree = [a.bit_count() for a in adj]
    step_work, work = (nv + 2 * len(edges)) * (1 + nv // 600), 0

    # greedy clique for the lower bound
    clique: list[int] = []
    for v in sorted(range(nv), key=lambda v: -degree[v]):
        if all(adj[v] >> u & 1 for u in clique):
            clique.append(v)

    color = [0] * nv
    # seed the search with the clique: those colors are forced anyway
    for i, v in enumerate(clique):
        color[v] = i + 1
    # Depth-first branch and bound on an explicit stack, since a view graph
    # can hold more vertices than the recursion limit. With no bound yet the
    # first dive is a plain DSATUR coloring; once best reaches the clique
    # size, every branch is cut by used >= best.
    best = nv + 1
    used = len(clique)
    stack: list[tuple[int, Iterator[int], int]] = []  # vertex, colors left, used before
    while True:
        if used < best and len(clique) + len(stack) == nv:
            best = used
        elif used < best:
            work += step_work
            if work > MAX_CHI_WORK:  # compared here: the helper runs only to raise
                _check_budget(work, MAX_CHI_WORK, "units of chromatic search work")
            # most saturated uncolored vertex, ties by degree
            pick, pick_sat, forbidden = -1, (-1, -1), set()
            for v in range(nv):
                if color[v]:
                    continue
                seen = set()
                w = adj[v]
                while w:
                    u = (w & -w).bit_length() - 1
                    if color[u]:
                        seen.add(color[u])
                    w &= w - 1
                sat = (len(seen), degree[v])
                if sat > pick_sat:
                    pick, pick_sat, forbidden = v, sat, seen
            options = range(1, min(used + 1, best - 1) + 1)
            stack.append((pick, filterfalse(forbidden.__contains__, options), used))
        # next untried color, backtracking past exhausted vertices
        while stack:
            v, options, before = stack[-1]
            c = next(options, 0)
            if c:
                color[v] = c
                used = max(before, c)
                break
            color[v] = 0
            stack.pop()
        else:
            return best


# ---------------------------------------------------------------------------
# exhaustive certificate for deterministic node computations


@dataclass(frozen=True)
class NeighborhoodCertificate:
    """Outcome of evaluating an algorithm on every possible view."""

    id_space: int
    max_degree: int
    palette_size: int
    views_checked: int
    edge_count: int
    disjoint: bool
    bound_ok: bool
    min_count_by_degree: dict[int, int]
    bound_failures: int
    violations: list[tuple[OneHopView, OneHopView, int]]  # sample pairs

    @property
    def passed(self) -> bool:
        return self.disjoint and self.bound_ok


def certify_on_neighborhood(
    view_colors: Callable[[OneHopView], object],
    id_space: int,
    max_degree: int,
    palette_size: int,
    min_colors: Callable[[int], int] | None = None,
    max_views: int = MAX_VIEWS,
) -> NeighborhoodCertificate:
    """Evaluate a deterministic algorithm on every view and certify it.

    Disjointness across every neighborhood-graph edge is established without
    enumerating edges: group the views by (own id a, witnessed neighbor b)
    and union their color masks into unions[a][b], one row of id_space + 1
    ints per id a; every edge joins some group (a, b) with the group (b, a),
    so all edges are conflict-free if and only if unions[a][b] and
    unions[b][a] are disjoint for every a < b. On failure one more sweep
    collects the groups of the first VIOLATION_CAP offending pairs, each of
    which holds at least one violation, and joins them to name concrete
    view pairs.

    view_colors may return an int bitmask (bit i-1 = color i; a bool is the
    mask 0 or 1) or an iterable of 1-based colors. The sweep builds each
    view inline and calls view_colors from its own loop, where an int is
    taken as its mask and a tuple is looked up among the masks of the first
    _KNOWN_MASKS distinct tuples it returned, kept for the call; any other
    result, or a tuple not kept, is turned into a mask. Every mask, a kept
    one too, is refused with InvalidParams if it is negative or reaches past
    palette_size. min_colors, if given, maps a degree to the minimum count
    each view of that degree must keep.
    """
    _check_positive(palette_size, "palette size")
    views = _iter_views(id_space, max_degree, max_views)
    need = None
    if min_colors is not None:
        need = {d: min_colors(d) for d in range(1, max_degree + 1)}

    # a rule's views repeat few color tuples (the tower's 122,670 views at
    # N=30, Delta=3 return 1,920), so a seen tuple costs one hash and one lookup
    known: dict[tuple, int] = {}

    def as_mask(result) -> int:
        if isinstance(result, int):
            return result
        mask = 0
        for c in result:
            mask |= 1 << (c - 1)
        if type(result) is tuple and len(known) < _KNOWN_MASKS:
            known[result] = mask
        return mask

    # at degree bound 0 no view and no edge: no union row, no pair to scan
    unions = [[0] * (id_space + 1) for _ in range(id_space + 1)] if max_degree else []
    min_by_degree: dict[int, int] = {}
    bound_failures = 0
    checked = 0
    new = object.__new__
    for x, d, gammas in views:
        row = unions[x]
        low = min_by_degree.get(d, palette_size + 1)
        quota = 0 if need is None else need[d]  # no count is below 0
        for gamma in gammas:
            view = new(OneHopView)  # graph._unchecked_view, inline: 10^5 views a sweep
            fields = view.__dict__
            fields["node_id"] = x
            fields["neighbors"] = frozenset(gamma)
            result = view_colors(view)
            if type(result) is tuple:
                mask = known.get(result)
                if mask is None:
                    mask = as_mask(result)
            elif isinstance(result, int):  # a bool too, as as_mask takes it
                mask = result
            else:
                mask = as_mask(result)
            if mask >> palette_size:
                raise InvalidParams(
                    f"view ({x}, {sorted(gamma)}) selected a color beyond the palette"
                )
            checked += 1
            count = mask.bit_count()
            if count < low:
                low = count
            if count < quota:
                bound_failures += 1
            for b in gamma:
                row[b] |= mask
        if low <= palette_size:  # the degree has a view
            min_by_degree[d] = low

    ids = range(1, len(unions))
    bad_pairs = [
        (a, b) for a in ids for b in range(a + 1, len(unions)) if unions[a][b] & unions[b][a]
    ]
    named = bad_pairs[:VIOLATION_CAP]
    groups: dict[tuple[int, int], list[tuple[OneHopView, int]]] = {
        key: [] for a, b in named for key in ((a, b), (b, a))
    }
    if groups:
        for x, _, gammas in _iter_views(id_space, max_degree, max_views):
            for gamma in gammas:
                hits = [groups[x, b] for b in gamma if (x, b) in groups]
                if hits:
                    view = _unchecked_view(x, frozenset(gamma))
                    entry = (view, as_mask(view_colors(view)))
                    for group in hits:
                        group.append(entry)
    conflicts = (
        (u_view, v_view, (u_mask & v_mask).bit_length())  # one shared color
        for a, b in named
        for u_view, u_mask in groups[a, b]
        for v_view, v_mask in groups[b, a]
        if u_mask & v_mask
    )
    return NeighborhoodCertificate(
        id_space=id_space,
        max_degree=max_degree,
        palette_size=palette_size,
        views_checked=checked,
        edge_count=nbr_edge_count(id_space, max_degree),
        disjoint=not bad_pairs,
        bound_ok=bound_failures == 0,
        min_count_by_degree=min_by_degree,
        bound_failures=bound_failures,
        violations=list(islice(conflicts, VIOLATION_CAP)),
    )
