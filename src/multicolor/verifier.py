"""Checking colorings, and exhaustive certificates over all possible views.

The neighborhood graph over an id space N with degree bound Delta has one
vertex per one-hop view (x, Gamma), 1 <= |Gamma| <= Delta, and an edge
between two views exactly when they could be adjacent nodes of one host
graph: x_u != x_v, x_u in Gamma_v \\ Gamma_u and x_v in Gamma_u \\ Gamma_v.
A deterministic algorithm whose outputs are disjoint across every edge of
this graph is conflict-free on every host graph at once.

All pass/fail arithmetic is exact (integers and Fractions); floats never
decide an outcome. The limits no caller varies are module constants:
VIOLATION_CAP conflicts named per report, MAX_EDGES materialized view-graph
edges, and MAX_CHI_VERTICES vertices and MAX_CHI_WORK work units per
chromatic search; only the view budget (MAX_VIEWS by default) is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, filterfalse, islice
from typing import Callable, Iterator

from .coloring import Multicoloring
from .errors import Incomplete, InvalidParams, TooLarge
from .graph import Graph, OneHopView

__all__ = [
    "VerificationReport",
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

    valid reflects disjointness only. Fraction targets are reported
    separately: rho_by_degree[d] is the worst fraction*(d+1) over nodes of
    degree d, and meets_target says whether every node reached
    (1-eps)/(degree+1) when an eps was supplied.
    """

    valid: bool
    palette_size: int
    node_count: int
    edge_count: int
    violations: list[tuple[int, int, int]]  # (u, v, shared color), capped
    violation_count: int
    fractions: dict[int, Fraction]
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


def verify(g: Graph, m: Multicoloring, eps=None) -> VerificationReport:
    """Check edge disjointness and palette fractions of m on g."""
    if eps is not None and not 0 <= eps <= 1:  # also refuses nan
        raise InvalidParams(f"epsilon {eps} outside [0, 1]")
    e = Fraction(eps) if eps is not None else None
    missing = [v for v in g.node_ids() if v not in m.assignment]
    extra = [v for v in m.assignment if not g.has_node(v)]
    if missing or extra:
        raise Incomplete(
            f"coloring does not match the node set (missing {missing[:5]}, "
            f"extra {extra[:5]})"
        )
    violations = []
    violation_count = 0
    for u, v in g.edges():
        shared = m.assignment[u] & m.assignment[v]
        if shared:
            violation_count += len(shared)
            for c in sorted(shared):
                if len(violations) < VIOLATION_CAP:
                    violations.append((u, v, c))
    fractions = {v: m.fraction_of(v) for v in g.node_ids()}
    worst_ratio = None
    rho: dict[int, Fraction] = {}
    target_ok = True
    for v in g.node_ids():
        d = g.degree(v)
        ratio = fractions[v] * (d + 1)
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio = ratio
        if d not in rho or ratio < rho[d]:
            rho[d] = ratio
        if e is not None and fractions[v] < (1 - e) / (d + 1):
            target_ok = False
    return VerificationReport(
        valid=violation_count == 0,
        palette_size=m.palette_size,
        node_count=g.n,
        edge_count=g.edge_count(),
        violations=violations,
        violation_count=violation_count,
        fractions=fractions,
        worst_ratio=worst_ratio,
        rho_by_degree=rho,
        epsilon=e,
        meets_target=None if e is None else target_ok,
    )


# ---------------------------------------------------------------------------
# the neighborhood graph of all possible views


def nbr_vertex_count(id_space: int, max_degree: int) -> int:
    """Closed-form vertex count: sum over delta of N * C(N-1, delta)."""
    if id_space < 1 or max_degree < 0:
        raise InvalidParams("need id_space >= 1 and max_degree >= 0")
    return sum(
        id_space * math.comb(id_space - 1, d) for d in range(1, max_degree + 1)
    )


def nbr_edge_count(id_space: int, max_degree: int) -> int:
    """Closed-form edge count.

    An edge is an ordered choice of two distinct ids a, b plus independent
    rests of the two neighborhoods: C(N,2) * (sum_{s<=Delta-1} C(N-2,s))^2.
    """
    if id_space < 2:
        return 0
    rests = sum(math.comb(id_space - 2, s) for s in range(0, max_degree))
    return math.comb(id_space, 2) * rests * rests


MAX_VIEWS = 10**7  # default view budget of every sweep
MAX_EDGES = 10**7  # largest edge list a NeighborhoodGraph materializes


def _iter_views(id_space: int, max_degree: int, max_views: int = MAX_VIEWS):
    """All views (x, gamma), grouped by x, degree ascending.

    The one view enumeration and the one place its budget is enforced: the
    count is checked when this is called, before any view is made, and only
    then is the generator returned.
    """
    total = nbr_vertex_count(id_space, max_degree)
    if total > max_views:
        raise TooLarge(f"{total} views exceed the guard of {max_views}")
    ids = range(1, id_space + 1)

    def views():
        for x in ids:
            others = [y for y in ids if y != x]
            for d in range(1, max_degree + 1):
                yield from ((x, gamma) for gamma in combinations(others, d))

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
        if total > MAX_EDGES:
            raise TooLarge(f"{total} edges exceed the guard of {MAX_EDGES}")
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
    id_space: int, max_degree: int, max_views: int = 10**6
) -> NeighborhoodGraph:
    """Materialize the neighborhood graph; guarded by a view budget."""
    views = _iter_views(id_space, max_degree, max_views)
    vertices = tuple(OneHopView(x, frozenset(gamma)) for x, gamma in views)
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
    if nv > MAX_CHI_VERTICES:
        raise TooLarge(f"{nv} vertices exceed the guard of {MAX_CHI_VERTICES}")
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
            if work > MAX_CHI_WORK:
                raise TooLarge(
                    f"chromatic number search exceeded its work budget of {MAX_CHI_WORK}"
                )
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
    and union their color masks; every edge joins some group (a, b) with the
    group (b, a), so all edges are conflict-free if and only if every such
    union pair is disjoint. On failure one more sweep collects the groups of
    the first VIOLATION_CAP offending pairs, each of which holds at least one
    violation, and joins them to name concrete view pairs.

    view_colors may return an int bitmask (bit i-1 = color i) or an iterable
    of 1-based colors. min_colors, if given, maps a degree to the minimum
    count each view of that degree must keep.
    """
    views = _iter_views(id_space, max_degree, max_views)
    need = None
    if min_colors is not None:
        need = {d: min_colors(d) for d in range(1, max_degree + 1)}

    def as_mask(result) -> int:
        if isinstance(result, int):
            return result
        mask = 0
        for c in result:
            mask |= 1 << (c - 1)
        return mask

    unions: dict[tuple[int, int], int] = {}
    min_by_degree: dict[int, int] = {}
    bound_failures = 0
    checked = 0
    for x, gamma in views:
        view = OneHopView(x, frozenset(gamma))
        mask = as_mask(view_colors(view))
        if mask >> palette_size:
            raise InvalidParams(
                f"view ({x}, {sorted(gamma)}) selected a color beyond the palette"
            )
        checked += 1
        d = len(gamma)
        count = mask.bit_count()
        if d not in min_by_degree or count < min_by_degree[d]:
            min_by_degree[d] = count
        if need is not None and count < need[d]:
            bound_failures += 1
        for b in gamma:
            key = (x, b)
            unions[key] = unions.get(key, 0) | mask

    bad_pairs = [
        (a, b)
        for (a, b) in unions
        if a < b and (b, a) in unions and unions[(a, b)] & unions[(b, a)]
    ]
    named = bad_pairs[:VIOLATION_CAP]
    groups: dict[tuple[int, int], list[tuple[OneHopView, int]]] = {
        key: [] for a, b in named for key in ((a, b), (b, a))
    }
    if groups:
        for x, gamma in _iter_views(id_space, max_degree, max_views):
            hits = [groups[x, b] for b in gamma if (x, b) in groups]
            if hits:
                view = OneHopView(x, frozenset(gamma))
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
