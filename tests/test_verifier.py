"""Coloring checks, the all-views graph, and exhaustive certificates."""

import gc
import hashlib
import itertools
import random
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from multicolor import (
    Graph,
    Incomplete,
    InvalidParams,
    Multicoloring,
    OneHopView,
    OrderFamily,
    TooLarge,
    certified_family,
    certify_on_neighborhood,
    choose_tower,
    chromatic_number,
    gnp_graph,
    neighborhood_graph,
    tower_colors,
    verify,
)
from multicolor import verifier
from multicolor.algebraic import build_weighted_scheme, tower_color_indices
from multicolor.verifier import min_colors_required, nbr_edge_count, nbr_vertex_count

K2 = Graph(2, {1: {2}, 2: {1}})


def is_nbr_edge(u: OneHopView, v: OneHopView) -> bool:
    """Two views can be adjacent nodes of one host graph."""
    return (
        u.node_id != v.node_id
        and u.node_id in v.neighbors
        and u.node_id not in u.neighbors
        and v.node_id in u.neighbors
        and v.node_id not in v.neighbors
    )


# -- verify ------------------------------------------------------------------


def test_verify_reports_a_shared_color():
    r = verify(K2, Multicoloring(2, {1: {1}, 2: {1}}))
    assert not r.valid
    assert r.violations == [(1, 2, 1)]
    assert r.violation_count == 1


def test_verify_exact_target_at_eps_zero():
    r = verify(K2, Multicoloring(2, {1: {1}, 2: {2}}), eps=0)
    assert r.valid
    assert r.worst_ratio == 1
    assert r.meets_target is True
    assert r.fractions == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_verify_rejects_mismatched_node_sets():
    with pytest.raises(Incomplete):
        verify(K2, Multicoloring(2, {1: {1}}))
    with pytest.raises(Incomplete):
        verify(K2, Multicoloring(2, {1: {1}, 2: {2}, 3: {1}}))


def test_violation_cap_truncates_the_sample_but_not_the_count(monkeypatch):
    monkeypatch.setattr(verifier, "VIOLATION_CAP", 3)
    full = {1: set(range(1, 6)), 2: set(range(1, 6))}
    r = verify(K2, Multicoloring(5, full))
    assert len(r.violations) == 3
    assert r.violation_count == 5
    assert not r.valid


@pytest.mark.parametrize("cap", [3, 100])
def test_violations_come_by_sorted_edge_then_color(monkeypatch, cap):
    """Several conflicts on several edges: the list and the count are those of
    intersecting every edge's two color sets, edges sorted, colors ascending."""
    monkeypatch.setattr(verifier, "VIOLATION_CAP", cap)
    g = gnp_graph(40, 0.3, 60, seed=3)
    rng = random.Random(5)
    m = Multicoloring(8, {v: rng.sample(range(1, 9), rng.randrange(0, 6)) for v in g.node_ids()})
    shared = [
        (u, v, c)
        for u, v in g.edges()
        for c in sorted(set(m.assignment[u]) & set(m.assignment[v]))
    ]
    assert len(shared) > cap
    r = verify(g, m)
    assert r.violations == shared[:cap]
    assert r.violation_count == len(shared)
    assert not r.valid


def test_reports_never_share_a_violations_list():
    """A second check of the same pair reuses the first one's result, but
    hands back a list of its own."""
    m = Multicoloring(2, {1: {1, 2}, 2: {1, 2}})
    first = verify(K2, m)
    first.violations.clear()
    second = verify(K2, m)
    assert second.violations == [(1, 2, 1), (1, 2, 2)] and second.violation_count == 2
    assert verify(K2, m).violations is not second.violations


def test_a_checked_coloring_keeps_no_graph_alive_and_compares_as_before():
    g = Graph(3, {1: {2}, 2: {1, 3}, 3: {2}})
    m = Multicoloring(3, {1: {1}, 2: {2}, 3: {3}})
    twin = Multicoloring(3, {1: {1}, 2: {2}, 3: {3}})
    assert verify(g, m).valid
    assert m == twin and repr(m) == repr(twin)
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


def test_verify_refuses_an_epsilon_outside_the_unit_interval():
    m = Multicoloring(2, {1: {1}, 2: {2}})
    for eps in (5, -0.5, Fraction(3, 2), float("nan"), float("inf")):
        with pytest.raises(InvalidParams):
            verify(K2, m, eps=eps)
    assert verify(K2, m, eps=1).meets_target is True


@pytest.mark.parametrize(
    "eps", [float("nan"), float("inf"), float("-inf"), 2, -1, Fraction(-1, 10**9)], ids=str
)
def test_min_colors_required_refuses_an_epsilon_outside_the_unit_interval(eps):
    """Before, at k=10 and d=1, nan raised ValueError and inf OverflowError,
    eps=2 gave -5 and eps=-1 gave 10."""
    with pytest.raises(InvalidParams, match="outside"):
        min_colors_required(10, eps, 1)


def test_meets_target_is_none_without_an_epsilon():
    m = Multicoloring(3, {1: {1}, 2: {2}})
    assert verify(K2, m).meets_target is None
    r = verify(K2, m, eps=0)
    assert r.meets_target is False  # 1/3 falls short of 1/2


@pytest.mark.parametrize("eps", [0, Fraction(1, 3), 0.5, 1])
def test_meets_target_is_the_integer_quota(eps):
    """meets_target holds exactly when every node keeps min_colors_required
    colors for its degree, the same as a share of at least (1-eps)/(d+1)."""
    rng = random.Random(7)
    outcomes = set()
    for _ in range(300):
        g = gnp_graph(4, 0.5, 4, seed=rng.getrandbits(32))
        k = rng.randint(1, 24)
        m = Multicoloring(
            k, {v: rng.sample(range(1, k + 1), rng.randint(0, k)) for v in g.node_ids()}
        )
        quota = all(
            len(m.assignment[v]) >= min_colors_required(k, eps, g.degree(v))
            for v in g.node_ids()
        )
        share = all(
            m.fraction_of(v) >= (1 - Fraction(eps)) / (g.degree(v) + 1) for v in g.node_ids()
        )
        assert verify(g, m, eps=eps).meets_target is quota is share
        outcomes.add(quota)
    assert outcomes == {True, False} or eps == 1


def test_rho_groups_worst_ratio_by_degree():
    path = Graph(3, {1: {2}, 2: {1, 3}, 3: {2}})
    m = Multicoloring(6, {1: {1, 2}, 2: {3}, 3: {4}})
    r = verify(path, m)
    assert set(r.rho_by_degree) == {1, 2}
    assert r.rho_by_degree[1] == Fraction(1, 6) * 2  # node 3 is the worst
    assert r.rho_by_degree[2] == Fraction(1, 6) * 3
    assert r.worst_ratio == Fraction(1, 3)
    s = r.summary()
    assert s["valid"] and s["violations"] == 0
    assert s["rho_by_degree"] == {1: "1/3", 2: "1/2"}


# -- the graph of all views ----------------------------------------------------


def test_view_counts_match_the_closed_form():
    assert nbr_vertex_count(3, 1) == 6
    assert nbr_vertex_count(4, 1) == 12
    assert nbr_vertex_count(12, 3) == 2772
    assert nbr_vertex_count(30, 3) == 122670
    assert nbr_edge_count(3, 1) == 3
    assert nbr_edge_count(4, 1) == 6
    assert nbr_edge_count(12, 3) == 206976
    assert nbr_edge_count(30, 3) == 72057315
    assert nbr_edge_count(1, 3) == 0


@pytest.mark.parametrize("count", [nbr_vertex_count, nbr_edge_count])
@pytest.mark.parametrize("id_space, max_degree", [(10, -1), (0, 3), (-5, 2)])
def test_view_counts_refuse_the_same_arguments(count, id_space, max_degree):
    """Before, nbr_edge_count returned 0 for all three, which
    nbr_vertex_count refused."""
    with pytest.raises(InvalidParams):
        count(id_space, max_degree)


@pytest.mark.parametrize(
    "call",
    [
        lambda: min_colors_required(10, 0.5, -1),
        lambda: min_colors_required(10, 0.5, -3),
        lambda: build_weighted_scheme(1000, 8, 0.5).guaranteed_fraction(-1),
        lambda: build_weighted_scheme(1000, 8, 0.5).lowest_instance(-5),
    ],
    ids=["required-1", "required-3", "fraction-1", "lowest-5"],
)
def test_a_negative_degree_is_refused(call):
    """Before, these raised ZeroDivisionError and returned -2, 379/9621 and 1."""
    with pytest.raises(InvalidParams, match="degree -. is negative"):
        call()


@pytest.mark.parametrize(
    "id_space,max_degree",
    [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)],
)
def test_edges_match_a_pairwise_oracle(id_space, max_degree):
    ng = neighborhood_graph(id_space, max_degree)
    assert ng.vertex_count == nbr_vertex_count(id_space, max_degree)
    views = ng.vertices
    oracle = set()
    for i, j in itertools.combinations(range(len(views)), 2):
        assert is_nbr_edge(views[i], views[j]) == is_nbr_edge(views[j], views[i])
        if is_nbr_edge(views[i], views[j]):
            oracle.add((i, j))
    for i in range(len(views)):
        assert not is_nbr_edge(views[i], views[i])
    got = {(min(i, j), max(i, j)) for i, j in ng.edge_list()}
    assert got == oracle
    assert len(oracle) == nbr_edge_count(id_space, max_degree)


def test_smallest_instance_is_a_perfect_matching():
    ng = neighborhood_graph(3, 1)
    assert ng.vertex_count == 6 and ng.edge_count == 3
    degree = [0] * 6
    for i, j in ng.edge_list():
        degree[i] += 1
        degree[j] += 1
    assert degree == [1] * 6
    a = OneHopView(1, frozenset({2}))
    b = OneHopView(2, frozenset({1}))
    c = OneHopView(3, frozenset({1}))
    assert is_nbr_edge(a, b)
    assert not is_nbr_edge(a, c)  # a does not witness 3, so no host graph joins them
    assert not is_nbr_edge(b, c)


def test_guards_refuse_oversized_instances(monkeypatch):
    with pytest.raises(TooLarge):
        neighborhood_graph(30, 3, max_views=1000)
    monkeypatch.setattr(verifier, "MAX_EDGES", 10)
    with pytest.raises(TooLarge):
        neighborhood_graph(4, 2).edge_list()
    monkeypatch.setattr(verifier, "MAX_CHI_VERTICES", 3)
    with pytest.raises(TooLarge):
        chromatic_number(neighborhood_graph(4, 1))
    with pytest.raises(InvalidParams):
        neighborhood_graph(0, 1)


def test_materialized_view_budget_refuses_before_any_view(monkeypatch):
    def no_view(*_):
        raise AssertionError("built a view")

    monkeypatch.setattr(verifier, "MAX_GRAPH_VIEWS", 23)
    monkeypatch.setattr(verifier, "OneHopView", no_view)
    monkeypatch.setattr(verifier, "_unchecked_view", no_view)
    with pytest.raises(TooLarge, match="24 views"):
        neighborhood_graph(4, 2)  # 4 ids times 3 + 3 neighborhoods


def test_chromatic_number_refuses_before_building_edges():
    ng = neighborhood_graph(17, 3)
    assert ng.vertex_count == 11832
    with pytest.raises(TooLarge):
        chromatic_number(ng)
    assert ng._edges is None


def test_certify_refuses_an_oversized_view_space_before_any_view():
    def view_colors(view):
        raise AssertionError(f"evaluated {view}")

    with pytest.raises(TooLarge):
        certify_on_neighborhood(view_colors, 30, 3, 8, max_views=1000)


# -- exact chromatic number ------------------------------------------------------


def chi_oracle(nv: int, edges) -> int:
    """Exhaustive chromatic number for tiny instances."""
    if nv == 0:
        return 0
    for k in range(1, nv + 1):
        for coloring in itertools.product(range(k), repeat=nv):
            if all(coloring[i] != coloring[j] for i, j in edges):
                return k
    return nv


def test_chromatic_number_matches_brute_force():
    rng = random.Random(1)
    for _ in range(40):
        nv = rng.randrange(1, 8)
        density = rng.random()
        edges = [
            (i, j)
            for i in range(nv)
            for j in range(i + 1, nv)
            if rng.random() < density
        ]
        adj = {v + 1: set() for v in range(nv)}
        for i, j in edges:
            adj[i + 1].add(j + 1)
            adj[j + 1].add(i + 1)
        assert chromatic_number(Graph(nv, adj)) == chi_oracle(nv, edges)


def test_chromatic_number_known_graphs():
    assert chromatic_number(Graph(1, {})) == 0
    assert chromatic_number(Graph(3, {1: set(), 2: set(), 3: set()})) == 1
    cycle = Graph(5, {1: {2, 5}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {4, 1}})
    assert chromatic_number(cycle) == 3
    for n in range(2, 6):
        ids = range(1, n + 1)
        adj = {v: {u for u in ids if u != v} for v in ids}
        assert chromatic_number(Graph(n, adj)) == n


def test_chromatic_number_searches_deeper_than_the_recursion_limit():
    ng = neighborhood_graph(40, 1)
    assert ng.vertex_count == 1560 > sys.getrecursionlimit()
    assert chromatic_number(ng) == 2  # every view has exactly one neighbor


def test_chromatic_number_refuses_a_search_past_its_work_budget(monkeypatch):
    ng = neighborhood_graph(5, 3)  # 70 vertices and 490 edges: 1050 work per step
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 10**6)
    assert chromatic_number(ng) == 4
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 20000)
    with pytest.raises(TooLarge, match="^21000 units of chromatic search work exceed the guard of 20000$"):
        chromatic_number(ng)


def _path(n):
    return Graph(n, {v: {u for u in (v - 1, v + 1) if 1 <= u <= n} for v in range(1, n + 1)})


def test_chromatic_number_charges_wide_masks_by_their_width(monkeypatch):
    # a path's search takes one branch step per vertex outside the seed clique
    narrow, wide = _path(300), _path(1200)
    narrow_step = 300 + 2 * 299  # 300-bit masks: charged once
    wide_step = (1200 + 2 * 1199) * 3  # 1200-bit masks: 1 + 1200 // 600
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 298 * narrow_step)
    assert chromatic_number(narrow) == 2
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 298 * narrow_step - 1)
    with pytest.raises(TooLarge):
        chromatic_number(narrow)
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 1198 * wide_step)
    assert chromatic_number(wide) == 2
    monkeypatch.setattr(verifier, "MAX_CHI_WORK", 1198 * wide_step - 1)
    with pytest.raises(TooLarge):
        chromatic_number(wide)


def test_chromatic_grid_on_small_view_graphs():
    grid = {
        (3, 1): 2, (4, 1): 2, (5, 1): 2, (6, 1): 2,
        (3, 2): 3, (4, 2): 3, (5, 2): 4, (6, 2): 4,
        (4, 3): 4, (5, 3): 4,
    }
    chi = {}
    for (n, d), want in grid.items():
        chi[n, d] = chromatic_number(neighborhood_graph(n, d))
        assert chi[n, d] == want
    for (n, d), value in chi.items():
        assert value >= d + 1  # host graphs include K_{d+1}
        if (n + 1, d) in chi:
            assert chi[n + 1, d] >= value
        if (n, d + 1) in chi:
            assert chi[n, d + 1] >= value


# -- exhaustive certificates ------------------------------------------------------


def test_certify_accepts_an_honest_construction():
    p = choose_tower(8, 2)
    cert = certify_on_neighborhood(
        lambda v: tower_color_indices(v, p),
        8,
        2,
        p.palette_size,
        min_colors=lambda d: p.guaranteed_colors,
    )
    assert cert.passed and cert.disjoint and cert.bound_ok
    assert cert.views_checked == nbr_vertex_count(8, 2) == 224
    assert cert.min_count_by_degree == {1: 4, 2: 3}
    assert cert.violations == [] and cert.bound_failures == 0


def test_certify_names_violating_view_pairs():
    cert = certify_on_neighborhood(lambda v: {1}, 4, 1, 4)
    assert not cert.disjoint and not cert.passed
    assert cert.violations
    for u, v, c in cert.violations:
        assert c == 1
        assert is_nbr_edge(u, v)


def test_certify_flags_missed_quotas():
    p = choose_tower(8, 2)
    cert = certify_on_neighborhood(
        lambda v: tower_color_indices(v, p),
        8,
        2,
        p.palette_size,
        min_colors={1: p.palette_size, 2: 1}.__getitem__,
    )
    assert cert.disjoint and not cert.bound_ok and not cert.passed
    assert cert.bound_failures == nbr_vertex_count(8, 1)


def test_certify_leaves_out_degrees_without_a_view():
    """At N <= Delta some degree has no view: 3 ids give no degree-3 view."""
    cert = certify_on_neighborhood(lambda v: {1}, 3, 3, 4)
    assert cert.views_checked == nbr_vertex_count(3, 3) == 9
    assert cert.min_count_by_degree == {1: 1, 2: 1}


def test_degree_bound_zero_walks_and_allocates_nothing():
    """No view and no edge at degree bound 0: the sweep allocated (N+1)^2
    union slots and scanned N^2/2 pairs, 35 MB at N = 2000, and the
    enumeration built a list of the other ids for each id, 18.5 s at 20000."""
    tracemalloc.start()
    try:
        cert = certify_on_neighborhood(lambda v: 1, 2000, 0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert (cert.views_checked, cert.edge_count, cert.passed) == (0, 0, True)
    assert cert.min_count_by_degree == {} and cert.violations == []
    start = time.perf_counter()
    assert list(verifier._iter_views(20000, 0)) == []
    assert time.perf_counter() - start < 1


def test_sweep_hands_every_view_once_in_enumeration_order():
    seen = []

    def record(view):
        seen.append(view)
        return 0

    certify_on_neighborhood(record, 7, 3, 1)
    expected = [
        OneHopView(x, frozenset(gamma))
        for x in range(1, 8)
        for d in range(1, 4)
        for gamma in itertools.combinations([y for y in range(1, 8) if y != x], d)
    ]
    assert seen == expected and len(seen) == nbr_vertex_count(7, 3)
    assert all(type(v.neighbors) is frozenset for v in seen)
    assert len(set(seen)) == len(seen)


def test_the_public_view_and_the_view_rules_keep_their_checks():
    for node_id, neighbors in ((0, {1}), (2, {2, 3}), (2, {0, 3}), (2, {0})):
        with pytest.raises(InvalidParams):
            OneHopView(node_id, frozenset(neighbors))
    assert OneHopView(2, frozenset()).degree == 0
    p = choose_tower(7, 3)
    bad_views = ((0, {1}), (8, {1}), (1, {0}), (1, {8}), (1, {2, 8}), (1, {2, 3, 4, 5}))
    for node_id, neighbors in bad_views:
        with pytest.raises(InvalidParams):  # id 0 is refused by the view itself
            tower_color_indices(OneHopView(node_id, frozenset(neighbors)), p)
    family = OrderFamily(12, 7, seed=3)
    bad_ids = ((0, (1,)), (8, (1,)), (1, (0,)), (1, (8,)), (2, (3, 0)), (1, (2, 8)))
    for node_id, neighbors in bad_ids:
        with pytest.raises(InvalidParams):
            family.select_mask(node_id, neighbors)
    assert family.select_mask(1, ()) == (1 << 12) - 1


# SHA-256 of the reprs of certified_family's (certificate, attempts) and of the
# shared-order and tower certificates over every view, at (N, Delta) = (3, 3),
# (8, 2) and (12, 3); recorded before the sweeps were grouped by id and degree,
# re-recorded when order keys became whole 5-byte fields of the stream, and
# again, over the reference certificates alone, when certify_family came to
# return one equal to them: that digest was taken from the code before it.
GOLDEN_CERTIFICATES = "74c6e0d34f1001900aa86c4995a7b564a1ec37bfbbead63f2006662e2d343ed0"


def test_certificates_are_byte_stable():
    texts = []
    for n_ids, delta in ((3, 3), (8, 2), (12, 3)):
        family, cert, attempts = certified_family(n_ids, delta, 0.5, 11)
        shared = certify_on_neighborhood(
            lambda v: family.select_mask(v.node_id, v.neighbors),
            n_ids,
            delta,
            family.k,
            min_colors=lambda d: min_colors_required(family.k, 0.5, d),
        )
        p = choose_tower(n_ids, delta)
        tower = certify_on_neighborhood(
            lambda v: tower_color_indices(v, p),
            n_ids,
            delta,
            p.palette_size,
            min_colors=lambda d: p.guaranteed_colors,
        )
        assert cert == shared
        texts.append(repr(attempts) + repr(shared) + repr(tower))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == GOLDEN_CERTIFICATES


def test_certify_rejects_out_of_palette_colors():
    with pytest.raises(InvalidParams):
        certify_on_neighborhood(lambda v: {5}, 3, 1, 4)


def test_mask_and_iterable_interfaces_agree():
    p = choose_tower(6, 2)
    as_set = certify_on_neighborhood(
        lambda v: tower_color_indices(v, p), 6, 2, p.palette_size
    )
    as_mask = certify_on_neighborhood(
        lambda v: sum(1 << (c - 1) for c in tower_color_indices(v, p)),
        6,
        2,
        p.palette_size,
    )
    assert as_set == as_mask


def test_fresh_tuples_lists_and_masks_certify_alike():
    """The mask memo is keyed by a tuple's value: fresh tuples, lists and
    ints of the same colors give one certificate, passing or failing."""
    p = choose_tower(8, 2)
    family = OrderFamily(12, 8, seed=3)

    def order_colors(v):
        mask = family.select_mask(v.node_id, v.neighbors)
        return [c for c in range(1, family.k + 1) if mask >> (c - 1) & 1]

    rules = (
        (lambda v: tower_color_indices(v, p), p.palette_size, p.guaranteed_colors),
        (order_colors, family.k, 3),
        (lambda v: [keyed_one_bit_mask(5, 16, v).bit_length()], 16, 1),  # not disjoint
    )
    for colors, k, quota in rules:
        shapes = (
            lambda v: tuple([*colors(v)]),  # a new tuple on every call
            lambda v: list(colors(v)),
            lambda v: sum(1 << (c - 1) for c in colors(v)),
        )
        certs = [
            certify_on_neighborhood(f, 8, 2, k, min_colors=lambda d: quota) for f in shapes
        ]
        assert certs[0] == certs[1] == certs[2]
    assert not certs[0].disjoint and certs[0].violations


def test_mask_memo_stops_at_its_cap():
    """Past _KNOWN_MASKS distinct tuples, masks are still made, and right,
    but no more are kept. Every view here returns a tuple of its own."""
    sizes = []

    def own_tuple(view):
        return (view.node_id, *(20 + y for y in sorted(view.neighbors)))

    def view_colors(view):
        # certify_on_neighborhood calls this directly: its frame holds the memo
        sizes.append(len(sys._getframe(1).f_locals["known"]))
        return own_tuple(view)

    as_tuples = certify_on_neighborhood(view_colors, 14, 3, 40)
    as_ints = certify_on_neighborhood(
        lambda v: sum({1 << (c - 1) for c in own_tuple(v)}), 14, 3, 40
    )
    assert nbr_vertex_count(14, 3) > verifier._KNOWN_MASKS
    assert as_tuples == as_ints and not as_tuples.disjoint
    assert max(sizes) == verifier._KNOWN_MASKS


def keyed_one_bit_mask(seed: int, palette: int, view: OneHopView) -> int:
    rng = random.Random(f"{seed}:{view.node_id}:{sorted(view.neighbors)}")
    return 1 << rng.randrange(palette)


def test_union_certificate_agrees_with_edge_enumeration():
    """The grouped-union shortcut must equal the quadratic edge scan."""
    ng = neighborhood_graph(5, 2)
    edges = ng.edge_list()
    outcomes = set()
    for palette in (64, 4096):
        for seed in range(6):
            masks = [keyed_one_bit_mask(seed, palette, v) for v in ng.vertices]
            explicit = all(not masks[i] & masks[j] for i, j in edges)
            cert = certify_on_neighborhood(
                lambda v: keyed_one_bit_mask(seed, palette, v), 5, 2, palette
            )
            assert cert.disjoint == explicit
            outcomes.add(explicit)
    assert outcomes == {True, False}


def test_failure_rescan_evaluates_each_view_at_most_twice():
    calls = Counter()

    def view_colors(view):
        calls[view] += 1
        return keyed_one_bit_mask(7, 4096, view)

    cert = certify_on_neighborhood(view_colors, 14, 3, 4096)
    assert not cert.disjoint
    assert len(calls) == nbr_vertex_count(14, 3)
    assert max(calls.values()) == 2  # the sweep, then one rescan of the bad groups
    for u, v, c in cert.violations:
        assert is_nbr_edge(u, v)
        assert keyed_one_bit_mask(7, 4096, u) == keyed_one_bit_mask(7, 4096, v) == 1 << (c - 1)
    # the sample recorded from the per-pair rescan this sweep replaced
    text = "\n".join(
        f"{u.node_id}:{sorted(u.neighbors)} {v.node_id}:{sorted(v.neighbors)} {c}"
        for u, v, c in cert.violations
    )
    assert len(cert.violations) == 100
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ff7e373cdbd1c917b6dfeb94af36baa3d32de66d78e487475e6211687558b07b"
    )


def test_shared_orders_are_disjoint_on_every_view_pair():
    family = OrderFamily(12, 5, seed=3)
    cert = certify_on_neighborhood(
        lambda v: family.select_mask(v.node_id, v.neighbors), 5, 2, 12
    )
    assert cert.disjoint


def test_complete_visibility_partitions_the_palette():
    ids = (1, 2, 3, 4)
    family = OrderFamily(10, 4, seed=5)
    won = [family.select_mask(v, set(ids) - {v}) for v in ids]
    assert sum(m.bit_count() for m in won) == family.k  # one winner per order
    p = choose_tower(4, 3)
    sets = [tower_colors(OneHopView(v, frozenset(set(ids) - {v})), p) for v in ids]
    for a, b in itertools.combinations(sets, 2):
        assert not a & b
    assert sum(len(s) for s in sets) <= p.palette_size
