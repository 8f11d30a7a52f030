"""Randomized draws and shared-order families, with exhaustive certificates."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import (
    InvalidParams,
    OneHopView,
    RandomDraws,
    TooLarge,
    OrderFamily,
    certified_family,
    certify_family,
    generate_draws,
    gnp_graph,
    parse_edge_list,
    randomized_palette_size,
    run_randomized,
    run_shared,
    select_by_orders,
    select_colors,
    shared_palette_size,
    verify,
)
from multicolor.coloring import coloring_to_json
from multicolor.permcolor import _MAX_DRAWS, min_colors_required
from multicolor.rng import keyed_rng
from multicolor.simulator import run_one_shot
from multicolor.verifier import nbr_vertex_count as neighborhood_view_count
from test_acceptance import capped_graph


# -- palette sizes ---------------------------------------------------------


def test_randomized_palette_frozen_values():
    assert randomized_palette_size(100, 4, 0.5) == 553
    assert randomized_palette_size(200, 8, 0.5) == 1145
    assert randomized_palette_size(math.e**2, 0, 1) == 12


def test_randomized_palette_domain_checks():
    with pytest.raises(InvalidParams):
        randomized_palette_size(1, 4, 0.5)
    with pytest.raises(InvalidParams):
        randomized_palette_size(100, -1, 0.5)
    with pytest.raises(InvalidParams):
        randomized_palette_size(100, 4, 0)
    with pytest.raises(InvalidParams):
        randomized_palette_size(100, 4, 1.2)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_palette_sizes_refuse_a_non_finite_epsilon(eps):
    with pytest.raises(InvalidParams, match="epsilon"):
        randomized_palette_size(100, 4, eps)
    with pytest.raises(InvalidParams, match="epsilon"):
        shared_palette_size(30, 3, eps)


def test_shared_palette_frozen_values():
    assert shared_palette_size(30, 3, 0.5) == 436
    assert shared_palette_size(1000, 4, 0.5) == 1382
    assert shared_palette_size(math.e, 0, 1) == 2


def test_shared_palette_factor_scales_linearly():
    base = shared_palette_size(30, 3, 0.5)
    assert shared_palette_size(30, 3, 0.5, factor=3) == 3 * base
    with pytest.raises(InvalidParams):
        shared_palette_size(30, 3, 0.5, factor=0)
    with pytest.raises(InvalidParams):
        shared_palette_size(1, 3, 0.5)


# -- random draws ----------------------------------------------------------


def test_draws_are_deterministic_and_in_range():
    a = generate_draws(17, 50, 20, seed=9)
    b = generate_draws(17, 50, 20, seed=9)
    assert a == b
    assert len(a.draws) == 50
    hi = 50 * 20**4
    assert all(1 <= d <= hi for d in a.draws)
    assert generate_draws(18, 50, 20, seed=9).draws != a.draws
    assert generate_draws(17, 50, 20, seed=10).draws != a.draws


def test_draws_fit_no_machine_word():
    """At the advertised scale the draw range must exceed 64 bits."""
    k = randomized_palette_size(40_000, 8, 0.5)
    assert k * 40_000**4 > 2**64
    d = generate_draws(1, 4, 40_000, seed=0)
    assert all(1 <= x <= 4 * 40_000**4 for x in d.draws)


def test_draws_monte_carlo_mean():
    d = generate_draws(5, 10**4, 10, seed=0)
    hi = 10**4 * 10**4
    mean = sum(d.draws) / len(d.draws)
    assert abs(mean - (1 + hi) / 2) / ((1 + hi) / 2) < 0.05


@pytest.mark.parametrize(
    "k, n, bits",
    [
        (1, 1, 1),
        (5, 1, 3),
        (8, 2**7, 32),
        (15, 2**7, 32),
        (16, 2**7, 33),
        (2819, 1000, 52),
        (8, 2**15, 64),
        (16, 2**15, 65),
        (40, 2**16, 70),
        (30, 2**40, 165),
    ],
)
def test_draws_equal_one_randrange_per_color(k, n, bits):
    hi = k * n**4
    assert hi.bit_length() == bits
    for node_id, seed in ((1, 0), (17, 9)):
        rng = keyed_rng(seed, "draws", node_id)
        expected = tuple(rng.randrange(1, hi + 1) for _ in range(k))
        assert generate_draws(node_id, k, n, seed).draws == expected


def test_draws_domain_checks():
    with pytest.raises(InvalidParams):
        generate_draws(1, 0, 10, seed=0)
    with pytest.raises(InvalidParams):
        generate_draws(1, 5, 0, seed=0)


# -- strict-minimum selection ------------------------------------------------


def test_select_colors_worked_example():
    own = RandomDraws(1, (2, 9, 4))
    u = RandomDraws(2, (5, 1, 7))
    w = RandomDraws(3, (3, 8, 8))
    assert select_colors(own, (u, w)) == {1, 3}


def test_select_colors_no_neighbors_takes_everything():
    own = RandomDraws(1, (5, 5, 5))
    assert select_colors(own, ()) == {1, 2, 3}


def test_ties_waste_the_color_on_both_sides():
    u = RandomDraws(1, (5, 2))
    v = RandomDraws(2, (5, 9))
    assert select_colors(u, (v,)) == {2}
    assert select_colors(v, (u,)) == frozenset()


def test_tie_break_by_id_awards_the_smaller_id():
    u = RandomDraws(1, (5,))
    v = RandomDraws(2, (5,))
    assert select_colors(u, (v,), tie_break_by_id=True) == {1}
    assert select_colors(v, (u,), tie_break_by_id=True) == frozenset()


def test_tie_break_only_applies_to_the_tied_minimum():
    # neighbor 3 ties the minimum, neighbor 2 is above it
    own = RandomDraws(5, (4,))
    below = RandomDraws(3, (4,))
    above = RandomDraws(2, (8,))
    assert select_colors(own, (below, above), tie_break_by_id=True) == frozenset()
    assert select_colors(below, (own, above), tie_break_by_id=True) == {1}


def test_select_colors_rejects_length_mismatch():
    with pytest.raises(InvalidParams):
        select_colors(RandomDraws(1, (1, 2)), (RandomDraws(2, (1,)),))


draws_strategy = st.lists(
    st.integers(min_value=1, max_value=30), min_size=4, max_size=4
)


@settings(max_examples=150)
@given(draws_strategy, draws_strategy, st.booleans())
def test_two_node_partition_identity(du, dv, tie_break):
    """On an edge the two selections are disjoint and |S_u|+|S_v| = k - ties."""
    u = RandomDraws(1, tuple(du))
    v = RandomDraws(2, tuple(dv))
    su = select_colors(u, (v,), tie_break)
    sv = select_colors(v, (u,), tie_break)
    assert not su & sv
    ties = sum(a == b for a, b in zip(du, dv))
    if tie_break:
        assert len(su) + len(sv) == len(du)
    else:
        assert len(su) + len(sv) == len(du) - ties


def column_min_selection(own, neighbors, tie_break_by_id):
    """The strict-minimum rule, one color column at a time."""
    if not neighbors:
        return frozenset(range(1, len(own.draws) + 1))
    won = []
    columns = zip(own.draws, *(nb.draws for nb in neighbors))
    for i, col in enumerate(columns, start=1):
        own_d = col[0]
        m = min(islice(col, 1, None))
        if own_d < m:
            won.append(i)
        elif tie_break_by_id and own_d == m:
            tied = [nb.node_id for nb in neighbors if nb.draws[i - 1] == m]
            if all(own.node_id < t for t in tied):
                won.append(i)
    return frozenset(won)


@settings(max_examples=300)
@given(
    st.integers(1, 8),
    st.lists(st.integers(1, 8), max_size=5),
    st.integers(1, 12),
    st.booleans(),
    st.data(),
)
def test_sieve_equals_the_column_minimum(own_id, nb_ids, k, tie_break, data):
    # draws from {1, 2, 3}, so ties are common; ids may even repeat
    draws = st.lists(st.integers(1, 3), min_size=k, max_size=k).map(tuple)
    own = RandomDraws(own_id, data.draw(draws))
    nbs = tuple(RandomDraws(v, data.draw(draws)) for v in nb_ids)
    assert select_colors(own, nbs, tie_break) == column_min_selection(own, nbs, tie_break)


@settings(max_examples=100)
@given(draws_strategy, draws_strategy, draws_strategy)
def test_selection_is_monotone_under_neighbor_removal(do, da, db):
    own = RandomDraws(1, tuple(do))
    a = RandomDraws(2, tuple(da))
    b = RandomDraws(3, tuple(db))
    assert select_colors(own, (a, b)) <= select_colors(own, (a,))


def test_run_randomized_produces_a_valid_coloring():
    g = gnp_graph(40, 0.15, 90, seed=6)
    m = run_randomized(g, 0.5, seed=3)
    assert m.palette_size == randomized_palette_size(40, g.max_degree(), 0.5)
    assert verify(g, m).valid


def test_run_randomized_rejects_low_degree_bound():
    g = gnp_graph(40, 0.15, 90, seed=6)
    with pytest.raises(InvalidParams):
        run_randomized(g, 0.5, seed=3, max_degree=g.max_degree() - 1)


# -- shared orders -----------------------------------------------------------


def test_order_family_ranks_are_permutations():
    fam = OrderFamily(7, 12, seed=4)
    for rank in fam.ranks:
        assert sorted(rank) == list(range(12))


def test_order_family_is_deterministic_per_seed():
    assert OrderFamily(5, 9, seed=1).ranks == OrderFamily(5, 9, seed=1).ranks
    assert OrderFamily(5, 9, seed=1).ranks != OrderFamily(5, 9, seed=2).ranks


def test_each_pair_partitions_the_palette():
    """Per order exactly one endpoint of an edge wins: masks partition [k]."""
    fam = OrderFamily(12, 6, seed=3)
    full = (1 << 12) - 1
    for x in range(1, 7):
        for y in range(x + 1, 7):
            mx = fam.select_mask(x, (y,))
            my = fam.select_mask(y, (x,))
            assert mx & my == 0
            assert mx | my == full


def test_two_id_single_order_is_forced():
    fam = OrderFamily(1, 2, seed=0)
    first = select_by_orders(OneHopView(1, frozenset({2})), fam)
    second = select_by_orders(OneHopView(2, frozenset({1})), fam)
    assert sorted([first, second], key=len) == [frozenset(), frozenset({1})]


def test_select_by_orders_matches_mask_interface():
    fam = OrderFamily(20, 9, seed=7)
    for x in range(1, 10):
        others = [y for y in range(1, 10) if y != x]
        for gamma in ([others[0]], others[:3], others):
            mask = fam.select_mask(x, gamma)
            colors = select_by_orders(OneHopView(x, frozenset(gamma)), fam)
            assert colors == {i + 1 for i in range(20) if mask >> i & 1}


@settings(max_examples=200)
@given(
    st.integers(1, 6), st.integers(2, 10), st.integers(0, 2**32), st.data()
)
def test_select_by_orders_equals_every_order_rule(k, id_space, seed, data):
    fam = OrderFamily(k, id_space, seed)
    x = data.draw(st.integers(1, id_space))
    others = [y for y in range(1, id_space + 1) if y != x]
    gamma = data.draw(st.sets(st.sampled_from(others), max_size=4))
    expected = frozenset(
        i
        for i, rank in enumerate(fam.ranks, start=1)
        if all(rank[x - 1] < rank[y - 1] for y in gamma)
    )
    assert select_by_orders(OneHopView(x, frozenset(gamma)), fam) == expected


def test_degree_zero_view_wins_every_order():
    fam = OrderFamily(6, 4, seed=0)
    assert select_by_orders(OneHopView(2, frozenset()), fam) == frozenset(
        range(1, 7)
    )


def test_beats_row_cache_is_transparent():
    fam = OrderFamily(9, 8, seed=5)
    first = list(fam.beats_row(3))
    fam.beats_row(7)  # evict
    assert fam.beats_row(3) == first


def test_ids_outside_the_space_are_rejected():
    fam = OrderFamily(4, 5, seed=0)
    with pytest.raises(InvalidParams):
        fam.select_mask(6, (1,))
    with pytest.raises(InvalidParams):
        fam.select_mask(1, (6,))
    with pytest.raises(InvalidParams):
        select_by_orders(OneHopView(1, frozenset({9})), fam)


def test_exhaustive_expected_selection_rate():
    """Over all orders of four ids, a view of degree d wins 1/(d+1) of them."""
    ids = (1, 2, 3, 4)
    perms = list(permutations(ids))
    for x in ids:
        others = [y for y in ids if y != x]
        for size in (1, 2, 3):
            gamma = others[:size]
            wins = sum(
                all(p.index(x) < p.index(y) for y in gamma) for p in perms
            )
            assert wins * (size + 1) == len(perms)


# -- certification -----------------------------------------------------------


def test_view_count_formula_matches_enumeration():
    from itertools import combinations

    for n, d in ((3, 1), (5, 3), (6, 2)):
        explicit = sum(
            1
            for x in range(1, n + 1)
            for size in range(1, d + 1)
            for _ in combinations([y for y in range(1, n + 1) if y != x], size)
        )
        assert neighborhood_view_count(n, d) == explicit
    assert neighborhood_view_count(30, 3) == 122_670


def test_min_colors_required_is_exact():
    assert min_colors_required(436, 0.5, 1) == 109
    assert min_colors_required(436, 0.5, 2) == 73
    assert min_colors_required(436, 0.5, 3) == 55
    assert min_colors_required(436, Fraction(1, 2), 3) == 55
    # ceiling, not rounding
    assert min_colors_required(10, 0.5, 2) == 2


def test_certify_small_oversized_family_passes():
    fam = OrderFamily(436, 3, seed=0)
    cert = certify_family(fam, 1, 0.5)
    assert cert.passed
    assert cert.views_checked == 6
    assert cert.failures == 0
    assert cert.worst_count >= cert.min_required[1]
    assert cert.worst_fraction == Fraction(cert.worst_count, 436)


def test_certify_degree_zero_is_vacuous():
    cert = certify_family(OrderFamily(5, 4, seed=1), 0, 0.5)
    assert cert.passed
    assert cert.views_checked == 0
    assert cert.worst_view is None


def test_certify_reports_failures_for_a_tiny_family():
    # one single order cannot serve every view: losers win zero colors
    cert = certify_family(OrderFamily(1, 3, seed=0), 2, 0.5)
    assert not cert.passed
    assert cert.failures > 0
    assert cert.worst_count == 0
    assert cert.worst_view is not None


def test_certify_respects_the_view_budget():
    with pytest.raises(TooLarge):
        certify_family(OrderFamily(4, 30, seed=0), 3, 0.5, max_views=100)


def test_certified_family_passes_first_attempt_here():
    fam, cert, attempts = certified_family(8, 2, 0.75, seed=1, max_attempts=3)
    assert cert.passed
    assert attempts == 1
    assert fam.k == shared_palette_size(8, 2, 0.75)
    # deterministic end to end
    fam2, cert2, _ = certified_family(8, 2, 0.75, seed=1, max_attempts=3)
    assert fam2.ranks == fam.ranks
    assert cert2 == cert


# SHA-256 of coloring_to_json on criterion 2's graph at seed 0, taken when
# each draw was one randrange call and each selection a column minimum, and
# when the towers pruned a multi-value descent. Any change to the draw stream,
# the orders or a selection rule shows here.
GOLDEN_CRITERION_2 = {
    "algebraic-basic": "5d318e4e7c2ef3d6aeb266f3883e19392ed96b910f0bb81862a7fd094055f90a",
    "algebraic-weighted": "02737a25ae2c7d34d8aae95e45182978ac6ea35855c85946a9061dc2e865826a",
    "randomized": "6f50ba2bf2ff98c1a640900b75f1b251e69baffe503ccc1c35ec9f58f8672633",
    "shared-order": "98764600eaed8e4af11a7467e825323d4e9d579c07340d8fb3638f2da6163c38",
}


@pytest.mark.parametrize("algo", sorted(GOLDEN_CRITERION_2))
def test_criterion_2_colorings_are_byte_stable(algo):
    g = capped_graph(gnp_graph(200, 0.03, 200, seed=11), cap=8)
    m, _ = run_one_shot(g, algo, 0, eps=0.5)
    digest = hashlib.sha256(coloring_to_json(m).encode()).hexdigest()
    assert digest == GOLDEN_CRITERION_2[algo]


def test_run_shared_produces_a_valid_coloring():
    g = gnp_graph(25, 0.2, 60, seed=2)
    m = run_shared(g, 0.5, seed=1)
    assert verify(g, m).valid
    assert m.params["certified"] is False


def test_run_shared_with_certification():
    g = gnp_graph(8, 0.3, 9, seed=3)
    m = run_shared(g, 0.75, seed=1, certify_attempts=3)
    assert verify(g, m).valid
    assert m.params["certified"] is True
    assert m.params["attempts"] == 1


def test_run_shared_rejects_low_degree_bound():
    g = gnp_graph(25, 0.2, 60, seed=2)
    with pytest.raises(InvalidParams):
        run_shared(g, 0.5, seed=1, max_degree=0)


def test_run_shared_refuses_a_family_too_large_to_store():
    # 443 orders over a million ids: refused before a single rank is stored
    g = parse_edge_list("# N=1000000\n1 2\n")
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            run_shared(g, 0.5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_the_draws_guard_admits_the_largest_benchmark_run():
    k = randomized_palette_size(1000, 16, 0.5)
    assert k == 2819 and k * 1000 <= _MAX_DRAWS


def test_chernoff_regime_failure_rate():
    """View-level failures across many sampled families stay under the
    concentration bound's prediction (with a 10x safety factor).

    The win count of a degree-d view is Binomial(k, 1/(d+1)) across uniform
    orders, so the chance of falling below (1-eps)*k/(d+1) is at most
    exp(-eps^2 * k / (2*(d+1))). At k=436 that predicts (far) fewer than one
    failure in this sweep, so the observed count must respect the budget.
    """
    import random

    k = shared_palette_size(30, 3, 0.5)
    assert k == 436
    base = random.Random(99)
    probes = []
    for d in (1, 2, 3):
        for _ in range(4):
            ids = base.sample(range(1, 31), d + 1)
            probes.append((ids[0], tuple(ids[1:]), d))
    need = {d: min_colors_required(k, 0.5, d) for d in (1, 2, 3)}
    checks = {1: 0, 2: 0, 3: 0}
    fails = {1: 0, 2: 0, 3: 0}
    for i in range(1000):
        fam = OrderFamily(k, 30, seed=i)
        for x, gamma, d in probes:
            won = 0
            for rank in fam.ranks:
                rx = rank[x - 1]
                if all(rx < rank[y - 1] for y in gamma):
                    won += 1
            checks[d] += 1
            if won < need[d]:
                fails[d] += 1
    for d in (1, 2, 3):
        bound = math.exp(-0.25 * (k / (d + 1)) / 2)
        assert fails[d] <= 10 * bound * checks[d]
