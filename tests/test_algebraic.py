"""Polynomial-tower colorings: parameter search, selection, weighted union."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import (
    Infeasible,
    InvalidParams,
    OneHopView,
    PrimeField,
    TowerParams,
    WeightedScheme,
    build_weighted_scheme,
    choose_tower,
    clamp_depth,
    encode_value,
    gnp_graph,
    next_prime,
    poly_eval,
    run_basic,
    run_weighted,
    tower_colors,
    verify,
    weighted_colors,
)
from multicolor.algebraic import (
    _MEMO_COLORS,
    tower_color_from_index,
    tower_color_index,
    tower_color_indices,
    weighted_color_index,
    weighted_color_indices,
)


def search_level_oracle(domain, max_degree, slack):
    """Reference search for one level: smallest q, ties to smaller d."""
    best = None
    d_cap = max(1, math.ceil(math.log2(max(domain, 2))))
    for d in range(1, d_cap + 1):
        r = 1
        while r ** (d + 1) < domain:
            r += 1
        q = next_prime(max(2, r, math.ceil(slack * max_degree * d)))
        if best is None or q < best[0]:
            best = (q, d)
    return best


# -- parameter choice --------------------------------------------------------


def test_choose_tower_frozen_values():
    p = choose_tower(10**6, 8)
    assert p.qs == (53,) and p.ds == (3,)
    assert p.palette_size == 2809
    assert p.guaranteed_colors == 29
    tiny = choose_tower(4, 1)
    assert tiny.qs == (2,) and tiny.ds == (1,)
    assert tiny.palette_size == 4


def test_choose_tower_matches_reference_search():
    rng = random.Random(12)
    for _ in range(40):
        id_space = rng.randrange(2, 10**6)
        max_degree = rng.randrange(0, 20)
        p = choose_tower(id_space, max_degree)
        assert (p.qs[0], p.ds[0]) == search_level_oracle(id_space, max_degree, 2)


def test_choose_tower_respects_slack_profiles():
    p = choose_tower(1000, 4, slack=3)
    assert p.fs == (Fraction(3),)
    assert p.qs[0] >= 3 * 4 * p.ds[0]


def test_choose_tower_infeasible_past_the_prime_cap():
    with pytest.raises(Infeasible):
        choose_tower(100, 2**62)


def test_clamp_depth_frozen_values():
    assert clamp_depth(100, 50, 3) == 0
    assert clamp_depth(10**6, 3, 2) == 1
    assert clamp_depth(10, 2, 0) == 0
    with pytest.raises(InvalidParams):
        clamp_depth(10, 2, -1)


def test_deep_tower_levels_chain_their_domains():
    p = choose_tower(10**6, 3, depth=1)
    assert p.depth == 1
    assert p.qs[0] ** (p.ds[0] + 1) >= 10**6
    assert p.qs[1] ** (p.ds[1] + 1) >= p.qs[0]


def test_tower_params_validation():
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(9,), ds=(1,), fs=(2,))  # 9 not prime
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5,), ds=(0,), fs=(2,))
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5,), ds=(1,), fs=(1,))  # slack must exceed 1
    with pytest.raises(InvalidParams):
        TowerParams(100, 2, qs=(5,), ds=(1,), fs=(2,))  # 25 < 100
    with pytest.raises(InvalidParams):
        TowerParams(10, 4, qs=(5,), ds=(1,), fs=(2,))  # 5 < 2*4*1
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5, 3), ds=(1,), fs=(2,))


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_slack_is_refused(slack):
    with pytest.raises(InvalidParams, match="slack"):
        choose_tower(1000, 4, slack=slack)
    with pytest.raises(InvalidParams, match="slack"):
        TowerParams(10, 2, qs=(5,), ds=(1,), fs=(slack,))
    with pytest.raises(InvalidParams, match="slack"):
        build_weighted_scheme(1000, 4, 0.5, slack=slack)


def test_tower_params_derived_quantities():
    p = TowerParams(20, 2, qs=(7, 5), ds=(1, 1), fs=(2, Fraction(3, 2)))
    assert p.depth == 1
    assert p.palette_size == 5 * 7 * 5
    assert p.guaranteed_colors == (7 - 2) * (5 - 2)
    assert p.retention == Fraction(1, 2) * Fraction(1, 3)
    assert TowerParams.from_json_dict(p.to_json_dict()) == p


# -- color selection -----------------------------------------------------------


def test_tower_colors_worked_example():
    p = choose_tower(4, 1)
    assert tower_colors(OneHopView(1, frozenset({2})), p) == {(0, 0), (1, 0)}
    assert tower_colors(OneHopView(2, frozenset({1})), p) == {(0, 1), (1, 1)}


def test_degree_zero_keeps_one_color_per_point_tuple():
    p = choose_tower(4, 1)
    assert len(tower_colors(OneHopView(3, frozenset()), p)) == 2  # = q0
    deep = choose_tower(10**6, 3, depth=1)
    free = tower_colors(OneHopView(123, frozenset()), deep)
    assert len(free) == math.prod(deep.qs)


def test_view_validation():
    p = choose_tower(100, 2)
    with pytest.raises(InvalidParams):
        tower_colors(OneHopView(1, frozenset({2, 3, 4})), p)
    with pytest.raises(InvalidParams):
        tower_colors(OneHopView(101, frozenset({1})), p)
    with pytest.raises(InvalidParams):
        tower_colors(OneHopView(1, frozenset({101})), p)


def brute_force_tower(view, params):
    """Reference selection: re-encode level by level, keep a color iff the
    node's final value differs from every neighbor's final value. No early
    pruning, so agreement with tower_colors also checks that pruned branches
    could never have produced a color."""
    ids = [view.node_id - 1] + [y - 1 for y in sorted(view.neighbors)]
    fields = [PrimeField(q) for q in params.qs]
    out = set()

    def walk(level, values, prefix):
        polys = [encode_value(v, fields[level], params.ds[level]) for v in values]
        for alpha in range(params.qs[level]):
            nxt = [poly_eval(p, alpha) for p in polys]
            if level == params.depth:
                if all(nxt[0] != b for b in nxt[1:]):
                    out.add(prefix + (alpha, nxt[0]))
            else:
                walk(level + 1, nxt, prefix + (alpha,))

    walk(0, ids, ())
    return frozenset(out)


def test_tower_matches_brute_force_single_level():
    p = TowerParams(25, 2, qs=(7,), ds=(1,), fs=(2,))
    rng = random.Random(3)
    for _ in range(60):
        ids = rng.sample(range(1, 26), rng.randrange(1, 4))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        expected = brute_force_tower(view, p)
        assert tower_colors(view, p) == expected
        assert tower_color_indices(view, p) == {
            tower_color_index(p, c) for c in expected
        }


def test_tower_matches_brute_force_two_levels():
    p = TowerParams(25, 2, qs=(7, 5), ds=(1, 1), fs=(Fraction(3, 2), Fraction(3, 2)))
    rng = random.Random(4)
    for _ in range(40):
        ids = rng.sample(range(1, 26), rng.randrange(1, 4))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        expected = brute_force_tower(view, p)
        assert tower_colors(view, p) == expected
        assert tower_color_indices(view, p) == {
            tower_color_index(p, c) for c in expected
        }


def random_views(rng, id_space, max_degree, count):
    for _ in range(count):
        ids = rng.sample(range(1, id_space + 1), rng.randrange(1, max_degree + 2))
        yield OneHopView(ids[0], frozenset(ids[1:]))


# SHA-256 of the sorted kept indices of 300 seeded random views, taken when the
# selection pruned a multi-value descent. Keys are (N, Delta, depth asked),
# values (depth clamp_depth allows, digest).
GOLDEN_TOWER_VIEWS = {
    (10**4, 8, 1): (1, "6c52470504f5982560e6dd30d299104a0b7d34284a4b05e55d03018699e33e45"),
    (10**6, 8, 2): (1, "6208f38f99cdb343fb6ebfa7b2c4cae2bb23013212764eb67ad75495d60dc400"),
    (10**7, 2, 2): (2, "a0a2a3e8837f4d40742e4d460257e53d89de540dec49ebfbd132a21c389ec16e"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_TOWER_VIEWS), ids=str)
def test_tower_selection_is_byte_stable(shape):
    depth, digest = GOLDEN_TOWER_VIEWS[shape]
    id_space, max_degree, _ = shape
    p = choose_tower(*shape)
    assert p.depth == depth
    h = hashlib.sha256()
    for view in random_views(random.Random(0), id_space, max_degree, 300):
        h.update(repr(sorted(tower_color_indices(view, p))).encode())
    assert h.hexdigest() == digest


def test_memo_stays_within_its_budget_under_eviction():
    p = choose_tower(10**6, 8, depth=1)
    memo = p._free_colors
    limit = _MEMO_COLORS // math.prod(p.qs)
    assert memo.cache_info().maxsize == limit
    rng = random.Random(1)
    views = list(random_views(rng, 10**6, 8, limit // 3))
    for view in views:
        tower_color_indices(view, p)
        assert memo.cache_info().currsize <= limit
    info = memo.cache_info()
    assert info.currsize == limit and info.misses > limit  # entries were evicted
    for view in rng.sample(views, 5) + list(random_views(rng, 10**6, 8, 5)):
        expected = {tower_color_index(p, c) for c in brute_force_tower(view, p)}
        assert tower_color_indices(view, p) == expected
        assert memo.cache_info().currsize <= limit
    fresh = choose_tower(10**6, 8, depth=1)  # the memo is no part of the value
    assert (p, hash(p), repr(p)) == (fresh, hash(fresh), repr(fresh))


def test_count_never_falls_below_the_guarantee():
    p = choose_tower(1000, 4)
    rng = random.Random(5)
    for _ in range(200):
        ids = rng.sample(range(1, 1001), rng.randrange(1, 6))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        assert len(tower_colors(view, p)) >= p.guaranteed_colors


def test_adjacent_views_select_disjoint_colors():
    g = gnp_graph(60, 0.1, 500, seed=9)
    p = choose_tower(500, g.max_degree())
    views = {v: g.view(v) for v in g.node_ids()}
    sets = {v: tower_colors(views[v], p) for v in g.node_ids()}
    for a, b in g.edges():
        assert not sets[a] & sets[b]


def test_color_index_round_trip():
    p = choose_tower(100, 3, depth=0)
    view = OneHopView(17, frozenset({4, 99}))
    for color in tower_colors(view, p):
        idx = tower_color_index(p, color)
        assert 1 <= idx <= p.palette_size
        assert tower_color_from_index(p, idx) == color
    with pytest.raises(InvalidParams):
        tower_color_index(p, (0,))
    with pytest.raises(InvalidParams):
        tower_color_index(p, (0, p.qs[0]))
    with pytest.raises(InvalidParams):
        tower_color_from_index(p, 0)
    with pytest.raises(InvalidParams):
        tower_color_from_index(p, p.palette_size + 1)


def test_index_map_is_a_bijection_on_a_small_palette():
    p = choose_tower(4, 1)
    seen = {tower_color_from_index(p, i) for i in range(1, p.palette_size + 1)}
    assert len(seen) == p.palette_size
    for color in seen:
        assert tower_color_from_index(p, tower_color_index(p, color)) == color


def test_run_basic_is_valid_and_deterministic():
    g = gnp_graph(30, 0.15, 80, seed=1)
    m1 = run_basic(g)
    m2 = run_basic(g)
    assert m1 == m2
    assert verify(g, m1).valid
    assert m1.params["algorithm"] == "algebraic-basic"


# -- weighted union ------------------------------------------------------------


def test_weighted_scheme_frozen_shape():
    s = build_weighted_scheme(10**4, 8, 0.5)
    assert s.levels == 3
    assert [inst.max_degree for inst in s.instances] == [2, 4, 8]
    assert [inst.qs for inst in s.instances] == [(13,), (23,), (37,)]
    assert [inst.palette_size for inst in s.instances] == [169, 529, 1369]
    assert s.weights == (23, 6, 2)
    assert s.palette_size == 9799
    assert s.guaranteed_fraction(1) == Fraction(293, 9799)
    assert s.guaranteed_fraction(4) == Fraction(132, 9799)
    assert s.guaranteed_fraction(8) == Fraction(42, 9799)


def test_weight_formula():
    s = build_weighted_scheme(10**4, 8, 0.5)
    top = s.instances[-1].palette_size
    for i in range(1, s.levels + 1):
        boost = (8 / 2 ** (i - 1)) ** 0.5
        expected = math.ceil(boost * Fraction(top, s.instances[i - 1].palette_size))
        assert s.weights[i - 1] == expected


def test_weights_with_exact_exponents():
    flat = build_weighted_scheme(200, 8, 0)
    top = flat.instances[-1].palette_size
    for i, inst in enumerate(flat.instances, start=1):
        assert flat.weights[i - 1] == math.ceil(Fraction(top, inst.palette_size))
    linear = build_weighted_scheme(200, 8, 1)
    for i, inst in enumerate(linear.instances, start=1):
        assert linear.weights[i - 1] == math.ceil(
            Fraction(8, 2 ** (i - 1)) * Fraction(top, inst.palette_size)
        )


def test_single_instance_collapse_at_degree_one():
    s = build_weighted_scheme(50, 1, 0)
    assert s.levels == 1
    assert s.weights == (1,)
    assert s.instances[0].max_degree == 2
    view = OneHopView(3, frozenset({7}))
    basic = tower_colors(view, s.instances[0])
    assert weighted_colors(view, s) == {(c, 1, 1) for c in basic}


def test_degree_selects_the_instance_range():
    s = build_weighted_scheme(10**4, 8, 0.5)
    rng = random.Random(6)
    for degree, lowest in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        ids = rng.sample(range(1, 10**4 + 1), degree + 1)
        view = OneHopView(ids[0], frozenset(ids[1:]))
        used = {i for _, i, _ in weighted_colors(view, s)}
        assert s.lowest_instance(degree) == lowest
        assert used == set(range(lowest, 4))


def test_every_copy_of_a_kept_color_is_kept():
    s = build_weighted_scheme(300, 4, 0.5)
    view = OneHopView(5, frozenset({9, 44}))
    out = weighted_colors(view, s)
    expected = 0
    for i in range(s.lowest_instance(2), s.levels + 1):
        expected += s.weights[i - 1] * len(tower_colors(view, s.instances[i - 1]))
    assert len(out) == expected
    for c, i, j in out:
        assert 1 <= j <= s.weights[i - 1]


def test_guaranteed_fraction_is_monotone_in_degree():
    s = build_weighted_scheme(10**4, 8, 0.5)
    fracs = [s.guaranteed_fraction(d) for d in range(1, 9)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_weighted_index_round_trip_and_disjointness():
    s = build_weighted_scheme(300, 8, 0.5)
    g = gnp_graph(40, 0.1, 300, seed=7)
    assert g.max_degree() <= 8
    indices = {}
    for v in g.node_ids():
        view = g.view(v)
        out = weighted_colors(view, s)
        idx = weighted_color_indices(view, s)
        assert len(idx) == len(out)  # the flat layout never collides
        assert all(1 <= i <= s.palette_size for i in idx)
        for wc in out:
            assert 1 <= weighted_color_index(s, wc) <= s.palette_size
        assert idx == {weighted_color_index(s, wc) for wc in out}
        indices[v] = idx
    for a, b in g.edges():
        assert not indices[a] & indices[b]


def test_weighted_index_rejects_foreign_tuples():
    s = build_weighted_scheme(300, 4, 0.5)
    with pytest.raises(InvalidParams):
        weighted_color_index(s, ((0, 0), 5, 1))
    with pytest.raises(InvalidParams):
        weighted_color_index(s, ((0, 0), 1, s.weights[0] + 1))


def test_weighted_scheme_validation():
    inst2 = choose_tower(50, 2)
    inst4 = choose_tower(50, 4)
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 4, 0.5, (inst2,), (1,))  # needs two instances
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 4, 0.5, (inst4, inst2), (1, 1))  # wrong scales
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 4, 0.5, (inst2, inst4), (1, 0))
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 4, 1.5, (inst2, inst4), (1, 1))
    with pytest.raises(InvalidParams):
        WeightedScheme(60, 4, 0.5, (inst2, inst4), (1, 1))  # id space mismatch
    with pytest.raises(InvalidParams):
        s = build_weighted_scheme(50, 4, 0.5)
        s.lowest_instance(5)


def test_run_weighted_is_valid():
    g = gnp_graph(35, 0.12, 120, seed=8)
    m = run_weighted(g, 0.5)
    assert verify(g, m).valid
    assert m.params["algorithm"] == "algebraic-weighted"


@settings(max_examples=60)
@given(st.data())
def test_tower_selection_is_well_formed(data):
    p = choose_tower(200, 3)
    ids = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=200),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    view = OneHopView(ids[0], frozenset(ids[1:]))
    out = tower_colors(view, p)
    assert len(out) >= p.guaranteed_colors
    for color in out:
        assert len(color) == p.depth + 2
        assert all(0 <= c for c in color)
        idx = tower_color_index(p, color)
        assert tower_color_from_index(p, idx) == color
    assert tower_color_indices(view, p) == {tower_color_index(p, c) for c in out}
