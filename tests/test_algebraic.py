"""Polynomial-tower colorings: parameter search, selection, weighted union."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import (
    Infeasible,
    InvalidParams,
    OneHopView,
    TooLarge,
    TowerParams,
    WeightedScheme,
    build_weighted_scheme,
    choose_tower,
    clamp_depth,
    gnp_graph,
    next_prime,
    run_basic,
    run_weighted,
    tower_colors,
    verify,
    weighted_colors,
)
from multicolor import algebraic
from multicolor.algebraic import _iroot_ceil
from multicolor.graph import _unchecked_view
from multicolor.algebraic import (
    _MAX_PALETTE,
    _MEMO_COLORS,
    _ROW_RESULTS,
    tower_color_from_index,
    tower_color_indices,
    weighted_color_indices,
)
from test_gf import digits, horner


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


def search_tower_oracle(id_space, max_degree, depth, slack):
    """(qs, ds) of a tower, every level chosen by the reference search."""
    qs, ds = [], []
    domain = id_space
    for _ in range(clamp_depth(id_space, max_degree, depth) + 1):
        q, d = search_level_oracle(domain, max_degree, slack)
        qs.append(q)
        ds.append(d)
        domain = q
    return tuple(qs), tuple(ds)


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
    assert p.slack == Fraction(3)
    assert p.qs[0] >= 3 * 4 * p.ds[0]


def test_choose_tower_infeasible_past_the_prime_cap():
    with pytest.raises(Infeasible):
        choose_tower(100, 2**62)


@pytest.mark.parametrize("max_degree, q, d", [(2, 577, 144), (3, 823, 137), (8, 1949, 121)])
def test_choose_tower_takes_an_id_space_beyond_floats(max_degree, q, d):
    p = choose_tower(10**400, max_degree)
    assert (p.qs, p.ds) == ((q,), (d,))


@pytest.mark.parametrize("slack", [2, Fraction(3, 2), 3])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 8])
def test_choose_tower_equals_the_full_degree_scan(max_degree, slack):
    """Stopping the scan once slack * Delta * d passes the best prime keeps
    every level's choice, at every depth; Delta = 0 scans every degree."""
    for id_space in (2, 3, 30, 1000, 10**6, 10**8):
        for depth in (0, 1, 2):
            p = choose_tower(id_space, max_degree, depth, slack)
            assert (p.qs, p.ds) == search_tower_oracle(id_space, max_degree, depth, slack)


def test_choose_tower_stops_its_degree_scan(monkeypatch):
    """At N = 10^400 and Delta = 16 the full scan searches 1309 primes."""
    calls = []

    def counted(m):
        calls.append(m)
        return next_prime(m)

    monkeypatch.setattr(algebraic, "next_prime", counted)
    with pytest.raises(TooLarge):
        choose_tower(10**400, 16)
    assert len(calls) == 92


@settings(max_examples=300)
@given(st.integers(0, 2**1400), st.integers(1, 200))
def test_iroot_ceil_is_the_exact_ceiling_root(n, e):
    r = _iroot_ceil(n, e)
    assert r >= 1 and r**e >= n
    assert r == 1 or (r - 1) ** e < n


def test_clamp_depth_frozen_values():
    assert clamp_depth(100, 50, 3) == 0
    assert clamp_depth(10**6, 3, 2) == 1
    assert clamp_depth(10, 2, 0) == 0
    assert clamp_depth(10**400, 3, 3) == 2  # log log 10^400 = 6.8, log 6.8 < 3
    with pytest.raises(InvalidParams):
        clamp_depth(10, 2, -1)


def test_deep_tower_levels_chain_their_domains():
    p = choose_tower(10**6, 3, depth=1)
    assert p.depth == 1
    assert p.qs[0] ** (p.ds[0] + 1) >= 10**6
    assert p.qs[1] ** (p.ds[1] + 1) >= p.qs[0]


def test_tower_params_validation():
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(9,), ds=(1,), slack=2)  # 9 not prime
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5,), ds=(0,), slack=2)
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5,), ds=(1,), slack=1)  # slack must exceed 1
    with pytest.raises(InvalidParams):
        TowerParams(100, 2, qs=(5,), ds=(1,), slack=2)  # 25 < 100
    with pytest.raises(InvalidParams):
        TowerParams(10, 4, qs=(5,), ds=(1,), slack=2)  # 5 < 2*4*1
    with pytest.raises(InvalidParams):
        TowerParams(10, 2, qs=(5, 3), ds=(1,), slack=2)
    with pytest.raises(InvalidParams, match="id space"):
        TowerParams(0, 2, qs=(5,), ds=(1,), slack=2)
    with pytest.raises(InvalidParams, match=r"^degree -1 is not an int in \[0, inf\]$"):
        TowerParams(10, -1, qs=(5,), ds=(1,), slack=2)


@pytest.mark.parametrize("bad", [2.5, 2.0, True], ids=["float", "integral-float", "bool"])
def test_a_degree_bound_that_is_not_an_int_is_refused(bad):
    with pytest.raises(InvalidParams, match=rf"^degree {bad!r} is not an int in \[0, inf\]$"):
        choose_tower(10, bad)
    with pytest.raises(InvalidParams, match=rf"^degree {bad!r} is not an int in \[0, inf\]$"):
        TowerParams(10, bad, qs=(11,), ds=(1,), slack=2)
    with pytest.raises(InvalidParams, match=f"^max degree {bad!r} is not an int >= 1$"):
        WeightedScheme(10, bad, 0.5)


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_slack_is_refused(slack):
    with pytest.raises(InvalidParams, match="slack"):
        choose_tower(1000, 4, slack=slack)
    with pytest.raises(InvalidParams, match="slack"):
        TowerParams(10, 2, qs=(5,), ds=(1,), slack=slack)
    with pytest.raises(InvalidParams, match="slack"):
        build_weighted_scheme(1000, 4, 0.5, slack=slack)


def test_tower_params_derived_quantities():
    p = TowerParams(20, 2, qs=(7, 5), ds=(1, 1), slack=Fraction(3, 2))
    assert p.depth == 1
    assert p.palette_size == 5 * 7 * 5
    assert p.guaranteed_colors == (7 - 2) * (5 - 2)
    assert p.slack == Fraction(3, 2)
    assert p.to_json_dict() == {
        "id_space": 20, "max_degree": 2, "q": [7, 5], "d": [1, 1], "f": ["3/2", "3/2"],
        "palette_size": 175,
    }


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


def tower_color_index(params, color):
    """Layout oracle: 1-based palette index of (alpha_0..alpha_ell, beta), mixed radix."""
    idx = 0
    for digit, radix in zip(color, params.qs + (params.qs[-1],)):
        idx = idx * radix + digit
    return idx + 1


def weighted_color_index(scheme, wc):
    """Layout oracle: 1-based palette index of (color, instance, copy), copies flat."""
    color, i, j = wc
    offset = sum(
        w * inst.palette_size for w, inst in zip(scheme.weights[: i - 1], scheme.instances)
    )
    inst = scheme.instances[i - 1]
    return offset + (j - 1) * inst.palette_size + tower_color_index(inst, color)


def brute_force_tower(view, params):
    """Reference selection: re-encode level by level, keep a color iff the
    node's final value differs from every neighbor's final value. No early
    pruning, so agreement with tower_colors also checks that pruned branches
    could never have produced a color."""
    ids = [view.node_id - 1] + [y - 1 for y in sorted(view.neighbors)]
    out = set()

    def walk(level, values, prefix):
        q = params.qs[level]
        polys = [digits(v, q, params.ds[level]) for v in values]
        for alpha in range(q):
            nxt = [horner(p, alpha, q) for p in polys]
            if level == params.depth:
                if all(nxt[0] != b for b in nxt[1:]):
                    out.add(prefix + (alpha, nxt[0]))
            else:
                walk(level + 1, nxt, prefix + (alpha,))

    walk(0, ids, ())
    return frozenset(out)


def test_tower_matches_brute_force_single_level():
    p = TowerParams(25, 2, qs=(7,), ds=(1,), slack=2)
    rng = random.Random(3)
    for _ in range(60):
        ids = rng.sample(range(1, 26), rng.randrange(1, 4))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        expected = brute_force_tower(view, p)
        assert tower_colors(view, p) == expected
        assert tower_color_indices(view, p) == tuple(
            sorted(tower_color_index(p, c) for c in expected)
        )


def test_tower_matches_brute_force_two_levels():
    p = TowerParams(25, 2, qs=(7, 5), ds=(1, 1), slack=Fraction(3, 2))
    rng = random.Random(4)
    for _ in range(40):
        ids = rng.sample(range(1, 26), rng.randrange(1, 4))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        expected = brute_force_tower(view, p)
        assert tower_colors(view, p) == expected
        assert tower_color_indices(view, p) == tuple(
            sorted(tower_color_index(p, c) for c in expected)
        )


@st.composite
def small_towers_and_views(draw):
    """A valid tower of one or two levels over primes q <= 13, and a view of degree <= 3."""
    max_degree = draw(st.integers(0, 3))
    slack = draw(st.sampled_from([Fraction(9, 8), Fraction(3, 2), Fraction(2)]))

    def level(domain):
        return draw(st.sampled_from([
            (q, d) for q in (2, 3, 5, 7, 11, 13) for d in (1, 2, 3)
            if q ** (d + 1) >= domain and q >= slack * max_degree * d
        ]))

    levels = [level(1)]
    id_space = draw(st.integers(1, min(levels[0][0] ** (levels[0][1] + 1), 500)))
    if draw(st.booleans()):
        levels.append(level(levels[0][0]))
    qs, ds = zip(*levels)
    p = TowerParams(id_space, max_degree, qs, ds, slack)
    ids = draw(st.lists(
        st.integers(1, id_space), min_size=1, max_size=max_degree + 1, unique=True
    ))
    return p, OneHopView(ids[0], frozenset(ids[1:]))


@settings(max_examples=200, deadline=None)
@given(small_towers_and_views())
def test_tower_matches_brute_force_on_small_towers(tower_and_view):
    p, view = tower_and_view
    expected = brute_force_tower(view, p)
    assert tower_color_indices(view, p) == tuple(
        sorted(tower_color_index(p, c) for c in expected)
    )


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
        expected = tuple(sorted(tower_color_index(p, c) for c in brute_force_tower(view, p)))
        assert tower_color_indices(view, p) == expected
        assert memo.cache_info().currsize <= limit
    for view in views[-2:]:  # the second view of one id fills the row
        tower_color_indices(OneHopView(view.node_id, frozenset()), p)
        tower_color_indices(view, p)
    assert p._row[3] is not None
    fresh = choose_tower(10**6, 8, depth=1)  # neither the memo nor the row is part of the value
    assert (p, hash(p), repr(p)) == (fresh, hash(fresh), repr(fresh))


# -- packed kernels against their loop oracles -------------------------------


def horner_free_colors(params, x):
    """Loop oracle of M(x): one Horner evaluation per alpha, level by level,
    each leaf the 1-based mixed-radix index of (alpha_0..alpha_ell, beta_x)."""
    qs, ds = params.qs, params.ds
    strides = [qs[-1] * math.prod(qs[i + 1 :]) for i in range(params.depth + 1)]

    def leaves(level, value):
        q = qs[level]
        coeffs = digits(value, q, ds[level])
        out = []
        for alpha in range(q):
            beta = horner(coeffs, alpha, q)
            if level == params.depth:
                out.append(alpha * strides[level] + beta + 1)
            else:
                out += [alpha * strides[level] + t for t in leaves(level + 1, beta)]
        return out

    return tuple(leaves(0, x - 1))


def set_difference_rule(view, params):
    """Loop oracle of the exclusion: M(x) minus the union of the neighbors' M(y), as sets."""
    own = horner_free_colors(params, view.node_id)
    kept = set(own).difference(*(horner_free_colors(params, y) for y in view.neighbors))
    return tuple(filter(kept.__contains__, own))


def packed_fields(packed, count, width):
    """The count width-byte fields of a packed int, least significant first."""
    raw = packed.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def evaluated(q, d, value):
    """algebraic._evaluate's packed values, unpacked."""
    packed, width = algebraic._evaluate(q, d, value)
    assert width % 4 == 0
    return packed_fields(packed, q, width)


@pytest.mark.parametrize("q, d", [(2, 1), (2, 4), (3, 2), (5, 3), (7, 1), (7, 3), (13, 2)])
def test_packed_evaluation_equals_horner_at_every_value(q, d):
    for value in range(q ** (d + 1)):
        coeffs = digits(value, q, d)
        assert evaluated(q, d, value) == [horner(coeffs, a, q) for a in range(q)]


@pytest.mark.parametrize("q", [257, 809, 3163])
def test_packed_evaluation_equals_horner_above_a_byte(q):
    rng = random.Random(q)
    for d in range(1, 7):
        # the largest value, all digits q - 1, gives every field its largest sum
        for value in [q ** (d + 1) - 1] + [rng.randrange(q ** (d + 1)) for _ in range(10)]:
            coeffs = digits(value, q, d)
            assert evaluated(q, d, value) == [horner(coeffs, a, q) for a in range(q)]


RULE_TOWERS = {
    "N30-D3": (30, 3, 0),
    "N1e6-D16": (10**6, 16, 0),
    "N1e6-D64": (10**6, 64, 0),  # q = 257: betas above a byte
    "N1e6-D8-depth1": (10**6, 8, 1),
    "N1e7-D2-depth2": (10**7, 2, 2),
}


@pytest.mark.parametrize("name", sorted(RULE_TOWERS))
def test_packed_rule_equals_the_set_difference_oracle(name):
    id_space, max_degree, depth = RULE_TOWERS[name]
    p = choose_tower(id_space, max_degree, depth)
    assert p.depth == depth
    rng = random.Random(name)
    for _ in range(12 if max_degree > 16 else 40):
        ids = rng.sample(range(1, id_space + 1), rng.randrange(1, max_degree + 2))
        view = OneHopView(ids[0], frozenset(ids[1:]))
        assert tower_color_indices(view, p) == set_difference_rule(view, p)
        colors, betas = p._free_colors(view.node_id)
        assert colors == horner_free_colors(p, view.node_id)
        q = p.qs[-1]
        assert packed_fields(betas, len(colors), 4) == [(c - 1) % q for c in colors]


@pytest.mark.parametrize("shape", [(100, 2, 0), (10**6, 64, 0), (10**6, 8, 1)], ids=str)
def test_out_of_range_ids_are_refused_as_own_id_and_as_neighbor(shape):
    p = choose_tower(*shape)
    n = p.id_space
    # unchecked views: OneHopView itself refuses an id below 1
    for bad in (0, n + 1):  # a fresh tower: no row yet
        with pytest.raises(InvalidParams, match=f"id {bad} outside"):
            tower_color_indices(_unchecked_view(bad, frozenset()), choose_tower(*shape))
    tower_color_indices(OneHopView(1, frozenset({2})), p)  # the memo is warm
    for bad in (0, n + 1):
        with pytest.raises(InvalidParams, match=f"id {bad} outside"):
            tower_color_indices(_unchecked_view(bad, frozenset({1})), p)
        with pytest.raises(InvalidParams, match=f"id {bad} outside"):
            tower_color_indices(_unchecked_view(1, frozenset({2, bad})), p)


# -- the exclusion row of the last own id -------------------------------------


def all_views(id_space, max_degree):
    """Every view of the space, own id by own id as a certificate sweep takes them."""
    for x in range(1, id_space + 1):
        others = [y for y in range(1, id_space + 1) if y != x]
        for d in range(max_degree + 1):
            for gamma in itertools.combinations(others, d):
                yield OneHopView(x, frozenset(gamma))


def test_the_row_gives_the_oracle_in_any_view_order():
    p = choose_tower(12, 3)
    views = list(all_views(12, 3))
    expected = {view: set_difference_rule(view, p) for view in views}
    shuffled = random.Random(12).sample(views, len(views))
    for order in (views, shuffled):
        fresh = choose_tower(12, 3)
        assert [tower_color_indices(v, fresh) for v in order] == [expected[v] for v in order]
    # two towers swept side by side: each keeps a row of its own
    other = choose_tower(12, 3, slack=3)
    assert other.qs != p.qs
    for view in views:
        assert tower_color_indices(view, p) == expected[view]
        assert tower_color_indices(view, other) == set_difference_rule(view, other)
    assert p._row[0] == other._row[0] == 12 and p._row[3] is not None


def test_a_refused_view_leaves_the_row_of_its_own_id():
    p = choose_tower(12, 3)
    n = p.id_space
    for bad in (0, n + 1):
        for gamma in ({2}, {2, 3}):  # the second view of 1 fills the row
            tower_color_indices(OneHopView(1, frozenset(gamma)), p)
        with pytest.raises(InvalidParams, match=f"id {bad} outside"):
            tower_color_indices(_unchecked_view(bad, frozenset({2})), p)
        view = OneHopView(1, frozenset({2, 4}))
        assert tower_color_indices(view, p) == set_difference_rule(view, p)
        with pytest.raises(InvalidParams, match=f"id {bad} outside"):
            tower_color_indices(_unchecked_view(1, frozenset({2, 5, bad})), p)
        view = OneHopView(1, frozenset({2, 5, 6}))
        assert tower_color_indices(view, p) == set_difference_rule(view, p)
        assert p._row[0] == 1 and set(p._row[3]) == {2, 3, 4, 5, 6}


def test_the_row_keeps_its_results_and_blocks_within_their_bounds(monkeypatch):
    # q = 97: the kept colors of one id take far more than _ROW_RESULTS values
    monkeypatch.setattr(algebraic, "_MEMO_COLORS", 97 * 200)  # 200 ids, and blocks
    p = choose_tower(10**6, 16)
    assert p.qs == (97,)
    rng = random.Random(16)
    x = 777_777
    pool = rng.sample(range(1, 10**6 + 1), 400)
    own = horner_free_colors(p, x)
    free = {y: set(horner_free_colors(p, y)) for y in pool}
    results = set()
    for _ in range(_ROW_RESULTS + 600):
        gamma = rng.sample(pool, 8)
        kept = tower_color_indices(OneHopView(x, frozenset(gamma)), p)
        assert kept == tuple(c for c in own if not any(c in free[y] for y in gamma))
        results.add(kept)
    assert len(results) > _ROW_RESULTS
    row_x, _, _, blocks, kept_by_alive = p._row
    assert row_x == x and len(kept_by_alive) == _ROW_RESULTS and len(blocks) == 200


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


@pytest.mark.parametrize("max_degree, palette", [(256, 519_557_155), (1000, 8_422_975_683)])
def test_weighted_palette_above_its_guard_is_refused(max_degree, palette):
    # only the scheme is built: no node colors, which would take many GB
    with pytest.raises(TooLarge, match=str(palette)):
        build_weighted_scheme(10**6, max_degree, 1)
    assert build_weighted_scheme(10**6, 16, 1).palette_size <= _MAX_PALETTE


# sha256 of json.dumps(build_weighted_scheme(10**6, 16, 0.5).to_json_dict(),
# sort_keys=True): the 103,720-color scheme of a degree-16 graph over 10^6 ids
GOLDEN_WEIGHTED_SCHEME = "3eb7ec608d723cd0620bff77d78a5453d9db7bfc384d7c9bf4756cf65a166a6b"


def test_weighted_scheme_is_pinned_and_built_through_choose_tower(monkeypatch):
    calls = []
    choose = algebraic.choose_tower
    monkeypatch.setattr(algebraic, "choose_tower", lambda *a: calls.append(a) or choose(*a))
    s = build_weighted_scheme(10**6, 16, 0.5)
    assert s.palette_size == 103_720
    text = json.dumps(s.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WEIGHTED_SCHEME
    assert [a[1] for a in calls] == [2, 4, 8, 16]  # one tower a degree scale
    with pytest.raises(TypeError):
        WeightedScheme(10**6, 16, 0.5, instances=s.instances, weights=s.weights)


@pytest.mark.parametrize(
    "args, palette", [((10**400, 16), 12_909_649), ((3, 2, 0, 1e7), 400_000_120_000_009)]
)
def test_tower_palette_above_its_guard_is_refused(args, palette):
    with pytest.raises(TooLarge, match=f"^{palette} tower palette colors exceed the guard of {_MAX_PALETTE}$"):
        choose_tower(*args)
    assert choose_tower(10**6, 16).palette_size <= _MAX_PALETTE


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
        assert idx == tuple(sorted(weighted_color_index(s, wc) for wc in out))
        indices[v] = idx
    for a, b in g.edges():
        assert set(indices[a]).isdisjoint(indices[b])


def test_weighted_scheme_validation():
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 4, 1.5)
    with pytest.raises(InvalidParams):
        WeightedScheme(50, 0, 0.5)
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
    assert tower_color_indices(view, p) == tuple(sorted(tower_color_index(p, c) for c in out))
