"""Randomized draws and shared-order families, with exhaustive certificates."""

import dataclasses
import hashlib
import math
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import (
    InvalidParams,
    NodeEnvelope,
    OneHopView,
    TooLarge,
    OrderFamily,
    certified_family,
    certify_family,
    certify_on_neighborhood,
    generate_draws,
    gnp_graph,
    parse_edge_list,
    randomized_palette_size,
    run_randomized,
    run_shared,
    select_by_orders,
    select_colors,
    shared_palette_size,
    unit_disk_graph,
    verify,
)
from multicolor.coloring import coloring_to_json
from multicolor import permcolor
from multicolor.permcolor import (
    _KEY_MEMO_BYTES,
    _MAX_DRAWS,
    PackedWords,
    _cut_stream,
    _field_masks,
    min_colors_required,
)
from multicolor.rng import keyed_rng
from multicolor.simulator import build_program, replay_view, run_one_shot
from multicolor.verifier import VIOLATION_CAP
from multicolor.verifier import nbr_vertex_count as neighborhood_view_count
from test_acceptance import capped_graph


# -- palette sizes ---------------------------------------------------------


def test_randomized_palette_frozen_values():
    assert randomized_palette_size(100, 4, 0.5) == 553
    assert randomized_palette_size(200, 8, 0.5) == 1145
    assert randomized_palette_size(7, 0, 1) == 12  # ceil(6 * ln 7)


def test_randomized_palette_domain_checks():
    with pytest.raises(InvalidParams, match=r"^node count -1 is not an int in \[0, inf\]$"):
        randomized_palette_size(-1, 4, 0.5)
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
    assert shared_palette_size(3, 0, 1) == 3  # ceil(2 ln 3)


def test_palettes_read_a_size_below_two_as_two():
    """A graph of one node or none, and a one-id space, get the size-2 palette."""
    for n in (0, 1):
        assert randomized_palette_size(n, 4, 0.5) == randomized_palette_size(2, 4, 0.5) == 84
    assert shared_palette_size(1, 3, 0.5) == shared_palette_size(2, 3, 0.5) == 89


def test_shared_palette_domain_checks():
    for id_space in (0, math.e, True):
        with pytest.raises(InvalidParams, match="id space"):
            shared_palette_size(id_space, 3, 0.5)
    with pytest.raises(InvalidParams):
        shared_palette_size(30, -1, 0.5)
    with pytest.raises(InvalidParams):
        shared_palette_size(30, 3, 0)


# -- random draws ----------------------------------------------------------


def test_draws_are_deterministic_and_in_range():
    a = generate_draws(17, 50, seed=9)
    b = generate_draws(17, 50, seed=9)
    assert a == b
    assert len(a.draws) == 50
    assert all(0 <= d < 2**39 for d in a.draws)
    assert generate_draws(18, 50, seed=9).draws != a.draws
    assert generate_draws(17, 50, seed=10).draws != a.draws


def test_draws_monte_carlo_mean():
    d = generate_draws(5, 10**4, seed=0)
    half = 2**38  # the mean of uniform [0, 2^39), to within 1/2
    mean = sum(d.draws) / len(d.draws)
    assert abs(mean - half) / half < 0.05


@pytest.mark.parametrize(
    "k, n, bits",
    [
        (1, 1, 1),
        (5, 1, 3),
        (1, 3, 7),
        (8, 2**7, 32),
        (15, 2**7, 32),
        (16, 2**7, 33),
        (2819, 1000, 52),
        (8, 2**15, 64),
        (4, 2**13, 55),
        (16, 2**15, 65),
        (40, 2**16, 70),
        (30, 2**40, 165),
    ],
)
def test_draws_equal_one_getrandbits_per_color(k, n, bits):
    """One getrandbits(40*k) read gives all k colors' draws: its 5-byte
    fields with the guard bits cleared, cut as order keys are. The width
    stays 5 bytes whatever the bit length of k*n^4, and node ids up to n
    key their streams alike."""
    assert (k * n**4).bit_length() == bits
    guards, _ = _field_masks(k, 5)
    for node_id, seed in ((1, 0), (n, 9)):
        cut = keyed_rng(seed, "draws", node_id).getrandbits(40 * k) & ~guards
        raw = cut.to_bytes(5 * k, "little")
        expected = tuple(int.from_bytes(raw[i : i + 5], "little") for i in range(0, len(raw), 5))
        draws = generate_draws(node_id, k, seed).draws
        assert tuple(draws) == expected
        assert draws.value == cut
        assert draws == _cut_stream(keyed_rng(seed, "draws", node_id), k)
        # whole 5-byte fields, each with its top bit free
        assert isinstance(draws, PackedWords) and len(draws) == k
        assert draws.value >> 40 * k == 0
        assert draws.value & guards == 0
    own, *nbs = (NodeEnvelope(v, generate_draws(v, k, 3).draws) for v in range(1, 6))
    assert select_colors(own, tuple(nbs)) == column_min_selection(own, nbs)


def test_compact_draws_take_5_byte_fields():
    k = 2819  # the wide-ids palette: 1000 nodes, degree 16, eps 0.5
    generate_draws(1, k, seed=0)  # fills _field_masks' cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = generate_draws(2, k, seed=0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert isinstance(d.draws, PackedWords) and len(d.draws) == k
    # CPython keeps 30 bits in 4 bytes: 40 bits a draw cost 5.33 B
    assert kept < 6 * k + 1024


def test_draws_domain_checks():
    with pytest.raises(InvalidParams):
        generate_draws(1, 0, seed=0)


def test_generate_draws_refuses_more_than_the_guard_before_reading():
    # 5 * 10**6 + 1 draws would read 25 MB of the stream: refused first
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            generate_draws(1, _MAX_DRAWS + 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# -- packed words ------------------------------------------------------------


def test_pack_refuses_a_value_wider_than_its_field():
    # 2^40 + 44 would wrap to 44 in five bytes
    with pytest.raises(InvalidParams):
        PackedWords.pack([2**40 + 44])


def test_pack_refuses_a_negative_value():
    # to_bytes raised OverflowError on these
    for values in ([-1], [5, -1]):
        with pytest.raises(InvalidParams, match="negative"):
            PackedWords.pack(values)


def test_pack_refuses_a_value_on_the_guard_bit():
    # 2^39 sets the top bit of its 5-byte field, which the sieve needs free
    with pytest.raises(InvalidParams):
        PackedWords.pack([2**39])
    assert list(PackedWords.pack([2**39 - 1])) == [2**39 - 1]


def in_5_byte_fields(value, width):
    """value's width-byte fields, each moved to the top of a 5-byte field: the
    same bit of the same field, negative values kept negative."""
    raw = abs(value).to_bytes(width * -(-abs(value).bit_length() // (8 * width)), "little")
    fields = (bytes(5 - width) + raw[i : i + width] for i in range(0, len(raw), width))
    return (-1 if value < 0 else 1) * int.from_bytes(b"".join(fields), "little")


@pytest.mark.parametrize(
    "value, length, width",
    [(-5, 2, 1), (0x80, 1, 1), (0x8000, 2, 1), (1 << 16, 2, 1), (1, 0, 1)],
)
def test_packed_words_refuse_a_value_outside_their_fields(value, length, width):
    """A negative value, a set guard bit or a bit past the last field. The
    cases are stated in the 1-byte fields where they were found, each field
    then moved to the top of a 5-byte one: before, PackedWords(0x80, 1, 1)[0]
    read 0 while its tolist() read [128]."""
    with pytest.raises(InvalidParams):
        PackedWords(in_5_byte_fields(value, width), length)


def test_packed_words_are_read_only():
    """Before, p.value = 0x80 left p[0] reading 0 while p.tolist() read [128]."""
    words = PackedWords(0, 1)
    for name in ("value", "length"):
        with pytest.raises(AttributeError):
            setattr(words, name, 2**39)
        with pytest.raises(AttributeError):
            delattr(words, name)
    assert (words.value, words.length) == (0, 1)
    assert words.tolist() == [words[0]] == [0]


def test_packed_words_slice_as_a_list_does():
    words = PackedWords.pack([1, 2, 3])
    assert words[0:2] == [1, 2]
    assert words[::-1] == [3, 2, 1]
    assert words[5:] == []
    assert words[-1] == 3


def test_packed_words_equal_only_packed_words():
    words = PackedWords.pack([1, 2, 3])
    assert words != (1, 2, 3) and words != [1, 2, 3]
    assert words == PackedWords.pack([1, 2, 3]) != PackedWords.pack([1, 2])
    assert hash(words) == hash(PackedWords.pack([1, 2, 3]))
    assert PackedWords.__slots__ == ("value", "length")


# -- (value, id) selection ----------------------------------------------------


def sent(node_id, values):
    """node_id's envelope, its values packed, as a run sends it."""
    return NodeEnvelope(node_id, PackedWords.pack(values))


def test_select_colors_worked_example():
    own = sent(1, (2, 9, 4))
    u = sent(2, (5, 1, 7))
    w = sent(3, (3, 8, 8))
    assert select_colors(own, (u, w)) == (1, 3)


def test_select_colors_no_neighbors_takes_everything():
    own = sent(1, (5, 5, 5))
    assert select_colors(own, ()) == (1, 2, 3)


def test_tie_break_by_id_awards_the_smaller_id():
    u = sent(1, (5, 2))
    v = sent(2, (5, 9))
    assert select_colors(u, (v,)) == (1, 2)
    assert select_colors(v, (u,)) == ()


def test_tie_break_only_applies_to_the_tied_minimum():
    # neighbor 3 ties the minimum, neighbor 2 is above it
    own = sent(5, (4,))
    below = sent(3, (4,))
    above = sent(2, (8,))
    assert select_colors(own, (below, above)) == ()
    assert select_colors(below, (own, above)) == (1,)


def test_select_colors_rejects_length_mismatch():
    with pytest.raises(InvalidParams):
        select_colors(sent(1, (1, 2)), (sent(2, (1,)),))


draws_strategy = st.lists(
    st.integers(min_value=1, max_value=30), min_size=4, max_size=4
)


@settings(max_examples=150)
@given(draws_strategy, draws_strategy)
def test_two_node_partition_identity(du, dv):
    """On an edge the two selections split the palette, ties included."""
    u = sent(1, du)
    v = sent(2, dv)
    su = select_colors(u, (v,))
    sv = select_colors(v, (u,))
    assert set(su).isdisjoint(sv)
    assert len(su) + len(sv) == len(du)


def column_min_selection(own, neighbors):
    """Colors i where own's (value, id) is below every neighbor's, one column at a time."""
    won = []
    for i, mine in enumerate(own.bits, start=1):
        if all((mine, own.node_id) < (nb.bits[i - 1], nb.node_id) for nb in neighbors):
            won.append(i)
    return tuple(won)


# values at the field's edges: the largest 32-bit word, the first above it,
# and the largest below the guard bit
EDGE_VALUES = (0, 1, 2, 3, 2**32 - 1, 2**32, 2**39 - 2, 2**39 - 1)


def edge_words(k):
    small = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    return small | st.lists(st.sampled_from(EDGE_VALUES), min_size=k, max_size=k)


@settings(max_examples=300)
@given(
    st.integers(1, 8),
    st.lists(st.integers(1, 8), max_size=5),
    st.integers(1, 12),
    st.data(),
)
def test_sieve_equals_the_column_minimum(own_id, nb_ids, k, data):
    """Values from {0, 1, 2, 3}, so ties are common, or next to a field's guard
    bit; ids may even repeat."""
    rows = [data.draw(edge_words(k)) for _ in range(1 + len(nb_ids))]
    own, *nbs = (sent(v, row) for v, row in zip((own_id, *nb_ids), rows))
    assert select_colors(own, tuple(nbs)) == column_min_selection(own, nbs)


RESHAPED = {
    "tuple": tuple,
    "array": lambda words: array("Q", words),
    "shorter": lambda words: PackedWords.pack(words[:-1]),
}


@pytest.mark.parametrize("reshape", RESHAPED.values(), ids=RESHAPED)
def test_sieve_refuses_bits_of_another_shape(reshape):
    """The sieve reads packed words of one length: tuple or array bits, or
    packed words of another length, are refused, directly and through
    replay_view."""
    own = sent(1, (2, 9, 4))
    other = NodeEnvelope(2, reshape(own.bits))
    for node, neighbor in ((own, other), (other, own)):
        with pytest.raises(InvalidParams):
            select_colors(node, (neighbor,))
    g = gnp_graph(12, 0.4, 30, seed=2)
    program = build_program("randomized", g, seed=3)
    coloring, trace = run_one_shot(g, program, seed=3)
    v = next(v for v in g.node_ids() if trace.nodes[v].received)
    received = trace.nodes[v].received
    assert replay_view(g.view(v), received, program, seed=3) == coloring.assignment[v]
    reshaped = tuple(NodeEnvelope(e.node_id, reshape(e.bits)) for e in received)
    with pytest.raises(InvalidParams):
        replay_view(g.view(v), reshaped, program, seed=3)


@pytest.mark.parametrize("algo", ["randomized", "shared-order"])
def test_a_built_program_looks_up_the_sieve_when_it_runs(monkeypatch, algo):
    """A tracer rebinds permcolor.select_colors after programs are built:
    compute must find the new binding, not one captured at build time."""
    g = gnp_graph(12, 0.4, 30, seed=2)
    program = build_program(algo, g, seed=3)
    expected, _ = run_one_shot(g, program, seed=3)
    sieve = permcolor.select_colors
    calls = []

    def spy(own, neighbors):
        calls.append(own.node_id)
        return sieve(own, neighbors)

    monkeypatch.setattr(permcolor, "select_colors", spy)
    assert run_one_shot(g, program, seed=3)[0] == expected
    assert sorted(calls) == sorted(g.node_ids())


@settings(max_examples=200)
@given(
    st.lists(
        st.sampled_from(EDGE_VALUES) | st.integers(0, 2**39 - 1).map(lambda v: v >> v % 39),
        max_size=20,
    ),
)
def test_packed_payload_bytes_equal_the_counted_form(values):
    """Packed words size themselves without decoding, exactly as counting
    the byte length of every value does."""
    packed = PackedWords.pack(values)
    assert list(packed) == values
    assert [packed[i] for i in range(len(packed))] == values
    counted = NodeEnvelope(1, tuple(values)).payload_bytes()
    assert NodeEnvelope(1, packed).payload_bytes() == counted
    assert NodeEnvelope(1, array("Q", values)).payload_bytes() == counted


@settings(max_examples=100)
@given(draws_strategy, draws_strategy, draws_strategy)
def test_selection_is_monotone_under_neighbor_removal(do, da, db):
    own = sent(1, do)
    a = sent(2, da)
    b = sent(3, db)
    assert set(select_colors(own, (a, b))) <= set(select_colors(own, (a,)))


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


def ranks_of(fam):
    """ranks_of(fam)[i][x-1] is the position of id x in order i, found by
    sorting the ids by (keys(y)[i], y): the order's definition, kept apart
    from the key comparisons the package makes."""
    ids = range(1, fam.id_space + 1)
    keys = {y: fam.keys(y) for y in ids}
    ranks = []
    for i in range(fam.k):
        rank = [0] * fam.id_space
        for pos, y in enumerate(sorted(ids, key=lambda y: (keys[y][i], y))):
            rank[y - 1] = pos
        ranks.append(rank)
    return ranks


def test_order_family_is_deterministic_per_seed():
    assert ranks_of(OrderFamily(5, 9, seed=1)) == ranks_of(OrderFamily(5, 9, seed=1))
    assert ranks_of(OrderFamily(5, 9, seed=1)) != ranks_of(OrderFamily(5, 9, seed=2))


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
    assert sorted([first, second], key=len) == [(), (1,)]


def test_select_by_orders_matches_mask_interface():
    """The mask rule the order sweeps call equals the schedule rule on every
    view of N=9 up to degree 3, taken own id by own id as a sweep takes them."""
    fam = OrderFamily(20, 9, seed=7)
    views = 0
    for x in range(1, 10):
        others = [y for y in range(1, 10) if y != x]
        for d in range(4):
            for gamma in combinations(others, d):
                mask = fam.select_mask(x, gamma)
                colors = select_by_orders(OneHopView(x, frozenset(gamma)), fam)
                assert colors == tuple(i + 1 for i in range(20) if mask >> i & 1)
                views += 1
    assert views == 9 + neighborhood_view_count(9, 3)


@settings(max_examples=200)
@given(
    st.integers(1, 6), st.integers(2, 10), st.integers(0, 2**32), st.data()
)
def test_select_by_orders_equals_every_order_rule(k, id_space, seed, data):
    fam = OrderFamily(k, id_space, seed)
    x = data.draw(st.integers(1, id_space))
    others = [y for y in range(1, id_space + 1) if y != x]
    gamma = data.draw(st.sets(st.sampled_from(others), max_size=4))
    expected = tuple(
        i
        for i, rank in enumerate(ranks_of(fam), start=1)
        if all(rank[x - 1] < rank[y - 1] for y in gamma)
    )
    assert select_by_orders(OneHopView(x, frozenset(gamma)), fam) == expected


def test_degree_zero_view_wins_every_order():
    fam = OrderFamily(6, 4, seed=0)
    assert select_by_orders(OneHopView(2, frozenset()), fam) == tuple(range(1, 7))


# 2**39 - 1 is the largest key, just below a 5-byte field's guard bit
EDGE_KEYS = (0, 1, 2**39 - 2, 2**39 - 1)


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 8), st.sampled_from([(0, 1, 2), EDGE_KEYS]), st.data())
def test_beats_row_is_the_key_order_with_ties(k, id_space, values, data):
    """Keys from {0, 1, 2}, or from the ends of the key range, tie often;
    beats_row must still order ids as ranks_of does, ties to the smaller id."""
    table = data.draw(
        st.lists(
            st.lists(st.sampled_from(values), min_size=k, max_size=k),
            min_size=id_space,
            max_size=id_space,
        )
    )
    fam = OrderFamily(k, id_space, seed=0)
    fam.keys = lambda x: PackedWords.pack(table[x - 1])
    ranks = ranks_of(fam)
    for x in range(1, id_space + 1):
        assert fam.beats_row(x) == [
            sum(1 << i for i, rank in enumerate(ranks) if rank[y - 1] < rank[x - 1])
            for y in range(1, id_space + 1)
        ]


# SHA-256 of the repr of the 30 rows beats_row(1..30) of OrderFamily(436, 30, 5),
# the family size of criterion 3, first recorded when the rows were read from a
# rank table built by k stable sorts; re-recorded when keys became whole 5-byte
# fields of the stream, with the rows still checked against that rank table.
GOLDEN_BEATS_ROWS = "5eed40a738136242b32ad83faf6b642ad6324635c9233805c1c861c439e08e6d"


def test_beats_rows_are_byte_stable():
    fam = OrderFamily(436, 30, seed=5)
    rows = [fam.beats_row(x) for x in range(1, 31)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_BEATS_ROWS


def test_beats_row_makes_no_closure_cells():
    """Cells are set up on every call, so a cached row would pay for them:
    on CPython 3.11 each comprehension in the method makes the names it
    reads cells."""
    assert OrderFamily.beats_row.__code__.co_cellvars == ()


def test_beats_row_keeps_the_keys_packed():
    """The key table a certificate reads holds 5 B a key: 6.9 MB of keys
    for these 4595 orders over 300 ids, not a list of ints per id."""
    tracemalloc.start()
    try:
        fam = OrderFamily(4595, 300, seed=5)
        fam.beats_row(1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 10**7


def test_beats_row_cache_is_transparent():
    fam = OrderFamily(9, 8, seed=5)
    first = list(fam.beats_row(3))
    fam.beats_row(7)  # evict
    assert fam.beats_row(3) == first


def test_select_mask_on_a_cached_row_is_transparent():
    """ids x, y, x in turn: the second x reads the cached row of the first."""
    fam = OrderFamily(12, 9, seed=4)
    full = (1 << 12) - 1
    for x, gamma in ((3, (1, 7)), (5, (3, 9)), (3, (2, 8, 9))):
        fresh = OrderFamily(12, 9, seed=4)
        lost = 0
        for y in gamma:
            lost |= fresh.beats_row(x)[y - 1]
        assert fam.select_mask(x, gamma) == OrderFamily(12, 9, seed=4).select_mask(x, gamma)
        assert fam.select_mask(x, gamma) == full & ~lost


@pytest.mark.parametrize("k, id_space", [(0, 5), (4, 0)])
def test_order_family_refuses_an_empty_shape(k, id_space):
    with pytest.raises(InvalidParams, match="^(order count|id space) 0 is not an int >= 1$"):
        OrderFamily(k, id_space, seed=0)


def test_ids_outside_the_space_are_rejected():
    fam = OrderFamily(4, 5, seed=0)
    with pytest.raises(InvalidParams):
        fam.select_mask(6, (1,))
    with pytest.raises(InvalidParams):
        fam.select_mask(1, (6,))
    with pytest.raises(InvalidParams):
        select_by_orders(OneHopView(1, frozenset({9})), fam)


def test_forced_ties_go_to_the_smallest_id(monkeypatch):
    """With equal keys in every order, the (key, id) order is the id order."""
    monkeypatch.setattr(OrderFamily, "keys", lambda self, x: PackedWords.pack([7] * self.k))
    fam = OrderFamily(5, 6, seed=0)
    view = {2, 3, 5, 6}
    for x in view:
        gamma = frozenset(view - {x})
        won = range(1, 6) if x == 2 else range(0)
        assert select_by_orders(OneHopView(x, gamma), fam) == tuple(won)
        assert fam.select_mask(x, gamma) == sum(1 << (c - 1) for c in won)


def test_selection_stores_no_rank_table():
    """A node computes the keys of its view alone, not the k * id_space
    keys a certificate keeps: about 220 MB for these 4595 orders."""
    tracemalloc.start()
    try:
        fam = OrderFamily(4595, 1200, seed=5)
        select_by_orders(OneHopView(1, frozenset(range(2, 10))), fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_keys_are_whole_5_byte_fields_of_the_stream():
    """keys(x) is one getrandbits(40 * k) read of x's stream in 5-byte fields,
    guard bits cleared: 39-bit keys, cut as draws are."""
    k = 37
    fam = OrderFamily(k, 40, seed=3)
    guards, _ = _field_masks(k, 5)
    for x in (1, 2, 40):
        cut = keyed_rng(3, "orders", x).getrandbits(40 * k) & ~guards
        raw = cut.to_bytes(5 * k, "little")
        keys = fam.keys(x)
        assert (keys.length, keys.value) == (k, cut)
        assert list(keys) == [int.from_bytes(raw[i : i + 5], "little") for i in range(0, 5 * k, 5)]
        assert all(key < 2**39 for key in keys)
    assert max(max(fam.keys(x)) for x in range(1, 41)) >= 2**32


def test_memoized_keys_are_the_fresh_cut():
    fam = OrderFamily(37, 40, seed=3)
    for x in range(1, 41):
        first = fam.keys(x)
        assert first == _cut_stream(keyed_rng(3, "orders", x), 37)
        assert fam.keys(x) is first  # cut once


def test_key_memo_stays_under_its_budget():
    """A narrow-ids family asked for every id keeps about 680 of them, under
    the 16 MB budget; every key past the budget is cut again when asked."""
    fam = OrderFamily(4595, 1200, seed=5)
    tracemalloc.start()
    try:
        for x in range(1, 1201):
            fam.keys(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= _KEY_MEMO_BYTES
    assert 600 < len(fam._memo) < 1200


def test_key_memo_budget_counts_each_entry(monkeypatch):
    """With one-order keys an entry is mostly overhead, which the budget
    charges too: 1 MB holds a few thousand of them, not 37,000 key ints."""
    monkeypatch.setattr(permcolor, "_KEY_MEMO_BYTES", 1 << 20)
    fam = OrderFamily(1, 50_000, seed=5)
    tracemalloc.start()
    try:
        for x in range(1, 50_001):
            fam.keys(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1 << 20


@pytest.mark.parametrize("room", [0, 3])
def test_a_family_past_its_memo_budget_colors_the_same(monkeypatch, room):
    """A budget with room for the keys of `room` ids keeps exactly those,
    and the coloring is the one the full memo gives."""
    g = capped_graph(gnp_graph(60, 0.1, 90, seed=4), cap=5)
    expected = run_shared(g, 0.5, seed=2).assignment
    k = shared_palette_size(90, 5, 0.5)
    entries = [
        sys.getsizeof(OrderFamily(k, 90, seed=1).keys(x).value) + permcolor._KEY_MEMO_ENTRY
        for x in range(1, room + 1)
    ]
    monkeypatch.setattr(permcolor, "_KEY_MEMO_BYTES", sum(entries))
    assert run_shared(g, 0.5, seed=2).assignment == expected
    fam = OrderFamily(k, 90, seed=1)
    for x in range(1, 91):
        fam.keys(x)
    assert sorted(fam._memo) == list(range(1, room + 1))


def test_shared_order_coloring_holds_sorted_tuples():
    """A narrow-ids sized coloring (300 nodes, 4595 orders) holds each node's
    colors as one tuple of the palette's own ints: 3.6 MB for these 411,054
    colors, where one frozenset per node held 21.7 MB."""
    g = capped_graph(unit_disk_graph(300, 0.06, 1200, seed=5), cap=8)
    tracemalloc.start()
    try:
        m = run_shared(g, 0.5, seed=5, max_degree=8)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.palette_size == 4595
    assert held < 6 * 10**6


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
    assert (min_colors_required(10, 0, 1), min_colors_required(10, 1, 1)) == (5, 0)
    # ceiling, not rounding
    assert min_colors_required(10, 0.5, 2) == 2


def test_certify_small_oversized_family_passes():
    fam = OrderFamily(436, 3, seed=0)
    cert = certify_family(fam, 1, 0.5)
    assert cert.passed
    assert cert.views_checked == 6
    assert cert.bound_failures == 0
    assert cert.min_count_by_degree[1] >= min_colors_required(436, 0.5, 1)
    assert cert.palette_size == 436


def test_certify_degree_zero_is_vacuous():
    cert = certify_family(OrderFamily(5, 4, seed=1), 0, 0.5)
    assert cert.passed
    assert cert.views_checked == 0
    assert cert.min_count_by_degree == {}


def test_certify_reports_failures_for_a_tiny_family():
    # one single order cannot serve every view: losers win zero colors
    cert = certify_family(OrderFamily(1, 3, seed=0), 2, 0.5)
    assert not cert.passed
    assert cert.bound_failures > 0
    assert min(cert.min_count_by_degree.values()) == 0


def reference_certificate(fam, max_degree, eps):
    """certify_on_neighborhood's certificate of fam on select_mask, fam's quotas."""
    return certify_on_neighborhood(
        lambda v: fam.select_mask(v.node_id, v.neighbors),
        fam.id_space,
        max_degree,
        fam.k,
        min_colors=lambda d: min_colors_required(fam.k, eps, d),
    )


@pytest.mark.parametrize(
    "k, id_space, seed, max_degree, eps",
    [
        (436, 3, 0, 1, 0.5),
        (5, 4, 1, 0, 0.5),
        (1, 3, 0, 2, 0.5),  # fails its quotas
        (12, 6, 3, 3, 0.5),  # fails its quotas
        (20, 9, 7, 2, 0.3),
        (7, 12, 2, 3, 1),
        (436, 30, 5, 2, 0.5),
        (436, 30, 5, 0, 0.5),
        (40, 30, 4, 1, Fraction(1, 4)),
        (7, 12, 2, 3, 0),  # quota ceil(k/(d+1))
        (9, 4, 1, 5, 0.5),  # degrees 4 and 5 have no view
        (3, 1, 0, 2, 0.5),  # one id: no view at all
        (3, 2, 0, 3, 0.5),  # two ids: one view each
        (100, 30, 2, 3, 0.5),  # 17 of 122,670 views fail: only a recount finds them
    ],
)
def test_certify_family_is_the_reference_certificate(k, id_space, seed, max_degree, eps):
    """The union count and the row-pair test give exactly the certificate of
    the black-box sweep over select_mask, passing or failing its quotas; a
    degree that no view reaches has no fewest count."""
    fam = OrderFamily(k, id_space, seed)
    cert = certify_family(fam, max_degree, eps)
    assert cert == reference_certificate(fam, max_degree, eps)
    assert cert.disjoint  # one of two ids precedes the other in every order
    assert list(cert.min_count_by_degree) == list(range(1, min(max_degree, id_space - 1) + 1))


@pytest.mark.parametrize("seed", range(30))
def test_certify_family_decides_disjointness_as_the_reference(monkeypatch, seed):
    """Forged precedence rows that no key order gives: a pair of ids may both
    lose an order and so share its color. The row-pair test finds exactly
    the clashes the black-box sweep does; at degree bound 1 every view is a
    pair's own view, so the certificates are equal outright."""
    rng = random.Random(seed)
    k, id_space, max_degree = rng.randint(1, 5), rng.randint(2, 7), rng.randint(1, 4)
    full = (1 << k) - 1
    table = [[rng.getrandbits(k) for _ in range(id_space)] for _ in range(id_space)]
    if seed % 3 == 0:  # complementary pairs: no color shared
        for a, b in combinations(range(id_space), 2):
            table[b][a] |= full ^ table[a][b]
    monkeypatch.setattr(OrderFamily, "beats_row", lambda self, x: table[x - 1])
    fam = OrderFamily(k, id_space, seed)
    cert = certify_family(fam, max_degree, 0.5)
    ref = reference_certificate(fam, max_degree, 0.5)
    fields = ("disjoint", "views_checked", "bound_failures", "min_count_by_degree")
    assert [getattr(cert, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert cert.disjoint or seed % 3
    assert cert.violations[:1] == ref.violations[:1]
    for u, v, color in cert.violations:
        assert u.node_id in v.neighbors and v.node_id in u.neighbors
        for view in (u, v):
            assert fam.select_mask(view.node_id, view.neighbors) >> (color - 1) & 1
    if max_degree == 1:
        assert cert == ref


def test_certify_family_names_at_most_the_cap(monkeypatch):
    """Every pair of 20 ids clashes: 190 clashes, the first 100 named."""
    monkeypatch.setattr(OrderFamily, "beats_row", lambda self, x: [0] * 20)
    fam = OrderFamily(3, 20, seed=0)
    cert = certify_family(fam, 1, 0.5)
    assert not cert.disjoint and len(cert.violations) == VIOLATION_CAP
    assert cert.violations[0] == (OneHopView(1, {2}), OneHopView(2, {1}), 3)
    assert cert == reference_certificate(fam, 1, 0.5)


def test_certify_respects_the_view_budget(monkeypatch):
    """The view count is refused before any precedence row is built."""
    built = []
    monkeypatch.setattr(OrderFamily, "beats_row", lambda self, x: built.append(x))
    with pytest.raises(TooLarge):
        certify_family(OrderFamily(4, 30, seed=0), 3, 0.5, max_views=100)
    assert built == []


def test_certified_family_passes_first_attempt_here():
    fam, cert, attempts = certified_family(8, 2, 0.75, seed=1, max_attempts=3)
    assert cert.passed
    assert attempts == 1
    assert fam.k == shared_palette_size(8, 2, 0.75)
    # deterministic end to end
    fam2, cert2, _ = certified_family(8, 2, 0.75, seed=1, max_attempts=3)
    assert ranks_of(fam2) == ranks_of(fam)
    assert cert2 == cert


def test_certified_family_needs_an_attempt():
    with pytest.raises(InvalidParams, match="^max attempts 0 is not an int >= 1$"):
        certified_family(8, 2, 0.75, seed=1, max_attempts=0)


def test_a_shared_program_is_refused_when_no_attempt_certifies(monkeypatch):
    def failing(family, max_degree, eps, max_views):
        cert = certify_family(family, max_degree, eps, max_views)
        return dataclasses.replace(cert, bound_ok=False, min_count_by_degree={1: 3, 2: 1})

    monkeypatch.setattr(permcolor, "certify_family", failing)
    g = gnp_graph(8, 0.3, 9, seed=3)
    with pytest.raises(InvalidParams, match="no certified family within 2 attempts; .* as few as 1/"):
        build_program("shared-order", g, seed=1, eps=0.75, certify_attempts=2)


# SHA-256 of coloring_to_json on criterion 2's graph at seed 0, taken when
# each selection was a column minimum and the towers pruned a multi-value
# descent. Shared-order was re-recorded when order i became the ranking of ids
# by (keys(x)[i], x) in place of k shuffles, and randomized when draw i became
# the i-th getrandbits(b) value of the node's stream in place of one
# randrange(1, k*n^4 + 1) call. Both were re-recorded again when draws and
# keys became the whole w-byte fields of one read of the stream, guard bits
# cleared, and randomized once more when draws took the keys' fixed 5-byte
# fields in place of a width from k*n^4. Any change to the draw stream, the
# orders or a selection rule shows here.
GOLDEN_CRITERION_2 = {
    "algebraic-basic": "5d318e4e7c2ef3d6aeb266f3883e19392ed96b910f0bb81862a7fd094055f90a",
    "algebraic-weighted": "02737a25ae2c7d34d8aae95e45182978ac6ea35855c85946a9061dc2e865826a",
    "randomized": "f96eca0a516ef78e64fb55757412881ed125a39426ecee515df31a4d6ce5f3c7",
    "shared-order": "541abdaa262fffd40765a7098153bcdb725bd91ab8f9e9373f9d1fdf5996a504",
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
            won = len(select_by_orders(OneHopView(x, frozenset(gamma)), fam))
            checks[d] += 1
            if won < need[d]:
                fails[d] += 1
    for d in (1, 2, 3):
        bound = math.exp(-0.25 * (k / (d + 1)) / 2)
        assert fails[d] <= 10 * bound * checks[d]
