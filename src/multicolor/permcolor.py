"""Permutation-based one-shot multicoloring.

Two constructions share one selection rule and one sieve, select_colors: a
node takes color i exactly when it precedes all its neighbors in order i,
and order i ranks node x by (value_x[i], x), so a tie goes to the smaller
id. Both hold their k values as PackedWords, a frozen dataclass of 5-byte
fields of one int with the top bit of each field free, so the sieve
compares all k positions against one neighbor with one big-int subtraction
(Lamport, "Multiple byte processing with full-word instructions", CACM
1975).

Randomized: every node privately draws k numbers, its values, and takes the
colors where it comes first in its neighborhood. Draws are cut as order
keys are: whole 5-byte fields of one read of the node's keyed stream, top
bits cleared, so uniform on [0, 2^39). A tie hands color i to the smaller
id, and x keeps it at least when its draw is the unique minimum of its
closed neighborhood: with probability at least (1 - C(d+1, 2) 2^-39)/(d+1)
= 1/(d+1) - d 2^-40 at degree d, and the paper's Chernoff step holds with
that mean. The draws travel packed from the cut through the envelope to the
sieve. More than _MAX_DRAWS draws in a run are refused before one is made.

Shared-order: the randomized rule on public keys. All nodes know k seeded
global orders of the id space, order i ranking id x by (keys(x)[i], x) where
keys(x) are k 39-bit values cut from x's keyed stream as draws are, in
whole 5-byte fields; a node computes the keys of its view from the ids and
takes color i when it precedes all its neighbors in order i. A family
memoizes the keys it cuts, up to _KEY_MEMO_BYTES (16 MB) of them, so a run
cuts each id's keys once rather than once per view that holds the id.
Whether a concrete family serves every possible one-hop view up to degree
Delta can be certified exhaustively, in the verifier's certificate type:
quotas by a sweep of precedence rows, disjointness by each pair of ids'
rows. The rows come from the sieve's subtraction on the same packed keys,
read through the memo, so one rule decides both. On failure the family is
resampled from the next derived seed rather than grown.

Both hand the sieve envelopes in that one layout, so nothing is repacked,
and it returns a node's colors as an ascending tuple, decoded in palette order.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress

from . import simulator
from .coloring import Multicoloring
from .errors import InvalidParams, TooLarge
from .graph import Graph, OneHopView, _check_budget, _check_count, _check_id, _check_positive
from .rng import keyed_rng
from .verifier import MAX_VIEWS, VIOLATION_CAP, NeighborhoodCertificate, _iter_views, _unit_eps
from .verifier import min_colors_required, nbr_edge_count

__all__ = [
    "randomized_palette_size",
    "RandomDraws",
    "PackedWords",
    "generate_draws",
    "select_colors",
    "run_randomized",
    "shared_palette_size",
    "OrderFamily",
    "select_by_orders",
    "certify_family",
    "certified_family",
    "run_shared",
]


def _palette(scale: int, size, max_degree: int, eps) -> int:
    """ceil(scale * ln(max(size, 2)) / eps^2): both palettes, their Delta and eps checks.

    A size below 2 is read as 2, so a graph of one node, or of none, and an
    id space of one id still get a palette.
    """
    _check_count(max_degree, "degree")
    exact = _unit_eps(eps)
    if not exact:  # the palette divides by eps^2
        raise InvalidParams(f"epsilon {eps} outside (0, 1]")
    e = float(exact)
    try:
        return math.ceil(scale * math.log(max(size, 2)) / (e * e))
    except (ZeroDivisionError, OverflowError):  # eps^2 is 0.0, or the quotient inf
        raise TooLarge(f"epsilon {eps} gives a palette beyond the float range") from None


def randomized_palette_size(n, max_degree: int, eps) -> int:
    """Palette size k = ceil(6*(Delta+1)*ln(max(n, 2))/eps^2); TooLarge past a float."""
    _check_count(n, "node count")
    return _palette(6 * (max_degree + 1), n, max_degree, eps)


def shared_palette_size(id_space, max_degree: int, eps) -> int:
    """k = ceil(2*(Delta+1)^2*ln(max(N, 2))/eps^2) shared orders; TooLarge past a float."""
    _check_positive(id_space, "id space")
    d1 = max_degree + 1
    return _palette(2 * d1 * d1, id_space, max_degree, eps)


# ---------------------------------------------------------------------------
# randomized construction


@dataclass(frozen=True)
class RandomDraws:
    """generate_draws' result: one node's k private draws; draws[i-1] competes for color i."""

    node_id: int
    draws: PackedWords


# bytes of every packed field, draws and keys: 39 value bits and a guard bit
_CUT_WIDTH = 5
# largest k * n draws a randomized run holds: at 5 B a draw, 25 MB in all
_MAX_DRAWS = 5 * 10**6


@lru_cache(maxsize=8)
def _field_masks(length: int, width: int) -> tuple[int, int]:
    """The top bit of each of length fields of width bytes, and a 1 in each."""
    guard = (b"\x00" * (width - 1) + b"\x80") * length
    one = (b"\x01" + b"\x00" * (width - 1)) * length
    return int.from_bytes(guard, "little"), int.from_bytes(one, "little")


@lru_cache(maxsize=8)
def _value_mask(length: int) -> int:
    """Every bit of length 5-byte fields but the guard bits: guards - ones."""
    guards, ones = _field_masks(length, _CUT_WIDTH)
    return guards - ones


@dataclass(frozen=True, slots=True)
class PackedWords(Sequence):
    """length ints in [0, 2**39), each in a 5-byte field of one int.

    The values sit least significant first, value i in bytes [5*i, 5*(i+1))
    of value, and the top bit of every field is left free: it is the guard
    bit of select_colors' sieve, which compares all fields against another
    node's with one subtraction. CPython keeps 30 bits in 4 bytes, so a
    field costs 5.33 B. The values can be read as from a tuple; two packed
    words are equal when their length and value are.

    A value that is negative, sets a guard bit or reaches past length fields
    is refused with InvalidParams. So value | guards equals value + guards,
    which the sieve relies on, and the fields read alike by index and by
    tolist. A frozen dataclass, so the check holds for good; copies and
    pickles are rebuilt through it.
    """

    value: int
    length: int

    def __post_init__(self):
        if self.value < 0:
            raise InvalidParams(f"packed value {self.value} is negative")
        if self.value >> 8 * _CUT_WIDTH * self.length:
            raise InvalidParams(f"packed value reaches past {self.length} fields")
        if self.value & _field_masks(self.length, _CUT_WIDTH)[0]:
            raise InvalidParams(f"packed value sets a guard bit of its {_CUT_WIDTH}-byte fields")

    def __reduce__(self):
        return type(self), (self.value, self.length)

    @classmethod
    def pack(cls, values: Sequence[int]) -> PackedWords:
        """values in 5-byte fields.

        Every value must lie in [0, 2**39), leaving its guard bit free, or
        InvalidParams is raised. Runs cut draws and keys packed.
        """
        if min(values, default=0) < 0:
            raise InvalidParams(f"negative value {min(values)} cannot be packed")
        top = max(values, default=0)
        if top >> 8 * _CUT_WIDTH - 1:
            raise InvalidParams(f"value {top} leaves no guard bit in {_CUT_WIDTH}-byte fields")
        raw = b"".join(v.to_bytes(_CUT_WIDTH, "little") for v in values)
        return cls(int.from_bytes(raw, "little"), len(values))

    def tolist(self) -> list[int]:
        w = _CUT_WIDTH
        raw = self.value.to_bytes(w * self.length, "little")
        return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]

    def encoded_bytes(self) -> int:
        """Sum of max(1, byte length) over the values, read off the packed int.

        A field holds at least 256**(j-1) exactly when subtracting that from
        it, guard bit set, leaves the guard bit; the counts fall as j grows,
        so the sweep runs from the widest j down to the first that counts
        every value.
        """
        n, w = self.length, _CUT_WIDTH
        guards, ones = _field_masks(n, w)
        raised = self.value | guards
        total = n  # every value takes at least one byte
        for j in range(w, 1, -1):
            at_least = ((raised - (ones << 8 * (j - 1))) & guards).bit_count()
            if at_least == n:
                return total + n * (j - 1)
            total += at_least
        return total

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return self.tolist()[index]
        i = range(self.length)[index]  # negative from the end; IndexError out of range
        return (self.value >> 8 * _CUT_WIDTH * i) & ((1 << 8 * _CUT_WIDTH - 1) - 1)

    def __iter__(self):
        return iter(self.tolist())


def _cut_stream(rng: random.Random, count: int) -> PackedWords:
    """count values in whole _CUT_WIDTH-byte fields of one read of rng.

    The read's bytes fill the fields in order. Clearing each field's top
    bit, the sieve's guard, leaves values uniform on [0, 2^39).
    """
    cut = rng.getrandbits(8 * _CUT_WIDTH * count)
    return PackedWords(cut & _value_mask(count), count)


def generate_draws(node_id: int, k: int, seed: int) -> RandomDraws:
    """Draw k values uniform on [0, 2^39) from the node's keyed stream.

    Draw i is the i-th 5-byte field of one getrandbits(40*k) read, its top
    bit, the sieve's guard, cleared; every value is kept. A tie goes to the
    smaller id; the module docstring bounds what that costs. A node id
    that is not an int >= 1, and more than _MAX_DRAWS draws, are refused
    before the stream is read.
    """
    _check_id(node_id)
    _check_positive(k, "palette size")
    _check_budget(k, _MAX_DRAWS, "draws")
    return RandomDraws(node_id, _cut_stream(keyed_rng(seed, "draws", node_id), k))


@lru_cache(maxsize=8)
def _palette_ids(k: int) -> tuple[int, ...]:
    """Colors 1..k, made once per palette size for select_colors' decode."""
    return tuple(range(1, k + 1))


def select_colors(
    own: simulator.NodeEnvelope, neighbors: tuple[simulator.NodeEnvelope, ...]
) -> tuple[int, ...]:
    """Colors i where own precedes every neighbor in order i, ascending.

    Order i ranks node x by (value_x[i], x): the randomized rule on draws
    and the shared-order rule on keys are this one rule, and a tie goes to
    the smaller id. All bits are PackedWords of own's length, or
    InvalidParams is raised. One addition compares all k colors with one
    neighbor: a field of theirs + (guards - mine) keeps its guard bit
    exactly when mine <= theirs, and theirs + (guards - mine - ones) when
    mine < theirs. Both offsets are made once per node, and no field carries
    into the next, since theirs leaves its guard bits clear.
    """
    words = own.bits
    if not isinstance(words, PackedWords):
        raise InvalidParams(f"node {own.node_id} sent {type(words).__name__} bits, not packed words")
    k = words.length
    guards, ones = _field_masks(k, _CUT_WIDTH)
    ties = guards - words.value
    strict = ties - ones
    alive = guards
    for nb in neighbors:
        theirs = nb.bits
        if not isinstance(theirs, PackedWords) or theirs.length != k:
            raise InvalidParams(f"node {nb.node_id}'s bits are not {k} packed words")
        # a tie with a larger id keeps the color
        alive &= theirs.value + (ties if own.node_id < nb.node_id else strict)
    tops = alive.to_bytes(_CUT_WIDTH * k, "little")[_CUT_WIDTH - 1 :: _CUT_WIDTH]
    return tuple(compress(_palette_ids(k), tops))


def _build_randomized(g: Graph, max_degree: int, eps=0.5):
    """Node computation for the randomized rule, ready for the harness.

    Every node draws k values, so runs of more than _MAX_DRAWS draws in all
    are refused before any is made.
    """
    n = g.n
    k = randomized_palette_size(n, max_degree, eps)
    _check_budget(k * n, _MAX_DRAWS, f"draws of {n} nodes drawing {k} each")

    def generate_bits(node_id: int, seed: int) -> Sequence[int]:
        return generate_draws(node_id, k, seed).draws

    def compute(own, received) -> tuple[int, ...]:
        _check_count(len(received), "degree", max_degree)
        return select_colors(own, received)  # looked up per call: tracers rebind it

    return simulator.NodeProgram(
        name="randomized",
        palette_size=k,
        compute=compute,
        generate_bits=generate_bits,
        meta={
            "epsilon": float(Fraction(eps)),
            "n": n,
            "max_degree": max_degree,
            "palette_size": k,
        },
    )


def run_randomized(g: Graph, eps, seed: int, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "randomized", seed, eps=eps, **opts)."""
    return simulator.run_one_shot(g, "randomized", seed, eps=eps, **opts)[0]


# ---------------------------------------------------------------------------
# shared-order construction


# largest k * id_space an OrderFamily admits: a certificate keeps every key, at
# 5 B each; lifting it waits for a benchmark change adding shared-order to wide-ids
_MAX_ORDER_KEYS = 5 * 10**7
# bytes of keys a family memoizes, so that a run cuts each id's keys once: at
# k = 4595 about 680 ids. An id's entry costs its packed int plus about 140 B
# for the PackedWords, the id and the dict slot (measured), charged as 160 B.
_KEY_MEMO_BYTES = 16 << 20
_KEY_MEMO_ENTRY = 160

# a guard byte, 0x00 or 0x80, as the binary digit "0" or "1"
_GUARD_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


class OrderFamily:
    """k seeded global orders of [1..id_space], shared by all nodes.

    Order i ranks id x by (keys(x)[i], x); a node takes color i+1 when it
    precedes all its neighbors in order i. Certificates compare the keys of
    every id, kept on first use, so families beyond _MAX_ORDER_KEYS are
    refused.
    """

    def __init__(self, k: int, id_space: int, seed: int):
        _check_positive(k, "order count")
        _check_positive(id_space, "id space")
        _check_budget(k * id_space, _MAX_ORDER_KEYS, f"keys of {k} orders over {id_space} ids")
        self.k = k
        self.id_space = id_space
        self.seed = seed
        # set here rather than by a cached_property: on CPython 3.11 an attribute
        # added after __init__ slows every attribute read of a certificate sweep
        self._memo: dict[int, PackedWords] = {}
        self._memo_bytes = 0
        self._keys: list[int] | None = None
        self._beats_row_id: int | None = None
        self._beats_row: list[int] | None = None
        self._full = (1 << k) - 1

    def keys(self, x: int) -> PackedWords:
        """keys(x)[i] is id x's key in order i: the i-th 5-byte field of its stream.

        The keys are cut as draws are: k whole 5-byte fields of one read,
        top bits cleared, so 39-bit values. The first ids asked for
        keep theirs, up to _KEY_MEMO_BYTES in all, and return the same
        object again. Every call checks x, so a bool or a float equal to a
        kept id is refused too.
        """
        _check_id(x, self.id_space)
        words = self._memo.get(x)
        if words is not None:
            return words
        words = _cut_stream(keyed_rng(self.seed, "orders", x), self.k)
        cost = sys.getsizeof(words.value) + _KEY_MEMO_ENTRY
        if self._memo_bytes + cost <= _KEY_MEMO_BYTES:
            self._memo_bytes += cost
            self._memo[x] = words
        return words

    def beats_row(self, x: int) -> list[int]:
        """beats_row(x)[y-1] is the bitmask of orders where y precedes x.

        Bit i is set when keys(y)[i] < keys(x)[i], or when they are equal and
        y < x: select_by_orders' rule, by its sieve's subtraction on the packed
        keys of every id, kept from the first call. The row is cached for the
        most recent x, which makes view sweeps grouped by node id cheap.
        Every call checks x, as keys does.
        """
        _check_id(x, self.id_space)
        if self._beats_row_id == x:
            assert self._beats_row is not None
            return self._beats_row
        # no comprehension in this method reads its locals: on CPython 3.11 those
        # become closure cells, set up on every call, cached ones too
        if self._keys is None:
            # keys are cut in 5-byte fields: the ids the memo keeps share its ints
            ids = range(1, self.id_space + 1)
            self._keys = [keys.value for keys in map(self.keys, ids)]
        width = _CUT_WIDTH
        guards, ones = _field_masks(self.k, width)
        raised = self._keys[x - 1] | guards
        row = []
        for y, theirs in enumerate(self._keys, start=1):
            # a guard bit survives where theirs <= mine before x, theirs < mine from x on
            ahead = (raised - (theirs if y < x else theirs + ones)) & guards
            # big-endian, order k-1's guard byte comes first, so order i is bit i
            row.append(int(ahead.to_bytes(width * self.k, "big")[::width].translate(_GUARD_DIGITS), 2))
        self._beats_row_id = x
        self._beats_row = row
        return row

    def select_mask(self, node_id: int, neighbor_ids) -> int:
        """Bitmask of won colors (bit i-1 set means color i is taken).

        Only an int node id reuses the cached row; any other goes through
        beats_row, which refuses it. Each neighbor id is checked before it
        indexes the row, where 0 would read row[-1] and 2.0 raise TypeError;
        inline, as in OneHopView, since a view holds a few ids.
        """
        if type(node_id) is int and node_id == self._beats_row_id:
            row = self._beats_row
        else:
            row = self.beats_row(node_id)
        n = self.id_space
        lost = 0
        for y in neighbor_ids:
            if type(y) is not int or not 0 < y <= n:  # the helper raises
                _check_id(y, n)
            lost |= row[y - 1]
        return self._full ^ lost  # a row holds k bits: full & ~lost


def select_by_orders(view: OneHopView, family: OrderFamily) -> tuple[int, ...]:
    """Colors whose order ranks the node before all of its neighbors, ascending."""
    ids = (view.node_id, *view.neighbors)
    own, *nbrs = (simulator.NodeEnvelope(x, family.keys(x)) for x in ids)
    return select_colors(own, tuple(nbrs))


def certify_family(
    family: OrderFamily,
    max_degree: int,
    eps,
    max_views: int = MAX_VIEWS,
) -> NeighborhoodCertificate:
    """Certify every view up to max_degree: the reference certificate, from the rows.

    It equals certify_on_neighborhood's on select_mask with quota
    ceil((1-eps)*k/(delta+1)) at degree delta whenever the family is
    disjoint, as a real one is. One row per id gives each view's exact count
    (degree-0 views get the whole palette and need no check). A view's
    colors only shrink as Gamma grows, so ids a < b clash exactly when the
    adjacent views (a, {b}) and (b, {a}) share a color, that is when
    row_a[b-1] | row_b[a-1] leaves an order unset. Each clash is named by
    those views and their highest shared color, the first VIOLATION_CAP in
    (a, b) order.
    """
    e = _unit_eps(eps)
    views = _iter_views(family.id_space, max_degree, max_views)
    k = family.k
    required = {d: min_colors_required(k, e, d) for d in range(1, max_degree + 1)}
    low_by_degree: dict[int, int] = {}
    failures = 0
    checked = 0
    rows: list[list[int]] = [[]]  # rows[x] is beats_row(x), kept from x's degree-1 group
    for x, d, gammas in views:
        row = family.beats_row(x)
        if d == 1:
            rows.append(row)
        quota = required[d]
        low = low_by_degree.get(d, k + 1)
        for gamma in gammas:
            lost = 0
            for y in gamma:
                lost |= row[y - 1]
            count = k - lost.bit_count()  # a row holds k bits
            checked += 1
            if count < quota:
                failures += 1
            if count < low:
                low = count
        if low <= k:  # the degree has a view
            low_by_degree[d] = low
    full = family._full
    violations = []
    for a, b in combinations(range(1, len(rows)), 2):
        shared = full & ~(rows[a][b - 1] | rows[b][a - 1])
        if shared:
            violations.append((OneHopView(a, {b}), OneHopView(b, {a}), shared.bit_length()))
            if len(violations) == VIOLATION_CAP:
                break
    return NeighborhoodCertificate(
        id_space=family.id_space,
        max_degree=max_degree,
        palette_size=k,
        views_checked=checked,
        edge_count=nbr_edge_count(family.id_space, max_degree),
        disjoint=not violations,
        bound_ok=failures == 0,
        min_count_by_degree=low_by_degree,
        bound_failures=failures,
        violations=violations,
    )


def certified_family(
    id_space: int,
    max_degree: int,
    eps,
    seed: int,
    max_attempts: int = 3,
    max_views: int = MAX_VIEWS,
) -> tuple[OrderFamily, NeighborhoodCertificate, int]:
    """Build an order family and certify it, resampling the seed on failure.

    Returns (family, certificate, attempts). The certificate of the last
    attempt is returned even if it failed; callers decide how to proceed.
    """
    _check_positive(max_attempts, "max attempts")
    k = shared_palette_size(id_space, max_degree, eps)
    family = cert = None
    attempts = 0
    for a in range(max_attempts):
        attempts = a + 1
        family = OrderFamily(k, id_space, keyed_rng(seed, "attempt", a).getrandbits(64))
        cert = certify_family(family, max_degree, eps, max_views)
        if cert.passed:
            break
    assert family is not None and cert is not None
    return family, cert, attempts


def run_shared(g: Graph, eps, seed: int, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "shared-order", seed, eps=eps, **opts)."""
    return simulator.run_one_shot(g, "shared-order", seed, eps=eps, **opts)[0]


def _build_shared(g: Graph, max_degree: int, seed=None, eps=0.5, certify_attempts=0):
    """Node computation selecting by shared orders, certified when certify_attempts > 0."""
    _check_count(certify_attempts, "certify attempts")
    meta: dict = {
        "epsilon": float(_unit_eps(eps)),
        "max_degree": max_degree,
        "certified": certify_attempts > 0,
    }
    if certify_attempts > 0:
        family, cert, attempts = certified_family(g.id_space, max_degree, eps, seed, certify_attempts)
        if not cert.passed:
            raise InvalidParams(
                f"no certified family within {attempts} attempts; "
                f"a view holds as few as {min(cert.min_count_by_degree.values())}"
                f"/{cert.palette_size}"
            )
        meta["attempts"] = attempts
    else:
        k = shared_palette_size(g.id_space, max_degree, eps)
        family = OrderFamily(k, g.id_space, keyed_rng(seed, "attempt", 0).getrandbits(64))

    def compute(own, received) -> tuple[int, ...]:
        _check_count(len(received), "degree", max_degree)
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return select_by_orders(view, family)

    return simulator.NodeProgram(
        name="shared-order",
        palette_size=family.k,
        compute=compute,
        meta={
            "id_space": family.id_space,
            "palette_size": family.k,
            "family_seed": family.seed,
            **meta,
        },
    )


simulator.register_builder("randomized", _build_randomized)
simulator.register_builder("shared-order", _build_shared)
