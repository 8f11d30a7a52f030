"""Permutation-based one-shot multicoloring.

Two constructions share the same selection principle: a node takes color i
exactly when it beats all its neighbors at position i.

Randomized: every node privately draws k numbers uniform from [1, k*n^4] and
takes the colors where its draw is strictly smallest among its neighborhood.
Ties waste the color on both sides (kept, since they are rare by design); an
optional flag breaks ties toward the smaller id instead. Draw values exceed
64 bits once k*n^4 does, so draws are plain Python integers throughout. The
draws are cut from one bulk read of 32-bit words of the node's keyed stream
and equal, value for value, k calls of randrange(1, k*n^4 + 1) on it. A node
sieves its colors one neighbor at a time, so it compares only at the colors
it still holds. A run of more than _MAX_DRAWS draws in all is refused before
the first one is made.

Shared-order: all nodes know k seeded global orders of the id space and a
node takes color i when it precedes all its neighbors in order i. Whether a
concrete family serves every possible one-hop view up to degree Delta can be
certified exhaustively; on failure the family is resampled from the next
derived seed rather than grown.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import add

from . import simulator
from .coloring import Multicoloring
from .errors import InvalidParams, TooLarge
from .graph import Graph, OneHopView
from .rng import keyed_rng
from .simulator import NodeProgram
from .verifier import MAX_VIEWS, _iter_views

__all__ = [
    "randomized_palette_size",
    "RandomDraws",
    "generate_draws",
    "select_colors",
    "run_randomized",
    "randomized_program",
    "shared_palette_size",
    "OrderFamily",
    "select_by_orders",
    "FamilyCertificate",
    "certify_family",
    "certified_family",
    "run_shared",
    "shared_program",
]


def _check_eps(eps) -> Fraction:
    if not 0 < eps <= 1:  # before Fraction(), which raises on nan and inf
        raise InvalidParams(f"epsilon {eps} outside (0, 1]")
    return Fraction(eps)


def randomized_palette_size(n, max_degree: int, eps) -> int:
    """Palette size k = ceil(6*(Delta+1)*ln(n)/eps^2) for the randomized rule."""
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    if max_degree < 0:
        raise InvalidParams("max degree must be >= 0")
    e = float(_check_eps(eps))
    return math.ceil(6 * (max_degree + 1) * math.log(n) / (e * e))


def shared_palette_size(id_space, max_degree: int, eps, factor: int = 1) -> int:
    """Palette size k = factor * ceil(2*(Delta+1)^2*ln(N)/eps^2) shared orders."""
    if id_space < 2:
        raise InvalidParams(f"need id space >= 2, got {id_space}")
    if max_degree < 0:
        raise InvalidParams("max degree must be >= 0")
    if factor < 1:
        raise InvalidParams("factor must be a positive integer")
    e = float(_check_eps(eps))
    d1 = max_degree + 1
    return factor * math.ceil(2 * d1 * d1 * math.log(id_space) / (e * e))


# ---------------------------------------------------------------------------
# randomized construction


@dataclass(frozen=True)
class RandomDraws:
    """One node's private draws; draws[i-1] competes for color i."""

    node_id: int
    draws: tuple[int, ...]


@lru_cache(maxsize=8)
def _draw_masks(words: int, shift: int, count: int) -> tuple[int, int]:
    """Masks over count groups of `words` 32-bit words, least significant first.

    The first keeps each group's low words; the second keeps the top bits
    of its last word that getrandbits(32*words - shift) would return.
    """
    size = 4 * words
    low = ((1 << 32 * (words - 1)) - 1).to_bytes(size, "little")
    top = (0xFFFFFFFF >> shift << shift << 32 * (words - 1)).to_bytes(size, "little")
    return int.from_bytes(low * count, "little"), int.from_bytes(top * count, "little")


def _candidates(bits: int, words: int, shift: int, count: int) -> list[int]:
    """The count values getrandbits(32*words - shift) cuts from these words.

    getrandbits(b) takes ceil(b/32) words of the stream, least significant
    first, and keeps only the top bits of the last one; the masks do the same
    to every group of a bulk read at once.
    """
    keep_low, keep_top = _draw_masks(words, shift, count)
    size = 4 * words
    raw = ((bits & keep_low) | ((bits & keep_top) >> shift)).to_bytes(size * count, "little")
    if words > 2:
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    values = array("I" if words == 1 else "Q", raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


def generate_draws(node_id: int, k: int, n: int, seed: int) -> RandomDraws:
    """Draw k values uniform in [1, k*n^4] from the node's keyed stream.

    The values are exactly those of k calls of randrange(1, k*n^4 + 1) on the
    stream: each is 1 plus a getrandbits(b) value below k*n^4, b the bit
    length of k*n^4, and rejected values are drawn again. The words come in
    bulk reads sized for the expected number of candidates; words read past
    the k-th accepted draw are never used, as the stream is not read again.
    """
    if k < 1:
        raise InvalidParams("palette size must be >= 1")
    if n < 1:
        raise InvalidParams("node count must be >= 1")
    hi = k * n**4
    b = hi.bit_length()
    words = (b + 31) // 32
    shift = 32 * words - b
    getrandbits = keyed_rng(seed, "draws", node_id).getrandbits
    values: list[int] = []
    while len(values) < k:
        need = k - len(values)
        # a candidate is accepted with probability hi / 2^b >= 1/2
        count = (need << b) // hi + 3 * math.isqrt(need) + 8
        cands = _candidates(getrandbits(32 * words * count), words, shift, count)
        values += compress(cands, map(hi.__gt__, cands))
    del values[k:]
    return RandomDraws(node_id, tuple(map(add, values, repeat(1))))


def select_colors(
    own: RandomDraws,
    neighbors: tuple[RandomDraws, ...],
    tie_break_by_id: bool = False,
) -> frozenset[int]:
    """Colors where own draw is strictly below every neighbor draw.

    On an exact tie nobody takes the color, unless tie_break_by_id is set, in
    which case the smallest node id among the tied minimum wins. The colors
    still held are sieved one neighbor at a time, about k*H(deg+1) compares
    for independent draws instead of k*(deg+1).
    """
    k = len(own.draws)
    for nb in neighbors:
        if len(nb.draws) != k:
            raise InvalidParams(
                f"draw count mismatch: node {nb.node_id} has {len(nb.draws)}, expected {k}"
            )
    mine = own.draws
    alive = range(k)
    for nb in neighbors:
        theirs = nb.draws
        if tie_break_by_id and own.node_id < nb.node_id:
            # a tie with a larger id keeps the color
            alive = [i for i in alive if mine[i] <= theirs[i]]
        else:
            alive = [i for i in alive if mine[i] < theirs[i]]
    return frozenset(i + 1 for i in alive)


# largest k * n draws a randomized run holds, about 200 MB at 40 B a draw
_MAX_DRAWS = 5 * 10**6


def randomized_program(
    n: int, max_degree: int, eps, tie_break_by_id: bool = False
) -> NodeProgram:
    """Node computation for the randomized rule, ready for the harness.

    Every node draws k values, so runs of more than _MAX_DRAWS draws in all
    are refused before any is made.
    """
    k = randomized_palette_size(n, max_degree, eps)
    if k * n > _MAX_DRAWS:
        raise TooLarge(
            f"{n} nodes drawing {k} values each need {k * n} draws, "
            f"above the guard of {_MAX_DRAWS}"
        )

    def generate_bits(node_id: int, seed: int) -> tuple:
        return generate_draws(node_id, k, n, seed).draws

    def compute(own, received) -> frozenset[int]:
        own_draws = RandomDraws(own.node_id, own.bits)
        nbr_draws = tuple(RandomDraws(e.node_id, e.bits) for e in received)
        return select_colors(own_draws, nbr_draws, tie_break_by_id)

    return NodeProgram(
        name="randomized",
        palette_size=k,
        compute=compute,
        generate_bits=generate_bits,
        meta={
            "epsilon": float(Fraction(eps)),
            "n": n,
            "max_degree": max_degree,
            "palette_size": k,
            "tie_break_by_id": tie_break_by_id,
        },
    )


def run_randomized(g: Graph, eps, seed: int, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "randomized", seed, eps=eps, **opts)."""
    return simulator.run_one_shot(g, "randomized", seed, eps=eps, **opts)[0]


# ---------------------------------------------------------------------------
# shared-order construction


_MAX_ORDER_RANKS = 5 * 10**7  # largest k * id_space an OrderFamily stores


class OrderFamily:
    """k seeded global orders of [1..id_space], shared by all nodes.

    ranks[i][x-1] is the position of id x in order i; a node takes color i+1
    when its rank is below every neighbor's rank in order i. The k * id_space
    ranks are materialized, one array("I") row per order, so families beyond
    _MAX_ORDER_RANKS are refused.
    """

    def __init__(self, k: int, id_space: int, seed: int):
        if k < 1:
            raise InvalidParams("order count must be >= 1")
        if id_space < 1:
            raise InvalidParams("id space must be >= 1")
        if k * id_space > _MAX_ORDER_RANKS:
            raise TooLarge(
                f"{k} orders over {id_space} ids need {k * id_space} ranks, "
                f"above the guard of {_MAX_ORDER_RANKS}"
            )
        self.k = k
        self.id_space = id_space
        self.seed = seed
        rng = keyed_rng(seed, "orders", k, id_space)
        ids = list(range(1, id_space + 1))
        ranks = []
        for _ in range(k):
            order = ids[:]
            rng.shuffle(order)
            rank = array("I", [0]) * id_space  # ranks < _MAX_ORDER_RANKS < 2^32
            for pos, x in enumerate(order):
                rank[x - 1] = pos
            ranks.append(rank)
        self.ranks = ranks
        self._beats_row_id: int | None = None
        self._beats_row: list[int] | None = None

    def _check_id(self, x: int) -> None:
        if not 1 <= x <= self.id_space:
            raise InvalidParams(f"id {x} outside [1, {self.id_space}]")

    def beats_row(self, x: int) -> list[int]:
        """beats_row(x)[y-1] is the bitmask of orders where y precedes x.

        Cached for the most recent x, which makes view sweeps grouped by
        node id cheap.
        """
        if self._beats_row_id == x:
            assert self._beats_row is not None
            return self._beats_row
        self._check_id(x)
        row = [0] * self.id_space
        for i, rank in enumerate(self.ranks):
            bit = 1 << i
            rx = rank[x - 1]
            for y, ry in enumerate(rank):
                if ry < rx:
                    row[y] |= bit
        self._beats_row_id = x
        self._beats_row = row
        return row

    def select_mask(self, node_id: int, neighbor_ids) -> int:
        """Bitmask of won colors (bit i-1 set means color i is taken)."""
        row = self.beats_row(node_id)
        lost = 0
        for y in neighbor_ids:
            self._check_id(y)
            lost |= row[y - 1]
        return ((1 << self.k) - 1) & ~lost


def select_by_orders(view: OneHopView, family: OrderFamily) -> frozenset[int]:
    """Colors whose order ranks the node before all of its neighbors."""
    family._check_id(view.node_id)
    for y in view.neighbors:
        family._check_id(y)
    ranks = family.ranks
    x = view.node_id - 1
    alive = range(family.k)
    for y in view.neighbors:
        alive = [i for i in alive if ranks[i][x] < ranks[i][y - 1]]
    return frozenset(i + 1 for i in alive)


@dataclass(frozen=True)
class FamilyCertificate:
    """Outcome of exhaustively checking every view against its quota."""

    passed: bool
    id_space: int
    max_degree: int
    epsilon: Fraction
    palette_size: int
    views_checked: int
    failures: int
    min_required: dict[int, int]
    worst_view: OneHopView | None
    worst_count: int | None

    @property
    def worst_fraction(self) -> Fraction | None:
        if self.worst_count is None:
            return None
        return Fraction(self.worst_count, self.palette_size)


def min_colors_required(palette_size: int, eps, delta: int) -> int:
    """Smallest count c with c/k >= (1-eps)/(delta+1), computed exactly."""
    target = (1 - Fraction(eps)) * palette_size / (delta + 1)
    return math.ceil(target)


def certify_family(
    family: OrderFamily,
    max_degree: int,
    eps,
    max_views: int = MAX_VIEWS,
) -> FamilyCertificate:
    """Check that every possible view up to max_degree meets its color quota.

    Walks all (x, Gamma) with 1 <= |Gamma| <= max_degree over the id space
    (degree-0 views get the whole palette and need no check) and compares each
    exact win count against ceil((1-eps)*k/(delta+1)). Exact integer
    arithmetic end to end.
    """
    e = _check_eps(eps)
    views = _iter_views(family.id_space, max_degree, max_views)
    k = family.k
    full = (1 << k) - 1
    required = {
        d: min_colors_required(k, e, d) for d in range(1, max_degree + 1)
    }
    failures = 0
    worst: tuple[int, tuple[int, ...], int] | None = None  # (x, gamma, count)
    worst_metric = None  # count*(d+1), proportional to the achieved ratio
    checked = 0
    for x, gamma in views:
        row = family.beats_row(x)  # cached while x stays the same
        lost = 0
        for y in gamma:
            lost |= row[y - 1]
        count = k - (full & lost).bit_count()
        checked += 1
        d = len(gamma)
        if count < required[d]:
            failures += 1
        metric = count * (d + 1)
        if worst_metric is None or metric < worst_metric:
            worst_metric = metric
            worst = (x, gamma, count)
    return FamilyCertificate(
        passed=failures == 0,
        id_space=family.id_space,
        max_degree=max_degree,
        epsilon=e,
        palette_size=k,
        views_checked=checked,
        failures=failures,
        min_required=required,
        worst_view=OneHopView(worst[0], frozenset(worst[1])) if worst else None,
        worst_count=worst[2] if worst else None,
    )


def certified_family(
    id_space: int,
    max_degree: int,
    eps,
    seed: int,
    max_attempts: int = 3,
    factor: int = 1,
    max_views: int = MAX_VIEWS,
) -> tuple[OrderFamily, FamilyCertificate, int]:
    """Build an order family and certify it, resampling the seed on failure.

    Returns (family, certificate, attempts). The certificate of the last
    attempt is returned even if it failed; callers decide how to proceed.
    """
    if max_attempts < 1:
        raise InvalidParams("need at least one attempt")
    k = shared_palette_size(id_space, max_degree, eps, factor)
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


def shared_program(family: OrderFamily, meta: dict | None = None) -> NodeProgram:
    """Node computation that selects by the given shared orders."""

    def compute(own, received) -> frozenset[int]:
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return select_by_orders(view, family)

    return NodeProgram(
        name="shared-order",
        palette_size=family.k,
        compute=compute,
        meta={
            "id_space": family.id_space,
            "palette_size": family.k,
            "family_seed": family.seed,
            **(meta or {}),
        },
    )


def run_shared(g: Graph, eps, seed: int, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "shared-order", seed, eps=eps, **opts)."""
    return simulator.run_one_shot(g, "shared-order", seed, eps=eps, **opts)[0]


def _build_randomized(g: Graph, max_degree: int, eps=0.5, tie_break_by_id=False):
    return randomized_program(g.n, max_degree, eps, tie_break_by_id)


def _build_shared(
    g: Graph, max_degree: int, seed=None, eps=0.5, factor=1, certify_attempts=0
):
    meta: dict = {
        "epsilon": float(_check_eps(eps)),
        "max_degree": max_degree,
        "factor": factor,
        "certified": certify_attempts > 0,
    }
    if certify_attempts > 0:
        family, cert, attempts = certified_family(
            g.id_space, max_degree, eps, seed, certify_attempts, factor
        )
        if not cert.passed:
            raise InvalidParams(
                f"no certified family within {attempts} attempts; "
                f"worst view holds {cert.worst_count}/{cert.palette_size}"
            )
        meta["attempts"] = attempts
    else:
        k = shared_palette_size(g.id_space, max_degree, eps, factor)
        family = OrderFamily(k, g.id_space, keyed_rng(seed, "attempt", 0).getrandbits(64))
    return shared_program(family, meta)


simulator.register_builder("randomized", _build_randomized)
simulator.register_builder("shared-order", _build_shared)
