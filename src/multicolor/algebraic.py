"""Deterministic multicoloring from towers of low-degree polynomials.

Basic construction: ids are encoded as degree-d0 polynomials over GF(q0), so
two distinct nodes agree on at most d0 of the q0 evaluation points. Deeper
levels re-encode the previous level's field value over a smaller field,
shrinking the id space step by step. A color is one evaluation-point tuple
(alpha_0..alpha_ell) together with a final value beta. M(x), the colors of x's
neighbor-free view, pairs each point tuple with x's own beta. Equal values stay
equal down the tower, so a neighbor y collides with x on a point tuple exactly
when that color is in M(y), and a node keeps M(x) minus its neighbors' M(y):
adjacent color sets are disjoint by construction, and each node keeps at least
prod_i (q_i - Delta*d_i) colors out of q_ell * prod_i q_i.

Both steps run on packed fields of one int, as permcolor's sieve does
(Lamport, "Multiple byte processing with full-word instructions", CACM
1975). A level evaluates its polynomial at all q points at once: the packed
powers alpha^k of every alpha, scaled by the digits of the value and
summed, then reduced mod q in every field by one multiply, shift and mask
(Granlund and Montgomery, "Division by invariant integers using
multiplication", PLDI 1994). M(x) is kept with x's betas packed one per
alpha path, in guarded 32-bit words, so a neighbor y blocks exactly
the paths where its beta equals x's: one zero test of mine ^ theirs per
neighbor, and the surviving guard bits select the kept colors from M(x).
Each params keeps a row for the own id it saw last, as an order family
keeps beats_row: from that id's second view, the row holds each neighbor's
packed block and up to _ROW_RESULTS decoded results, so a certificate
sweep, which takes the views of one id in a row, computes each once.

Weighted union: one basic instance per degree scale 2^i is replicated with a
weight that balances palette mass across scales; a node of degree delta only
draws from instances with 2^i >= delta, so low-degree nodes keep a larger
share of the combined palette.

Colors are computed as 1-based palette indices. tower_colors maps the kept
indices to their (alpha_0..alpha_ell, beta) tuples. weighted_colors is not a
view of weighted_color_indices: it builds its (color, instance, copy) triples
in a pass of its own over tower_colors, and the tests check the indices
against it.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import Callable

from . import simulator
from .coloring import Multicoloring
from .errors import Infeasible, InvalidParams
from .gf import is_prime, next_prime
from .graph import Graph, OneHopView, _check_budget, _check_count, _check_id, _check_positive
from .permcolor import _field_masks
from .verifier import _unit_eps

__all__ = [
    "TowerParams",
    "clamp_depth",
    "choose_tower",
    "tower_colors",
    "tower_color_from_index",
    "tower_color_indices",
    "run_basic",
    "WeightedScheme",
    "build_weighted_scheme",
    "weighted_colors",
    "weighted_color_indices",
    "run_weighted",
]

_Q_CAP = 2**62  # defensive ceiling for the prime search
# colors memoised per tower, about 40 B each in tuples, and beside each its
# beta's 32-bit word in a packed int: at most ~23 MB a tower. The per-(q, d)
# power tables of _power_table hold (d+1) * q fields each, q bounded by the
# palette guard.
_MEMO_COLORS = 1 << 19
# largest palette, the TDMA frame, of a tower or a weighted union: a node's
# M(x) holds palette / q_ell of its tower's colors, about 40 B each in a tuple
_MAX_PALETTE = 10**7
# kept-color tuples one exclusion row keeps, as verifier._KNOWN_MASKS does for masks
_ROW_RESULTS = 4096


def _check_slack(slack) -> Fraction:
    if not 1 < slack < math.inf:  # before Fraction(), which raises on nan and inf
        raise InvalidParams(f"slack {slack} must be finite and > 1")
    return Fraction(slack)


@dataclass(frozen=True)
class TowerParams:
    """Validated parameters of one polynomial tower.

    Level i uses degree-<=ds[i] polynomials over GF(qs[i]), with qs[i] >=
    slack * max_degree * ds[i]; level 0 must fit the id space and each deeper
    level the previous field. A palette above _MAX_PALETTE colors is refused.
    """

    id_space: int
    max_degree: int
    qs: tuple[int, ...]
    ds: tuple[int, ...]
    slack: Fraction

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(self.qs))
        object.__setattr__(self, "ds", tuple(self.ds))
        object.__setattr__(self, "slack", f := _check_slack(self.slack))
        _check_positive(self.id_space, "id space")
        _check_count(self.max_degree, "degree")
        if not self.qs or len(self.qs) != len(self.ds):
            raise InvalidParams("qs, ds must be nonempty and equally long")
        domain = self.id_space
        for i, (q, d) in enumerate(zip(self.qs, self.ds)):
            _check_positive(q, "field order")
            if not is_prime(q):
                raise InvalidParams(f"field order {q} is not prime")
            _check_positive(d, "degree bound")
            if q ** (d + 1) < domain:
                raise InvalidParams(
                    f"level {i}: {q}^{d + 1} cannot encode a domain of {domain}"
                )
            if q < f * self.max_degree * d:
                raise InvalidParams(
                    f"level {i}: q={q} below slack bound {f} * {self.max_degree} * {d}"
                )
            domain = q
        _check_budget(self.palette_size, _MAX_PALETTE, "tower palette colors")

    @property
    def depth(self) -> int:
        return len(self.qs) - 1

    @cached_property
    def _free_colors(self) -> Callable[[int], tuple[tuple[int, ...], int]]:
        """M: id -> sorted palette indices of its neighbor-free view, and their packed betas.

        An id outside [1, id_space] is refused when it misses the memo, so
        one that hits it was checked on its first use.
        """
        return _memoised_free_colors(self.id_space, self.qs, self.ds)

    @cached_property
    def _row(self) -> tuple:
        """tower_color_indices' exclusion row: (x, M(x), raised betas, blocks, results).

        x is the own id it saw last, None before the first, so that no id,
        not even a refused 0, matches an empty row. blocks and results stay
        None until x's second view. tower_color_indices replaces the whole
        tuple, so a row never mixes the state of two ids; like the M memo
        it is no part of the value.
        """
        return None, (), 0, None, None

    @cached_property
    def _beta_masks(self) -> tuple[int, int]:
        """The guard bits and ones of M(x)'s 32-bit beta words, one per alpha path."""
        return _field_masks(math.prod(self.qs), 4)

    @cached_property
    def palette_size(self) -> int:
        return self.qs[-1] * math.prod(self.qs)

    @property
    def guaranteed_colors(self) -> int:
        """Exact per-node lower bound on selected colors, any degree <= max."""
        return math.prod(q - self.max_degree * d for q, d in zip(self.qs, self.ds))

    def to_json_dict(self) -> dict:
        return {
            "id_space": self.id_space,
            "max_degree": self.max_degree,
            "q": list(self.qs),
            "d": list(self.ds),
            "f": [str(self.slack)] * len(self.qs),
            "palette_size": self.palette_size,
        }


def clamp_depth(id_space: int, max_degree: int, depth: int) -> int:
    """Largest ell <= depth with iterated-log_ell(N) > max(e, Delta); 0 if none.

    Deeper towers only help while the iterated logarithm stays above the
    degree bound; outside that regime the construction still works but extra
    levels cannot pay off, so the depth falls back to 0.
    """
    _check_count(depth, "depth")
    bound = max(math.e, max_degree)
    best = 0
    val = id_space  # an int until the first log: ids may exceed any float
    for level in range(depth + 1):
        if val > bound:
            best = level
        else:
            break
        val = math.log(val)
    return best


def _iroot_ceil(n: int, e: int) -> int:
    """Smallest integer r >= 1 with r**e >= n, in integers at any size."""
    if n <= 1:
        return 1
    # Newton's method from above ends at the floor of the e-th root
    r = 1 << -(-n.bit_length() // e)
    while (s := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
        r = s
    return r if r**e >= n else r + 1


def choose_tower(id_space: int, max_degree: int, depth: int = 0, slack=2) -> TowerParams:
    """Pick the cheapest valid (q_i, d_i) per level for the given id space.

    Per level the candidate degree range is scanned and the smallest prime
    satisfying both the domain bound q^(d+1) >= domain and the slack bound
    q >= slack * Delta * d wins; ties prefer the smaller degree, so the scan
    stops once the slack bound alone exceeds the best prime found. Every
    level uses the same slack, a finite number > 1.
    """
    _check_positive(id_space, "id space")  # before the integer roots of the scan
    ell = clamp_depth(id_space, max_degree, depth)
    f = _check_slack(slack)
    qs: list[int] = []
    ds: list[int] = []
    domain = id_space
    for i in range(ell + 1):
        best: tuple[int, int] | None = None
        d_max = max(1, math.ceil(math.log2(max(domain, 2))))
        for d in range(1, d_max + 1):
            if best is not None and f * max_degree * d > best[0]:
                break
            lo = max(2, _iroot_ceil(domain, d + 1), math.ceil(f * max_degree * d))
            if lo > _Q_CAP or (q := next_prime(lo)) > _Q_CAP:
                continue
            if best is None or q < best[0]:
                best = (q, d)
        if best is None:
            raise Infeasible(
                f"level {i}: no usable prime for domain {domain}, slack {f}"
            )
        qs.append(best[0])
        ds.append(best[1])
        domain = best[0]
    return TowerParams(id_space, max_degree, tuple(qs), tuple(ds), f)


def _pack_words(values, width: int = 4) -> int:
    """values, each below 2**32, in the low 32-bit words of width-byte fields, the first lowest."""
    pad = bytes(width - 4)
    return int.from_bytes(b"".join(v.to_bytes(4, "little") + pad for v in values), "little")


@lru_cache(maxsize=16)
def _power_table(q: int, d: int) -> tuple[tuple[int, ...], int, int, int, int]:
    """Packed powers of GF(q) and the constants that reduce their sums mod q.

    Field alpha of powers[k] holds alpha^k mod q, for every alpha in [0, q).
    A sum S of c_k * powers[k] with digits c_k < q holds at most
    top = (d+1)(q-1)^2 in a field, and floor(f * magic / 2^shift) is f // q
    for every f <= top (Granlund and Montgomery, PLDI 1994): with
    magic = floor(2^shift / q) + 1 the error term f * (magic*q - 2^shift)
    stays below 2^shift, since f * q < 2^shift. Fields are whole 32-bit
    words wide enough that f * magic never carries into the next, and the
    mask keeps the low bits of each, which hold f * magic >> shift. A table
    takes (d+1) * q fields, and q is bounded by the palette guard.
    """
    top = (d + 1) * (q - 1) ** 2
    shift = top.bit_length() + q.bit_length()
    magic = (1 << shift) // q + 1
    width = 4 * -(-(top * magic).bit_length() // 32)
    powers = tuple(_pack_words([pow(a, k, q) for a in range(q)], width) for k in range(d + 1))
    field = ((1 << 8 * width - shift) - 1).to_bytes(width, "little")
    return powers, magic, shift, int.from_bytes(field * q, "little"), width


def _evaluate(q: int, d: int, value: int) -> tuple[int, int]:
    """p(alpha) for every alpha in [0, q), packed in fields of width bytes: (packed, width).

    p is the degree-<=d polynomial over GF(q) whose coefficients are the
    base-q digits of value, constant term first. All q values come from
    d+1 scalar multiplies of the packed powers and one multiply-shift-mask
    reduction; q times a field's quotient is at most the field, so the
    subtraction borrows across none.
    """
    powers, magic, shift, mask, width = _power_table(q, d)
    acc = 0
    for power in powers:
        value, c = divmod(value, q)
        acc += c * power
    return acc - q * ((acc * magic >> shift) & mask), width


def _low_words(raw: bytes, width: int) -> bytes:
    """The low 32-bit word of each width-byte field of raw; 4 divides width.

    The array only groups bytes, it reads no value, so this holds on any byte order.
    """
    return array("I", raw)[:: width // 4].tobytes()


def _memoised_free_colors(
    id_space: int, qs: tuple[int, ...], ds: tuple[int, ...]
) -> Callable[[int], tuple[tuple[int, ...], int]]:
    """M by a single-value descent: x -> (palette indices, packed betas).

    Each level evaluates its polynomial at every alpha at once (_evaluate).
    There is one leaf per alpha path, emitted as the 1-based mixed-radix
    index of (alpha_0..alpha_ell, beta_x); beta_x of path j also sits in
    32-bit word j of the packed int. Each level reads the low word of every
    evaluation field once. A subtree's indices travel as 32-bit words (a
    palette index is below _MAX_PALETTE), so a level adds every alpha's
    offset to them with one addition. Below level 0 a subtree depends only
    on its (level, value), so each is computed once and kept with its beta
    bytes, at most depth * prod(qs) colors in all, and a deeper level only
    concatenates its subtrees' bytes. Ids are kept for the
    _MEMO_COLORS // prod(qs) most recently used, and an id outside
    [1, id_space] is refused on its miss.
    """
    depth = len(qs) - 1
    # alpha paths below each level, and the palette indices spanned by one alpha
    paths = [math.prod(qs[i:]) for i in range(depth + 2)]
    strides = [qs[-1] * paths[i + 1] for i in range(depth + 1)]
    # the index offset of every path: alpha * stride of each level's alpha,
    # and the last level's 1 + alpha * q_ell
    offsets = [
        _pack_words([a * strides[i] for a in range(qs[i]) for _ in range(paths[i + 1])])
        for i in range(depth)
    ]
    offsets.append(_pack_words(range(1, qs[-1] ** 2, qs[-1])))

    def leaves(level: int, value: int) -> tuple[bytes, bytes]:
        # TowerParams ensures value < q^(d+1)
        q = qs[level]
        acc, width = _evaluate(q, ds[level], value)
        values = _low_words(acc.to_bytes(q * width, "little"), width)
        if level == depth:
            colors = int.from_bytes(values, "little") + offsets[level]
            return colors.to_bytes(4 * q, "little"), values
        subs = [subtree(level + 1, v) for v in struct.unpack(f"<{q}I", values)]
        colors = int.from_bytes(b"".join([c for c, _ in subs]), "little") + offsets[level]
        return colors.to_bytes(4 * paths[level], "little"), b"".join([b for _, b in subs])

    def free(x: int) -> tuple[tuple[int, ...], int]:
        _check_id(x, id_space)
        colors, betas = leaves(0, x - 1)
        return struct.unpack(f"<{paths[0]}I", colors), int.from_bytes(betas, "little")

    subtree = lru_cache(maxsize=None)(leaves)
    return lru_cache(_MEMO_COLORS // math.prod(qs))(free)


def tower_color_indices(view: OneHopView, params: TowerParams) -> tuple[int, ...]:
    """All colors the node keeps for this view, as ascending 1-based palette indices.

    The exclusion rule M(x) minus the union of M(y) over the neighbors y: a
    neighbor whose value equals the node's at some level keeps it equal down
    the rest of the tower, so it blocks exactly the alpha paths where its
    beta equals the node's. Per neighbor one zero test on the packed betas
    finds them all: a field of ((mine | guards) ^ theirs) - ones keeps its
    guard bit exactly when the two betas differ, since a beta leaves its
    guard bit clear. M(x) is ascending, and compressing it by the surviving
    guard bits keeps that order.

    A certificate sweep asks for the views of one own id x in a row, as
    OrderFamily.beats_row's callers do, so params keep a row for the most
    recent x. The first view of an x records only x, M(x) and its raised
    betas, so a schedule, which asks for each id once, fills no dict. From
    the second view on, the row keeps each neighbor y's packed word
    (raised ^ beta_y) - ones, the complement of block(x, y), for as many
    ids as the M memo keeps, and the kept colors of each distinct set of
    surviving guard bits, for the first _ROW_RESULTS. An id outside the id
    space is refused on its M memo miss, before the row changes.
    """
    nbrs = view.neighbors
    if len(nbrs) > params.max_degree:  # inline: a certificate sweep makes 10^5 calls
        _check_count(len(nbrs), "degree", params.max_degree)
    x = view.node_id
    free = params._free_colors  # refuses ids outside the id space
    guards, ones = params._beta_masks
    row_x, own, raised, blocks, results = params._row
    if row_x != x:
        own, mine = free(x)
        raised = mine | guards
        # where cached_property keeps _row: the frozen dataclass refuses setattr
        params.__dict__["_row"] = x, own, raised, None, None
        alive = guards
        for y in nbrs:
            alive &= (raised ^ free(y)[1]) - ones
        return tuple(compress(own, alive.to_bytes(4 * len(own), "little")[3::4]))
    if blocks is None:  # the second view of x: the row fills from here on
        blocks, results = {}, {}
        params.__dict__["_row"] = x, own, raised, blocks, results
    alive = guards
    for y in nbrs:
        block = blocks.get(y)
        if block is None:
            block = (raised ^ free(y)[1]) - ones
            if len(blocks) < _MEMO_COLORS // len(own):  # as many ids as the M memo
                blocks[y] = block
        alive &= block
    kept = results.get(alive)
    if kept is None:
        kept = tuple(compress(own, alive.to_bytes(4 * len(own), "little")[3::4]))
        if len(results) < _ROW_RESULTS:
            results[alive] = kept
    return kept


def tower_colors(view: OneHopView, params: TowerParams) -> frozenset[tuple[int, ...]]:
    """The kept colors of tower_color_indices as (alpha_0..alpha_ell, beta)."""
    return frozenset(
        tower_color_from_index(params, i) for i in tower_color_indices(view, params)
    )


def tower_color_from_index(params: TowerParams, index: int) -> tuple[int, ...]:
    """The tuple (alpha_0..alpha_ell, beta) at a 1-based index, mixed radix."""
    if not 1 <= index <= params.palette_size:
        raise InvalidParams(f"index {index} outside [1, {params.palette_size}]")
    radices = params.qs + (params.qs[-1],)
    idx = index - 1
    digits = []
    for radix in reversed(radices):
        idx, r = divmod(idx, radix)
        digits.append(r)
    return tuple(reversed(digits))


def _build_basic(g: Graph, max_degree: int, depth=0, slack=2):
    """Node computation for one tower instance, ready for the harness."""
    params = choose_tower(g.id_space, max_degree, depth, slack)

    def compute(own, received) -> tuple[int, ...]:
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return tower_color_indices(view, params)

    return simulator.NodeProgram(
        name="algebraic-basic",
        palette_size=params.palette_size,
        compute=compute,
        meta={"tower": params.to_json_dict(), "max_degree": params.max_degree},
    )


def run_basic(g: Graph, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "algebraic-basic", **opts)."""
    return simulator.run_one_shot(g, "algebraic-basic", **opts)[0]


# ---------------------------------------------------------------------------
# weighted union over degree scales


def _ceil_log2(x: int) -> int:
    return max(0, (x - 1).bit_length())


@dataclass(frozen=True)
class WeightedScheme:
    """Union of choose_tower(id_space, 2^i, depth, slack), i = 1..ceil(log2 Delta).

    Scale i has weight ceil((Delta/2^(i-1))^eps * top_palette/palette_i): the
    top scale keeps weight about 1, and lower scales are replicated until
    their mass matches, boosted by the degree ratio to the eps power. A
    palette of more than _MAX_PALETTE colors is refused.
    """

    id_space: int
    max_degree: int
    epsilon: float
    instances: tuple[TowerParams, ...] = field(init=False)  # [i-1] covers degree <= 2^i
    weights: tuple[int, ...] = field(init=False)
    depth: InitVar[int] = 0
    slack: InitVar[object] = 2

    def __post_init__(self, depth, slack):
        _check_positive(self.max_degree, "max degree")
        e = float(_unit_eps(self.epsilon))
        levels = max(1, _ceil_log2(self.max_degree))
        instances = tuple(
            choose_tower(self.id_space, 2**i, depth, slack) for i in range(1, levels + 1)
        )
        top = instances[-1].palette_size
        weights = []
        for i, inst in enumerate(instances, start=1):
            ratio = Fraction(self.max_degree, 2 ** (i - 1))
            boost = 1 if e == 0 else ratio if e == 1 else ratio**e  # exact at eps 0 and 1
            weights.append(math.ceil(boost * Fraction(top, inst.palette_size)))
        object.__setattr__(self, "epsilon", e)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "weights", tuple(weights))
        _check_budget(self.palette_size, _MAX_PALETTE, "weighted palette colors")

    @property
    def levels(self) -> int:
        return len(self.instances)

    @property
    def palette_size(self) -> int:
        return sum(
            w * inst.palette_size for w, inst in zip(self.weights, self.instances)
        )

    def lowest_instance(self, degree: int) -> int:
        """Smallest instance index a node of the given degree may use."""
        _check_count(degree, "degree", self.max_degree)
        return max(1, _ceil_log2(max(degree, 1)))

    def guaranteed_fraction(self, degree: int) -> Fraction:
        """Exact lower bound on the palette share of a node of this degree."""
        lo = self.lowest_instance(degree)
        kept = sum(
            self.weights[i - 1] * self.instances[i - 1].guaranteed_colors
            for i in range(lo, self.levels + 1)
        )
        return Fraction(kept, self.palette_size)

    def to_json_dict(self) -> dict:
        return {
            "id_space": self.id_space,
            "max_degree": self.max_degree,
            "epsilon": self.epsilon,
            "instances": [inst.to_json_dict() for inst in self.instances],
            "weights": list(self.weights),
            "palette_size": self.palette_size,
        }


def build_weighted_scheme(
    id_space: int, max_degree: int, eps, depth: int = 0, slack=2
) -> WeightedScheme:
    """The WeightedScheme of these arguments."""
    return WeightedScheme(id_space, max_degree, eps, depth, slack)


def weighted_colors(
    view: OneHopView, scheme: WeightedScheme
) -> frozenset[tuple[tuple[int, ...], int, int]]:
    """All (color, instance, copy) triples the node keeps for this view.

    A node of degree delta uses exactly the instances i >= ceil(log2 delta)
    (all of them when delta <= 1), taking every copy j in [1, weight_i] of
    each color its tower keeps.
    """
    lo = scheme.lowest_instance(view.degree)
    out = []
    for i in range(lo, scheme.levels + 1):
        inst = scheme.instances[i - 1]
        for c in tower_colors(view, inst):
            for j in range(1, scheme.weights[i - 1] + 1):
                out.append((c, i, j))
    return frozenset(out)


def weighted_color_indices(view: OneHopView, scheme: WeightedScheme) -> tuple[int, ...]:
    """Selected weighted colors as ascending 1-based palette indices.

    Instance i owns the w_i * P_i slots after those of every instance t < i;
    copy j of its tower color c sits at offset_i + (j-1)*P_i + c. Instances
    and copies come in increasing offset, each an ascending run, so the
    concatenation is ascending. An instance's kept indices are packed once
    as 32-bit words (every index is below _MAX_PALETTE), a copy's offset is
    added to all of them with one multiply-add, and the node's copies are
    decoded together.
    """
    lo = scheme.lowest_instance(view.degree)
    copies: list[bytes] = []
    offset = 0
    for i, (inst, w) in enumerate(zip(scheme.instances, scheme.weights), start=1):
        size = inst.palette_size
        if i >= lo:
            kept = tower_color_indices(view, inst)
            base = int.from_bytes(struct.pack(f"<{len(kept)}I", *kept), "little")
            # a 1 in each word; the kept count varies by node, so it is not cached
            ones = int.from_bytes(b"\x01\x00\x00\x00" * len(kept), "little")
            for shift in range(offset, offset + w * size, size):
                copies.append((base + shift * ones).to_bytes(4 * len(kept), "little"))
        offset += w * size
    raw = b"".join(copies)
    return struct.unpack(f"<{len(raw) // 4}I", raw)


def _build_weighted(g: Graph, max_degree: int, eps=0.5, depth=0, slack=2):
    """Node computation for the weighted union, ready for the harness."""
    scheme = build_weighted_scheme(g.id_space, max(1, max_degree), eps, depth, slack)

    def compute(own, received) -> tuple[int, ...]:
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return weighted_color_indices(view, scheme)

    return simulator.NodeProgram(
        name="algebraic-weighted",
        palette_size=scheme.palette_size,
        compute=compute,
        meta={"scheme": scheme.to_json_dict(), "max_degree": scheme.max_degree},
    )


def run_weighted(g: Graph, eps, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "algebraic-weighted", eps=eps, **opts)."""
    return simulator.run_one_shot(g, "algebraic-weighted", eps=eps, **opts)[0]


simulator.register_builder("algebraic-basic", _build_basic)
simulator.register_builder("algebraic-weighted", _build_weighted)
