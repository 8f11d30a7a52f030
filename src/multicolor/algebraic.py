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

Weighted union: one basic instance per degree scale 2^i is replicated with a
weight that balances palette mass across scales; a node of degree delta only
draws from instances with 2^i >= delta, so low-degree nodes keep a larger
share of the combined palette.

Colors are computed as 1-based palette indices; the tuples of tower_colors and
the (color, instance, copy) triples of weighted_colors are views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from . import simulator
from .coloring import Multicoloring
from .errors import Infeasible, InvalidParams
from .gf import is_prime, next_prime
from .graph import Graph, OneHopView
from .simulator import NodeProgram

__all__ = [
    "TowerParams",
    "clamp_depth",
    "choose_tower",
    "tower_colors",
    "tower_color_index",
    "tower_color_from_index",
    "tower_color_indices",
    "basic_program",
    "run_basic",
    "WeightedScheme",
    "build_weighted_scheme",
    "weighted_colors",
    "weighted_color_index",
    "weighted_color_indices",
    "weighted_program",
    "run_weighted",
]

_Q_CAP = 2**62  # defensive ceiling for the prime search
# colors memoised per tower, about 40 B each in tuples: at most ~21 MB a tower
_MEMO_COLORS = 1 << 19


def _check_slack(slack) -> Fraction:
    if not 1 < slack < math.inf:  # before Fraction(), which raises on nan and inf
        raise InvalidParams(f"slack {slack} must be finite and > 1")
    return Fraction(slack)


@dataclass(frozen=True)
class TowerParams:
    """Validated parameters of one polynomial tower.

    Level i uses degree-<=ds[i] polynomials over GF(qs[i]); level 0 must fit
    the id space and each deeper level must fit the previous field.
    """

    id_space: int
    max_degree: int
    qs: tuple[int, ...]
    ds: tuple[int, ...]
    fs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(self.qs))
        object.__setattr__(self, "ds", tuple(self.ds))
        object.__setattr__(self, "fs", tuple(map(_check_slack, self.fs)))
        if self.id_space < 1:
            raise InvalidParams("id space must be >= 1")
        if self.max_degree < 0:
            raise InvalidParams("max degree must be >= 0")
        if not self.qs or not len(self.qs) == len(self.ds) == len(self.fs):
            raise InvalidParams("qs, ds, fs must be nonempty and equally long")
        domain = self.id_space
        for i, (q, d, f) in enumerate(zip(self.qs, self.ds, self.fs)):
            if not is_prime(q):
                raise InvalidParams(f"field order {q} is not prime")
            if d < 1:
                raise InvalidParams(f"level {i}: degree bound {d} must be >= 1")
            if q ** (d + 1) < domain:
                raise InvalidParams(
                    f"level {i}: {q}^{d + 1} cannot encode a domain of {domain}"
                )
            if q < f * self.max_degree * d:
                raise InvalidParams(
                    f"level {i}: q={q} below slack bound {f} * {self.max_degree} * {d}"
                )
            domain = q

    @property
    def depth(self) -> int:
        return len(self.qs) - 1

    @cached_property
    def _free_colors(self) -> Callable[[int], tuple[int, ...]]:
        """M: id -> sorted palette indices of its neighbor-free view (ids unchecked)."""
        return _memoised_free_colors(self.qs, self.ds)

    @property
    def palette_size(self) -> int:
        return self.qs[-1] * math.prod(self.qs)

    @property
    def guaranteed_colors(self) -> int:
        """Exact per-node lower bound on selected colors, any degree <= max."""
        return math.prod(q - self.max_degree * d for q, d in zip(self.qs, self.ds))

    @property
    def retention(self) -> Fraction:
        """prod (1 - 1/f_i): guaranteed share of prod q_i, by the slack bounds."""
        return math.prod((1 - 1 / f for f in self.fs), start=Fraction(1))

    def to_json_dict(self) -> dict:
        return {
            "id_space": self.id_space,
            "max_degree": self.max_degree,
            "q": list(self.qs),
            "d": list(self.ds),
            "f": [str(f) for f in self.fs],
            "palette_size": self.palette_size,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TowerParams":
        return cls(
            id_space=int(payload["id_space"]),
            max_degree=int(payload["max_degree"]),
            qs=tuple(int(q) for q in payload["q"]),
            ds=tuple(int(d) for d in payload["d"]),
            fs=tuple(Fraction(f) for f in payload["f"]),
        )


def clamp_depth(id_space: int, max_degree: int, depth: int) -> int:
    """Largest ell <= depth with iterated-log_ell(N) > max(e, Delta); 0 if none.

    Deeper towers only help while the iterated logarithm stays above the
    degree bound; outside that regime the construction still works but extra
    levels cannot pay off, so the depth falls back to 0.
    """
    if depth < 0:
        raise InvalidParams("depth must be >= 0")
    bound = max(math.e, max_degree)
    best = 0
    val = float(id_space)
    for level in range(depth + 1):
        if val > bound:
            best = level
        else:
            break
        val = math.log(val)
    return best


def _iroot_ceil(n: int, e: int) -> int:
    """Smallest integer r >= 1 with r**e >= n."""
    if n <= 1:
        return 1
    r = max(1, round(n ** (1.0 / e)))
    while r**e >= n:
        r -= 1
    while r**e < n:
        r += 1
    return r


def choose_tower(id_space: int, max_degree: int, depth: int = 0, slack=2) -> TowerParams:
    """Pick the cheapest valid (q_i, d_i) per level for the given id space.

    Per level the candidate degree range is scanned and the smallest prime
    satisfying both the domain bound q^(d+1) >= domain and the slack bound
    q >= slack * Delta * d wins; ties prefer the smaller degree. Every level
    uses the same slack, a finite number > 1.
    """
    ell = clamp_depth(id_space, max_degree, depth)
    f = _check_slack(slack)
    qs: list[int] = []
    ds: list[int] = []
    domain = id_space
    for i in range(ell + 1):
        best: tuple[int, int] | None = None
        d_max = max(1, math.ceil(math.log2(max(domain, 2))))
        for d in range(1, d_max + 1):
            lo = max(2, _iroot_ceil(domain, d + 1), math.ceil(f * max_degree * d))
            q = next_prime(lo)
            if q > _Q_CAP:
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
    return TowerParams(id_space, max_degree, tuple(qs), tuple(ds), (f,) * (ell + 1))


def _check_view(view: OneHopView, params: TowerParams) -> None:
    if view.degree > params.max_degree:
        raise InvalidParams(
            f"view degree {view.degree} exceeds the bound {params.max_degree}"
        )
    if view.node_id > params.id_space:
        raise InvalidParams(f"id {view.node_id} outside [1, {params.id_space}]")
    for y in view.neighbors:
        if y > params.id_space:
            raise InvalidParams(f"id {y} outside [1, {params.id_space}]")


def _memoised_free_colors(
    qs: tuple[int, ...], ds: tuple[int, ...]
) -> Callable[[int], tuple[int, ...]]:
    """M by a single-value descent: one leaf per alpha path, emitted as the
    1-based mixed-radix index of (alpha_0..alpha_ell, beta_x).

    Below level 0 a subtree depends only on its (level, value), so each is
    computed once and kept, at most depth * prod(qs) colors in all. Ids are
    kept for the _MEMO_COLORS // prod(qs) most recently used.
    """
    depth = len(qs) - 1
    # palette indices spanned by one alpha at each level
    strides = [qs[-1] * math.prod(qs[i + 1 :]) for i in range(depth + 1)]

    def leaves(level: int, value: int) -> tuple[int, ...]:
        q, stride = qs[level], strides[level]
        # base-q digits, highest first; TowerParams ensures value < q^(d+1)
        digits = [value // q**k % q for k in range(ds[level], -1, -1)]
        out: list[int] = []
        for alpha in range(q):
            acc = 0
            for c in digits:
                acc = acc * alpha + c  # Horner, reduced once below
            if level == depth:
                out.append(alpha * stride + acc % q + 1)
            else:
                base = alpha * stride
                out.extend([base + t for t in subtree(level + 1, acc % q)])
        return tuple(out)

    subtree = lru_cache(maxsize=None)(leaves)
    return lru_cache(_MEMO_COLORS // math.prod(qs))(lambda x: leaves(0, x - 1))


def tower_color_indices(view: OneHopView, params: TowerParams) -> frozenset[int]:
    """All colors the node keeps for this view, as 1-based palette indices.

    The exclusion rule M(x) minus the union of M(y) over the neighbors y: a
    neighbor whose value equals the node's at some level keeps it equal down
    the rest of the tower, so it blocks exactly the colors it shares with M(x).
    """
    _check_view(view, params)
    free = params._free_colors
    return frozenset(free(view.node_id)).difference(*map(free, view.neighbors))


def tower_colors(view: OneHopView, params: TowerParams) -> frozenset[tuple[int, ...]]:
    """The kept colors of tower_color_indices as (alpha_0..alpha_ell, beta)."""
    return frozenset(
        tower_color_from_index(params, i) for i in tower_color_indices(view, params)
    )


def tower_color_index(params: TowerParams, color: tuple[int, ...]) -> int:
    """1-based palette index of a color tuple (mixed radix, beta last)."""
    radices = params.qs + (params.qs[-1],)
    if len(color) != len(radices):
        raise InvalidParams(f"color tuple must have {len(radices)} entries")
    idx = 0
    for digit, radix in zip(color, radices):
        if not 0 <= digit < radix:
            raise InvalidParams(f"digit {digit} outside [0, {radix})")
        idx = idx * radix + digit
    return idx + 1


def tower_color_from_index(params: TowerParams, index: int) -> tuple[int, ...]:
    """Inverse of tower_color_index."""
    if not 1 <= index <= params.palette_size:
        raise InvalidParams(f"index {index} outside [1, {params.palette_size}]")
    radices = params.qs + (params.qs[-1],)
    idx = index - 1
    digits = []
    for radix in reversed(radices):
        idx, r = divmod(idx, radix)
        digits.append(r)
    return tuple(reversed(digits))


def basic_program(params: TowerParams) -> NodeProgram:
    """Node computation for one tower instance, ready for the harness."""

    def compute(own, received) -> frozenset[int]:
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return tower_color_indices(view, params)

    return NodeProgram(
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
    """Weighted union of tower instances at degree scales 2^1 .. 2^L."""

    id_space: int
    max_degree: int
    epsilon: float
    instances: tuple[TowerParams, ...]  # instances[i-1] covers degree <= 2^i
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.max_degree < 1:
            raise InvalidParams("max degree must be >= 1")
        if not 0 <= self.epsilon <= 1:
            raise InvalidParams(f"epsilon {self.epsilon} outside [0, 1]")
        levels = max(1, _ceil_log2(self.max_degree))
        if len(self.instances) != levels or len(self.weights) != levels:
            raise InvalidParams(f"need exactly {levels} instances and weights")
        for i, inst in enumerate(self.instances, start=1):
            if inst.max_degree != 2**i:
                raise InvalidParams(
                    f"instance {i} must be built for degree bound {2**i}"
                )
            if inst.id_space != self.id_space:
                raise InvalidParams("instances must share the scheme's id space")
        if any(w < 1 for w in self.weights):
            raise InvalidParams("weights must be positive")

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
        if degree > self.max_degree:
            raise InvalidParams(
                f"degree {degree} exceeds the bound {self.max_degree}"
            )
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
    """One tower instance per degree scale, weighted to balance palette mass.

    Weight of scale i is ceil((Delta/2^(i-1))^eps * top_palette/palette_i):
    the top scale keeps weight about 1 and lower scales are replicated until
    their mass matches, boosted by the degree ratio to the eps power.
    """
    if max_degree < 1:
        raise InvalidParams("max degree must be >= 1")
    e = float(eps)
    if not 0 <= e <= 1:
        raise InvalidParams(f"epsilon {eps} outside [0, 1]")
    levels = max(1, _ceil_log2(max_degree))
    instances = tuple(
        choose_tower(id_space, 2**i, depth, slack) for i in range(1, levels + 1)
    )
    top = instances[-1].palette_size
    weights = []
    for i in range(1, levels + 1):
        mass = Fraction(top, instances[i - 1].palette_size)
        if e == 0:
            boost: Fraction | float = Fraction(1)
        elif e == 1:
            boost = Fraction(max_degree, 2 ** (i - 1))
        else:
            boost = (max_degree / 2 ** (i - 1)) ** e
        weights.append(math.ceil(boost * mass))
    return WeightedScheme(
        id_space=id_space,
        max_degree=max_degree,
        epsilon=e,
        instances=instances,
        weights=tuple(weights),
    )


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


def weighted_color_index(
    scheme: WeightedScheme, wc: tuple[tuple[int, ...], int, int]
) -> int:
    """1-based palette index of (color, instance, copy), copies laid out flat."""
    color, i, j = wc
    if not 1 <= i <= scheme.levels:
        raise InvalidParams(f"instance {i} outside [1, {scheme.levels}]")
    if not 1 <= j <= scheme.weights[i - 1]:
        raise InvalidParams(f"copy {j} outside [1, {scheme.weights[i - 1]}]")
    offset = sum(
        scheme.weights[t - 1] * scheme.instances[t - 1].palette_size
        for t in range(1, i)
    )
    inst = scheme.instances[i - 1]
    return offset + (j - 1) * inst.palette_size + tower_color_index(inst, color)


def weighted_color_indices(view: OneHopView, scheme: WeightedScheme) -> frozenset[int]:
    """Selected weighted colors as 1-based palette indices.

    Instance i owns the w_i * P_i slots after those of every instance t < i;
    copy j of its tower color c sits at offset_i + (j-1)*P_i + c, the layout of
    weighted_color_index.
    """
    lo = scheme.lowest_instance(view.degree)
    out: list[int] = []
    offset = 0
    for i, (inst, w) in enumerate(zip(scheme.instances, scheme.weights), start=1):
        size = inst.palette_size
        if i >= lo:
            kept = tower_color_indices(view, inst)
            for shift in range(offset, offset + w * size, size):
                out.extend(c + shift for c in kept)
        offset += w * size
    return frozenset(out)


def weighted_program(scheme: WeightedScheme) -> NodeProgram:
    """Node computation for the weighted union, ready for the harness."""

    def compute(own, received) -> frozenset[int]:
        view = OneHopView(own.node_id, frozenset(e.node_id for e in received))
        return weighted_color_indices(view, scheme)

    return NodeProgram(
        name="algebraic-weighted",
        palette_size=scheme.palette_size,
        compute=compute,
        meta={"scheme": scheme.to_json_dict(), "max_degree": scheme.max_degree},
    )


def run_weighted(g: Graph, eps, **opts) -> Multicoloring:
    """The coloring of run_one_shot(g, "algebraic-weighted", eps=eps, **opts)."""
    return simulator.run_one_shot(g, "algebraic-weighted", eps=eps, **opts)[0]


def _build_basic(g: Graph, max_degree: int, depth=0, slack=2):
    return basic_program(choose_tower(g.id_space, max_degree, depth, slack))


def _build_weighted(g: Graph, max_degree: int, eps=0.5, depth=0, slack=2):
    scheme = build_weighted_scheme(g.id_space, max(1, max_degree), eps, depth, slack)
    return weighted_program(scheme)


simulator.register_builder("algebraic-basic", _build_basic)
simulator.register_builder("algebraic-weighted", _build_weighted)
