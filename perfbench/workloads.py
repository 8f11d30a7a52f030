"""Inputs, operations and correctness gates of the multicolor benchmark.

A workload is a list of operations on inputs made from the workload seed.
Each operation turns inputs already in memory into one artifact that a
user of the package keeps:

* a schedule: build_program -> run_one_shot -> verify -> to_schedule ->
  schedule_to_json on one interference graph;
* a certificate: an exhaustive check over every one-hop view of a small id
  space, which has to pass.

The package is called only through module attributes (for example
simulator.run_one_shot, or algebraic.tower_color_indices inside a
callback), so tracing.py can rebind them for the length of a traced
operation. Node programs look their helpers up the same way at call time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from multicolor import algebraic, graph, permcolor, simulator, tdma, verifier
from multicolor.graph import Graph

EPS = 0.5
# Several graphs per run, so that one topology does not set a run's figures.
GRAPHS_PER_RUN = 3
REPLAY_NODES = 3
CERTIFY_ATTEMPTS = 3

# Exact constants of the certify-views workload (acceptance criterion 3).
CERT_PALETTE = 436
CERT_VIEWS = 122_670
CERT_PAIRS = 72_057_315

# An instrument hook takes a callable and a span name and returns the callable
# to use; the untraced hook returns it unchanged.
Instrument = Callable[[Callable, str], Callable]


def untraced(fn: Callable, name: str) -> Callable:
    return fn


def capped_graph(g: Graph, cap: int) -> Graph:
    """Drop edges, in sorted order, once an endpoint has reached the cap.

    The same rule as the acceptance suite's helper: it makes the maximum
    degree, and so every palette size, a constant of the workload.
    """
    deg = {v: 0 for v in g.node_ids()}
    adj: dict[int, set[int]] = {v: set() for v in g.node_ids()}
    for a, b in g.edges():
        if deg[a] < cap and deg[b] < cap:
            deg[a] += 1
            deg[b] += 1
            adj[a].add(b)
            adj[b].add(a)
    return Graph(g.id_space, adj)


@dataclass(frozen=True)
class GraphRecipe:
    generator: str  # name of a generator in multicolor.graph
    n: int
    param: float  # edge probability or radius
    id_space: int
    cap: int

    def make(self, rng: random.Random) -> Graph:
        """The first capped graph from the stream whose max degree is the cap.

        A graph that stays below the cap would shrink every palette, so the
        draw is repeated until it reaches it; only the topology varies.
        """
        while True:
            make = getattr(graph, self.generator)
            g = capped_graph(
                make(self.n, self.param, self.id_space, rng.getrandbits(32)), self.cap
            )
            if g.max_degree() == self.cap:
                return g


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: GraphRecipe
    palettes: dict[str, int]  # algorithm -> palette size, asserted on every schedule
    certify: bool = False  # add the two exhaustive certificates over the id space
    opts: dict[str, dict] = field(default_factory=dict)  # extra build_program options


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-ids",
            GraphRecipe("gnp_graph", 1000, 0.008, 10**6, 16),
            {"randomized": 2819, "algebraic-basic": 9409, "algebraic-weighted": 103720},
        ),
        Workload(
            "narrow-ids",
            GraphRecipe("unit_disk_graph", 300, 0.06, 1200, 8),
            {
                "randomized": 1233,
                "shared-order": 4595,
                "algebraic-basic": 1369,
                "algebraic-weighted": 9621,
            },
        ),
        Workload(
            "certify-views",
            GraphRecipe("unit_disk_graph", 30, 0.25, 30, 3),
            {
                "shared-order": CERT_PALETTE,
                "algebraic-basic": 49,
                "randomized": 327,
                "algebraic-weighted": 487,
            },
            certify=True,
            # the deployed family is the certified one
            opts={"shared-order": {"certify_attempts": CERTIFY_ATTEMPTS}},
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    return [workload.recipe.make(rng) for _ in range(GRAPHS_PER_RUN)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def colors_json(colors) -> bytes:
    return json.dumps(sorted(colors)).encode()


# ---------------------------------------------------------------------------
# schedules


@dataclass
class ScheduleRun:
    graph: Graph
    program: simulator.NodeProgram
    coloring: object
    rounds: simulator.RoundTrace
    report: verifier.VerificationReport
    schedule: tdma.TdmaSchedule
    text: str


class ScheduleOp:
    """Graph in memory -> verified TDMA schedule in JSON, for one algorithm."""

    def __init__(self, workload: Workload, algo: str, graphs: list[Graph], seed: int):
        self.name = f"schedule.{algo}"
        self.metric = f"schedule_s.{algo}"
        self.algo = algo
        self.graphs = graphs
        self.seed = seed
        self.palette = workload.palettes[algo]
        self.opts = {"eps": EPS, **workload.opts.get(algo, {})}
        self.replay_rng = random.Random(seed)
        n_ids, delta = workload.recipe.id_space, workload.recipe.cap
        # the exact per-node contract of the deterministic constructions
        self.floor: Callable[[int], Fraction] | None = None
        if algo == "algebraic-basic":
            tower = algebraic.choose_tower(n_ids, delta)
            self.floor = lambda d: Fraction(tower.guaranteed_colors, tower.palette_size)
        elif algo == "algebraic-weighted":
            self.floor = algebraic.build_weighted_scheme(n_ids, delta, EPS).guaranteed_fraction

    def run(self, gi: int, instrument: Instrument = untraced) -> ScheduleRun:
        g = self.graphs[gi]
        program = simulator.build_program(self.algo, g, seed=self.seed, **self.opts)
        node = program
        if instrument is not untraced:
            layer = program.compute.__module__.rsplit(".", 1)[-1]
            node = replace(program, compute=instrument(program.compute, f"{layer}.compute"))
        coloring, rounds = simulator.run_one_shot(g, node, self.seed)
        report = verifier.verify(g, coloring)
        schedule = tdma.to_schedule(coloring, g)
        text = tdma.schedule_to_json(schedule)
        return ScheduleRun(g, program, coloring, rounds, report, schedule, text)

    def check(self, r: ScheduleRun) -> list[str]:
        bad = []
        if not r.report.valid:
            bad.append(f"{r.report.violation_count} conflicts")
        if r.program.palette_size != self.palette:
            bad.append(f"palette {r.program.palette_size}, expected {self.palette}")
        k = r.coloring.palette_size
        if self.floor is not None:
            short = [
                v
                for v, cols in r.coloring.assignment.items()
                if Fraction(len(cols), k) < self.floor(r.graph.degree(v))
            ]
            if short:
                bad.append(f"{len(short)} nodes below the guaranteed share, e.g. {short[0]}")
        for v in self.replay_rng.sample(r.graph.node_ids(), REPLAY_NODES):
            again = simulator.replay_view(
                r.graph.view(v), r.rounds.nodes[v].received, r.program, self.seed
            )
            if colors_json(again) != colors_json(r.coloring.assignment[v]):
                bad.append(f"replay of node {v} differs")
        back = tdma.schedule_from_json(r.text)
        if back.frame_length != r.schedule.frame_length or back.slots != r.schedule.slots:
            bad.append("schedule JSON does not round-trip")
        return bad

    def min_share(self, r: ScheduleRun) -> Fraction:
        """min over nodes of |S_v| * (d_v + 1) / k, the paper's quality measure."""
        k = r.coloring.palette_size
        return min(
            Fraction(len(cols) * (r.graph.degree(v) + 1), k)
            for v, cols in r.coloring.assignment.items()
        )

    def digest(self, r: ScheduleRun) -> str:
        return sha256(r.text)


# ---------------------------------------------------------------------------
# certificates over every view of a small id space


@dataclass
class CertifyRun:
    palette: int
    certs: list  # the certificates that must pass
    ncert: verifier.NeighborhoodCertificate


class CertifyOp:
    """Id space -> passed certificate over all views, for one construction."""

    def __init__(self, workload: Workload, algo: str, seed: int):
        self.name = f"certify.{algo}"
        self.metric = f"certify_s.{algo}"
        self.algo = algo
        self.seed = seed
        self.id_space = workload.recipe.id_space
        self.degree = workload.recipe.cap
        self.palette = workload.palettes[algo]

    def run(self, gi: int, instrument: Instrument = untraced) -> CertifyRun:
        n_ids, delta = self.id_space, self.degree
        if self.algo == "shared-order":
            family, cert, _ = permcolor.certified_family(
                n_ids, delta, EPS, self.seed, max_attempts=CERTIFY_ATTEMPTS
            )
            view_colors = instrument(
                lambda v: family.select_mask(v.node_id, v.neighbors),
                "permcolor.select_mask",
            )
            ncert = verifier.certify_on_neighborhood(
                view_colors,
                n_ids,
                delta,
                family.k,
                min_colors=lambda d: permcolor.min_colors_required(family.k, EPS, d),
            )
            return CertifyRun(family.k, [cert, ncert], ncert)
        tower = algebraic.choose_tower(n_ids, delta)
        ncert = verifier.certify_on_neighborhood(
            lambda v: algebraic.tower_color_indices(v, tower),
            n_ids,
            delta,
            tower.palette_size,
            min_colors=lambda d: tower.guaranteed_colors,
        )
        return CertifyRun(tower.palette_size, [ncert], ncert)

    def check(self, r: CertifyRun) -> list[str]:
        bad = []
        if r.palette != self.palette:
            bad.append(f"palette {r.palette}, expected {self.palette}")
        if not all(c.passed for c in r.certs):
            bad.append("certificate failed")
        if any(c.views_checked != CERT_VIEWS for c in r.certs):
            bad.append(f"views checked {[c.views_checked for c in r.certs]}, expected {CERT_VIEWS}")
        if r.ncert.edge_count != CERT_PAIRS:
            bad.append(f"view pairs {r.ncert.edge_count}, expected {CERT_PAIRS}")
        return bad

    def min_share(self, r: CertifyRun) -> Fraction:
        """The same measure as for schedules, over every certified view."""
        return min(
            Fraction(c * (d + 1), r.palette)
            for d, c in r.ncert.min_count_by_degree.items()
        )

    def digest(self, r: CertifyRun) -> str:
        return sha256(repr((r.palette, r.certs)))


def operations(workload: Workload, graphs: list[Graph], seed: int) -> list:
    """The workload's operations, certificates first, in a fixed order."""
    ops: list = []
    if workload.certify:
        ops += [CertifyOp(workload, a, seed) for a in ("shared-order", "algebraic-basic")]
    ops += [ScheduleOp(workload, a, graphs, seed) for a in workload.palettes]
    return ops
