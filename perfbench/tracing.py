"""Spans and counts at the layer boundaries of the multicolor package.

The tracer rebinds public functions of the package's modules (for example
permcolor.generate_draws or tdma.verify) to wrappers that record a span per
call, and restores them afterwards. Rebinding reaches every caller that looks
the name up at call time, which is how the package's node programs and
cross-module calls find them. Nothing in the package is edited; the wrappers
exist only in the benchmark's process and only while installed.

A span has a name "<layer>.<function>", start and end in ns, a parent span
and a trace id, one per (workload, operation, graph, repetition). Spans are
kept in memory, in arrays, and written when the run ends. A span's self time
is its duration minus that of its direct children. Counts are recorded at the
same boundaries from the values the wrapped functions return.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable

from multicolor import algebraic, graph, permcolor, simulator, tdma, verifier


def _payload(rounds, t: "Tracer") -> None:
    # every node's envelope reaches each of its neighbors once
    t.count(
        "simulator.payload_bytes_total",
        sum(n.sent.payload_bytes() * len(n.received) for n in rounds.nodes.values()),
    )


def _round(result, t: "Tracer") -> None:
    coloring, rounds = result
    t.count("simulator.messages", rounds.message_count)
    t.peak("simulator.max_payload_bytes", rounds.max_payload_bytes)
    t.later(_payload, rounds)


def _certify_family(cert, t: "Tracer") -> None:
    t.count("permcolor.certify_attempts", 1)
    t.count("permcolor.views_checked", cert.views_checked)


def _neighborhood(cert, t: "Tracer") -> None:
    t.count("verifier.views_checked", cert.views_checked)
    t.count("verifier.view_pairs", cert.edge_count)
    t.count(
        "verifier.views_covered",
        verifier.nbr_vertex_count(cert.id_space, cert.max_degree),
    )


# (module, attribute, span name, counter run on the return value)
POINTS = [
    (graph, "gnp_graph", "graph.gnp_graph", None),
    (graph, "unit_disk_graph", "graph.unit_disk_graph", None),
    (simulator, "build_program", "simulator.build_program", None),
    (simulator, "run_one_shot", "simulator.run_one_shot", _round),
    (
        permcolor,
        "generate_draws",
        "permcolor.generate_draws",
        lambda r, t: t.count("permcolor.draws", len(r.draws)),
    ),
    (permcolor, "select_colors", "permcolor.select_colors", None),
    (
        permcolor,
        "OrderFamily",
        "permcolor.OrderFamily",
        lambda r, t: t.count("permcolor.order_ranks", r.k * r.id_space),
    ),
    (permcolor, "select_by_orders", "permcolor.select_by_orders", None),
    (permcolor, "certify_family", "permcolor.certify_family", _certify_family),
    (permcolor, "certified_family", "permcolor.certified_family", None),
    (algebraic, "choose_tower", "algebraic.choose_tower", None),
    (algebraic, "build_weighted_scheme", "algebraic.build_weighted_scheme", None),
    (
        algebraic,
        "tower_colors",
        "algebraic.tower_colors",
        lambda r, t: t.count("algebraic.colors_kept", len(r)),
    ),
    (algebraic, "tower_color_indices", "algebraic.tower_color_indices", None),
    (
        algebraic,
        "weighted_colors",
        "algebraic.weighted_colors",
        lambda r, t: t.count("algebraic.weighted_triples", len(r)),
    ),
    (algebraic, "weighted_color_indices", "algebraic.weighted_color_indices", None),
    (
        verifier,
        "verify",
        "verifier.verify",
        lambda r, t: t.count("verifier.edges_checked", r.edge_count),
    ),
    # to_schedule re-verifies through the name it imported
    (
        tdma,
        "verify",
        "verifier.verify",
        lambda r, t: t.count("verifier.edges_checked", r.edge_count),
    ),
    (verifier, "certify_on_neighborhood", "verifier.certify_on_neighborhood", _neighborhood),
    (
        tdma,
        "to_schedule",
        "tdma.to_schedule",
        lambda r, t: t.count("tdma.slots_total", sum(map(len, r.slots.values()))),
    ),
    (tdma, "schedule_to_json", "tdma.schedule_to_json", None),
]


class SpanTree:
    """Per-name totals of the spans of one trace, with self times."""

    def __init__(self, names: dict[str, list[int]], compute_ns: list[int], root_ns: int):
        self.names = names  # name -> [self ns, total ns, calls]
        self.compute_ns = compute_ns  # durations of per-node compute spans
        self.root_ns = root_ns

    def self_s(self, name: str) -> float:
        return self.names.get(name, (0, 0, 0))[0] / 1e9

    def total_s(self, name: str) -> float:
        return self.names.get(name, (0, 0, 0))[1] / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(v[0] for k, v in self.names.items() if k.startswith(layer + ".")) / 1e9


class Tracer:
    def __init__(self):
        self.trace_ids: list[str] = []
        self.span_names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.trace = array("q")
        self._stack: list[int] = []
        self._trace = -1
        self._saved: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self._later: list[tuple[Callable, object]] = []
        self.last_tree: SpanTree | None = None
        self.last_counts: dict[str, int] = {}

    # -- counts ------------------------------------------------------------

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts[key], n)

    def later(self, fn: Callable, value) -> None:
        """Run a costly counter after the trace ends, outside every span."""
        self._later.append((fn, value))

    # -- spans -------------------------------------------------------------

    def _open(self, ix: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(ix)
        self.trace.append(self._trace)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        """fn, recording a span named name per call and counting its result."""
        ix = self._name_ix.setdefault(name, len(self.span_names))
        if ix == len(self.span_names):
            self.span_names.append(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            i = opened(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(i)
            if counter is not None:
                counter(result, self)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, trace_id: str, root: str, fn: Callable):
        """Call fn with the wrappers installed, as the root span of a new trace.

        Returns fn's result; the trace's SpanTree and counts are left in
        last_tree and last_counts.
        """
        self._trace = len(self.trace_ids)
        self.trace_ids.append(trace_id)
        self.counts = Counter()
        lo = len(self.start)
        self.install()
        try:
            result = self.wrap(fn, root)()
        finally:
            self.uninstall()
            self._trace = -1
        for counter, value in self._later:
            counter(value, self)
        self._later.clear()
        self.last_tree = self.tree(lo, len(self.start))
        self.last_counts = dict(self.counts)
        return result

    def tree(self, lo: int, hi: int) -> SpanTree:
        """Self times of spans lo..hi-1, one trace with its root at lo.

        Raises ValueError unless every span is closed and lies inside its
        parent, which is what makes children plus self times add up to the
        root span exactly.
        """
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0] * (hi - lo)
        for i in range(lo + 1, hi):
            p = self.parent[i]
            if not (lo <= p < i and self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                raise ValueError(f"span {i} is not nested in its parent {p}")
            child[p - lo] += dur[i - lo]
        names: dict[str, list[int]] = {}
        compute_ns = []
        for i in range(lo, hi):
            name = self.span_names[self.name[i]]
            own = dur[i - lo] - child[i - lo]
            acc = names.setdefault(name, [0, 0, 0])
            acc[0] += own
            acc[1] += dur[i - lo]
            acc[2] += 1
            if name.endswith(".compute"):
                compute_ns.append(dur[i - lo])
        if sum(v[0] for v in names.values()) != dur[0]:
            raise ValueError("self times do not add up to the root span")
        return SpanTree(names, compute_ns, dur[0])

    def write(self, path) -> None:
        """All spans as gzip CSV: trace, span, parent, name, start_ns, end_ns."""
        t0 = self.start[0] if self.start else 0
        names, ids = self.span_names, self.trace_ids
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("trace,span,parent,name,start_ns,end_ns\n")
            out.writelines(
                f"{ids[self.trace[i]]},{i},{self.parent[i]},{names[self.name[i]]},"
                f"{self.start[i] - t0},{self.end[i] - t0}\n"
                for i in range(len(self.start))
            )


def percentile_ms(samples_ns: list[int], q: int) -> float:
    """The q-th percentile (1..99) of two or more samples, in ms."""
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[q - 1] / 1e6
