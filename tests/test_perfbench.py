"""The benchmark's tracer hooks names of the package; they must all exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

from multicolor import gnp_graph, permcolor, simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


def test_every_traced_point_exists():
    tracing = load_tracing()
    for module, attribute, _, _ in tracing.POINTS:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute}"


@pytest.mark.parametrize("algorithm", simulator.registered_algorithms())
def test_traced_counts_read_the_real_return_values(algorithm):
    """The tracer counts draws off generate_draws' result (k per node) and
    messages off run_one_shot's trace (one per edge end)."""
    g = gnp_graph(10, 0.3, 20, seed=4)
    assert g.edge_count() > 0
    tracer = load_tracing().Tracer()
    coloring, _ = tracer.run("t", "root", lambda: simulator.run_one_shot(g, algorithm, 3))
    draws = coloring.palette_size * g.n if algorithm == "randomized" else 0
    assert tracer.last_counts.get("permcolor.draws", 0) == draws
    assert tracer.last_counts["simulator.messages"] == 2 * g.edge_count()


def test_order_family_keeps_what_the_benchmark_reads():
    # the order_ranks counter reads k and id_space; certify-views calls select_mask
    fam = permcolor.OrderFamily(3, 4, seed=0)
    assert (fam.k, fam.id_space) == (3, 4)
    assert fam.select_mask(1, (2,)) >> 3 == 0


def test_certify_views_gate_passes_on_both_certificates():
    """The benchmark's certificate gate: both certify-views certificates pass
    over all 122,670 views and 72,057,315 view pairs."""
    workloads = load("workloads")
    ops = [
        op
        for op in workloads.operations(workloads.WORKLOADS["certify-views"], [], seed=1)
        if isinstance(op, workloads.CertifyOp)
    ]
    assert [op.algo for op in ops] == ["shared-order", "algebraic-basic"]
    for op in ops:
        assert op.check(op.run(0)) == []


def test_narrow_ids_schedule_gate_passes_for_every_algorithm():
    """The benchmark's schedule gate: on narrow-ids, the one workload that runs
    all four algorithms, each schedule is disjoint (verify's report), has its
    palette, keeps its construction's guaranteed share, replays and round-trips."""
    workloads = load("workloads")
    workload = workloads.WORKLOADS["narrow-ids"]
    graphs = workloads.make_inputs(workload, seed=1)
    ops = workloads.operations(workload, graphs, seed=1)
    assert sorted(op.algo for op in ops) == sorted(simulator.registered_algorithms())
    for op in ops:
        assert op.check(op.run(0)) == [], op.name
