"""One-shot harness: envelopes, traces, registry, and locality replay."""

import inspect
from array import array

import pytest

from multicolor import (
    ContractViolation,
    Graph,
    InvalidParams,
    NodeEnvelope,
    NodeProgram,
    OneHopView,
    gnp_graph,
    parse_edge_list,
    replay_view,
    run_one_shot,
)
from multicolor import algebraic, permcolor, simulator
from multicolor.simulator import build_program, registered_algorithms

ALGOS = ("algebraic-basic", "algebraic-weighted", "randomized", "shared-order")


def constant_program(palette=4, colors=frozenset({1})):
    return NodeProgram(
        name="const",
        palette_size=palette,
        compute=lambda own, received: colors,
    )


def test_payload_bytes():
    assert NodeEnvelope(1).payload_bytes() == 0
    assert NodeEnvelope(1, (0,)).payload_bytes() == 1
    assert NodeEnvelope(1, (255,)).payload_bytes() == 1
    assert NodeEnvelope(1, (256,)).payload_bytes() == 2
    assert NodeEnvelope(1, (2**64, 1)).payload_bytes() == 10
    assert NodeEnvelope(1, (0, 1, 255, 256, 2**64, 2**64, 1)).payload_bytes() == 24


def test_all_four_algorithms_are_registered():
    assert registered_algorithms() == ALGOS


def test_unknown_algorithm_name():
    g = gnp_graph(4, 0.5, 4, seed=0)
    with pytest.raises(InvalidParams):
        build_program("nope", g)
    with pytest.raises(InvalidParams):
        run_one_shot(g, "nope")


def test_opts_require_a_name():
    g = gnp_graph(4, 0.5, 4, seed=0)
    with pytest.raises(InvalidParams):
        run_one_shot(g, constant_program(), eps=0.5)


def test_edgeless_graph_receives_nothing():
    g = Graph(3, {1: set(), 2: set(), 3: set()})
    coloring, trace = run_one_shot(g, constant_program())
    assert trace.message_count == 0
    assert all(t.received == () for t in trace.nodes.values())
    assert all(coloring.assignment[v] == (1,) for v in (1, 2, 3))


def test_message_count_is_twice_the_edges():
    g = gnp_graph(20, 0.3, 50, seed=5)
    _, trace = run_one_shot(g, "algebraic-basic")
    assert trace.message_count == 2 * g.edge_count()
    assert trace.max_payload_bytes == 0  # deterministic, no bits on the wire
    for v, t in trace.nodes.items():
        assert len(t.received) == g.degree(v)
        assert [e.node_id for e in t.received] == sorted(g.neighbors(v))


def test_harness_equals_direct_view_computation_on_k2():
    g = parse_edge_list("# N=4\n1 2\n")
    params = algebraic.choose_tower(4, 1)
    coloring, _ = run_one_shot(g, build_program("algebraic-basic", g))
    for v in (1, 2):
        assert coloring.assignment[v] == algebraic.tower_color_indices(
            g.view(v), params
        )


def test_randomized_run_is_reproducible():
    g = gnp_graph(100, 0.05, 100, seed=1)
    a = run_one_shot(g, "randomized", seed=11, eps=1.0)
    b = run_one_shot(g, "randomized", seed=11, eps=1.0)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = run_one_shot(g, "randomized", seed=12, eps=1.0)
    assert a[0] != c[0]


def test_payload_total_counts_every_delivered_copy():
    g = gnp_graph(30, 0.2, 30, seed=4)
    _, trace = run_one_shot(g, "randomized", seed=3, eps=1.0)
    sent = {v: t.sent.payload_bytes() for v, t in trace.nodes.items()}
    assert trace.payload_bytes_total == sum(sent[v] * g.degree(v) for v in sent) > 0
    assert trace.max_payload_bytes == max(sent.values())
    assert trace.summary()["payload_bytes_total"] == trace.payload_bytes_total
    _, det = run_one_shot(g, "algebraic-basic")
    assert det.payload_bytes_total == 0


def test_payloads_are_sized_only_when_read_and_once_per_node(monkeypatch):
    """run_one_shot sizes no payload; the trace's figures size each one once."""
    calls = []
    size = NodeEnvelope.payload_bytes

    def counted(envelope):
        calls.append(envelope.node_id)
        return size(envelope)

    monkeypatch.setattr(NodeEnvelope, "payload_bytes", counted)
    g = gnp_graph(30, 0.2, 30, seed=4)
    _, trace = run_one_shot(g, "randomized", seed=3, eps=1.0)
    assert calls == []
    summary = trace.summary()
    assert (trace.message_count, trace.max_payload_bytes, trace.payload_bytes_total) == (
        summary["message_count"], summary["max_payload_bytes"], summary["payload_bytes_total"]
    )
    assert sorted(calls) == list(g.node_ids())


def test_randomized_needs_a_seed():
    g = gnp_graph(6, 0.5, 6, seed=1)
    prog = build_program("randomized", g, eps=0.5)
    with pytest.raises(InvalidParams):
        run_one_shot(g, prog)


def test_coloring_params_record_the_run():
    g = gnp_graph(8, 0.4, 8, seed=2)
    coloring, _ = run_one_shot(g, "randomized", seed=3, eps=0.5)
    assert coloring.params["algorithm"] == "randomized"
    assert coloring.params["seed"] == 3
    assert coloring.params["epsilon"] == 0.5


def test_build_program_forwards_options():
    g = gnp_graph(8, 0.4, 8, seed=2)
    prog = build_program("randomized", g, seed=1, eps=0.25)
    assert prog.meta["epsilon"] == 0.25


def test_a_misspelled_option_is_refused():
    g = gnp_graph(20, 0.2, 20, seed=6)
    with pytest.raises(InvalidParams, match="unknown option.*epsilon"):
        build_program("randomized", g, seed=1, epsilon=0.05)
    with pytest.raises(InvalidParams, match="unknown option.*epsilon"):
        run_one_shot(g, "randomized", 1, epsilon=0.05)
    with pytest.raises(InvalidParams, match="unknown option"):
        permcolor.run_randomized(g, 0.5, 1, epsilon=0.05)


def test_each_builder_receives_only_the_options_it_names(monkeypatch):
    """Every option any construction reads reaches only the builders naming it."""
    g = gnp_graph(12, 0.3, 12, seed=2)
    every = dict(seed=5, eps=1.0, certify_attempts=0, depth=0, slack=3)
    received = {}
    monkeypatch.setattr(simulator, "_BUILDERS", dict(simulator._BUILDERS))
    for name, (builder, options) in simulator._BUILDERS.items():
        def spy(g, max_degree, _builder=builder, _name=name, **kw):
            received[_name] = set(kw)
            return _builder(g, max_degree, **kw)

        spy.__signature__ = inspect.signature(builder)  # the options register reads
        simulator.register_builder(name, spy)
        assert simulator._BUILDERS[name][1] == options
    for name in ALGOS:
        build_program(name, g, **every)
    assert received == {
        "randomized": {"eps"},
        "shared-order": {"seed", "eps", "certify_attempts"},
        "algebraic-basic": {"depth", "slack"},
        "algebraic-weighted": {"eps", "depth", "slack"},
    }


RUNS = {
    "randomized": lambda g, **kw: permcolor.run_randomized(g, 0.5, seed=3, **kw),
    "shared-order": lambda g, **kw: permcolor.run_shared(g, 0.5, seed=3, **kw),
    "algebraic-basic": lambda g, **kw: algebraic.run_basic(g, **kw),
    "algebraic-weighted": lambda g, **kw: algebraic.run_weighted(g, 0.5, **kw),
}


@pytest.mark.parametrize("name", registered_algorithms())
def test_build_program_honours_the_declared_degree_bound(name):
    g = gnp_graph(20, 0.2, 40, seed=6)
    delta = g.max_degree()
    prog = build_program(name, g, seed=3, max_degree=delta + 4)
    assert prog.meta["max_degree"] == delta + 4
    assert prog.palette_size == RUNS[name](g, max_degree=delta + 4).palette_size
    assert prog.palette_size > build_program(name, g, seed=3).palette_size
    with pytest.raises(InvalidParams, match="declared degree bound"):
        build_program(name, g, seed=3, max_degree=delta - 1)


@pytest.mark.parametrize("name", registered_algorithms())
def test_a_view_above_the_degree_bound_is_refused(name):
    """No guarantee covers a view of more neighbors than the program was built
    for: before, randomized and shared-order colored a degree-10 view of this
    degree-8 program, with 59 of 648 and 201 of 2391 colors."""
    g = gnp_graph(20, 0.2, 40, seed=6)
    prog = build_program(name, g, seed=3)
    delta = g.max_degree()
    ids = range(2, delta + 4)
    envelopes = tuple(
        NodeEnvelope(y, prog.generate_bits(y, 3) if prog.generate_bits else ()) for y in ids
    )
    with pytest.raises(InvalidParams, match=rf"^degree {delta + 2} is not an int in \[0, {delta}\]$"):
        replay_view(OneHopView(1, frozenset(ids)), envelopes, prog, seed=3)


# -- replay_view ----------------------------------------------------------


def test_replay_of_degree_zero_view_gets_all_shared_colors():
    prog = build_program("shared-order", parse_edge_list("# N=5\n1 2\n"), seed=2)
    out = replay_view(OneHopView(3, frozenset()), (), prog)
    assert out == tuple(range(1, prog.palette_size + 1))


def test_replay_matches_runs_across_host_graphs():
    """The same view embedded in a path and in a star yields the same set."""
    path = parse_edge_list("# N=5\n1 2\n2 3\n")
    star = parse_edge_list("# N=5\n1 2\n2 3\n2 4\n2 5\n")
    view = path.view(1)  # (1, {2}) in both graphs
    assert view == star.view(1)
    prog = build_program("algebraic-basic", star)
    run_path, tr_path = run_one_shot(path, prog)
    run_star, tr_star = run_one_shot(star, prog)
    assert run_path.assignment[1] == run_star.assignment[1]
    replayed = replay_view(view, tr_path.nodes[1].received, prog)
    assert replayed == run_path.assignment[1]
    assert replayed == replay_view(view, tr_star.nodes[1].received, prog)


def test_replay_rejects_mismatched_envelopes():
    prog = constant_program()
    view = OneHopView(1, frozenset({2, 3}))
    with pytest.raises(InvalidParams):
        replay_view(view, (NodeEnvelope(2),), prog)
    with pytest.raises(InvalidParams):
        replay_view(view, (NodeEnvelope(2), NodeEnvelope(3), NodeEnvelope(3)), prog)


def test_replay_rejects_bits_for_deterministic_programs():
    prog = constant_program()
    view = OneHopView(1, frozenset({2}))
    with pytest.raises(ContractViolation):
        replay_view(view, (NodeEnvelope(2, (7,)),), prog)


def test_replay_regenerates_randomized_bits():
    g = gnp_graph(10, 0.4, 10, seed=4)
    prog = build_program("randomized", g, seed=21, eps=1.0)
    coloring, trace = run_one_shot(g, prog, seed=21)
    for v in g.node_ids():
        out = replay_view(g.view(v), trace.nodes[v].received, prog, seed=21)
        assert out == coloring.assignment[v]


def test_bits_from_a_generator_are_sent_as_a_tuple():
    """A tuple or packed words is sent as returned; any other iterable, a
    list or an array included, as a tuple."""

    def toy(generate_bits):
        def compute(own, received):
            # color i+1 when own word i beats every neighbor's
            return frozenset(
                i + 1 for i, b in enumerate(own.bits) if all(b < e.bits[i] for e in received)
            )

        return NodeProgram("toy", 8, compute, generate_bits)

    def words(node_id, seed):
        return ((node_id * 7 + seed * i) % 11 for i in range(8))

    as_tuple = toy(lambda node_id, seed: tuple(words(node_id, seed)))
    as_array = toy(lambda node_id, seed: array("Q", words(node_id, seed)))
    as_generator = toy(words)
    g = gnp_graph(12, 0.4, 30, seed=2)
    expected, _ = run_one_shot(g, as_tuple, seed=5)
    in_words, words_trace = run_one_shot(g, as_array, seed=5)
    assert in_words.assignment == expected.assignment
    assert all(type(n.sent.bits) is tuple for n in words_trace.nodes.values())
    as_packed = toy(lambda node_id, seed: permcolor.PackedWords.pack(list(words(node_id, seed))))
    packed, packed_trace = run_one_shot(g, as_packed, seed=5)
    assert packed.assignment == expected.assignment
    assert all(type(n.sent.bits) is permcolor.PackedWords for n in packed_trace.nodes.values())
    assert packed_trace.summary() == words_trace.summary()
    as_list = toy(lambda node_id, seed: list(words(node_id, seed)))
    _, list_trace = run_one_shot(g, as_list, seed=5)
    assert all(type(n.sent.bits) is tuple for n in list_trace.nodes.values())
    coloring, trace = run_one_shot(g, as_generator, seed=5)
    assert coloring.assignment == expected.assignment
    for v in g.node_ids():
        node = trace.nodes[v]
        assert type(node.sent.bits) is tuple
        assert node.sent.bits == tuple(words(v, 5))
        replayed = replay_view(g.view(v), node.received, as_generator, seed=5)
        assert replayed == coloring.assignment[v]
