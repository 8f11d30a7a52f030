"""End-to-end command-line tests through main(argv)."""

import json
import time
import tracemalloc

import pytest

from multicolor import cli, simulator, verifier
from multicolor.cli import main
from multicolor.coloring import coloring_from_json, coloring_to_json
from multicolor.graph import format_edge_list, gnp_graph, parse_edge_list
from multicolor.simulator import registered_algorithms, run_one_shot
from multicolor.tdma import schedule_from_json

ALGOS = ("randomized", "shared-order", "algebraic-basic", "algebraic-weighted")


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    code = main(
        ["gen", "--model", "gnp", "--n", "12", "--p", "0.25",
         "--N", "40", "--seed", "5", "-o", str(path)]
    )
    assert code == 0
    return path


def test_gen_is_deterministic_per_seed(tmp_path, capsys):
    argv = ["gen", "--model", "gnp", "--n", "10", "--p", "0.3", "--seed", "7"]
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "model",
    [
        ["gnp", "--n", "5", "--p", "0.5"],
        ["udg", "--n", "5", "--radius", "0.5"],
        ["stars", "--count", "1", "--Delta", "4"],
    ],
    ids=["gnp", "udg", "stars"],
)
def test_gen_refuses_an_empty_id_space(tmp_path, capsys, model):
    out = tmp_path / "g.txt"
    argv = ["gen", "--model", *model, "--N", "0", "--seed", "1", "-o", str(out)]
    assert main(argv) == 2
    assert "id space" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_incomplete_model_args(tmp_path, capsys):
    code = main(
        ["gen", "--model", "gnp", "--n", "10", "--seed", "1",
         "-o", str(tmp_path / "x.edges")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, missing",
    [(["udg", "--n", "10"], "--radius"), (["stars", "--count", "2"], "--Delta")],
    ids=["udg", "stars"],
)
def test_gen_names_a_missing_model_arg(tmp_path, capsys, model, missing):
    out = tmp_path / "x.edges"
    assert main(["gen", "--model", *model, "--seed", "1", "-o", str(out)]) == 2
    assert missing in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ALGOS)
def test_run_writes_a_valid_coloring(graph_file, tmp_path, capsys, algo):
    out = tmp_path / "coloring.json"
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    code = main(
        ["run", "--algo", algo, "--seed", "9", "-g", str(graph_file),
         "-o", str(out), "--report", str(report), "--trace", str(trace)]
    )
    assert code == 0
    assert "valid=True" in capsys.readouterr().out
    g = parse_edge_list(graph_file.read_text())
    m = coloring_from_json(out.read_text())
    assert set(m.assignment) == set(g.node_ids())
    checked = json.loads(report.read_text())
    assert checked["valid"] is True
    # the (1-eps)/(d+1) target is checked for the rules whose colorings record eps
    assert checked["meets_target"] is (True if algo in ("randomized", "shared-order") else None)
    summary = json.loads(trace.read_text())
    assert summary["algorithm"] == algo
    assert summary["message_count"] == 2 * g.edge_count()
    # the CLI defaults, passed to every algorithm alike
    expected, rounds = run_one_shot(g, algo, 9, eps=0.5, certify_attempts=0, depth=0, slack=2.0)
    assert out.read_text() == coloring_to_json(expected)
    assert summary["payload_bytes_total"] == rounds.payload_bytes_total


def test_run_draws_a_seed_when_none_is_given(graph_file, tmp_path, capsys):
    out = tmp_path / "coloring.json"
    code = main(
        ["run", "--algo", "randomized", "-g", str(graph_file), "-o", str(out)]
    )
    assert code == 0
    assert "(drawn from system entropy)" in capsys.readouterr().out


def test_verify_accepts_then_rejects_a_tampered_coloring(graph_file, tmp_path, capsys):
    out = tmp_path / "coloring.json"
    assert main(
        ["run", "--algo", "algebraic-basic", "--seed", "1",
         "-g", str(graph_file), "-o", str(out)]
    ) == 0
    assert main(["verify", "-g", str(graph_file), "-c", str(out)]) == 0
    payload = json.loads(out.read_text())
    a, b = parse_edge_list(graph_file.read_text()).edges()[0]
    payload["assignment"][str(a)] = payload["assignment"][str(b)]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "-g", str(graph_file), "-c", str(out)]) == 1
    assert '"valid": false' in capsys.readouterr().out


def test_verify_refuses_an_epsilon_outside_the_unit_interval(graph_file, tmp_path, capsys):
    out = tmp_path / "coloring.json"
    assert main(
        ["run", "--algo", "algebraic-basic", "--seed", "1",
         "-g", str(graph_file), "-o", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(["verify", "-g", str(graph_file), "-c", str(out), "--eps", "5"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_malformed_coloring_json_is_an_input_error(graph_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (["verify"], ["stats"], ["export", "-o", str(tmp_path / "s.json")]):
        assert main(argv + ["-g", str(graph_file), "-c", str(bad)]) == 2
    assert "malformed coloring JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        '{"palette_size": 3, "assignment": [1]}',
        '{"palette_size": 1e400, "assignment": {}}',
        '{"palette_size": 3, "assignment": {"1": [1], " 1": [2]}}',  # node 1 twice
        '{"palette_size": 3, "assignment": {"1": [2, 2, 2]}}',  # color 2 three times
        '{"palette_size": 3, "assignment": {"0": [1]}}',  # no node has id 0
    ],
)
def test_verify_refuses_a_malformed_coloring_payload(graph_file, tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main(["verify", "-g", str(graph_file), "-c", str(bad)]) == 2
    assert "malformed coloring JSON" in capsys.readouterr().err


def test_run_refuses_a_negative_certify_count(graph_file, tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(
        ["run", "--algo", "shared-order", "--certify", "-1", "--seed", "1",
         "-g", str(graph_file), "-o", str(out)]
    )
    assert code == 2
    assert "certify attempts -1" in capsys.readouterr().err
    assert not out.exists()


def test_nbrgraph_reports_size_and_chromatic_number(capsys):
    assert main(["nbrgraph", "--N", "3", "--Delta", "1", "--chi"]) == 0
    assert "vertices=6 edges=3 chi=2" in capsys.readouterr().out


def test_nbrgraph_refuses_a_chromatic_search_past_its_work_budget(capsys):
    t0 = time.monotonic()
    assert main(["nbrgraph", "--N", "7", "--Delta", "3", "--chi"]) == 3
    assert time.monotonic() - t0 < 30  # the unbounded search ran for minutes
    assert "20002668 units of chromatic search work exceed the guard of 20000000" in capsys.readouterr().err


def test_nbrgraph_refuses_a_chromatic_search_before_building_a_view(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "OneHopView", None)  # building any view would fail
    assert main(["nbrgraph", "--N", "40", "--Delta", "3", "--chi"]) == 3
    assert "396760 views exceed the guard of 10000" in capsys.readouterr().err


def test_nbrgraph_max_views_help_states_its_figures(capsys):
    """The help names the default budget and the views of N=64, Delta=4."""
    with pytest.raises(SystemExit):
        main(["nbrgraph", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert verifier.MAX_VIEWS == 10**7 and "default 10^7" in text
    assert f"N=64, Delta=4 needs {verifier.nbr_vertex_count(64, 4):,}" in text


def test_nbrgraph_certifies_a_shared_order_family(capsys):
    code = main(
        ["nbrgraph", "--N", "6", "--Delta", "1", "--certify", "shared-order",
         "--seed", "1", "--eps", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "certify=PASS" in out
    assert "disjoint=True bound_ok=True" in out


def test_nbrgraph_certifies_the_tower_construction(capsys):
    code = main(
        ["nbrgraph", "--N", "6", "--Delta", "2", "--certify", "algebraic-basic"]
    )
    assert code == 0
    assert "certify=PASS" in capsys.readouterr().out


def test_nbrgraph_draws_no_seed_for_the_tower(capsys):
    """The tower reads no seed, so none is drawn or printed."""
    assert main(["nbrgraph", "--N", "5", "--Delta", "1", "--certify", "algebraic-basic"]) == 0
    out = capsys.readouterr().out
    assert "certify=PASS" in out
    assert "seed=" not in out


def test_nbrgraph_respects_the_view_budget(capsys):
    code = main(
        ["nbrgraph", "--N", "30", "--Delta", "3", "--max-views", "1000", "--chi"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_nbrgraph_counts_in_closed_form_and_certifies_within_the_budget(capsys):
    argv = ["nbrgraph", "--N", "30", "--Delta", "3", "--max-views", "1000"]
    assert main(argv) == 0
    assert "vertices=122670 edges=72057315" in capsys.readouterr().out
    for algo in ("shared-order", "algebraic-basic"):
        assert main(argv + ["--certify", algo, "--seed", "1"]) == 3
        assert "exceed the guard of 1000" in capsys.readouterr().err


def test_export_writes_schedule_and_csv(graph_file, tmp_path, capsys):
    coloring = tmp_path / "coloring.json"
    schedule = tmp_path / "schedule.json"
    rows = tmp_path / "slots.csv"
    assert main(
        ["run", "--algo", "shared-order", "--seed", "3",
         "-g", str(graph_file), "-o", str(coloring)]
    ) == 0
    assert main(
        ["export", "-g", str(graph_file), "-c", str(coloring),
         "-o", str(schedule), "--csv", str(rows)]
    ) == 0
    s = schedule_from_json(schedule.read_text())
    m = coloring_from_json(coloring.read_text())
    assert s.frame_length == m.palette_size
    assert {v: set(slots) for v, slots in s.slots.items()} == {
        v: set(cols) for v, cols in m.assignment.items()
    }
    lines = rows.read_text().strip().splitlines()
    assert lines[0] == "node,slot"
    assert len(lines) - 1 == sum(len(c) for c in m.assignment.values())


def test_export_refuses_a_conflicted_coloring(graph_file, tmp_path, capsys):
    coloring = tmp_path / "coloring.json"
    g = parse_edge_list(graph_file.read_text())
    payload = {
        "palette_size": 2,
        "assignment": {str(v): [1] for v in g.node_ids()},
        "params": {},
    }
    coloring.write_text(json.dumps(payload))
    code = main(
        ["export", "-g", str(graph_file), "-c", str(coloring),
         "-o", str(tmp_path / "schedule.json")]
    )
    assert code == 2
    assert "conflict" in capsys.readouterr().err


def test_export_refuses_params_that_are_not_an_object(graph_file, tmp_path, capsys):
    coloring = tmp_path / "coloring.json"
    coloring.write_text('{"palette_size": 2, "assignment": {}, "params": [1, 2]}')
    code = main(
        ["export", "-g", str(graph_file), "-c", str(coloring),
         "-o", str(tmp_path / "schedule.json")]
    )
    assert code == 2
    assert "params must be an object" in capsys.readouterr().err
    assert not (tmp_path / "schedule.json").exists()


def test_stats_prints_per_degree_rows(graph_file, tmp_path, capsys):
    coloring = tmp_path / "coloring.json"
    assert main(
        ["run", "--algo", "algebraic-weighted", "--seed", "2",
         "-g", str(graph_file), "-o", str(coloring)]
    ) == 0
    capsys.readouterr()
    assert main(["stats", "-g", str(graph_file), "-c", str(coloring)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degree,nodes,min_fraction,mean_fraction"
    assert "valid=True" in out
    csv = tmp_path / "stats.csv"
    assert main(["stats", "-g", str(graph_file), "-c", str(coloring), "-o", str(csv)]) == 0
    rows = out.splitlines()[:-1]  # the last line is the summary
    assert csv.read_text().splitlines() == rows
    assert capsys.readouterr().out.splitlines() == [f"wrote {csv}", out.splitlines()[-1]]


@pytest.mark.parametrize("algo", ["randomized", "shared-order", "algebraic-weighted"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_run_refuses_a_non_finite_epsilon(graph_file, tmp_path, capsys, algo, eps):
    code = main(
        ["run", "--algo", algo, "--eps", eps, "--seed", "1",
         "-g", str(graph_file), "-o", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["algebraic-basic", "algebraic-weighted"])
@pytest.mark.parametrize("slack", ["nan", "inf"])
def test_run_refuses_a_non_finite_slack(graph_file, tmp_path, capsys, algo, slack):
    code = main(
        ["run", "--algo", algo, "--slack", slack,
         "-g", str(graph_file), "-o", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "slack" in capsys.readouterr().err


def test_gen_refuses_a_nan_radius(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code = main(
        ["gen", "--model", "udg", "--n", "10", "--radius", "nan", "--seed", "1", "-o", str(out)]
    )
    assert code == 2
    assert "radius" in capsys.readouterr().err
    assert not out.exists()


GNP_30 = format_edge_list(gnp_graph(30, 0.1, 30, 1))  # gen --n 30 --p 0.1 --seed 1
STAR_256 = "# N=1000000\n" + "".join(f"1 {v}\n" for v in range(2, 258))

# one oversized run per construction: (algo, options, graph, stderr substring)
OVERSIZED_RUNS = {
    "randomized-draws": ("randomized", ["--eps", "0.001"], GNP_30,
                         "3673293180 draws of 30 nodes drawing 122443106 each exceed the guard of 5000000"),
    "randomized-eps": ("randomized", ["--eps", "1e-200"], GNP_30, "float range"),
    "randomized-eps-overflow": ("randomized", ["--eps", "1e-160"], GNP_30, "float range"),
    "shared-order-ranks": ("shared-order", [], "# N=1000000\n1 2\n",
                           "443000000 keys of 443 orders over 1000000 ids exceed the guard of 50000000"),
    "shared-order-eps": ("shared-order", ["--eps", "1e-200"], GNP_30, "float range"),
    "algebraic-basic-slack": ("algebraic-basic", ["--slack", "1e7"], "# N=3\n1 2\n2 3\n",
                              "400000120000009 tower palette colors exceed the guard of 10000000"),
    "algebraic-weighted-palette": ("algebraic-weighted", ["--eps", "1"], STAR_256,
                                   "519557155 weighted palette colors exceed the guard of 10000000"),
}


def test_every_construction_has_an_oversized_run():
    assert {algo for algo, *_ in OVERSIZED_RUNS.values()} == set(registered_algorithms())


@pytest.mark.parametrize("case", sorted(OVERSIZED_RUNS))
def test_run_refuses_an_oversized_run(tmp_path, capsys, case):
    algo, opts, text, message = OVERSIZED_RUNS[case]
    path = tmp_path / "g.edges"
    path.write_text(text)
    tracemalloc.start()
    try:
        code = main(
            ["run", "--algo", algo, *opts, "--seed", "1",
             "-g", str(path), "-o", str(tmp_path / "m.json")]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10**6
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "algo, opts, message",
    [
        ("algebraic-basic", ["--slack", "1e7"],
         "900000060000001 tower palette colors exceed the guard of 10000000"),
        ("shared-order", ["--eps", "1e-200"], "float range"),
    ],
    ids=["algebraic-basic", "shared-order"],
)
def test_nbrgraph_refuses_an_oversized_certificate(capsys, algo, opts, message):
    tracemalloc.start()
    try:
        code = main(
            ["nbrgraph", "--N", "30", "--Delta", "3", "--certify", algo, *opts, "--seed", "1"]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10**6
    assert message in capsys.readouterr().err


def test_run_forwards_exactly_the_builders_options(graph_file, tmp_path, monkeypatch):
    """Every option a registered builder reads has a run flag, and every
    forwarded option is read by some builder; seed travels apart."""
    forwarded = []

    def capture(g, algo, seed, **opts):
        forwarded.append(set(opts))
        return run_one_shot(g, algo, seed, **opts)

    monkeypatch.setattr(cli.simulator, "run_one_shot", capture)
    assert main(["run", "--algo", "randomized", "--seed", "1", "-g", str(graph_file),
                 "-o", str(tmp_path / "m.json")]) == 0
    read = set().union(*(options for _, options in simulator._BUILDERS.values()))
    assert forwarded == [read - {"seed"}]


@pytest.mark.parametrize("flag", [["--factor", "2"], ["--tie-break-id"]])
def test_run_has_no_flag_for_a_removed_option(graph_file, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "shared-order", "--seed", "1", "-g", str(graph_file),
              "-o", str(tmp_path / "m.json"), *flag])
    assert exc.value.code == 2


def test_unknown_algorithm_is_a_usage_error(graph_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "nope", "-g", str(graph_file),
              "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_missing_input_file_is_reported(tmp_path, capsys):
    code = main(
        ["run", "--algo", "randomized", "--seed", "1",
         "-g", str(tmp_path / "absent.edges"), "-o", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err
