"""End-to-end command-line tests through main(argv)."""

import json
import time
import tracemalloc

import pytest

from multicolor import verifier
from multicolor.cli import main
from multicolor.coloring import coloring_from_json, coloring_to_json
from multicolor.graph import parse_edge_list
from multicolor.simulator import run_one_shot
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


def test_gen_rejects_incomplete_model_args(tmp_path, capsys):
    code = main(
        ["gen", "--model", "gnp", "--n", "10", "--seed", "1",
         "-o", str(tmp_path / "x.edges")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


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
    assert json.loads(report.read_text())["valid"] is True
    summary = json.loads(trace.read_text())
    assert summary["algorithm"] == algo
    assert summary["message_count"] == 2 * g.edge_count()
    # the CLI defaults, passed to every algorithm alike
    expected, rounds = run_one_shot(
        g, algo, 9, eps=0.5, tie_break_by_id=False, factor=1,
        certify_attempts=0, depth=0, slack=2.0,
    )
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
    ['{"palette_size": 3, "assignment": [1]}', '{"palette_size": 1e400, "assignment": {}}'],
)
def test_verify_refuses_a_malformed_coloring_payload(graph_file, tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main(["verify", "-g", str(graph_file), "-c", str(bad)]) == 2
    assert "malformed coloring JSON" in capsys.readouterr().err


def test_nbrgraph_reports_size_and_chromatic_number(capsys):
    assert main(["nbrgraph", "--N", "3", "--Delta", "1", "--chi"]) == 0
    assert "vertices=6 edges=3 chi=2" in capsys.readouterr().out


def test_nbrgraph_refuses_a_chromatic_search_past_its_work_budget(capsys):
    t0 = time.monotonic()
    assert main(["nbrgraph", "--N", "7", "--Delta", "3", "--chi"]) == 3
    assert time.monotonic() - t0 < 30  # the unbounded search ran for minutes
    assert "work budget" in capsys.readouterr().err


def test_nbrgraph_refuses_a_chromatic_search_before_building_a_view(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "OneHopView", None)  # building any view would fail
    assert main(["nbrgraph", "--N", "40", "--Delta", "3", "--chi"]) == 3
    assert "396760 views exceed the guard of 10000" in capsys.readouterr().err


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


def test_run_refuses_more_random_draws_than_its_guard(tmp_path, capsys):
    path = tmp_path / "g.edges"
    assert main(
        ["gen", "--model", "gnp", "--n", "30", "--p", "0.1", "--seed", "1", "-o", str(path)]
    ) == 0
    tracemalloc.start()
    try:
        code = main(
            ["run", "--algo", "randomized", "--eps", "0.001", "--seed", "1",
             "-g", str(path), "-o", str(tmp_path / "m.json")]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10**6
    assert "draws" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_run_refuses_an_order_family_too_large_to_store(tmp_path, capsys):
    path = tmp_path / "wide.edges"
    path.write_text("# N=1000000\n1 2\n")
    code = main(
        ["run", "--algo", "shared-order", "--seed", "1",
         "-g", str(path), "-o", str(tmp_path / "m.json")]
    )
    assert code == 3
    assert "ranks" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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
