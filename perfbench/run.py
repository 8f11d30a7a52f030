"""Run one workload of the multicolor benchmark and print its metrics.

    python3 perfbench/run.py --workload wide-ids --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

BENCHMARK.json at the repository root names the workloads and the metrics.
The package is imported from src/ of the same checkout. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Lines before it give the same figures per operation. The
exit code is 0 only when every correctness check passed.

Every operation (one schedule or one certificate) is repeated on the
workload's graphs until --seconds have passed, at least MIN_REPS times, and
its time is the median of its repetitions. End-to-end times are reference
seconds (speed.py): wall time corrected for the speed of the shared core
while the call ran; the lines before the JSON give wall times as well.
--trace 1 alternates untraced and
traced repetitions, derives the per-layer figures from the spans of the
traced ones and writes those spans to .bench_out/ when the run ends.
--workload all runs each workload in a process of its own, so that peak RSS
is per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import speed  # the benchmark's own module, beside this file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_REPS = 3  # untraced repetitions of every operation, one per graph
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters


def load():
    """Import the workloads, and with them the package of this checkout.

    Exits with code 2 when the package is not in this checkout.
    """
    sys.path.insert(0, str(SRC))
    try:
        import multicolor
        import workloads
    except ImportError as exc:
        print(f"cannot import the multicolor package from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(multicolor.__file__).resolve().is_relative_to(SRC):
        print(f"multicolor was imported from {multicolor.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def wall_clock(fn):
    """Run fn(); returns (its result, wall seconds, the same wall seconds)."""
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    return out, seconds, seconds


def set_up(workload: str, seed: int):
    """Import and make the inputs.

    Returns (workloads module, graphs, wall seconds, reference seconds).
    """
    wl = None

    def make():
        nonlocal wl
        wl = load()
        return wl.make_inputs(wl.WORKLOADS[workload], seed)

    graphs, wall, ref = speed.SpeedMeter().time(make)
    return wl, graphs, wall, ref


def setup_samples(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(wall, reference) set-up times: this process's, plus set-ups in fresh
    interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        wall, ref = out.stdout.split()[-2:]
        samples.append((float(wall), float(ref)))
    return samples


class Tally:
    """Operations attempted and failed; a failed check fails its operation.

    timer(fn) returns (fn's result, wall seconds, reference seconds).
    """

    def __init__(self, timer=wall_clock):
        self.attempted = 0
        self.failed = 0
        self.timer = timer

    def attempt(self, op, gi: int, fn, compare: str | None = None):
        """Run fn, which returns op's output, time it and check the output.

        Returns (output, wall seconds, reference seconds), or None when the
        operation failed. compare is a digest the output must equal.
        """
        self.attempted += 1
        try:
            gc.collect()
            out, wall, ref = self.timer(fn)
            bad = op.check(out)
            if compare is not None and op.digest(out) != compare:
                bad.append("traced output differs from the untraced output")
        except Exception:  # a failed operation is reported and the run goes on
            traceback.print_exc()
            out, bad = None, ["raised"]
        if bad:
            self.failed += 1
            print(f"FAILED {op.name} on graph {gi}: {'; '.join(bad)}", file=sys.stderr)
            return None
        return out, wall, ref


def fill(ops, seconds: float, min_steps: int, step, cost) -> None:
    """Step every operation min_steps times, round robin, then spend the rest
    of the time budget on the operation with the least time so far, among
    those whose next step still fits."""
    deadline = time.perf_counter() + seconds
    for _ in range(min_steps):
        for op in ops:
            step(op)
    while True:
        now = time.perf_counter()
        fits = [op for op in ops if cost(op) and now + cost(op)[0] <= deadline]
        if not fits:
            return
        step(min(fits, key=lambda op: cost(op)[1]))


def untraced_run(args, wl, ops, tally: Tally, setup: list[tuple[float, float]]) -> dict:
    times = defaultdict(list)  # reference seconds
    walls = defaultdict(list)
    shares = defaultdict(dict)  # op -> graph index -> min share
    steps = defaultdict(int)

    def step(op):
        gi = steps[op.name] % wl.GRAPHS_PER_RUN
        steps[op.name] += 1
        result = tally.attempt(op, gi, lambda: op.run(gi))
        if result is not None:
            out, wall, ref = result
            times[op.name].append(ref)
            walls[op.name].append(wall)
            shares[op.name].setdefault(gi, op.min_share(out))

    def cost(op):
        t = walls[op.name]
        return (statistics.median(t), sum(t)) if t else None

    fill(ops, args.seconds, MIN_REPS, step, cost)
    if any(len(shares[op.name]) < wl.GRAPHS_PER_RUN for op in ops):
        return {}
    med = {op.name: statistics.median(times[op.name]) for op in ops}
    share = {op.name: statistics.median(shares[op.name].values()) for op in ops}
    for op in ops:
        t = times[op.name]
        q1, _, q3 = statistics.quantiles(t, n=4)
        print(
            f"{op.metric} {med[op.name]:.6f} s (reference; median of {len(t)}; "
            f"quartiles {q1:.6f} {q3:.6f}; wall median {statistics.median(walls[op.name]):.6f} s)"
        )
        print(f"min_share.{op.name} {float(share[op.name]):.6f} ratio")
    print(f"setup_s {statistics.median(r for _, r in setup):.6f} s (reference; "
          f"wall median {statistics.median(w for w, _ in setup):.6f} s)")
    return {
        "setup_s": statistics.median(r for _, r in setup),
        "pass_s": sum(med.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "min_share": float(sum(share.values()) / len(share)),
    }


# Per-layer figures of one traced operation; the workload's figure is the
# sum over its operations of each operation's median over traced reps.
SUMMED_TIMES = {
    "simulator.build_program_s": lambda t: t.total_s("simulator.build_program"),
    "simulator.round_self_s": lambda t: t.self_s("simulator.run_one_shot"),
    "permcolor.self_s": lambda t: t.layer_self_s("permcolor"),
    "permcolor.generate_draws_s": lambda t: t.self_s("permcolor.generate_draws"),
    "permcolor.select_colors_s": lambda t: t.self_s("permcolor.select_colors"),
    "algebraic.self_s": lambda t: t.layer_self_s("algebraic"),
    "algebraic.tower_colors_s": lambda t: t.self_s("algebraic.tower_colors"),
    "algebraic.weighted_index_self_s": lambda t: t.self_s("algebraic.weighted_color_indices"),
    "verifier.self_s": lambda t: t.layer_self_s("verifier"),
    "verifier.verify_s": lambda t: t.total_s("verifier.verify"),
    "tdma.to_schedule_self_s": lambda t: t.self_s("tdma.to_schedule"),
    "tdma.schedule_json_s": lambda t: t.total_s("tdma.schedule_to_json"),
}
SUMMED_COUNTS = (
    "simulator.messages",
    "simulator.payload_bytes_total",
    "permcolor.draws",
    "permcolor.order_ranks",
    "permcolor.certify_attempts",
    "permcolor.views_checked",
    "algebraic.colors_kept",
    "algebraic.weighted_triples",
    "verifier.edges_checked",
    "verifier.views_checked",
    "verifier.view_pairs",
    "verifier.views_covered",
    "tdma.slots_total",
)


def traced_run(args, wl, ops, tally: Tally, tracing, tracer, setup_tree) -> dict:
    plain = defaultdict(list)
    traced = defaultdict(list)
    per_rep = defaultdict(list)  # op -> [(SpanTree, counts)] of its traced reps
    steps = defaultdict(int)

    def step(op):
        rep = steps[op.name]
        gi = rep % wl.GRAPHS_PER_RUN
        steps[op.name] += 1
        result = tally.attempt(op, gi, lambda: op.run(gi))
        if result is None:
            return
        out, seconds, _ = result
        plain[op.name].append(seconds)
        trace_id = f"{args.workload}/{op.name}/g{gi}/r{rep}"
        traced_op = lambda: tracer.run(trace_id, f"bench.{op.name}", lambda: op.run(gi, tracer.wrap))
        if tally.attempt(op, gi, traced_op, compare=op.digest(out)) is not None:
            traced[op.name].append(tracer.last_tree.root_ns / 1e9)
            per_rep[op.name].append((tracer.last_tree, tracer.last_counts))

    def cost(op):
        u, t = plain[op.name], traced[op.name]
        if not (u and t):
            return None
        return statistics.median(u) + statistics.median(t), sum(u) + sum(t)

    fill(ops, args.seconds, 1, step, cost)
    if any(not per_rep[op.name] for op in ops):
        return {}

    def med(op, fn, median=statistics.median):
        return median(fn(t, c) for t, c in per_rep[op.name])

    metrics: dict[str, float] = {"graph.generate_s": setup_tree.layer_self_s("graph")}
    for name, fn in SUMMED_TIMES.items():
        metrics[name] = sum(med(op, lambda t, c: fn(t)) for op in ops)
    for name in SUMMED_COUNTS:
        metrics[name] = sum(
            med(op, lambda t, c: c.get(name, 0), statistics.median_low) for op in ops
        )
    pool = [ns for op in ops for t, _ in per_rep[op.name] for ns in t.compute_ns]
    metrics["simulator.node_compute_ms.p50"] = tracing.percentile_ms(pool, 50)
    metrics["simulator.node_compute_ms.p99"] = tracing.percentile_ms(pool, 99)
    metrics["simulator.node_compute_samples"] = len(pool)
    metrics["simulator.max_payload_bytes"] = max(
        c.get("simulator.max_payload_bytes", 0) for op in ops for _, c in per_rep[op.name]
    )
    covered = metrics.pop("verifier.views_covered")
    metrics["verifier.views_per_cover"] = (
        metrics["verifier.views_checked"] / covered if covered else 0.0
    )
    metrics["trace.overhead_ratio"] = sum(
        statistics.median(traced[op.name]) for op in ops
    ) / sum(statistics.median(plain[op.name]) for op in ops)

    # the same spans per operation, by name, as lines and as a file
    layers = {}
    for op in ops:
        names = sorted({n for t, _ in per_rep[op.name] for n in t.names})
        table = {
            n: {
                "self_s": med(op, lambda t, c: t.self_s(n)),
                "total_s": med(op, lambda t, c: t.total_s(n)),
                "calls": med(op, lambda t, c: t.names.get(n, (0, 0, 0))[2], statistics.median_low),
            }
            for n in names
        }
        layers[op.name] = {"traced_reps": len(per_rep[op.name]), "spans": table}
        for n, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"{op.name} {n} self_s={row['self_s']:.6f} "
                f"total_s={row['total_s']:.6f} calls={row['calls']}"
            )
    OUT.mkdir(exist_ok=True)
    (OUT / f"layers-{args.workload}.json").write_text(
        json.dumps({"seed": args.seed, "metrics": metrics, "operations": layers}, indent=1)
    )
    tracer.write(OUT / f"spans-{args.workload}.csv.gz")
    return metrics


def finish(kind: str, metrics: dict, tally: Tally) -> int:
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    if metrics and set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if metrics else max(1, tally.failed),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a process of its own; prints the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print(f"== {w}", *lines[:-1], sep="\n")
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            return status
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.trace == 0:
        wl, graphs, wall, ref = set_up(args.workload, args.seed)
        if args.setup_only:
            print(wall, ref)
            return 0
        setup = setup_samples(args, (wall, ref))
        ops = wl.operations(wl.WORKLOADS[args.workload], graphs, args.seed)
        tally = Tally(speed.SpeedMeter().time)
        return finish("end_to_end", untraced_run(args, wl, ops, tally, setup), tally)
    wl = load()
    import tracing

    tracer = tracing.Tracer()
    graphs = tracer.run(
        f"{args.workload}/setup", "bench.setup",
        lambda: wl.make_inputs(wl.WORKLOADS[args.workload], args.seed),
    )
    setup_tree = tracer.last_tree
    ops = wl.operations(wl.WORKLOADS[args.workload], graphs, args.seed)
    tally = Tally()
    metrics = traced_run(args, wl, ops, tally, tracing, tracer, setup_tree)
    return finish("per_layer", metrics, tally)


if __name__ == "__main__":
    sys.exit(main())
