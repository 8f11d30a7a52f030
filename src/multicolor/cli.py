"""Command-line front end.

Subcommands: gen, run, verify, nbrgraph, export, stats. Exit codes: 0 on
success, 1 when a verification fails, 2 on usage or input errors, 3 when a
size guard refuses the computation.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from fractions import Fraction
from pathlib import Path

from . import algebraic, permcolor, simulator, tdma, verifier
from .coloring import coloring_from_json, coloring_to_json
from .errors import MulticolorError, TooLarge
from .graph import Graph, disjoint_stars, format_edge_list, gnp_graph, parse_edge_list, unit_disk_graph


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2**32)
        print(f"seed={seed} (drawn from system entropy)")
    return seed


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    id_space = args.N
    if args.model == "gnp":
        if args.n is None or args.p is None:
            raise MulticolorError("gnp needs --n and --p")
        g = gnp_graph(args.n, args.p, id_space or args.n, seed)
    elif args.model == "udg":
        if args.n is None or args.radius is None:
            raise MulticolorError("udg needs --n and --radius")
        g = unit_disk_graph(args.n, args.radius, id_space or args.n, seed)
    else:
        if args.count is None or args.Delta is None:
            raise MulticolorError("stars needs --count and --Delta")
        n = args.count * (args.Delta + 1)
        g = disjoint_stars(args.count, args.Delta, id_space or n, seed)
    Path(args.output).write_text(format_edge_list(g))
    print(
        f"wrote {args.output}: n={g.n} edges={g.edge_count()} "
        f"max_degree={g.max_degree()} N={g.id_space}"
    )
    return 0


def cmd_run(args) -> int:
    g = _load_graph(args.graph)
    seed = _resolve_seed(args.seed)
    # each builder reads its own options and ignores the rest
    opts = {
        "eps": args.eps, "tie_break_by_id": args.tie_break_id, "factor": args.factor,
        "certify_attempts": args.certify, "depth": args.ell, "slack": args.slack,
    }
    coloring, trace = simulator.run_one_shot(g, args.algo, seed, **opts)
    Path(args.output).write_text(coloring_to_json(coloring))
    report = verifier.verify(g, coloring, eps=args.eps if args.algo in ("randomized", "shared-order") else None)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
        )
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(trace.summary(), indent=2, sort_keys=True) + "\n"
        )
    print(
        f"wrote {args.output}: algo={args.algo} palette={coloring.palette_size} "
        f"valid={report.valid} worst_ratio={report.worst_ratio}"
    )
    return 0 if report.valid else 1


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    m = coloring_from_json(Path(args.coloring).read_text())
    report = verifier.verify(g, m, eps=args.eps)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    ok = report.valid and report.meets_target is not False
    return 0 if ok else 1


def cmd_nbrgraph(args) -> int:
    line = (
        f"vertices={verifier.nbr_vertex_count(args.N, args.Delta)} "
        f"edges={verifier.nbr_edge_count(args.N, args.Delta)}"
    )
    if args.chi:
        # refused by the closed-form count before any view is built
        budget = min(args.max_views, verifier.MAX_CHI_VERTICES)
        ng = verifier.neighborhood_graph(args.N, args.Delta, max_views=budget)
        line += f" chi={verifier.chromatic_number(ng)}"
    print(line)
    if args.certify:
        seed = _resolve_seed(args.seed)
        if args.certify == "shared-order":
            family, cert, attempts = permcolor.certified_family(
                args.N, args.Delta, args.eps, seed, max_attempts=args.attempts,
                max_views=args.max_views,
            )
            if not cert.passed:
                print(f"certify=FAIL attempts={attempts} failures={cert.failures}")
                return 1
            ncert = verifier.certify_on_neighborhood(
                lambda view: family.select_mask(view.node_id, view.neighbors),
                args.N,
                args.Delta,
                palette_size=family.k,
                min_colors=lambda d: permcolor.min_colors_required(family.k, args.eps, d),
                max_views=args.max_views,
            )
        else:
            params = algebraic.choose_tower(args.N, args.Delta, args.ell, args.slack)
            ncert = verifier.certify_on_neighborhood(
                lambda view: algebraic.tower_color_indices(view, params),
                args.N,
                args.Delta,
                palette_size=params.palette_size,
                min_colors=lambda d: params.guaranteed_colors,
                max_views=args.max_views,
            )
        print(
            f"certify={'PASS' if ncert.passed else 'FAIL'} "
            f"views={ncert.views_checked} edges={ncert.edge_count} "
            f"disjoint={ncert.disjoint} bound_ok={ncert.bound_ok}"
        )
        return 0 if ncert.passed else 1
    return 0


def cmd_export(args) -> int:
    g = _load_graph(args.graph)
    m = coloring_from_json(Path(args.coloring).read_text())
    schedule = tdma.to_schedule(m, g)
    Path(args.output).write_text(tdma.schedule_to_json(schedule))
    if args.csv:
        Path(args.csv).write_text(tdma.schedule_to_csv(schedule))
    util = tdma.utilization(schedule, g)
    print(
        f"wrote {args.output}: frame={schedule.frame_length} "
        f"mean_duty={util.mean_duty} min_duty={util.min_duty} "
        f"baseline={util.baseline}"
    )
    return 0


def cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    m = coloring_from_json(Path(args.coloring).read_text())
    report = verifier.verify(g, m)
    by_degree: dict[int, list[Fraction]] = {}
    for v in g.node_ids():
        by_degree.setdefault(g.degree(v), []).append(report.fractions[v])
    lines = ["degree,nodes,min_fraction,mean_fraction"]
    for d in sorted(by_degree):
        fr = by_degree[d]
        mean = sum(fr, Fraction(0)) / len(fr)
        lines.append(f"{d},{len(fr)},{float(min(fr)):.6f},{float(mean):.6f}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(
        f"valid={report.valid} palette={m.palette_size} "
        f"worst_ratio={report.worst_ratio} violations={report.violation_count}"
    )
    return 0 if report.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicolor",
        description="One-shot distributed multicoloring and TDMA schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write an edge list")
    p.add_argument("--model", choices=("gnp", "udg", "stars"), required=True)
    p.add_argument("--n", type=int, help="node count (gnp, udg)")
    p.add_argument("--p", type=float, help="edge probability (gnp)")
    p.add_argument("--radius", type=float, help="connection radius (udg)")
    p.add_argument("--count", type=int, help="number of stars (stars)")
    p.add_argument("--Delta", type=int, help="leaves per star (stars)")
    p.add_argument("--N", type=int, help="id space size (default: node count)")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run an algorithm and write the coloring")
    p.add_argument("--algo", choices=simulator.registered_algorithms(), required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    p.add_argument("--ell", type=int, default=0, help="tower depth (algebraic)")
    p.add_argument("--slack", type=float, default=2.0, help="prime slack (algebraic)")
    p.add_argument("--factor", type=int, default=1, help="order multiplier (shared)")
    p.add_argument("--certify", type=int, default=0, metavar="ATTEMPTS",
                   help="certify the shared order family exhaustively")
    p.add_argument("--tie-break-id", action="store_true",
                   help="break randomized ties toward the smaller id")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", help="write the verification report JSON here")
    p.add_argument("--trace", help="write the message trace summary JSON here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="verify a coloring against a graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--coloring", required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="also check the (1-eps)/(degree+1) fraction target")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nbrgraph", help="size, chromatic number, certificates")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Delta", type=int, required=True)
    p.add_argument("--chi", action="store_true", help="compute the chromatic number")
    p.add_argument("--certify", choices=("shared-order", "algebraic-basic"))
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    p.add_argument("--attempts", type=int, default=3)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--slack", type=float, default=2.0)
    p.add_argument("--max-views", type=int, default=verifier.MAX_VIEWS)
    p.set_defaults(func=cmd_nbrgraph)

    p = sub.add_parser("export", help="convert a verified coloring to a schedule")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--coloring", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--csv", help="also write (node, slot) rows here")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("stats", help="per-degree palette fractions as CSV")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--coloring", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MulticolorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
