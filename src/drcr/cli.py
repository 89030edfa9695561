"""Benchmark front end: corpus generation, solver runs, percentile reports.

Queries travel as JSON lines next to the graph edge list.  Solver runs emit
one JSON record per query; ``report`` folds any number of result files into
a CSV of nearest-rank latency percentiles and completion rates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from .graph import INF, GraphFormatError, load_network, dump_network
from .pulse import DrcrQuery, PulseOptions, solve_drcr
from .ksp import cost_ksp_drcr, delay_ksp_drcr, lagrangian_ksp_drcr, \
    srlg_ksp_drcr, srlg_lagrangian_ksp
from .srlg import SrlgDrcrQuery, cose_pulse_plus
from .testgen import GenConfig, GenerationError, gen_drcr_query, \
    gen_er_network, gen_srlg_query

# algo -> solver(net, query, opts), which returns (answer, SolveStats): the
# first four answer DRCR queries with a Path, the rest Srlg pair queries
# with a PathPair
SOLVERS = {
    "pulse+": solve_drcr,
    "cost-ksp": lambda net, q, o: cost_ksp_drcr(net, q, o.time_limit),
    "delay-ksp": lambda net, q, o: delay_ksp_drcr(net, q, o.time_limit),
    "lagrangian-ksp":
        lambda net, q, o: lagrangian_ksp_drcr(net, q, o.time_limit),
    "cose-pulse+": lambda net, q, o: cose_pulse_plus(net, q, o.time_limit),
    "srlg-cost-ksp":
        lambda net, q, o: srlg_ksp_drcr(net, q, "cost", o.time_limit),
    "srlg-delay-ksp":
        lambda net, q, o: srlg_ksp_drcr(net, q, "delay", o.time_limit),
    "srlg-lagrangian-ksp":
        lambda net, q, o: srlg_lagrangian_ksp(net, q, o.time_limit),
}
DRCR_ALGOS = tuple(SOLVERS)[:4]
SRLG_ALGOS = tuple(SOLVERS)[4:]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(n=args.nodes, p_mult=args.pmult, p=args.p,
                    seed=args.seed, srlg_style=args.srlg_style)
    text = dump_network(gen_er_network(cfg))
    os.makedirs(args.out, exist_ok=True)
    graph_path = os.path.join(args.out, "graph.txt")
    with open(graph_path, "w") as fh:
        fh.write(text)
    # Sample on the network `drcr solve` will load: loading renumbers nodes
    # by first appearance, so generator node ids are not the file's ids.
    net = load_network(text)
    queries: list[str] = []
    if args.cases == "drcr":
        for i in range(args.queries):
            target = 4 if i % 2 == 0 else 6
            try:
                q = gen_drcr_query(net, args.seed + 1000 + i, target)
            except GenerationError:
                continue
            queries.append(json.dumps(
                {"src": q.src, "dst": q.dst, "L": q.L, "U": q.U}))
    else:
        for i in range(args.queries):
            q = gen_srlg_query(net, args.seed + 1000 + i, args.delta)
            queries.append(json.dumps(
                {"src": q.src, "dst": q.dst, "U": q.U, "delta": q.delta}))
    _write_lines(os.path.join(args.out, "queries.jsonl"), queries)
    manifest = {
        "nodes": args.nodes, "pmult": args.pmult, "p": args.p,
        "seed": args.seed, "cases": args.cases,
        "srlg_style": args.srlg_style, "delta": args.delta,
        "queries_requested": args.queries, "queries_written": len(queries),
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(net.src)} links, {len(queries)} queries to {args.out}")
    return 0


def _load_queries(path: str, srlg: bool):
    make, keys = ((SrlgDrcrQuery, ("src", "dst", "U", "delta")) if srlg
                  else (DrcrQuery, ("src", "dst", "L", "U")))
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out.append(make(*(rec[k] for k in keys)))
            except (KeyError, TypeError, ValueError) as e:
                problem = f"missing key {e}" if isinstance(e, KeyError) else e
                raise SystemExit(f"{path}: line {lineno}: {problem}") from None
    return out


def _solve_one(net, q, algo: str, opts: PulseOptions) -> dict:
    answer, stats = SOLVERS[algo](net, q, opts)
    rec: dict = {"algo": algo}
    if algo == "pulse+":
        rec.update(ldf=opts.ldf, joint_pruning=opts.joint_pruning)
    elif algo == "cose-pulse+":
        rec.update(conflict_sets_found=len(stats.conflict_sets),
                   subinstances=stats.subinstances)
    if stats.lambda_value is not None:
        rec["lambda"] = stats.lambda_value
    if algo == "pulse+" and opts.joint_pruning:
        rec["cf_build_us"] = stats.cf_build_us
    path = answer
    if algo in SRLG_ALGOS:
        path = answer.active if answer else None
        rec["backup_path"] = list(answer.backup.links) if answer else None
    rec.update(status=stats.status, iterations=stats.iterations,
               elapsed_us=stats.elapsed_us, timeout_phase=stats.timeout_phase)
    if path is not None:
        rec.update(cost=path.cost, delay=path.delay, path=list(path.links))
    else:
        rec.update(cost=None, delay=None, path=None)
    return rec


def cmd_solve(args: argparse.Namespace) -> int:
    # bad input ends the run with one line naming its file, before any record
    try:
        with open(args.graph) as fh:
            net = load_network(fh.read())
    except GraphFormatError as e:
        raise SystemExit(f"{args.graph}: {e}") from None
    queries = _load_queries(args.queries, args.algo in SRLG_ALGOS)
    limit = None if args.time_limit_ms is None else args.time_limit_ms / 1e3
    opts = PulseOptions(ldf=args.ldf, joint_pruning=args.joint_pruning,
                        time_limit=limit)
    graph_name = os.path.basename(args.graph)
    limit_us = None if limit is None else int(limit * 1e6)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for q in queries:
            rec = _solve_one(net, q, args.algo, opts)
            rec["graph"] = graph_name
            rec["time_limit_us"] = limit_us
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cmd_report(args: argparse.Namespace) -> int:
    groups: dict[tuple[str, str], list[dict]] = {}
    for path in args.results:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                # pulse+ options that change the search, and the time limit,
                # get their own row
                limit = rec.get("time_limit_us")
                key = (rec.get("graph", "?"), rec.get("algo", "?")
                       + ("/no-ldf" if rec.get("ldf") is False else "")
                       + ("/joint-pruning" if rec.get("joint_pruning") else "")
                       + ("" if limit is None else f"/limit-{limit}us"))
                groups.setdefault(key, []).append(rec)
    if not groups:
        print("no result records found", file=sys.stderr)
        return 1
    rows = ["topology,algo,p50_us,p75_us,p99_us,completion_rate"]
    for (topo, algo), recs in sorted(groups.items()):
        limit = recs[0].get("time_limit_us")
        elapsed = [INF if r["status"] == "timeout" else r["elapsed_us"]
                   for r in recs]
        cells = []
        for pct in (50, 75, 99):
            v = nearest_rank(elapsed, pct)
            cells.append(f">{limit}" if v == INF else str(int(v)))
        solved = sum(1 for r in recs if r["status"] != "timeout")
        rate = solved / len(recs)
        rows.append(f"{topo},{algo},{cells[0]},{cells[1]},{cells[2]},"
                    f"{rate:.4f}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _time_limit_ms(text: str) -> float:
    """A ``--time-limit-ms`` value: finite and not negative (0 times out at
    once)."""
    value = float(text)
    if not 0 <= value < INF:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drcr",
        description="Delay-range constrained routing benchmark harness")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random corpus")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--pmult", type=int, default=1, choices=(1, 2, 3))
    g.add_argument("--p", type=float, default=None,
                   help="edge probability override")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cases", choices=("drcr", "srlg"), default="drcr")
    g.add_argument("--queries", type=int, default=100)
    g.add_argument("--srlg-style", choices=("none", "star", "nonstar"),
                   default="none")
    g.add_argument("--delta", type=int, default=4)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run a solver over a query file")
    s.add_argument("--graph", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--algo", required=True, choices=DRCR_ALGOS + SRLG_ALGOS)
    s.add_argument("--time-limit-ms", type=_time_limit_ms, default=None)
    s.add_argument("--ldf", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument(
        "--joint-pruning", action="store_true",
        help="pulse+: when the plain-cut search does not finish within its "
             "iteration budget, build the cost functions capped at its "
             "incumbent cost and finish with the joint delay-cost cut")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser(
        "report",
        help="fold result files into a CSV of nearest-rank percentiles "
             "(p50/p75/p99, timeouts rendered as >LIMIT) and completion "
             "rates, one row per graph, algorithm, options and time limit")
    r.add_argument("--results", nargs="+", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
