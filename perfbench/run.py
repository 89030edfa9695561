#!/usr/bin/env python3
"""drcr benchmark: closed-loop query latency and throughput, traced layers.

    python3 perfbench/run.py --workload drcr-1k-joint --seed 1 --seconds 30 --trace 0

One client, one thread, one query in flight: the next query is sent when the
previous one returns.  The seed picks the order in which the workload's query
pool is sent; the run cycles through that order until ``--seconds`` have
passed and at least ``MIN_QUERIES`` queries were timed.  Every answer is
rechecked from raw links and compared with the stored reference
``(status, cost)``; any mismatch makes the command exit non-zero.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and span-traced queries for the same time, then re-runs a fixed
subset of the pool with a 10 ms limit, and prints the per-layer metrics.  The last stdout line is the JSON result; the line before
it carries provenance.  Run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path as FsPath
from time import perf_counter

HERE = FsPath(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_QUERIES = 100  # nearest-rank p90 then has at least ten samples above it
# Set-up is timed repeatedly, at least SETUP_MIN_REPS times and until
# SETUP_BUDGET_S of load time has accumulated, and the median is reported.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 100
SETUP_BUDGET_S = 2.0
PROBE_QUERIES = 10
PROBE_LIMIT_S = 0.010

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "completion_rate": "ratio",
    "setup_s": "s",
}


def layer_units(layers) -> dict:
    units = {}
    for layer in layers:
        units.update({f"{layer}.calls": "count", f"{layer}.self_ms": "ms",
                      f"{layer}.share": "ratio"})
    units.update({
        "pulse.search.iterations": "count",
        "pulse.search.searched_fraction": "ratio",
        "costfn.labels": "count",
        "srlg.active.found_ratio": "ratio",
        "srlg.backup.hit_ratio": "ratio",
        "srlg.conflict.sets": "count",
        "srlg.subinstances.p50": "count",
        "srlg.subinstances.total": "count",
        "stats.elapsed_gap_ms": "ms",
        "deadline.overshoot_p50_ms": "ms",
        "deadline.overshoot_max_ms": "ms",
        "deadline.probes": "count",
        "deadline.open_unchecked_share": "ratio",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
        "trace.queries": "count",
    })
    return units


def import_library() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "drcr" / "__init__.py").is_file():
        sys.exit(f"drcr sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import drcr
    if FsPath(drcr.__file__).resolve().parent != SRC / "drcr":
        sys.exit(f"imported drcr from {drcr.__file__}, not from {SRC}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_pass(solvers, queries, order, seconds: float,
             min_queries: int) -> list[tuple]:
    """Closed loop over ``order`` (cycled) until ``seconds`` have passed and
    ``min_queries`` were timed; query ``i`` goes to ``solvers[i % k]``.

    Returns ``(pool index, wall_s, answer, stats, solver index)`` per query.
    """
    out = []
    stop = perf_counter() + seconds
    i = 0
    while True:
        k = i % len(solvers)
        qi = int(order[i % len(order)])
        q = queries[qi]
        t0 = perf_counter()
        answer, stats = solvers[k](q)
        t1 = perf_counter()
        out.append((qi, t1 - t0, answer, stats, k))
        i += 1
        if t1 >= stop and i >= min_queries:
            return out


def e2e_metrics(records, ok: list[bool], setup_s: float) -> dict:
    from drcr.cli import nearest_rank

    lat_ms = [rec[1] * 1e3 for rec in records]
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": nearest_rank(lat_ms, 90),
        "queries_per_s": sum(ok) / sum(rec[1] for rec in records),
        "completion_rate": sum(ok) / len(records),
        "setup_s": setup_s,
    }


def deadline_probe(wl, net, queries, expected) -> tuple[dict, dict, bool]:
    """Re-run the first pool queries with a 10 ms limit under tracing."""
    import workloads
    from tracer import UNCHECKED, Tracer

    tracer = Tracer()
    overshoot_ms, open_layers, valid = [], {}, True
    with tracer.installed():
        solve = tracer.wrap("query", workloads.make_solver(
            wl.name, net, time_limit=PROBE_LIMIT_S))
        for qi in range(min(PROBE_QUERIES, len(queries))):
            tracer.query_id = qi
            first = len(tracer.spans)
            answer, stats = solve(queries[qi])
            start, end = tracer.spans[first][1:3]
            overshoot_ms.append((end - start - PROBE_LIMIT_S) * 1e3)
            layer = tracer.innermost_open(qi, start + PROBE_LIMIT_S)
            open_layers[layer] = open_layers.get(layer, 0) + 1
            if stats.status == "timeout":
                valid &= workloads.answer_valid(net, queries[qi], answer)
            else:
                valid &= workloads.completed(net, queries[qi], answer, stats,
                                             expected[qi])
    n = len(overshoot_ms)
    unchecked = sum(c for layer, c in open_layers.items() if layer in UNCHECKED)
    return {"deadline.overshoot_p50_ms": statistics.median(overshoot_ms),
            "deadline.overshoot_max_ms": max(overshoot_ms),
            "deadline.probes": n,
            "deadline.open_unchecked_share": unchecked / n}, open_layers, valid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs-dir", type=FsPath, default=None,
                    help="reference pools (default: perfbench/refs)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_library()
    import numpy as np

    import workloads
    from drcr.graph import load_network
    from tracer import LAYERS, Tracer, layer_metrics

    try:
        wl = workloads.load_workload(args.workload,
                                     args.refs_dir or workloads.REFS_DIR)
    except (ValueError, OSError) as exc:
        sys.exit(f"cannot load workload {args.workload!r}: {exc}")
    t0 = perf_counter()
    text = workloads.graph_text(wl.corpus)
    corpus_s = perf_counter() - t0
    if workloads.sha256(text) != wl.graph_sha256:
        sys.exit(f"{wl.name}: generated graph differs from the one the "
                 "reference answers were computed on")

    setup = []
    net = None
    while len(setup) < SETUP_MIN_REPS or (sum(setup) < SETUP_BUDGET_S
                                          and len(setup) < SETUP_MAX_REPS):
        net = None
        t0 = perf_counter()
        net = load_network(text)
        setup.append(perf_counter() - t0)
    setup_s = statistics.median(setup)
    queries = wl.queries(net)
    expected = wl.expected()
    order = np.random.default_rng(args.seed).permutation(len(queries))
    solve = workloads.make_solver(wl.name, net)
    gc.collect()

    def check(records) -> list[bool]:
        return [workloads.completed(net, queries[qi], answer, stats,
                                    expected[qi])
                for qi, _, answer, stats, _ in records]

    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "corpus": wl.corpus, "query_spec": wl.query_spec,
        "pool_queries": len(queries), "links": len(net.links),
        "loop": "closed, 1 client, 1 thread, 1 query in flight",
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "testgen.corpus_s": corpus_s, "setup_runs_s": setup,
    }
    record: dict = {}
    if args.trace == 0:
        records = run_pass([solve], queries, order, args.seconds, MIN_QUERIES)
        ok = check(records)
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in e2e_metrics(records, ok, setup_s).items()}
        correct = all(ok)
    else:
        # Untraced and traced queries alternate, so both halves see the same
        # host load and no query is replayed within a pass over the pool.
        tracer = Tracer()
        tracer.enabled = False
        with tracer.installed():
            wrapped = tracer.wrap("query", solve)

            def traced_solve(q):
                tracer.query_id += 1
                tracer.enabled = True
                try:
                    return wrapped(q)
                finally:
                    tracer.enabled = False

            records = run_pass([solve, traced_solve], queries, order,
                               args.seconds, 2)
        plain = [rec for rec in records if rec[4] == 0]
        traced = [rec for rec in records if rec[4] == 1]
        probe, open_layers, probe_ok = deadline_probe(wl, net, queries,
                                                      expected)
        ok = check(records)
        values = layer_metrics(tracer.spans)
        values.update(probe)
        subs = [rec[3].subinstances for rec in traced
                if hasattr(rec[3], "subinstances")]
        values["srlg.subinstances.p50"] = statistics.median(subs) if subs else 0
        values["srlg.subinstances.total"] = sum(subs)
        values["stats.elapsed_gap_ms"] = statistics.median(
            wall * 1e3 - stats.elapsed_us / 1e3
            for _, wall, _, stats, _ in plain)
        values["trace.overhead"] = (statistics.median(r[1] for r in traced)
                                    / statistics.median(r[1] for r in plain))
        values["trace.queries"] = len(traced)
        units = layer_units(LAYERS)
        metrics = {k: (values[k], units[k]) for k in units}
        provenance["unwrapped"] = tracer.unwrapped
        provenance["deadline_open_layers"] = open_layers
        record["spans"] = tracer.spans
        correct = all(ok) and probe_ok

    attempted, passed = len(ok), sum(ok)
    provenance["queries_timed"] = attempted
    record.update(provenance=provenance,
                  metrics={k: v for k, (v, _) in metrics.items()},
                  queries=[[qi, wall * 1e3, k, *workloads.outcome(a, s)]
                           for qi, wall, a, s, k in records])
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
