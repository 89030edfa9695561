#!/usr/bin/env python3
"""Regenerate the query pools and reference answers under ``refs/``.

    python3 perfbench/make_refs.py            # full-size workloads
    python3 perfbench/make_refs.py --toy      # toy sizes used by the self-test

Queries are sampled with ``drcr.testgen`` on the network parsed back from the
generated graph text, i.e. on exactly the ``Network`` the benchmark solves.
Every reference answer is solved twice, with the benchmark's settings and with
a second exact configuration that branches differently (link-order egress,
plain cut, or another conflict-Srlg pick); the two must agree on
``(status, cost)`` and the answer must pass the raw-link checks.  Only
``optimal`` and ``infeasible`` outcomes are accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FsPath

HERE = FsPath(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from drcr.graph import build_reverse_tree, load_network  # noqa: E402
from drcr.pulse import PulseOptions, solve_drcr  # noqa: E402
from drcr.srlg import cose_pulse_plus  # noqa: E402
from drcr.testgen import GenerationError, gen_drcr_query, gen_srlg_query  # noqa: E402

import workloads  # noqa: E402

SPECS = {
    "drcr-1k-joint": {
        "corpus": {"n": 1000, "p_mult": 1, "seed": 515, "srlg_style": "none"},
        "query_spec": {"grouping": "one query per destination",
                       "cases": "alternating 4/6", "count": 1000,
                       "seed_base": 70_000},
    },
    "drcr-4k-dst": {
        "corpus": {"n": 4000, "p_mult": 3, "seed": 424, "srlg_style": "none"},
        "query_spec": {"grouping": "destination groups", "groups": 10,
                       "per_group": 20, "cases": "alternating 4/6",
                       "group_seed": 77, "seed_base": 90_000},
    },
    "srlg-200": {
        "corpus": {"n": 200, "p_mult": 2, "seed": 7, "srlg_style": "nonstar"},
        "query_spec": {"grouping": "distinct random connected pairs",
                       "count": 300, "delta": 1, "seed_base": 10_000},
    },
}

TOY_SPECS = {
    "drcr-1k-joint": {
        "corpus": {"n": 80, "p_mult": 1, "seed": 515, "srlg_style": "none"},
        "query_spec": {**SPECS["drcr-1k-joint"]["query_spec"], "count": 40},
    },
    "drcr-4k-dst": {
        "corpus": {"n": 150, "p_mult": 3, "seed": 424, "srlg_style": "none"},
        "query_spec": {**SPECS["drcr-4k-dst"]["query_spec"], "groups": 3,
                       "per_group": 8},
    },
    "srlg-200": {
        # Smaller nonstar nets keep the 1-40 link group sizes and so branch
        # far more; the toy keeps the full corpus and shrinks the pool.
        "corpus": SPECS["srlg-200"]["corpus"],
        "query_spec": {**SPECS["srlg-200"]["query_spec"], "count": 30},
    },
}


def sample_queries(net, qs: dict) -> list:
    if qs["grouping"] == "one query per destination":
        rng = np.random.default_rng(qs["seed_base"])
        out = []
        for k, dst in enumerate(rng.permutation(net.num_nodes)):
            if len(out) == qs["count"]:
                break
            try:
                out.append(gen_drcr_query(net, qs["seed_base"] + k,
                                          4 if len(out) % 2 == 0 else 6,
                                          dst=int(dst)))
            except GenerationError:
                continue
        return out
    if qs["grouping"] == "destination groups":
        rng = np.random.default_rng(qs["group_seed"])
        out = []
        for g in range(qs["groups"]):
            dst = int(rng.integers(0, net.num_nodes))
            dtree = build_reverse_tree(net, dst, "delay")
            ctree = build_reverse_tree(net, dst, "cost")
            for i in range(qs["per_group"]):
                out.append(gen_drcr_query(net, qs["seed_base"] + 100 * g + i,
                                          4 if i % 2 == 0 else 6, dst=dst,
                                          delay_tree=dtree, cost_tree=ctree))
        return out
    out, seen = [], set()
    for i in range(qs["count"] * 2):
        if len(out) == qs["count"]:
            break
        q = gen_srlg_query(net, qs["seed_base"] + i, qs["delta"])
        if (q.src, q.dst) not in seen:
            seen.add((q.src, q.dst))
            out.append(q)
    return out


def cross_check_solver(name: str, net):
    """A second exact configuration with different branching."""
    if name == "drcr-1k-joint":
        opts = PulseOptions(joint_pruning=False, time_limit=60)
    elif name == "drcr-4k-dst":
        opts = PulseOptions(ldf=False, time_limit=60)
    else:
        return lambda q: cose_pulse_plus(net, q, time_limit=60,
                                         pick="first-link")
    return lambda q: solve_drcr(net, q, opts)


def build(name: str, spec: dict) -> dict:
    t0 = time.perf_counter()
    text = workloads.graph_text(spec["corpus"])
    net = load_network(text)
    queries = sample_queries(net, spec["query_spec"])
    solve = workloads.make_solver(name, net, time_limit=60)
    check = cross_check_solver(name, net)
    rows = []
    for q in queries:
        answer, stats = solve(q)
        want = workloads.outcome(answer, stats)
        alt = workloads.outcome(*check(q))
        if want != alt or not workloads.completed(net, q, answer, stats, want):
            raise SystemExit(f"{name}: reference check failed for {q}: "
                             f"{want} vs {alt}")
        fields = (q.L, q.U) if hasattr(q, "L") else (q.U, q.delta)
        rows.append([int(net.node_names[q.src]), int(net.node_names[q.dst]),
                     *fields, *want])
    print(f"{name}: {len(net.links)} links, {len(rows)} queries, "
          f"{sum(r[4] == 'optimal' for r in rows)} optimal, "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"workload": name, "corpus": spec["corpus"],
            "query_spec": spec["query_spec"],
            "graph_sha256": workloads.sha256(text), "rows": rows}


def write(doc: dict, path: FsPath) -> None:
    head = {k: v for k, v in doc.items() if k != "rows"}
    lines = json.dumps(head, indent=1)[:-2] + ',\n "rows": [\n'
    lines += ",\n".join(json.dumps(r) for r in doc["rows"]) + "\n ]\n}\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--toy", action="store_true",
                    help="write the toy-size pools to refs/toy/")
    ap.add_argument("--workload", choices=sorted(SPECS), action="append",
                    help="only these workloads (default: all)")
    args = ap.parse_args()
    specs = TOY_SPECS if args.toy else SPECS
    out_dir = workloads.REFS_DIR / "toy" if args.toy else workloads.REFS_DIR
    for name in args.workload or sorted(specs):
        write(build(name, specs[name]), out_dir / f"{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
