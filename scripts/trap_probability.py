#!/usr/bin/env python3
"""Trap probability versus the backup delay tolerance.

Generates Srlg'd random networks, fixes a set of source/destination
queries, and sweeps the allowed active/backup delay difference.  An
instance is a trap when it is feasible but the unconstrained min-cost
active path has no valid backup.
"""

import argparse

from drcr.srlg import SrlgDrcrQuery
from drcr.testgen import GenConfig, classify_trap, gen_er_network, \
    gen_srlg_query


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=30)
    ap.add_argument("--pmult", type=int, default=2)
    ap.add_argument("--networks", type=int, default=4)
    ap.add_argument("--queries-per-network", type=int, default=25)
    ap.add_argument("--srlg-style", choices=("star", "nonstar"),
                    default="star")
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--deltas", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--time-limit", type=float, default=30.0)
    args = ap.parse_args()

    instances = []
    for g in range(args.networks):
        cfg = GenConfig(n=args.nodes, p_mult=args.pmult, seed=args.seed + g,
                        srlg_style=args.srlg_style)
        net = gen_er_network(cfg)
        for i in range(args.queries_per_network):
            q = gen_srlg_query(net, 10_000 + i, delta=1)
            instances.append((net, q))

    print(f"{len(instances)} instances, styles={args.srlg_style}")
    print(f"{'delta':>6} {'trap':>6} {'nontrap':>8} {'infeasible':>11} "
          f"{'timeout':>8} {'trap-fraction':>14}")
    for delta in args.deltas:
        counts = {"trap": 0, "nontrap": 0, "infeasible": 0, "timeout": 0}
        for net, q in instances:
            verdict = classify_trap(
                net, SrlgDrcrQuery(q.src, q.dst, q.U, delta),
                time_limit=args.time_limit)
            counts[verdict] += 1
        frac = counts["trap"] / len(instances)
        print(f"{delta:>6} {counts['trap']:>6} {counts['nontrap']:>8} "
              f"{counts['infeasible']:>11} {counts['timeout']:>8} {frac:>14.3f}")


if __name__ == "__main__":
    main()
