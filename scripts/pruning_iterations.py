#!/usr/bin/env python3
"""Compare search-iteration counts across pruning strategies.

Generates a random corpus of hard delay-range queries and reports the
50th/75th/99th iteration percentiles for three configurations: plain
link-order search, largest-delay-first ordering, and LDF plus joint
delay-cost pruning.
"""

import argparse
import statistics

from drcr.cli import nearest_rank
from drcr.graph import build_reverse_tree
from drcr.pulse import PulseOptions, ldf_order, natural_order, pulse_plus
from drcr.testgen import GenConfig, gen_drcr_query, gen_er_network


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=1000)
    ap.add_argument("--pmult", type=int, default=3)
    ap.add_argument("--seed", type=int, default=424)
    ap.add_argument("--groups", type=int, default=5,
                    help="destination groups (trees are reused per group)")
    ap.add_argument("--queries-per-group", type=int, default=20)
    ap.add_argument("--time-limit", type=float, default=5.0)
    args = ap.parse_args()

    net = gen_er_network(GenConfig(n=args.nodes, p_mult=args.pmult,
                                   seed=args.seed))
    print(f"network: {args.nodes} nodes, {len(net.links)} links")

    configs = {
        "link-order": [],
        "ldf": [],
        "ldf+joint": [],
    }
    import numpy as np
    rng = np.random.default_rng(args.seed)
    for g in range(args.groups):
        dst = int(rng.integers(0, net.num_nodes))
        dtree = build_reverse_tree(net, dst, "delay")
        ctree = build_reverse_tree(net, dst, "cost")
        ldf = ldf_order(net, dtree)
        nat = natural_order(net)
        for i in range(args.queries_per_group):
            q = gen_drcr_query(net, args.seed + 1000 * g + i,
                               4 if i % 2 == 0 else 6,
                               dst=dst, delay_tree=dtree, cost_tree=ctree)
            runs = [
                ("link-order", PulseOptions(ldf=False,
                                            time_limit=args.time_limit), nat),
                ("ldf", PulseOptions(time_limit=args.time_limit), ldf),
                ("ldf+joint", PulseOptions(joint_pruning=True,
                                           time_limit=args.time_limit), ldf),
            ]
            for name, opts, order in runs:
                _, stats = pulse_plus(net, q, opts, delay_tree=dtree,
                                      cost_tree=ctree, egress_order=order)
                configs[name].append(stats.iterations)

    print(f"{'config':<12} {'p50':>8} {'p75':>8} {'p99':>8} {'median-ratio':>13}")
    base = statistics.median(configs["link-order"])
    for name, iters in configs.items():
        p50, p75, p99 = (nearest_rank(iters, p) for p in (50, 75, 99))
        print(f"{name:<12} {p50:>8} {p75:>8} {p99:>8} "
              f"{statistics.median(iters) / base:>13.2f}")


if __name__ == "__main__":
    main()
