"""Per-node delay-to-cost functions backing the joint pruning rule.

For each node ``u`` we keep a Pareto list of (delay-to-destination,
cost-to-destination) pairs over *walks* (node repetition allowed; the
relaxation is what makes the list cheap to compute and it still lower-bounds
every elementary completion).  Evaluating the list at a residual delay
budget gives the cheapest way to finish within that budget, which combined
with the accumulated cost yields a cut strictly at least as strong as the
plain min-cost-tree optimality cut.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .graph import INF, Deadline, Network, build_forward_tree


@dataclass(frozen=True)
class CostFunction:
    """Frozen Pareto lists: ``delays[u]`` ascending, ``costs[u]`` descending."""

    delays: list[list[int]]
    costs: list[list[int]]


def compute_cost_functions(net: Network, s: int, t: int, U: int,
                           cap: float = INF,
                           deadline: Optional[Deadline] = None) -> CostFunction:
    """Smallest-cost-first reverse search from ``t``.

    Branches are cut when dominated by an already-kept pair or when even the
    forward min-delay path from ``s`` cannot complete them within ``U``.
    Because pairs pop in non-decreasing cost order, dominance reduces to a
    single comparison against the most recent (smallest-delay) kept pair.

    With a finite ``cap`` a pair ``(c, d)`` at ``v`` is also cut when
    ``c + min-cost(s -> v) >= cap``: a search whose incumbent costs at most
    ``cap`` reaches ``v`` with at least that min cost, so such a pair can
    only bound branches that cannot beat the incumbent.  Every value below
    the cap stays exact; values at or above it may grow.
    """
    fwd_dist = build_forward_tree(net, s, "delay", deadline=deadline).dist
    # feasibility headroom U - min-delay(s -> v) and cost headroom
    # cap - min-cost(s -> v) per node
    slack = [U - d for d in fwd_dist]
    if cap == INF:
        room = [INF] * net.num_nodes
    else:
        room = [cap - c for c in
                build_forward_tree(net, s, "cost", deadline=deadline).dist]
    n = net.num_nodes
    delays: list[list[int]] = [[] for _ in range(n)]
    costs: list[list[int]] = [[] for _ in range(n)]
    heap: list[tuple[int, int, int]] = [(0, 0, t)]
    ingress = net.ingress
    pop = heapq.heappop
    push = heapq.heappush
    kept = 0
    while heap:
        cost, delay, u = pop(heap)
        dlist = delays[u]
        if dlist and dlist[-1] <= delay:
            continue
        if kept & 63 == 0 and deadline is not None \
                and deadline.expired("costfn.build"):
            break
        kept += 1
        dlist.append(delay)
        costs[u].append(cost)
        for v, d_e, c_e, _lid in ingress[u]:
            new_delay = delay + d_e
            new_cost = cost + c_e
            if new_delay <= slack[v] and new_cost < room[v]:
                push(heap, (new_cost, new_delay, v))
    for u in range(n):
        delays[u].reverse()
        costs[u].reverse()
    return CostFunction(delays, costs)
