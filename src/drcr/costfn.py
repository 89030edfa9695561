"""Per-node delay-to-cost functions backing the joint pruning rule.

For each node ``u`` we keep a Pareto list of (delay-to-destination,
cost-to-destination) pairs over *walks* (node repetition allowed; the
relaxation is what makes the list cheap to compute and it still lower-bounds
every elementary completion).  Evaluating the list at a residual delay
budget gives the cheapest way to finish within that budget, which combined
with the accumulated cost yields a cut strictly at least as strong as the
plain min-cost-tree optimality cut.

The lists come from a label-setting search that pops pairs cheapest first; a
dominated pair is dropped before it is pushed, or at its pop when its node
kept a better pair while it waited on the heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import INF, NO_LIMIT, Deadline, Network, build_forward_tree


@dataclass(frozen=True)
class CostFunction:
    """Frozen Pareto lists: ``delays[u]`` ascending, ``costs[u]`` descending.

    Read-only: the nodes the build never reached share one empty list.
    """

    delays: list[list[int]]
    costs: list[list[int]]


def compute_cost_functions(net: Network, s: int, t: int, U: int,
                           cap: float = INF,
                           deadline: Deadline = NO_LIMIT) -> CostFunction:
    """Smallest-cost-first reverse search from ``t``.

    Branches are cut when dominated by an already-kept pair or when even the
    forward min-delay path from ``s`` cannot complete them within ``U``.
    Because pairs pop in non-decreasing cost order, dominance reduces to a
    single comparison against the most recent (smallest-delay) kept pair.
    That pair's delay only falls, so the test also runs before a push: the
    kept pairs, their order and the deadline checks (every 64 kept pairs)
    are those of the test at pop time alone.

    With a finite ``cap`` a pair ``(c, d)`` at ``v`` is also cut when
    ``c + min-cost(s -> v) >= cap``: a search whose incumbent costs at most
    ``cap`` reaches ``v`` with at least that min cost, so such a pair can
    only bound branches that cannot beat the incumbent.  Every value below
    the cap stays exact; values at or above it may grow.
    """
    fwd_delay = build_forward_tree(net, s, "delay", deadline=deadline).dist
    # with no cap the cost cut asks only that s reach v, which the delay
    # cut has checked by then: any forward list of finite entries serves
    fwd_cost = (fwd_delay if cap == INF else
                build_forward_tree(net, s, "cost", deadline=deadline).dist)
    unreached: list[int] = []
    delays: list[list[int]] = [unreached] * net.num_nodes
    costs: list[list[int]] = [unreached] * net.num_nodes
    reached: list[int] = []
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
        if kept & 63 == 0 and deadline.expired("costfn.build"):
            break
        kept += 1
        if dlist:
            dlist.append(delay)
            costs[u].append(cost)
        else:
            delays[u] = [delay]
            costs[u] = [cost]
            reached.append(u)
        for v, d_e, c_e, _lid in ingress[u]:
            new_delay = delay + d_e
            dlist = delays[v]
            if (not dlist or dlist[-1] > new_delay) \
                    and new_delay + fwd_delay[v] <= U:
                new_cost = cost + c_e
                if new_cost + fwd_cost[v] < cap:
                    push(heap, (new_cost, new_delay, v))
    for u in reached:
        delays[u].reverse()
        costs[u].reverse()
    return CostFunction(delays, costs)
