"""Exhaustive reference solvers for small instances, for the tests.

Everything here trades speed for transparency: path enumeration, pair
enumeration and a plain dynamic program.  Guards cap the work so a wrongly
sized test fails loudly instead of hanging.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from drcr.costfn import CostFunction
from drcr.graph import INF, Network, Path, srlgs_of_path
from drcr.pulse import DrcrQuery
from drcr.srlg import PathPair, SrlgDrcrQuery

MAX_PATHS = 200_000
MAX_DP_STATES = 5_000_000


class ExplosionGuard(RuntimeError):
    """The instance is too large for exhaustive solving."""


def enumerate_elementary_paths(net: Network, s: int, t: int,
                               max_paths: int = MAX_PATHS) -> list[Path]:
    """All elementary s->t paths via DFS with a visited set."""
    out: list[Path] = []
    prefix: list[int] = []
    visited = {s}

    def recurse(u: int) -> None:
        if u == t:
            if len(out) >= max_paths:
                raise ExplosionGuard(f"more than {max_paths} paths")
            out.append(Path.from_links(net, prefix))
            return
        for v, _d, _c, lid in net.egress[u]:
            if v in visited:
                continue
            visited.add(v)
            prefix.append(lid)
            recurse(v)
            prefix.pop()
            visited.remove(v)

    if s != t:
        recurse(s)
    return out


def brute_drcr(net: Network, q: DrcrQuery) -> Optional[tuple[int, Path]]:
    """Min-cost path with delay in [L, U]; ties break on link-id sequence."""
    best: Optional[tuple[int, Path]] = None
    for p in enumerate_elementary_paths(net, q.src, q.dst):
        if not q.L <= p.delay <= q.U:
            continue
        if best is None or (p.cost, p.links) < (best[0], best[1].links):
            best = (p.cost, p)
    return best


def brute_srlg_drcr(net: Network, q: SrlgDrcrQuery,
                    ) -> Optional[tuple[int, PathPair]]:
    """Min active-cost Srlg-disjoint pair by full pair enumeration."""
    paths = enumerate_elementary_paths(net, q.src, q.dst)
    omegas = [srlgs_of_path(net, p) for p in paths]
    best: Optional[tuple[int, PathPair]] = None
    for i, a in enumerate(paths):
        if a.delay > q.U:
            continue
        if best is not None and (a.cost, a.links) >= (best[0], best[1].active.links):
            continue
        lo = max(0, a.delay - q.delta)
        hi = min(q.U, a.delay + q.delta)
        for j, b in enumerate(paths):
            # i == j is fine when the path is Srlg-free: the intersection
            # check below rejects every other self-pairing.
            if omegas[i] & omegas[j]:
                continue
            if lo <= b.delay <= hi:
                best = (a.cost, PathPair(a, b))
                break
    return best


def verify_conflict_set(net: Network, q: SrlgDrcrQuery,
                        srlg_ids: frozenset[int]) -> bool:
    """Check that no U-feasible path carrying every listed Srlg has a
    U-feasible Srlg-disjoint companion.

    Negative ids denote synthetic single-link groups ``-(link_id + 1)``:
    a path carries such a group iff it uses the link.
    """
    paths = enumerate_elementary_paths(net, q.src, q.dst)
    feasible = [p for p in paths if p.delay <= q.U]
    omegas = [srlgs_of_path(net, p) for p in feasible]

    def carries(p: Path, omega: frozenset[int]) -> bool:
        for r in srlg_ids:
            if r < 0:
                if -r - 1 not in p.links:
                    return False
            elif r not in omega:
                return False
        return True

    for i, a in enumerate(feasible):
        if not carries(a, omegas[i]):
            continue
        for j, b in enumerate(feasible):
            if not omegas[i] & omegas[j]:
                return False
    return True


def brute_cost_function(net: Network, s: int, t: int, U: int,
                        max_states: int = MAX_DP_STATES) -> list[list[float]]:
    """Exact min cost-to-t per (node, residual delay budget) over walks.

    Returns ``f`` with ``f[u][l]`` the cheapest way to reach ``t`` from
    ``u`` using total delay at most ``l``; INF where impossible.  Walks may
    revisit nodes, matching the relaxation the fast Pareto build optimizes.
    """
    n = net.num_nodes
    if n * (U + 1) > max_states:
        raise ExplosionGuard(f"more than {max_states} DP states")
    f = [[INF] * (U + 1) for _ in range(n)]
    for l in range(U + 1):
        f[t][l] = 0
    # Bellman-Ford style value iteration to a fixpoint; terminates because
    # costs are non-negative integers bounded by the state space.
    changed = True
    while changed:
        changed = False
        for u, v, delay, cost in zip(*net.table.tolist()):
            fu = f[u]
            fv = f[v]
            for l in range(delay, U + 1):
                cand = fv[l - delay] + cost
                if cand < fu[l]:
                    fu[l] = cand
                    changed = True
    return f


def eval_cost_function(cf: CostFunction, u: int, budget: float) -> float:
    """Min cost over kept pairs with delay <= budget; INF if none qualify.

    The rule the search applies inline to ``cf``'s Pareto lists."""
    darr = cf.delays[u]
    idx = bisect_right(darr, budget)
    if idx == 0:
        return INF
    return cf.costs[u][idx - 1]
