"""K-shortest-paths baselines for DRCR and the Srlg-disjoint pair problem.

All five solvers enumerate loopless paths in non-decreasing weight with
Yen's algorithm and differ only in the per-link weights and the stopping
rule.  The cost and delay orders use the network's own weight arrays; the
Lagrangian variants combine cost and delay into ``w(e) = c(e) + lambda *
d(e)`` (:func:`drcr.graph.lagrangian_weights`) with a dual-optimal
multiplier chosen by bisection, which typically terminates the enumeration
far earlier than a single-metric ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .graph import INF, Deadline, Network, Path, SolveStats, \
    check_endpoints, dijkstra, finish, lagrangian_weights
from .pulse import DrcrCase, DrcrQuery, classify_case
from .srlg import PathPair, SrlgDrcrQuery, backup_search


def yen_ksp(net: Network, s: int, t: int, weights: np.ndarray,
            deadline: Optional[Deadline] = None) -> Iterator[Path]:
    """Loopless s->t paths in non-decreasing total of the float64 per-link
    ``weights`` (indexed by link id), lazily.

    Multigraph-aware: spur bans remove the specific deviating links, not the
    whole node pair, so parallel links yield distinct paths.
    """
    if (weights < -1e-12).any():
        raise ValueError("negative link weight")
    ingress = net.ingress
    current = dijkstra(net, s, weights, deadline=deadline).path_from(net, t)
    # root prefix -> the next link of every emitted path that starts with it
    next_links: dict[tuple[int, ...], set[int]] = {}
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set() if current is None else {current.links}
    while current is not None:
        cur_links = current.links
        for i, lid in enumerate(cur_links):
            next_links.setdefault(cur_links[:i], set()).add(lid)
        yield current
        nodes = current.nodes
        root_w = 0.0
        for i in range(len(cur_links)):
            if deadline is not None and deadline.expired("ksp.yen"):
                return
            root = cur_links[:i]
            # the spur may not take an emitted path's next link, nor enter
            # a node of the root path
            banned = next_links[root] | {row[3] for v in nodes[:i]
                                         for row in ingress[v]}
            tree = dijkstra(net, nodes[i], weights, disabled=banned)
            spur = tree.path_from(net, t)
            if spur is not None:
                cand = root + spur.links
                if cand not in seen:
                    seen.add(cand)
                    heapq.heappush(candidates, (root_w + tree.dist[t], cand))
            root_w += weights[cur_links[i]]
        current = (Path.from_links(net, heapq.heappop(candidates)[1])
                   if candidates else None)


def cost_ksp_drcr(net: Network, q: DrcrQuery,
                  time_limit: Optional[float] = None,
                  ) -> tuple[Optional[Path], SolveStats]:
    """First delay-range-feasible path in cost order is optimal."""
    check_endpoints(net, q.src, q.dst)
    stats = SolveStats()
    deadline = Deadline(time_limit)
    for path in yen_ksp(net, q.src, q.dst, net.weights("cost"), deadline):
        stats.iterations += 1
        if q.L <= path.delay <= q.U:
            return path, finish(stats, deadline, "optimal")
    return None, finish(stats, deadline, "infeasible")


def delay_ksp_drcr(net: Network, q: DrcrQuery,
                   time_limit: Optional[float] = None,
                   ) -> tuple[Optional[Path], SolveStats]:
    """Enumerate in delay order up to U, keep the cheapest in-range path."""
    check_endpoints(net, q.src, q.dst)
    stats = SolveStats()
    deadline = Deadline(time_limit)
    best: Optional[Path] = None
    for path in yen_ksp(net, q.src, q.dst, net.weights("delay"), deadline):
        stats.iterations += 1
        if path.delay > q.U:
            break
        if path.delay >= q.L and (best is None or path.cost < best.cost):
            best = path
    return best, finish(stats, deadline, "optimal" if best else "infeasible")


@dataclass(frozen=True)
class LambdaResult:
    """Dual multiplier selection outcome.

    ``subcase`` records which bound was binding: "upper" when only the delay
    ceiling binds (lambda >= 0), "lower-interior" / "lower-boundary" when
    the floor binds (lambda < 0, interior maximum vs the -mu endpoint).
    ``degenerate`` flags mu = 0 at the boundary, where the dual bound
    collapses and lambda falls back to 0.
    """

    lambda_star: float
    g_value: float
    subcase: str
    mu: float
    degenerate: bool = False


# Bisection control: stop on relative bracket width or after this many steps.
_BISECT_STEPS = 64
_BISECT_TOL = 1e-6


def _min_weight_delay(net: Network, s: int, t: int, lam: float,
                      deadline: Optional[Deadline] = None,
                      ) -> tuple[float, int]:
    """Weight and delay of a min-(c + lam*d)-weight s->t path."""
    weights = lagrangian_weights(net, lam)
    path = dijkstra(net, s, weights, deadline=deadline).path_from(net, t)
    if path is None:
        return INF, 0
    return path.cost + lam * path.delay, path.delay


def _dual_value(w: float, lam: float, L: int, U: int) -> float:
    return w - max(lam * L, lam * U)


def _bisect_lambda(net: Network, s: int, t: int, L: int, U: int,
                   lo: float, hi: float, threshold: int,
                   deadline: Optional[Deadline] = None,
                   ) -> tuple[float, float]:
    """Maximize the dual over [lo, hi] given d(lo-opt) > threshold >= d(hi-opt).

    The dual is concave with subgradient d(min-weight path) - threshold, so
    bisection on the subgradient sign brackets the maximizer.  It stops
    early once ``deadline`` has expired.
    """
    best_g = -INF
    best_lam = lo
    for lam in (lo, hi):
        w, _d = _min_weight_delay(net, s, t, lam, deadline)
        g = _dual_value(w, lam, L, U)
        if g > best_g:
            best_g, best_lam = g, lam
    for _ in range(_BISECT_STEPS):
        if hi - lo < _BISECT_TOL * (1.0 + abs(lo) + abs(hi)) or (
                deadline is not None and deadline.phase is not None):
            break
        mid = (lo + hi) / 2.0
        w, d = _min_weight_delay(net, s, t, mid, deadline)
        g = _dual_value(w, mid, L, U)
        if g > best_g:
            best_g, best_lam = g, mid
        if d > threshold:
            lo = mid
        else:
            hi = mid
    return best_lam, best_g


def choose_lambda(net: Network, q: DrcrQuery,
                  case: Optional[DrcrCase] = None,
                  deadline: Optional[Deadline] = None) -> LambdaResult:
    """Pick the multiplier maximizing the concave dual bound.

    When the ceiling binds, lambda lives in [0, total_cost + 1]: at the top
    of that bracket any unit of delay outweighs any cost difference, so the
    min-delay path is min-weight.  When the floor binds, lambda is negative
    but bounded below by -mu (mu the minimum cost/delay ratio) to keep every
    link weight non-negative.  A caller that has classified the query
    passes its ``case`` to skip a second classification.  Once ``deadline``
    expires the Dijkstras stop early and the result proves nothing.
    """
    if case is None:
        case, _ = classify_case(net, q)
    if case in (DrcrCase.DEGENERATED, DrcrCase.NON_TRIVIAL_4):
        big = int(net.cost.sum()) + 1.0
        lam, g = _bisect_lambda(net, q.src, q.dst, q.L, q.U, 0.0, big, q.U,
                                deadline)
        return LambdaResult(lam, g, "upper", 0.0)
    if case is not DrcrCase.NON_TRIVIAL_6:
        raise ValueError(f"no binding delay bound to relax ({case.name})")
    timed = net.delay > 0
    if not timed.any():
        raise ValueError("all links have zero delay")
    mu = float((net.cost[timed] / net.delay[timed]).min())
    w, d = _min_weight_delay(net, q.src, q.dst, -mu, deadline)
    if d > q.L:
        lam, g = _bisect_lambda(net, q.src, q.dst, q.L, q.U, -mu, 0.0, q.L,
                                deadline)
        return LambdaResult(lam, g, "lower-interior", mu)
    if mu == 0.0:
        return LambdaResult(0.0, _dual_value(w, 0.0, q.L, q.U),
                            "lower-boundary", mu, degenerate=True)
    return LambdaResult(-mu, _dual_value(w, -mu, q.L, q.U), "lower-boundary", mu)


# Float weights can undershoot the exact stopping bound; an extra emission
# or two is harmless, skipping the optimum is not.
_STOP_SLACK = 1e-9


def lagrangian_ksp_drcr(net: Network, q: DrcrQuery,
                        time_limit: Optional[float] = None,
                        ) -> tuple[Optional[Path], SolveStats]:
    """Enumerate in dual-weight order, stop once no cheaper path can follow.

    A path of weight w costs at least w - max{lambda*L, lambda*U} if its
    delay is in range, so the enumeration halts as soon as the next weight
    reaches incumbent_cost + max{lambda*L, lambda*U}.
    """
    stats = SolveStats()
    deadline = Deadline(time_limit)
    case, min_cost = classify_case(net, q, deadline)  # checks the endpoints
    if deadline.phase is not None:
        return None, finish(stats, deadline, "timeout")
    if case is DrcrCase.INFEASIBLE:
        return None, finish(stats, deadline, "infeasible")
    if case.trivial:
        stats.lambda_value = 0.0
        return min_cost, finish(stats, deadline, "optimal")
    lam = choose_lambda(net, q, case, deadline).lambda_star
    if deadline.phase is not None:  # a bisection cut short chose nothing
        return None, finish(stats, deadline, "timeout")
    stats.lambda_value = lam
    offset = max(lam * q.L, lam * q.U)
    best: Optional[Path] = None
    for path in yen_ksp(net, q.src, q.dst, lagrangian_weights(net, lam),
                        deadline):
        stats.iterations += 1
        if best is not None and path.cost + lam * path.delay \
                >= best.cost + offset + _STOP_SLACK:
            break
        if q.L <= path.delay <= q.U and (best is None or path.cost < best.cost):
            best = path
    return best, finish(stats, deadline, "optimal" if best else "infeasible")


def srlg_ksp_drcr(net: Network, q: SrlgDrcrQuery, order: str = "cost",
                  time_limit: Optional[float] = None,
                  ) -> tuple[Optional[PathPair], SolveStats]:
    """Enumerate actives in cost (or delay) order; keep the cheapest that
    admits a backup.

    In cost order the first such active is the cheapest.  In delay order
    the enumeration runs up to ``U``, and an active costing at least the
    incumbent's is skipped without a backup search.
    """
    if order not in ("cost", "delay"):
        raise ValueError(f"unknown enumeration order {order!r}")
    check_endpoints(net, q.src, q.dst)
    stats = SolveStats()
    deadline = Deadline(time_limit)
    best: Optional[PathPair] = None
    # A backup search that times out ends the enumeration at its next spur.
    for active in yen_ksp(net, q.src, q.dst, net.weights(order), deadline):
        stats.iterations += 1
        if active.delay > q.U:
            if order == "delay":
                break
            continue
        if best is not None and active.cost >= best.active.cost:
            continue
        backup = backup_search(net, active, q.U, q.delta, deadline)
        if backup is not None:
            best = PathPair(active, backup)
            if order == "cost":
                break
    return best, finish(stats, deadline, "optimal" if best else "infeasible")


def srlg_lagrangian_ksp(net: Network, q: SrlgDrcrQuery,
                        time_limit: Optional[float] = None,
                        ) -> tuple[Optional[PathPair], SolveStats]:
    """Dual-ordered active enumeration with deferred backup checks.

    Delay-feasible actives are parked in a cost-keyed heap; a backup search
    runs only once the heap minimum is provably the cheapest active still
    outstanding (its cost plus lambda*U is at most the next dual weight).
    """
    check_endpoints(net, q.src, q.dst)
    stats = SolveStats()
    deadline = Deadline(time_limit)
    big = int(net.cost.sum()) + 1.0
    w0, d0 = _min_weight_delay(net, q.src, q.dst, 0.0, deadline)
    if w0 == INF:
        return None, finish(stats, deadline, "infeasible")
    if d0 <= q.U:
        lam = 0.0
    else:
        lam, _g = _bisect_lambda(net, q.src, q.dst, 0, q.U, 0.0, big, q.U,
                                 deadline)
        if deadline.phase is not None:  # cut short: no multiplier chosen
            return None, finish(stats, deadline, "timeout")
    stats.lambda_value = lam
    gen = yen_ksp(net, q.src, q.dst, lagrangian_weights(net, lam), deadline)
    heap: list[tuple[int, int, Path]] = []
    counter = 0
    nxt: Optional[Path] = next(gen, None)
    while True:
        nxt_w = None if nxt is None else nxt.cost + lam * nxt.delay
        while heap and deadline.phase is None and (
                nxt_w is None or heap[0][0] + lam * q.U <= nxt_w + _STOP_SLACK):
            _cost, _n, active = heapq.heappop(heap)
            backup = backup_search(net, active, q.U, q.delta, deadline)
            if backup is not None:
                return PathPair(active, backup), finish(stats, deadline, "optimal")
        if nxt is None or deadline.phase is not None:
            return None, finish(stats, deadline, "infeasible")
        stats.iterations += 1
        if nxt.delay <= q.U:
            counter += 1
            heapq.heappush(heap, (nxt.cost, counter, nxt))
        nxt = next(gen, None)
