"""K-shortest-paths baselines for DRCR and the Srlg-disjoint pair problem.

All five solvers run one loop, :func:`_cheapest_first`: it draws loopless
paths from Yen's algorithm in non-decreasing weight and releases the
in-range paths cheapest first, each once no later path can cost less.  The
solvers differ only in the order and in what a released path must pass.
The cost and delay orders use the network's own weights; the Lagrangian
variants combine cost and delay into ``w(e) = c(e) + lambda * d(e)``
(:func:`drcr.graph.lagrangian_weights`) with a dual-optimal multiplier
chosen by bisection, which typically releases far earlier than a
single-metric order.  The pair solvers accept an active path only with a
backup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional

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
        big = net.totals[1] + 1.0
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


def _cheapest_first(net: Network, s: int, t: int, L: int, U: int,
                    lam: Optional[float], stats: SolveStats,
                    deadline: Deadline, accept: Callable = lambda p: p):
    """The first answer ``accept`` gives for an s->t path with delay in
    ``[L, U]``, tried cheapest first, and ``stats`` finished.

    Paths come from :func:`yen_ksp` in ``cost + lam*delay`` order (in delay
    order when ``lam`` is None), one iteration each.  In-range paths wait in
    a heap keyed by (cost, draw number); its minimum is released once no
    later in-range path can cost less: once ``w - max(lam*L, lam*U)``
    reaches it, ``w`` the last weight, or once the last path in delay order
    is past ``U``, or once Yen runs dry.  After the deadline passes, the
    first release returns: a search as ``accept`` gives up at once, while
    the plain ``accept`` returns the best path found.
    """
    check_endpoints(net, s, t)
    weights = net.weights("delay") if lam is None \
        else lagrangian_weights(net, lam)
    margin = 0.0 if not lam else max(lam * L, lam * U) + _STOP_SLACK
    heap: list[tuple[int, int, Path]] = []
    for path in chain(yen_ksp(net, s, t, weights, deadline), [None]):
        w = INF
        if path is not None:
            stats.iterations += 1
            if L <= path.delay <= U:
                heapq.heappush(heap, (path.cost, stats.iterations, path))
            if lam is not None:
                w = path.cost + lam * path.delay
            elif path.delay <= U:
                w = -INF
        while heap and heap[0][0] + margin <= w:
            answer = accept(heapq.heappop(heap)[2])
            if answer is not None or deadline.phase is not None:
                return answer, finish(stats, deadline, "optimal")
        if w == INF:
            return None, finish(stats, deadline, "infeasible")


def _with_backup(net: Network, q: SrlgDrcrQuery, deadline: Deadline):
    """The pair solvers' ``accept``: an active path's pair, or None."""
    def pair(active: Path) -> Optional[PathPair]:
        backup = backup_search(net, active, q.U, q.delta, deadline)
        return None if backup is None else PathPair(active, backup)
    return pair


def _lambda_for(net: Network, q: DrcrQuery, deadline: Deadline,
                ) -> tuple[Optional[float], Optional[Path]]:
    """The multiplier to enumerate ``q`` in and, in a trivial case, its
    optimum: 0 and the min-cost path then, :func:`choose_lambda`'s
    multiplier otherwise, None when ``q`` is infeasible or time ran out."""
    case, min_cost = classify_case(net, q, deadline)  # checks the endpoints
    if deadline.phase is not None or case is DrcrCase.INFEASIBLE:
        return None, None
    if case.trivial:
        return 0.0, min_cost
    lam = choose_lambda(net, q, case, deadline).lambda_star
    return (lam if deadline.phase is None else None), None


def cost_ksp_drcr(net: Network, q: DrcrQuery,
                  time_limit: Optional[float] = None,
                  ) -> tuple[Optional[Path], SolveStats]:
    """First delay-range-feasible path in cost order is optimal."""
    return _cheapest_first(net, q.src, q.dst, q.L, q.U, 0.0, SolveStats(),
                           Deadline(time_limit))


def delay_ksp_drcr(net: Network, q: DrcrQuery,
                   time_limit: Optional[float] = None,
                   ) -> tuple[Optional[Path], SolveStats]:
    """Enumerate in delay order up to U, keep the cheapest in-range path."""
    return _cheapest_first(net, q.src, q.dst, q.L, q.U, None, SolveStats(),
                           Deadline(time_limit))


def lagrangian_ksp_drcr(net: Network, q: DrcrQuery,
                        time_limit: Optional[float] = None,
                        ) -> tuple[Optional[Path], SolveStats]:
    """Enumerate in dual-weight order, stop once no cheaper path can follow;
    a trivial case is answered by its min-cost path."""
    stats = SolveStats()
    deadline = Deadline(time_limit)
    stats.lambda_value, path = _lambda_for(net, q, deadline)
    if stats.lambda_value is None or path is not None:
        return path, finish(stats, deadline, "optimal" if path else "infeasible")
    return _cheapest_first(net, q.src, q.dst, q.L, q.U, stats.lambda_value,
                           stats, deadline)


def srlg_ksp_drcr(net: Network, q: SrlgDrcrQuery, order: str = "cost",
                  time_limit: Optional[float] = None,
                  ) -> tuple[Optional[PathPair], SolveStats]:
    """The cheapest active within ``U`` that admits a backup, enumerated in
    cost (or delay) order.

    In cost order each active within ``U`` gets its backup search as it is
    drawn.  In delay order the enumeration runs up to ``U``, then the
    backup searches run cheapest first.  A query with no pair is proven
    infeasible in cost order only once every path within ``U`` is drawn.
    """
    if order not in ("cost", "delay"):
        raise ValueError(f"unknown enumeration order {order!r}")
    deadline = Deadline(time_limit)
    return _cheapest_first(net, q.src, q.dst, 0, q.U,
                           0.0 if order == "cost" else None, SolveStats(),
                           deadline, _with_backup(net, q, deadline))


def srlg_lagrangian_ksp(net: Network, q: SrlgDrcrQuery,
                        time_limit: Optional[float] = None,
                        ) -> tuple[Optional[PathPair], SolveStats]:
    """Dual-ordered active enumeration with deferred backup checks.

    The multiplier is the one :func:`lagrangian_ksp_drcr` would use on the
    relaxed query ``(src, dst, 0, U)``, and a query whose relaxation is
    infeasible ends there.  Like the cost order, a query with no pair is
    proven infeasible only once every path within ``U`` is drawn.
    """
    stats = SolveStats()
    deadline = Deadline(time_limit)
    relaxed = DrcrQuery(q.src, q.dst, min(q.U, 0), q.U)
    stats.lambda_value, _ = _lambda_for(net, relaxed, deadline)
    if stats.lambda_value is None:
        return None, finish(stats, deadline, "infeasible")
    return _cheapest_first(net, q.src, q.dst, 0, q.U, stats.lambda_value,
                           stats, deadline, _with_backup(net, q, deadline))
