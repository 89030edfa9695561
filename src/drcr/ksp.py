"""K-shortest-paths baselines for DRCR and the Srlg-disjoint pair problem.

All five solvers run one loop, :func:`_cheapest_first`: it draws loopless
paths from Yen's algorithm in non-decreasing weight and releases the
in-range paths cheapest first, each once no later path can cost less.  The
solvers differ only in the order and in what a released path must pass.
The cost and delay orders use the network's own weights; the Lagrangian
variants combine cost and delay into ``w(e) = c(e) + lambda * d(e)``
(:func:`drcr.graph.lagrangian_weights`) with a dual-optimal multiplier
chosen by LARAC, which typically releases far earlier than a single-metric
order.  The pair solvers accept an active path only with a backup.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Callable, Iterator, Optional

import numpy as np

from .graph import INF, NO_LIMIT, Deadline, Network, Path, SolveStats, \
    build_reverse_tree, check_endpoints, dijkstra, finish, lagrangian_weights
from .pulse import DrcrCase, DrcrQuery, classify_case
from .srlg import PathPair, SrlgDrcrQuery, backup_search


def yen_ksp(net: Network, s: int, t: int, weights: np.ndarray,
            deadline: Deadline = NO_LIMIT) -> Iterator[Path]:
    """Loopless s->t paths in non-decreasing total of the float64 per-link
    ``weights`` (indexed by link id), lazily.

    Multigraph-aware: spur bans remove the specific deviating links, not the
    whole node pair, so parallel links yield distinct paths.
    """
    if (weights < 0).any():
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
            if deadline.expired("ksp.yen"):
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


def _larac(net: Network, s: int, t: int, bound: int, hi: Path, lo: Path,
           deadline: Deadline = NO_LIMIT) -> float:
    """LARAC's multiplier for a delay ``bound`` (Jüttner et al., INFOCOM
    2001), from a least-weight path at each end of the bracket: ``hi`` with
    delay past ``bound``, ``lo`` with delay at most ``bound``.

    Each step takes ``lam = num/den``, where the two weigh the same, and
    finds a min-(c + lam*d) path.  Once that path weighs no less than the
    two, compared exactly as ``den*c + num*d``, ``lam`` maximizes the
    concave dual; otherwise it replaces the end on its side of ``bound``.
    A Dijkstra cut short by ``deadline`` finds no path and ends the loop.
    """
    while True:
        num, den = lo.cost - hi.cost, hi.delay - lo.delay
        lam = num / den
        path = dijkstra(net, s, lagrangian_weights(net, lam),
                        deadline=deadline).path_from(net, t)
        if path is None or den * path.cost + num * path.delay \
                >= den * hi.cost + num * hi.delay:
            return lam
        if path.delay > bound:
            hi = path
        else:
            lo = path


def _tree_path(net: Network, q: DrcrQuery, metric: str,
               deadline: Deadline) -> Optional[Path]:
    """``q``'s min-``metric`` path, off its destination's cached tree."""
    return build_reverse_tree(net, q.dst, metric, deadline=deadline
                              ).path_from(net, q.src)


def choose_lambda(net: Network, q: DrcrQuery,
                  case: Optional[DrcrCase] = None,
                  deadline: Deadline = NO_LIMIT) -> float:
    """The multiplier that maximizes the concave dual bound, by
    :func:`_larac`.

    When the ceiling binds, lambda is non-negative, and LARAC starts from
    the min-cost path (delay past ``U``) and the min-delay path of the
    destination's cached trees.  When the floor binds, lambda is negative
    but bounded below by -mu (mu the minimum cost/delay ratio) to keep every
    link weight non-negative; it is -mu itself when the min-weight path at
    -mu has delay at most ``L``, and LARAC starts from that path and the
    min-cost path otherwise.  It is 0 when mu is 0 or no link has delay,
    where the dual bound collapses.  A caller that has classified the query
    passes its ``case`` to skip a second classification.  Once ``deadline``
    expires the Dijkstras stop early and the result proves nothing.
    """
    if case is None:
        case, _ = classify_case(net, q)
    if case in (DrcrCase.DEGENERATED, DrcrCase.NON_TRIVIAL_4):
        bound, hi = q.U, _tree_path(net, q, "cost", deadline)
        lo = _tree_path(net, q, "delay", deadline)
    elif case is DrcrCase.NON_TRIVIAL_6:
        timed = net.delay > 0
        mu = float((net.cost[timed] / net.delay[timed]).min()) \
            if timed.any() else 0.0
        if not mu:
            return 0.0
        hi = dijkstra(net, q.src, lagrangian_weights(net, -mu),
                      deadline=deadline).path_from(net, q.dst)
        if hi is not None and hi.delay <= q.L:
            return -mu
        bound, lo = q.L, _tree_path(net, q, "cost", deadline)
    else:
        raise ValueError(f"no binding delay bound to relax ({case.name})")
    if hi is None or lo is None:  # a Dijkstra cut short by ``deadline``
        return 0.0
    return _larac(net, q.src, q.dst, bound, hi, lo, deadline)


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
    lam = choose_lambda(net, q, case, deadline)
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
