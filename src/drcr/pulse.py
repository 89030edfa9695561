"""Branch-and-bound solver for delay-range constrained routing.

The search is a depth-first stack walk over partial paths.  A branch is cut
when it can no longer beat the incumbent (optimality cut) or can no longer
reach the destination within the delay upper bound (feasibility cut).  No
dominance pruning is performed: with a delay lower bound a dominated prefix
can still complete into the only feasible path.  Stack entries carry their
depth; an on-path flag per node and the node and link at each depth
describe the current path and are unwound to the popped entry's depth, so
only elementary paths are produced and the found path is read off them.
The same kernel runs the Srlg active-path, backup and conflict-set
searches.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .graph import (
    INF,
    Deadline,
    Network,
    Path,
    ShortestTree,
    SolveStats,
    build_reverse_tree,
    check_endpoints,
    finish,
    lagrangian_dist,
    trees_cached,
)
from .costfn import CostFunction, compute_cost_functions


class DrcrCase(Enum):
    INFEASIBLE = 1
    DEGENERATED = 2
    TRIVIAL_MIN_COST = 3
    NON_TRIVIAL_4 = 4
    TRIVIAL_MIN_COST_5 = 5
    NON_TRIVIAL_6 = 6

    @property
    def trivial(self) -> bool:
        """The min-cost path is the optimum."""
        return self in (DrcrCase.TRIVIAL_MIN_COST, DrcrCase.TRIVIAL_MIN_COST_5)


@dataclass(frozen=True)
class DrcrQuery:
    src: int
    dst: int
    L: int
    U: int

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("src and dst must differ")
        if self.L > self.U:
            raise ValueError(f"empty delay range [{self.L}, {self.U}]")


# Iterations the plain-cut search of a joint-pruning solve may spend before
# the cost-function build is paid for; most queries finish within it.
PLAIN_BUDGET = 1024


@dataclass
class PulseOptions:
    """Solver settings.

    ``ldf`` orders branches largest-delay-first.  ``joint_pruning`` solves
    in two phases: a plain-cut search under a fixed iteration budget
    (``PLAIN_BUDGET``) first, whose answer is returned when it finishes in
    budget; otherwise the cost functions are built capped at that search's
    incumbent cost and a joint-cut search seeded with the incumbent proves
    or improves it.  ``time_limit`` (seconds) bounds the whole call, tree
    builds included.
    """

    ldf: bool = True
    joint_pruning: bool = False
    time_limit: Optional[float] = None


def dst_trees(net: Network, q: DrcrQuery,
              deadline: Optional[Deadline] = None,
              ) -> tuple[ShortestTree, ShortestTree]:
    """Check ``q``'s endpoints; the delay and cost trees rooted at its
    destination (shared with the network's tree cache)."""
    check_endpoints(net, q.src, q.dst)
    return (build_reverse_tree(net, q.dst, "delay", deadline=deadline),
            build_reverse_tree(net, q.dst, "cost", deadline=deadline))


def classify_case(net: Network, q: DrcrQuery,
                  deadline: Optional[Deadline] = None,
                  ) -> tuple[DrcrCase, Optional[Path]]:
    """Map a query onto the six-way case split.

    Returns the case and the min-cost path (``None`` when no path fits
    ``U``), walked once here: in the two :attr:`DrcrCase.trivial` cases it
    already satisfies the delay range and is the optimum.  Once
    ``deadline`` has expired the trees may be cut short and the answer
    proves nothing; it reads ``INFEASIBLE`` then.
    """
    delay_tree, cost_tree = dst_trees(net, q, deadline)
    if deadline is not None and deadline.phase is not None:
        return DrcrCase.INFEASIBLE, None
    d_min_delay = delay_tree.dist[q.src]
    if d_min_delay == INF or q.U < d_min_delay:
        return DrcrCase.INFEASIBLE, None
    min_cost_path = cost_tree.path_from(net, q.src)
    assert min_cost_path is not None
    d_min_cost = min_cost_path.delay
    if q.L <= d_min_delay:
        # Every path meets the lower bound.
        if d_min_cost <= q.U:
            return DrcrCase.TRIVIAL_MIN_COST, min_cost_path
        return DrcrCase.DEGENERATED, min_cost_path
    if d_min_cost < q.L:
        return DrcrCase.NON_TRIVIAL_6, min_cost_path
    if d_min_cost <= q.U:
        return DrcrCase.TRIVIAL_MIN_COST_5, min_cost_path
    return DrcrCase.NON_TRIVIAL_4, min_cost_path


def ldf_key(delay_dist: list[float]) -> Callable[[tuple], float]:
    """The largest-delay-first key of an egress row:
    ``w(e) = d(e) + d_min_delay(To(e) -> t)``."""
    return lambda row: row[1] + delay_dist[row[0]]


def ldf_sorted(rows: list[tuple[int, int, int, int]],
               delay_dist: list[float],
               ) -> tuple[tuple[int, int, int, int], ...]:
    """``rows`` of ``Network.egress`` (link-id order) sorted stably on
    :func:`ldf_key`: ties stay in link-id order and unreachable heads go
    last; pushed in this order onto a LIFO stack, the largest-delay branch
    pops first."""
    return tuple(sorted(rows, key=ldf_key(delay_dist)))


def run_pulse_search(net: Network, s: int, t: int, L: int, U: int,
                     delay_tree: ShortestTree, cost_dist: list[float],
                     *,
                     ldf: bool = True,
                     tmp_min: float = INF,
                     first_feasible: bool = False,
                     cf: Optional[CostFunction] = None,
                     lagrangian: Optional[tuple[float, list[float]]] = None,
                     deadline: Optional[Deadline] = None,
                     accept: Optional[Callable[[list[int], int], bool]] = None,
                     link_masks: Optional[list[int]] = None,
                     conflict_masks: Sequence[int] = (),
                     disabled: Optional[set[int]] = None,
                     max_iterations: int = sys.maxsize,
                     ) -> tuple[Optional[Path], SolveStats]:
    """The one depth-first search, shared by every solver in the package.

    A destination hit with delay in ``[L, U]`` and cost below the incumbent
    is offered to ``accept(link_ids, omega)``, where ``omega`` is the OR of
    ``link_masks`` over the path (0 without masks); without a predicate
    every such hit is accepted.  ``first_feasible`` pins the incumbent so
    the optimality cut stays off and the first accepted path is returned
    (used where cost is irrelevant).  ``cf`` switches the optimality cut to
    the joint delay-cost rule.  ``lagrangian``, a pair ``(lam, dist_lam)``
    with ``lam >= 0`` and ``dist_lam`` from :func:`lagrangian_dist`, adds a
    second bound to the plain cut: no completion from ``u`` within the
    delay left costs less than ``dist_lam[u] - lam * (U - dly)``; ``cf``
    overrides it.  The caller makes sure that every sum the cut adds up is
    exact in float64.  A partial path whose ``omega`` contains one
    of the ``conflict_masks`` is cut.  Links in ``disabled`` are never
    taken; a rejecting predicate may add to it, and the pending branches
    below the shallowest newly disabled link of the rejected path are then
    dropped.  A search that pops ``max_iterations`` entries without
    finishing stops with status ``"budget"`` and returns its incumbent.

    ``delay_tree`` is the min-delay tree towards ``t`` over the links the
    search may take.  Without ``ldf`` a node's out-links are taken from
    ``net.egress`` in link-id order.  With ``ldf`` they are sorted by
    :func:`ldf_sorted` the first time any search on ``delay_tree`` expands
    the node, and kept in the tree's ``egress_order`` memo.  The children
    whose ``w(e)`` exceeds ``U`` less the node's delay then sit at the end
    of that order, where a bisection on :func:`ldf_key` finds them: pushed
    last, they would pop next, one after another, and each fail the delay
    cut.  Unless a budget or deadline check (every 1024th iteration) would
    fall among those pops, they are settled at expansion instead: each
    counts as one iteration and adds its share of ``searched_fraction`` in
    turn, so the counts, the status and the trace are those of pushing
    them.
    """
    best: Optional[Path] = None
    searched = 0.0
    iterations = 0
    trace: list[tuple[int, int]] = []
    n = net.num_nodes
    on_path = [False] * n
    path_nodes = [s] * n  # node at each depth of the current path
    path_links = [-1] * n  # link entering the node at that depth
    omegas = [0] * n  # Srlg mask of the current path up to that depth
    omega = 0
    top = -1  # depth of the deepest on-path node
    # entry: (node, delay, cost, depth, link_id, s3)
    stack = [(s, 0, 0, 0, -1, 1.0)]
    egress = net.egress
    delay_dist = delay_tree.dist
    if ldf:
        ldf_rows = delay_tree.egress_order
        w = ldf_key(delay_dist)
    pop = stack.pop
    push = stack.append
    if cf is not None:
        cf_delays = cf.delays
        cf_costs = cf.costs
    # a plain search tests this flag alone on its way to its cost cut
    bounded = cf is not None or lagrangian is not None
    if lagrangian is not None:
        lam, lam_dist = lagrangian
    stopped = None
    while stack:
        if iterations >= max_iterations:
            stopped = "budget"
            break
        iterations += 1
        if iterations & 1023 == 1 and deadline is not None \
                and deadline.expired("pulse.search"):
            break
        node, dly, cst, depth, lid, s3 = pop()
        if disabled and lid in disabled:
            continue
        while top >= depth:
            on_path[path_nodes[top]] = False
            top -= 1
        path_links[depth] = lid
        if link_masks is not None:
            omega = omegas[depth - 1] | link_masks[lid] if depth else 0
            omegas[depth] = omega
        if node == t:
            searched += s3
            if L <= dly <= U and (first_feasible or cst < tmp_min):
                links = path_links[1:depth + 1]
                if accept is None or accept(links, omega):
                    # the ancestors' slots of path_nodes hold the path
                    best = Path(tuple(links), (*path_nodes[:depth], t),
                                dly, cst)
                    if first_feasible:
                        break
                    tmp_min = cst
                    trace.append((iterations, cst))
                elif disabled:
                    # Pending entries below a now-disabled path link are the
                    # top of the stack: entries sit in non-decreasing depth.
                    cut = next((i for i, l in enumerate(links, 1)
                                if l in disabled), None)
                    if cut is not None:
                        while stack and stack[-1][3] > cut:
                            pop()
            continue
        # the root, children under link order and, under ldf, only a tail
        # pushed because a budget or deadline check falls inside it
        if dly + delay_dist[node] > U:
            searched += s3
            continue
        if bounded:
            if cf is not None:
                budget = U - dly
                darr = cf_delays[node]
                idx = bisect_right(darr, budget)
                bound = INF if idx == 0 else cf_costs[node][idx - 1]
                if cst + bound >= tmp_min:
                    searched += s3
                    continue
            elif (cst + cost_dist[node] >= tmp_min
                  or cst + lam_dist[node] - lam * (U - dly) >= tmp_min):
                searched += s3
                continue
        elif cst + cost_dist[node] >= tmp_min:
            searched += s3
            continue
        if conflict_masks and any(omega & m == m for m in conflict_masks):
            searched += s3
            continue
        on_path[node] = True
        path_nodes[depth] = node
        top = depth
        if ldf:
            rows = ldf_rows[node]
            if rows is None:
                rows = ldf_rows[node] = ldf_sorted(egress[node], delay_dist)
            split = bisect_right(rows, U - dly, key=w)
            kids = [e for e in rows[:split] if not on_path[e[0]]]
            tail = [e for e in rows[split:] if not on_path[e[0]]]
            if disabled:
                tail = [e for e in tail if e[3] not in disabled]
        else:
            kids = [e for e in egress[node] if not on_path[e[0]]]
            tail = ()
        if disabled:
            kids = [e for e in kids if e[3] not in disabled]
        k = len(kids) + len(tail)
        if k == 0:
            searched += s3
            continue
        child_s3 = s3 / k
        depth += 1
        if tail:
            # The tail would pop next, child by child, and fail the delay
            # cut: take its pops here, adding each child's share in turn.
            # Where a budget or deadline check falls among them, push them
            # and let the loop pop them.
            m = len(tail)
            if iterations + m <= max_iterations and (
                    deadline is None
                    or (iterations - 1) >> 10 == (iterations + m - 1) >> 10):
                iterations += m
                for _ in tail:
                    searched += child_s3
            else:
                kids += tail
        for to, d_e, c_e, elid in kids:
            push((to, dly + d_e, cst + c_e, depth, elid, child_s3))
    status = stopped or ("infeasible" if best is None else "optimal")
    stats = SolveStats(status, iterations, min(searched, 1.0 + 1e-9), trace)
    return best, stats


def _search(net: Network, q: DrcrQuery, opts: PulseOptions, deadline: Deadline,
            lagrangian: Optional[tuple[float, list[float]]] = None,
            ) -> tuple[Optional[Path], SolveStats]:
    """The search phases of :func:`pulse_plus`, tree builds included;
    ``lagrangian`` goes to :func:`run_pulse_search`."""
    delay_tree, cost_tree = dst_trees(net, q, deadline)

    def search(**kwargs) -> tuple[Optional[Path], SolveStats]:
        return run_pulse_search(
            net, q.src, q.dst, q.L, q.U, delay_tree, cost_tree.dist,
            ldf=opts.ldf, lagrangian=lagrangian, deadline=deadline, **kwargs)

    path, stats = search(max_iterations=PLAIN_BUDGET if opts.joint_pruning
                         else sys.maxsize)
    if stats.status == "budget":
        ub = INF if path is None else path.cost
        cf_t0 = time.monotonic()
        cf = compute_cost_functions(net, q.src, q.dst, q.U, cap=ub,
                                    deadline=deadline)
        stats.cf_build_us = int((time.monotonic() - cf_t0) * 1e6)
        if deadline.phase is not None:
            return path, stats
        better, joint = search(cf=cf, tmp_min=ub)
        joint.cf_build_us = stats.cf_build_us
        joint.best_cost_trace = stats.best_cost_trace + [
            (stats.iterations + i, c) for i, c in joint.best_cost_trace]
        joint.iterations += stats.iterations
        if better is not None:
            path = better
        elif path is not None and joint.status == "infeasible":
            # nothing beats the incumbent: it is optimal
            joint.status = "optimal"
        stats = joint
    return path, stats


def pulse_plus(net: Network, q: DrcrQuery,
               opts: Optional[PulseOptions] = None,
               ) -> tuple[Optional[Path], SolveStats]:
    """Solve a DRCR query to optimality (or prove infeasibility).

    With ``opts.joint_pruning`` the plain-cut search runs first under
    ``PLAIN_BUDGET`` iterations; only a query it cannot finish pays for the
    cost-function build, capped at the incumbent ``UB`` it found, and a
    joint-cut search that looks for a path cheaper than ``UB``.  The stats
    count the iterations of both phases, and ``best_cost_trace`` stamps run
    on from the first phase into the second.  Once ``opts.time_limit``
    passes, the status is ``timeout`` and the path the best found, if any.
    """
    opts = opts or PulseOptions()
    deadline = Deadline(opts.time_limit)
    path, stats = _search(net, q, opts, deadline)
    return path, finish(stats, deadline, stats.status)


def lagrangian_cut(net: Network, q: DrcrQuery, min_cost: Path,
                   deadline: Optional[Deadline] = None,
                   ) -> Optional[tuple[float, list[float]]]:
    """The ``(lam, dist_lam)`` of :func:`run_pulse_search`'s Lagrangian cut
    for a query whose ``U`` binds (cases 2 and 4), or ``None``.

    ``lam`` is LARAC's first multiplier, the slope between the min-cost
    path ``min_cost`` and the min-delay path, rounded down to a power of
    two, so that nearby slopes share one cached :func:`lagrangian_dist`.
    Every sum the cut adds up is then a multiple of ``min(lam, 1)`` no
    larger than ``2 C + lam D`` (``C`` and ``D`` the network's cost and
    delay totals; ``U < D`` here), so float64 holds it exactly while that
    bound stays below 2^53 such units.  ``None`` when the slope is 0, when
    the bound reaches 2^53 units, or once ``deadline`` has expired.
    """
    min_delay = build_reverse_tree(net, q.dst, "delay", deadline=deadline
                                   ).path_from(net, q.src)
    slope = ((min_delay.cost - min_cost.cost)
             / (min_cost.delay - min_delay.delay))
    if slope <= 0.0:
        return None
    exp = math.frexp(slope)[1] - 1  # lam = 2^exp <= slope < 2^(exp + 1)
    delay_total, cost_total = net.totals
    if (2 * cost_total << max(-exp, 0)) + (delay_total << max(exp, 0)) \
            >= 1 << 53:
        return None
    lam = math.ldexp(1.0, exp)
    dist = lagrangian_dist(net, q.dst, lam, deadline)
    return None if deadline is not None and deadline.phase else (lam, dist)


def solve_drcr(net: Network, q: DrcrQuery,
               opts: Optional[PulseOptions] = None,
               ) -> tuple[Optional[Path], SolveStats]:
    """Case-classify then dispatch: trivial cases bypass the search.

    A query whose ``U`` binds (cases 2 and 4) to a destination whose two
    trees were already cached when it arrived also gets the Lagrangian cut
    of :func:`lagrangian_cut`, and ``lambda_value`` records its ``lam``.
    A first visit builds no Lagrangian tree, so destinations that never
    repeat pay nothing for it.  ``elapsed_us`` and ``opts.time_limit`` cover
    the whole call.
    """
    opts = opts or PulseOptions()
    deadline = Deadline(opts.time_limit)
    repeat = trees_cached(net, q.dst)
    case, min_cost = classify_case(net, q, deadline)
    path, stats = None, SolveStats()
    if deadline.phase is None:
        if case.trivial:
            path, stats = min_cost, SolveStats(
                status="optimal", searched_fraction=1.0,
                best_cost_trace=[(0, min_cost.cost)])
        elif case is not DrcrCase.INFEASIBLE:
            cut = None
            if repeat and case in (DrcrCase.DEGENERATED,
                                   DrcrCase.NON_TRIVIAL_4):
                cut = lagrangian_cut(net, q, min_cost, deadline)
            path, stats = _search(net, q, opts, deadline, cut)
            if cut is not None:
                stats.lambda_value = cut[0]
    return path, finish(stats, deadline, stats.status)
