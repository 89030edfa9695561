"""Srlg-disjoint DRCR: conflict-set discovery and divide-and-conquer solver.

The solver keeps sub-instances ``(include, exclude)`` over an extended Srlg
universe: non-negative ids are the network's real Srlgs, while
``-(link_id + 1)`` denotes the synthetic single-link group used when no
informative conflict set exists.  Excluding a synthetic group simply
disables its link; including one forces the link onto the active path, so
every other out-link of its tail and in-link of its head is disabled too.
Sub-instances are solved best-first on their parent's active cost, a lower
bound on their own, and the queue stops once that bound reaches the
incumbent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .graph import (
    INF,
    Deadline,
    Network,
    Path,
    SolveStats,
    build_reverse_tree,
    check_endpoints,
    finish,
    is_elementary,
    srlgs_of_path,
)
from .pulse import run_pulse_search


@dataclass(frozen=True)
class SrlgDrcrQuery:
    src: int
    dst: int
    U: int
    delta: int

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("src and dst must differ")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")


@dataclass(frozen=True)
class SubInstance:
    include: frozenset[int]
    exclude: frozenset[int]

    def __post_init__(self):
        if self.include & self.exclude:
            raise ValueError("include and exclude overlap")


@dataclass(frozen=True)
class PathPair:
    active: Path
    backup: Path

    def is_valid(self, net: Network, U: int, delta: int) -> bool:
        """Recompute every invariant from raw links."""
        a, b = self.active, self.backup
        if not (is_elementary(a) and is_elementary(b)):
            return False
        if srlgs_of_path(net, a) & srlgs_of_path(net, b):
            return False
        if a.delay > U:
            return False
        return a.delay - delta <= b.delay <= min(U, a.delay + delta)


def _links_of_srlgs(net: Network, srlg_ids) -> set[int]:
    """Resolve extended Srlg ids to their member links."""
    out: set[int] = set()
    for r in srlg_ids:
        if r < 0:
            out.add(-r - 1)
        else:
            out |= net.srlgs[r]
    return out


def backup_search(net: Network, active: Path, U: int, delta: int,
                  deadline: Optional[Deadline] = None,
                  stats: Optional[SolveStats] = None) -> Optional[Path]:
    """First feasible Srlg-disjoint companion for ``active``, or None.

    Runs on the subgraph with every link of the active path's Srlgs removed,
    over the delay window ``[max(0, d_a - delta), min(U, d_a + delta)]``.
    Cost is irrelevant here so the search stops at the first hit.  Its
    iterations are added to ``stats``.
    """
    if active.delay > U:
        raise ValueError("active path already violates the delay bound")
    omega = srlgs_of_path(net, active)
    disabled = _links_of_srlgs(net, omega)
    s, t = active.nodes[0], active.nodes[-1]
    lo = max(0, active.delay - delta)
    hi = min(U, active.delay + delta)
    delay_tree = build_reverse_tree(net, t, "delay", disabled=disabled,
                                    deadline=deadline)
    path, search = run_pulse_search(
        net, s, t, lo, hi, delay_tree, [0] * net.num_nodes,
        first_feasible=True, deadline=deadline, disabled=disabled)
    if stats is not None:
        stats.iterations += search.iterations
    return path


def find_conflict_set(net: Network, active: Path, U: int,
                      pick: str = "largest",
                      deadline: Optional[Deadline] = None,
                      stats: Optional[SolveStats] = None,
                      ) -> Optional[frozenset[int]]:
    """DFS over U-feasible paths, knocking out one shared Srlg per hit.

    Returns None as soon as an Srlg-disjoint U-feasible path shows up (no
    conflict set exists for ``active`` under the U-only relaxation).  If the
    search drains, the collected Srlg ids are a certified conflict set: any
    path carrying all of them has no disjoint U-feasible companion.

    ``pick`` selects the shared Srlg per hit: ``largest`` takes the group
    with the most links (ties to the lowest id); ``first-link`` scans the
    active path and takes the largest group on its first conflicted link.
    """
    deadline = deadline or Deadline()
    active_omega = srlgs_of_path(net, active)
    s, t = active.nodes[0], active.nodes[-1]
    delay_tree = build_reverse_tree(net, t, "delay", deadline=deadline)
    srlgs_of = net.link_srlgs.get
    disabled: set[int] = set()
    found: list[int] = []

    def disjoint(path_links: list[int], _omega: int) -> bool:
        inter = set().union(*(srlgs_of(lid, ()) for lid in path_links))
        inter &= active_omega
        if not inter:
            return True
        r = _pick_srlg(net, active, inter, pick)
        disabled.update(net.srlgs[r])
        found.append(r)
        return False

    companion, search = run_pulse_search(
        net, s, t, 0, U, delay_tree, [0] * net.num_nodes,
        first_feasible=True, deadline=deadline, accept=disjoint,
        disabled=disabled)
    if stats is not None:
        stats.iterations += search.iterations
    if companion is not None or deadline.phase is not None:
        return None
    return frozenset(found)


def _pick_srlg(net: Network, active: Path, candidates: set[int], pick: str) -> int:
    if pick == "first-link":
        for lid in active.links:
            shared = net.link_srlgs.get(lid, frozenset()) & candidates
            if shared:
                candidates = shared
                break
    elif pick != "largest":
        raise ValueError(f"unknown Srlg pick strategy {pick!r}")
    return max(candidates, key=lambda r: (len(net.srlgs[r]), -r))


def ap_pulse_plus(net: Network, src: int, dst: int, U: int,
                  instance: SubInstance,
                  conflicts: list[frozenset[int]],
                  tmp_min: float = INF,
                  deadline: Optional[Deadline] = None,
                  stats: Optional[SolveStats] = None) -> Optional[Path]:
    """Min-cost active-path search under include/exclude/conflict constraints.

    Exclusions are applied up front by disabling their links.  So are the
    forced links: an elementary path through an included synthetic group's
    link ``u -> v`` leaves ``u`` and enters ``v`` by that link, so every
    other out-link of ``u`` and in-link of ``v`` is disabled before the
    trees are built.  Inclusion and conflict-avoidance are enforced at
    validation, since a path may still avoid both ends of a forced link;
    conflict containment is additionally used as a cut on partial paths.
    Only paths costing less than ``tmp_min`` are returned.
    """
    deadline = deadline or Deadline()
    disabled = _links_of_srlgs(net, instance.exclude)
    for r in instance.include:
        if r < 0:
            forced = -r - 1
            rivals = (net.egress[net.src[forced]]
                      + net.ingress[net.dst[forced]])
            disabled.update(row[3] for row in rivals if row[3] != forced)
    delay_tree = build_reverse_tree(net, dst, "delay", disabled=disabled,
                                    deadline=deadline)
    if deadline.phase is not None or delay_tree.dist[src] > U:
        return None
    cost_tree = build_reverse_tree(net, dst, "cost", disabled=disabled,
                                   deadline=deadline)
    if deadline.phase is not None:
        return None

    # Only Srlgs named by the inclusion set or some conflict set need to be
    # tracked on partial paths; everything else cannot change a verdict.
    universe: set[int] = set(instance.include)
    for cs in conflicts:
        universe |= cs
    bit_of = {r: i for i, r in enumerate(sorted(universe))}
    link_masks = [0] * len(net.links) if bit_of else None
    for r, bit in bit_of.items():
        for lid in _links_of_srlgs(net, (r,)):
            link_masks[lid] |= 1 << bit
    include_mask = 0
    for r in instance.include:
        include_mask |= 1 << bit_of[r]
    conflict_masks = []
    for cs in conflicts:
        m = 0
        for r in cs:
            m |= 1 << bit_of[r]
        conflict_masks.append(m)

    def allowed(_path_links: list[int], omega: int) -> bool:
        return omega & include_mask == include_mask \
            and not any(omega & m == m for m in conflict_masks)

    path, search = run_pulse_search(
        net, src, dst, 0, U, delay_tree, cost_tree.dist,
        tmp_min=tmp_min, deadline=deadline, accept=allowed,
        link_masks=link_masks, conflict_masks=conflict_masks,
        disabled=disabled)
    if stats is not None:
        stats.iterations += search.iterations
    return path


def cose_pulse_plus(net: Network, q: SrlgDrcrQuery,
                    time_limit: Optional[float] = None,
                    first_pair: bool = False,
                    pick: str = "largest",
                    ) -> tuple[Optional[PathPair], SolveStats]:
    """Conflict-Srlg-exclusion divide-and-conquer over sub-instances.

    Sub-instances are solved best-first, keyed by their parent's active
    cost (the root by 0, ties in insertion order): a child only adds
    constraints, so its active path costs at least that much.  The loop
    stops once the smallest key reaches the incumbent's cost, since
    :func:`ap_pulse_plus` returns only cheaper paths.  ``first_pair`` stops
    at the first feasible pair (feasibility testing, e.g. trap
    classification) instead of driving the active cost to the proven
    minimum.  Once ``time_limit`` (seconds) passes, the status is
    ``timeout`` and the pair the best found, if any.  ``iterations`` counts
    the active, backup and conflict-set searches together.
    """
    check_endpoints(net, q.src, q.dst)
    stats = SolveStats()
    deadline = Deadline(time_limit)
    # entry: (lower bound on the active cost, insertion number, sub-instance)
    root = SubInstance(frozenset(), frozenset())
    queue = [(0, 0, root)]
    seen = {root}
    tmp_min: float = INF
    best: Optional[PathPair] = None
    # A layer that times out sets deadline.phase; later layers return at
    # once, and the loop test ends the queue.
    while queue and queue[0][0] < tmp_min \
            and not deadline.expired("srlg.queue"):
        inst = heapq.heappop(queue)[2]
        stats.subinstances += 1
        active = ap_pulse_plus(net, q.src, q.dst, q.U, inst,
                               stats.conflict_sets, tmp_min, deadline, stats)
        if active is None or deadline.phase is not None:
            continue
        backup = backup_search(net, active, q.U, q.delta, deadline, stats)
        if backup is not None:
            tmp_min = active.cost
            best = PathPair(active, backup)
            if first_pair:
                break
            continue
        cs = find_conflict_set(net, active, q.U, pick, deadline, stats)
        if deadline.phase is not None:
            continue
        if cs is not None:
            stats.conflict_sets.append(cs)
            branch = sorted(r for r in cs if r not in inst.include)
        else:
            branch = [-(lid + 1) for lid in active.links
                      if -(lid + 1) not in inst.include]
        for i, r in enumerate(branch):
            child = SubInstance(inst.include | frozenset(branch[:i]),
                                inst.exclude | {r})
            if child not in seen:
                seen.add(child)
                heapq.heappush(queue, (active.cost, len(seen), child))
    return best, finish(stats, deadline,
                        "optimal" if best is not None else "infeasible")
