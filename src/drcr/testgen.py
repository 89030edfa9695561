"""Random corpus generation: ER networks, delay-range queries, Srlgs.

Everything is a pure function of (config, seed) through numpy's Generator,
so corpora regenerate byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import INF, Network, build_reverse_tree
from .pulse import DrcrCase, DrcrQuery, classify_case
from .srlg import SrlgDrcrQuery, cose_pulse_plus

MAX_QUERY_RETRIES = 1000


class GenerationError(RuntimeError):
    """Retry budget exhausted without hitting the requested instance shape."""


@dataclass(frozen=True)
class GenConfig:
    n: int
    p_mult: int = 1
    p: Optional[float] = None  # overrides p_mult * ln(n) / n when set
    delay_dist: tuple[int, int] = (1, 10)
    cost_dist: tuple[int, int] = (1, 10)
    seed: int = 0
    srlg_style: str = "none"  # none | star | nonstar
    srlg_size_range: tuple[int, int] = (1, 40)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if self.delay_dist[0] > self.delay_dist[1] or self.delay_dist[0] < 0:
            raise ValueError("bad delay range")
        if self.cost_dist[0] > self.cost_dist[1] or self.cost_dist[0] < 0:
            raise ValueError("bad cost range")
        if self.srlg_style not in ("none", "star", "nonstar"):
            raise ValueError(f"unknown srlg style {self.srlg_style!r}")

    @property
    def edge_prob(self) -> float:
        if self.p is not None:
            return self.p
        return min(1.0, self.p_mult * math.log(self.n) / self.n)


def gen_er_network(cfg: GenConfig) -> Network:
    """Directed G(n, p): each ordered pair gets a link with probability p."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    mask = rng.random((n, n)) < cfg.edge_prob
    np.fill_diagonal(mask, False)
    srcs, dsts = np.nonzero(mask)
    m = len(srcs)
    delays = rng.integers(cfg.delay_dist[0], cfg.delay_dist[1] + 1, size=m)
    costs = rng.integers(cfg.cost_dist[0], cfg.cost_dist[1] + 1, size=m)
    net = Network.build(n, srcs, dsts, delays, costs)
    if cfg.srlg_style != "none":
        net = gen_srlgs(net, cfg.srlg_style, cfg)
    return net


def _pick_pair(net: Network, rng: np.random.Generator,
               ) -> tuple[int, int, object, object]:
    """A random connected (s, t) pair plus the destination-rooted trees."""
    for _ in range(MAX_QUERY_RETRIES):
        s, t = rng.integers(0, net.num_nodes, size=2)
        s, t = int(s), int(t)
        if s == t:
            continue
        dtree = build_reverse_tree(net, t, "delay")
        if dtree.dist[s] == INF:
            continue
        ctree = build_reverse_tree(net, t, "cost")
        return s, t, dtree, ctree
    raise GenerationError("no connected node pair found")


def gen_drcr_query(net: Network, seed: int, target_case: int,
                   dst: Optional[int] = None,
                   delay_tree=None, cost_tree=None) -> DrcrQuery:
    """Rejection-sample a query classifying to the requested hard case.

    ``dst`` pins the destination; ``delay_tree``/``cost_tree``, if given,
    must be its trees.  Repeated destinations reuse the network's cached
    trees either way.
    """
    if target_case not in (4, 6):
        raise ValueError("target_case must be 4 or 6")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_QUERY_RETRIES):
        if dst is None:
            s, t, dtree, ctree = _pick_pair(net, rng)
        else:
            t = dst
            dtree = delay_tree if delay_tree is not None \
                else build_reverse_tree(net, t, "delay")
            ctree = cost_tree if cost_tree is not None \
                else build_reverse_tree(net, t, "cost")
            s = int(rng.integers(0, net.num_nodes))
            if s == t or dtree.dist[s] == INF:
                continue
        dmd = int(dtree.dist[s])
        p_mc = ctree.path_from(net, s)
        dmc = p_mc.delay
        gap = 20
        if target_case == 4:
            # need d_min_delay < L <= U < d_min_cost
            if dmc < dmd + 2:
                continue
            L = int(rng.integers(dmd + 1, dmc))
            U = int(rng.integers(L, min(L + gap, dmc)))
        else:
            # need d_min_cost < L
            L = int(rng.integers(dmc + 1, dmc + gap))
            U = int(rng.integers(L, L + gap + 1))
        q = DrcrQuery(s, t, L, U)
        case, _ = classify_case(net, q)
        if case.value == target_case:
            return q
    raise GenerationError(f"no case-{target_case} query after "
                          f"{MAX_QUERY_RETRIES} retries")


def gen_srlgs(net: Network, style: str, cfg: GenConfig) -> Network:
    """Augment a network with random Srlg memberships.

    Star groups draw from a single node's egress links, sized by the average
    out-degree.  Non-star groups are arbitrary link subsets, added until
    every link belongs to at least one group.
    """
    rng = np.random.default_rng(cfg.seed ^ 0x5B1C)
    m = len(net.links)
    member: list[set[int]] = [set() for _ in range(m)]
    if style == "star":
        avg_deg = max(1, math.ceil(m / net.num_nodes))
        next_id = 0
        for u in range(net.num_nodes):
            egress = net.egress[u]
            if not egress:
                continue
            size = int(rng.integers(1, avg_deg + 1))
            size = min(size, len(egress))
            chosen = rng.choice(len(egress), size=size, replace=False)
            for k in chosen:
                member[egress[int(k)][3]].add(next_id)
            next_id += 1
    elif style == "nonstar":
        lo, hi = cfg.srlg_size_range
        covered = [False] * m
        uncovered = m
        next_id = 0
        while uncovered:
            size = min(int(rng.integers(lo, hi + 1)), m)
            chosen = rng.choice(m, size=size, replace=False)
            for k in chosen:
                lid = int(k)
                member[lid].add(next_id)
                if not covered[lid]:
                    covered[lid] = True
                    uncovered -= 1
            next_id += 1
    else:
        raise ValueError(f"unknown srlg style {style!r}")
    return Network.build(net.num_nodes, *net.table, dict(enumerate(member)),
                         net.node_names)


def gen_srlg_query(net: Network, seed: int, delta: int) -> SrlgDrcrQuery:
    """Random connected pair with U = ceil(2.5 * min s->t delay)."""
    rng = np.random.default_rng(seed)
    s, t, dtree, _ctree = _pick_pair(net, rng)
    U = math.ceil(2.5 * dtree.dist[s])
    return SrlgDrcrQuery(s, t, U, delta)


def classify_trap(net: Network, q: SrlgDrcrQuery,
                  time_limit: Optional[float] = None) -> str:
    """Label an instance ``trap``, ``nontrap``, ``infeasible`` or ``timeout``.

    Trap: the unconstrained min-cost active path has no valid backup, yet
    some dearer active does.  The pair solver's first sub-instance searches
    exactly that active path and its backup, so the instance is a nontrap
    when the first feasible pair comes from it.  One ``time_limit`` bounds
    the whole call; ``timeout`` means it passed before a verdict.
    """
    pair, stats = cose_pulse_plus(net, q, time_limit=time_limit,
                                  first_pair=True)
    if stats.status == "timeout":
        return "timeout"
    if pair is None:
        return "infeasible"
    return "nontrap" if stats.subinstances == 1 else "trap"
