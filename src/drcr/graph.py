"""Directed-graph model shared by every solver.

Links carry integer delay/cost values plus Srlg memberships.  Delays and
costs are unsigned integers, and the delay and cost totals over all links
stay below 2^53, so tree distances, which are float64, are exact integers
and pruning comparisons are exact; only the Lagrangian weights in
:mod:`drcr.ksp` are fractional.

Graph files are UTF-8 edge lists, one link per line::

    link_id,src,dst,cost,delay,srlg_ids

where ``srlg_ids`` is a ``;``-separated (possibly empty) list of integers.
Lines starting with ``#`` are comments.  Node names may be arbitrary strings
and are densified to ``0..n-1`` in order of first appearance.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

INF = float("inf")

# Sum of delays (or costs) over every link must stay below this so that
# every path total, as a float64 tree distance, is an exact integer.
_SUM_LIMIT = 1 << 53

# Unmasked destination trees kept per network: one delay and one cost tree
# for each of the 32 most recently used destinations.
TREE_CACHE_SIZE = 64


class GraphFormatError(ValueError):
    """Raised when a graph file or link table violates the format contract."""


class Deadline:
    """One time limit for a whole solve, started at construction.

    Each long-running layer calls :meth:`expired` on its first step, then
    every 64 kept labels (a check costs about as much as keeping one) or
    1024 search pops, counting the children the search settles at
    expansion without pushing them.  Dijkstra, one call into compiled code,
    checks just before and just after it.  Once it is true the layer stops
    and returns what it has, which proves nothing, so a layer entered after
    that returns at once.  ``phase`` names the layer that first found the
    limit passed; callers read it before they use a result.
    """

    def __init__(self, seconds: Optional[float] = None):
        self.start = time.monotonic()
        self.at = INF if seconds is None else self.start + seconds
        self.phase: Optional[str] = None

    def expired(self, phase: str) -> bool:
        """True once the limit has passed (at once for a limit of 0)."""
        if self.phase is None:
            if time.monotonic() < self.at:
                return False
            self.phase = phase
        return True


def finish(stats, deadline: Deadline, status: str):
    """Stamp a solve's ``status`` (``timeout`` once ``deadline`` expired),
    ``timeout_phase`` and whole-call ``elapsed_us``; return ``stats``."""
    stats.status = status if deadline.phase is None else "timeout"
    stats.timeout_phase = deadline.phase
    stats.elapsed_us = int((time.monotonic() - deadline.start) * 1e6)
    return stats


@dataclass(frozen=True)
class Link:
    id: int
    src: int
    dst: int
    delay: int
    cost: int
    srlgs: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Srlg:
    id: int
    links: frozenset[int]


@dataclass
class Network:
    """Immutable-after-construction directed multigraph.

    ``links`` is the link table, indexed by link id.  ``egress[u]`` and
    ``ingress[u]`` are the only adjacency the solvers walk: rows of the links
    leaving and entering ``u``, built from ``links`` on first use.  Dijkstra
    reads the same links as a CSR matrix per direction (:meth:`matrix`).
    ``srlgs`` maps Srlg id to the set of member links; membership is stored
    per-link and the table here is the inverted index.  The network also
    caches the ``TREE_CACHE_SIZE`` destination trees on all its links that
    it used last (:func:`build_reverse_tree`), about 160 KB each at 4000
    nodes, plus the largest-delay-first order the searches kept on each
    delay tree (:attr:`ShortestTree.egress_order`): up to about 1 MB per
    destination at 4000 nodes and 99,351 links.
    """

    num_nodes: int
    node_names: list[str]
    links: list[Link]
    srlgs: dict[int, Srlg]

    @classmethod
    def build(cls, num_nodes: int, links: Iterable[Link],
              node_names: Optional[list[str]] = None) -> "Network":
        links = list(links)
        if node_names is None:
            node_names = [str(i) for i in range(num_nodes)]
        total_delay = 0
        total_cost = 0
        for idx, link in enumerate(links):
            if link.id != idx:
                raise GraphFormatError(
                    f"link ids must be dense and ordered; got {link.id} at {idx}")
            if not (0 <= link.src < num_nodes and 0 <= link.dst < num_nodes):
                raise GraphFormatError(f"link {link.id}: endpoint out of range")
            if link.src == link.dst:
                raise GraphFormatError(
                    f"link {link.id}: self-loop {link.src}->{link.dst} rejected")
            if link.delay < 0 or link.cost < 0:
                raise GraphFormatError(f"link {link.id}: negative delay or cost")
            total_delay += link.delay
            total_cost += link.cost
        if total_delay >= _SUM_LIMIT or total_cost >= _SUM_LIMIT:
            raise GraphFormatError(
                "delay/cost totals must stay below 2^53 to stay exact")
        srlg_members: dict[int, set[int]] = {}
        for link in links:
            for r in link.srlgs:
                if r < 0:
                    raise GraphFormatError(f"link {link.id}: negative Srlg id")
                srlg_members.setdefault(r, set()).add(link.id)
        srlgs = {r: Srlg(r, frozenset(m)) for r, m in sorted(srlg_members.items())}
        return cls(num_nodes, node_names, links, srlgs)

    @cached_property
    def _node_ids(self) -> dict[str, int]:
        return {name: idx for idx, name in enumerate(self.node_names)}

    def node_id(self, name: str) -> int:
        """The id of the node called ``name``; ``ValueError`` if none."""
        try:
            return self._node_ids[name]
        except KeyError:
            raise ValueError(f"no node named {name!r}") from None

    @cached_property
    def _weights(self) -> dict[str, np.ndarray]:
        return {"delay": np.array([link.delay for link in self.links], float),
                "cost": np.array([link.cost for link in self.links], float)}

    def weights(self, metric: str) -> np.ndarray:
        """Per-link ``"delay"`` or ``"cost"`` values as float64, indexed by
        link id."""
        return self._weights[metric]

    @cached_property
    def _matrices(self) -> dict[bool, tuple[csr_matrix, np.ndarray]]:
        return {}

    def matrix(self, reverse: bool) -> tuple[csr_matrix, np.ndarray]:
        """The link-level CSR matrix and its entry -> link-id permutation.

        One entry per link, in the row of its tail (``reverse``: its head)
        and the column of its other end; inside a row, entries run in link-id
        order.  Built on first use per direction; :func:`dijkstra` writes the
        weights of each call into its ``data``.
        """
        cached = self._matrices.get(reverse)
        if cached is None:
            n = self.num_nodes
            tails = np.array([link.src for link in self.links], np.int32)
            heads = np.array([link.dst for link in self.links], np.int32)
            rows, cols = (heads, tails) if reverse else (tails, heads)
            perm = np.argsort(rows, kind="stable")
            indptr = np.zeros(n + 1, np.int32)
            indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
            mat = csr_matrix((np.zeros(len(perm)), cols[perm], indptr),
                             shape=(n, n))
            cached = self._matrices[reverse] = (mat, perm)
        return cached

    @cached_property
    def _trees(self) -> OrderedDict[tuple[int, str], "ShortestTree"]:
        return OrderedDict()

    @cached_property
    def egress(self) -> list[list[tuple[int, int, int, int]]]:
        """Per-node rows ``(dst, delay, cost, link_id)`` of the links leaving
        it, in link-id order."""
        rows = [[] for _ in range(self.num_nodes)]
        for link in self.links:
            rows[link.src].append((link.dst, link.delay, link.cost, link.id))
        return rows

    @cached_property
    def ingress(self) -> list[list[tuple[int, int, int, int]]]:
        """Per-node rows ``(src, delay, cost, link_id)`` of the links entering
        it, in link-id order."""
        rows = [[] for _ in range(self.num_nodes)]
        for link in self.links:
            rows[link.dst].append((link.src, link.delay, link.cost, link.id))
        return rows


def check_endpoints(net: Network, src: int, dst: int) -> None:
    """Raise ``ValueError`` unless both query endpoints are nodes of ``net``."""
    if not (0 <= src < net.num_nodes and 0 <= dst < net.num_nodes):
        raise ValueError(f"query endpoint out of range: {src} -> {dst} "
                         f"on {net.num_nodes} nodes")


@dataclass(frozen=True)
class Path:
    """An ordered link sequence with cached delay/cost sums."""

    links: tuple[int, ...]
    nodes: tuple[int, ...]
    delay: int
    cost: int

    @classmethod
    def from_links(cls, net: Network, link_ids: Iterable[int]) -> "Path":
        link_ids = tuple(link_ids)
        delay = 0
        cost = 0
        nodes: list[int] = []
        prev_dst: Optional[int] = None
        for lid in link_ids:
            if not 0 <= lid < len(net.links):
                raise GraphFormatError(f"unknown link id {lid}")
            link = net.links[lid]
            if prev_dst is not None and link.src != prev_dst:
                raise GraphFormatError(
                    f"links do not chain: ...->{prev_dst} then {link.src}->{link.dst}")
            if prev_dst is None:
                nodes.append(link.src)
            nodes.append(link.dst)
            prev_dst = link.dst
            delay += link.delay
            cost += link.cost
        return cls(link_ids, tuple(nodes), delay, cost)

    def __len__(self) -> int:
        return len(self.links)


def is_elementary(p: Path) -> bool:
    """True iff no node repeats along the path.  The empty path qualifies."""
    return len(set(p.nodes)) == len(p.nodes)


def srlgs_of_path(net: Network, p: Path) -> frozenset[int]:
    out: set[int] = set()
    for lid in p.links:
        if not 0 <= lid < len(net.links):
            raise GraphFormatError(f"unknown link id {lid}")
        out |= net.links[lid].srlgs
    return frozenset(out)


@dataclass
class ShortestTree:
    """Single-metric shortest-path tree.

    For a destination-rooted (reverse) tree, ``dist[u]`` is the least metric
    over all u->root paths; for a source-rooted (forward) tree, over all
    root->u paths.  ``pred`` is csgraph's predecessor array (negative at the
    root and where unreachable) and ``weights`` the per-link weights the tree
    was built on, ``inf`` on disabled links.  :meth:`path_from` derives the
    tree's links from these.  A tree from :func:`build_reverse_tree` may be
    the network's cached copy, shared with every later caller: read it, never
    write to it, except for the search's :attr:`egress_order` memo.  The
    memo holds one tuple of rows per expanded node: about 1 MB once every
    node of a 4000-node, 99,351-link network is in it, and 0.54 MB per
    destination after one pass of the ``drcr-4k-dst`` benchmark pool.  A
    masked tree is built afresh, so its memo lives only as long as its
    sub-instance's searches.
    """

    root: int
    reverse: bool
    dist: list[float]
    pred: np.ndarray
    weights: np.ndarray

    @cached_property
    def egress_order(self) -> list[Optional[tuple]]:
        """The largest-delay-first order of a reverse delay tree, filled by
        :mod:`drcr.pulse` the first time a search on this tree expands node
        ``u``: the tuple of ``net.egress[u]`` rows sorted on ``d(e) +
        dist[head]``.  It depends on the tree alone, so a cached tree shares
        it with every later query."""
        return [None] * len(self.dist)

    def path_from(self, net: Network, u: int) -> Optional[Path]:
        """The tree path between ``u`` and the root.

        Walking from ``u``, at each node ``v`` take, among the tight links
        (``weight + dist[h] == dist[v]``) to a node ``h`` with ``dist[h] <
        dist[v]``, the one with the least ``(dist[h], h, link id)``.  That is
        the link a heap Dijkstra keeps on positive weights: it settles nodes
        in ``(dist, id)`` order and keeps the first strictly improving link.
        A node whose tight links all lead to nodes at its own distance (zero
        weights) takes the lowest-id tight link to ``pred[v]`` instead, so the
        walk never cycles.
        """
        dist = self.dist
        if dist[u] == INF:
            return None
        rows = net.egress if self.reverse else net.ingress
        weights = self.weights
        ids: list[int] = []
        node = u
        while node != self.root:
            dv = dist[node]
            tight = [(dist[h], h, lid) for h, _d, _c, lid in rows[node]
                     if dist[h] + weights[lid] == dv]  # in link-id order
            nearer = [hop for hop in tight if hop[0] < dv]
            if nearer:
                _dh, node, lid = min(nearer)
            else:
                pred = self.pred[node]
                _dh, node, lid = next(hop for hop in tight if hop[1] == pred)
            ids.append(lid)
        if not self.reverse:
            ids.reverse()
        return Path.from_links(net, ids)


def dijkstra(net: Network, root: int, weights: np.ndarray, *,
             reverse: bool = False,
             disabled: Optional[set[int]] = None,
             deadline: Optional[Deadline] = None) -> ShortestTree:
    """Shortest tree from (``reverse``: towards) ``root`` over link ``weights``.

    One ``scipy.sparse.csgraph.dijkstra`` call on ``net.matrix(reverse)``;
    links in ``disabled`` weigh ``inf``, which csgraph reads as no link.  The
    deadline is checked just before and just after the call; a tree whose
    call never started reaches only the root.
    """
    if not 0 <= root < net.num_nodes:
        raise ValueError(f"node {root} out of range")
    if disabled:
        weights = weights.copy()
        weights[list(disabled)] = INF
    if deadline is not None and deadline.expired("graph.dijkstra"):
        dist = [INF] * net.num_nodes
        dist[root] = 0.0
        return ShortestTree(root, reverse, dist,
                            np.full(net.num_nodes, -9999), weights)
    mat, perm = net.matrix(reverse)
    mat.data = weights[perm]
    with warnings.catch_warnings():
        # at lam = -mu float rounding leaves c + lam*d a hair below zero
        warnings.filterwarnings("ignore", "Graph has negative weights")
        dist, pred = _csgraph_dijkstra(mat, indices=root,
                                       return_predecessors=True)
    if deadline is not None:
        deadline.expired("graph.dijkstra")
    return ShortestTree(root, reverse, dist.tolist(), pred, weights)


def build_reverse_tree(net: Network, t: int, metric: str,
                       disabled: Optional[set[int]] = None,
                       deadline: Optional[Deadline] = None) -> ShortestTree:
    """Destination-rooted shortest tree: dist[u] = min metric over u->t paths.

    A tree on all links (no ``disabled``) is kept in ``net``'s cache of the
    ``TREE_CACHE_SIZE`` most recently used ``(t, metric)`` trees and returned
    shared, read-only, to later calls; a hit still checks ``deadline`` once.
    Only trees whose Dijkstra ran to the end with the deadline unexpired are
    kept, never the root-only tree of a passed deadline.  Masked trees are
    built every time.
    """
    cache = net._trees
    key = (t, metric)
    tree = None if disabled else cache.get(key)
    if tree is not None:
        cache.move_to_end(key)
        if deadline is not None:
            deadline.expired("graph.dijkstra")
        return tree
    tree = dijkstra(net, t, net.weights(metric), reverse=True,
                    disabled=disabled, deadline=deadline)
    if not disabled and (deadline is None or deadline.phase is None):
        cache[key] = tree
        if len(cache) > TREE_CACHE_SIZE:
            cache.popitem(last=False)
    return tree


def build_forward_tree(net: Network, s: int, metric: str,
                       deadline: Optional[Deadline] = None) -> ShortestTree:
    """Source-rooted shortest tree: dist[u] = min metric over s->u paths."""
    return dijkstra(net, s, net.weights(metric), deadline=deadline)


def load_network(text: str) -> Network:
    """Parse the edge-list format described in the module docstring."""
    name_to_id: dict[str, int] = {}
    links: list[Link] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise GraphFormatError(
                f"line {lineno}: expected 6 comma-separated fields, got {len(parts)}")
        try:
            link_id = int(parts[0])
            cost = int(parts[3])
            delay = int(parts[4])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        if link_id != len(links):
            raise GraphFormatError(
                f"line {lineno}: link ids must run 0,1,2,... (got {link_id})")
        src_name, dst_name = parts[1], parts[2]
        for name in (src_name, dst_name):
            if name not in name_to_id:
                name_to_id[name] = len(name_to_id)
        srlg_field = parts[5].strip()
        srlgs: frozenset[int] = frozenset()
        if srlg_field:
            try:
                srlgs = frozenset(int(tok) for tok in srlg_field.split(";") if tok != "")
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: bad Srlg list {srlg_field!r}") from None
        links.append(Link(link_id, name_to_id[src_name], name_to_id[dst_name],
                          delay, cost, srlgs))
    names = [""] * len(name_to_id)
    for name, idx in name_to_id.items():
        names[idx] = name
    return Network.build(len(names), links, names)


def dump_network(net: Network) -> str:
    """Inverse of :func:`load_network` (modulo comments)."""
    lines = []
    for link in net.links:
        srlgs = ";".join(str(r) for r in sorted(link.srlgs))
        lines.append(f"{link.id},{net.node_names[link.src]},{net.node_names[link.dst]},"
                     f"{link.cost},{link.delay},{srlgs}")
    return "\n".join(lines) + "\n"
