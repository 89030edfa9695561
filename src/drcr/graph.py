"""Directed-graph model shared by every solver.

Links carry integer delay/cost values plus Srlg memberships.  Delays and
costs are unsigned integers, and the delay and cost totals over all links
stay below 2^53, so tree distances, which are float64, are exact integers
and pruning comparisons are exact; only the Lagrangian weights
(:func:`lagrangian_weights`) are fractional.

Graph files are UTF-8 edge lists, one link per line::

    link_id,src,dst,cost,delay,srlg_ids

where ``srlg_ids`` is a ``;``-separated (possibly empty) list of
non-negative integers below 2^63.  Lines starting with ``#`` are comments.
Node names may be any strings without a ``,`` or a line break and are
densified to ``0..n-1`` in order of first appearance.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Callable, Iterable, Optional

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


@dataclass
class SolveStats:
    """What every solver returns with its answer.

    ``status`` is ``optimal`` or ``infeasible`` only when proven, and
    ``timeout`` once the deadline passed, with ``timeout_phase`` naming the
    layer that found it; ``budget`` appears only between the phases of a
    joint-pruning search.  ``elapsed_us`` is the wall time of the whole call.
    Fields a solver has no use for keep their defaults: ``searched_fraction``,
    ``best_cost_trace`` (``(iteration, cost)`` per improvement) and
    ``cf_build_us`` belong to the Pulse+ searches, ``lambda_value`` to a
    solve that used a Lagrangian multiplier, ``subinstances`` and
    ``conflict_sets`` (sets of Srlg ids) to the Srlg pair solver.
    """

    status: str = "infeasible"
    iterations: int = 0
    searched_fraction: float = 0.0
    best_cost_trace: list[tuple[int, int]] = field(default_factory=list)
    elapsed_us: int = 0
    timeout_phase: Optional[str] = None
    lambda_value: Optional[float] = None
    cf_build_us: int = 0
    subinstances: int = 0
    conflict_sets: list[frozenset[int]] = field(default_factory=list)


def finish(stats: SolveStats, deadline: Deadline, status: str) -> SolveStats:
    """Stamp a solve's ``status`` (``timeout`` once ``deadline`` expired),
    ``timeout_phase`` and whole-call ``elapsed_us``; return ``stats``."""
    stats.status = status if deadline.phase is None else "timeout"
    stats.timeout_phase = deadline.phase
    stats.elapsed_us = int((time.monotonic() - deadline.start) * 1e6)
    return stats


@dataclass(frozen=True)
class Link:
    """One link's record, built on demand by :attr:`Network.links`."""

    id: int
    src: int
    dst: int
    delay: int
    cost: int
    srlgs: frozenset[int] = frozenset()


def _total(column: np.ndarray) -> int:
    """Exact sum of a non-negative int64 column: each half-word sum fits."""
    return (int((column >> 32).sum()) << 32) + int((column & 0xFFFFFFFF).sum())


def _name_problem(names: list[str]) -> Optional[str]:
    """Why ``names`` would not survive :func:`dump_network` and a reload:
    a ``,`` or a line break splits a line, a repeat merges two nodes."""
    seen: set[str] = set()
    for name in names:
        if "," in name or "".join(name.splitlines()) != name:
            return f"node name {name!r} holds a comma or a line break"
        if name in seen:
            return f"node name {name!r} appears twice"
        seen.add(name)
    return None


@dataclass(eq=False)
class Network:
    """Immutable-after-construction directed multigraph.

    The link table is ``table``, one int64 row each for ``src``, ``dst``,
    ``delay`` and ``cost`` (also attributes of their own), indexed by link
    id; ``link_srlgs`` maps the id of each link that has Srlgs to them.  No
    Python object is kept per link: :attr:`links` builds :class:`Link`
    records on demand.  ``egress[u]`` and ``ingress[u]`` are the only
    adjacency the solvers walk: rows of the links leaving and entering
    ``u``, built from the columns on first use.  Dijkstra reads the same
    links as a CSR matrix per direction (:meth:`matrix`).  ``srlgs`` maps
    each Srlg id to the frozenset of its member links, the inverted
    ``link_srlgs``.  The network also caches the ``TREE_CACHE_SIZE``
    destination trees on all its links that it used last: delay and cost trees
    (:func:`build_reverse_tree`), about 160 KB each at 4000 nodes, and
    Lagrangian distances (:func:`lagrangian_dist`), about 110 KB each, plus
    the largest-delay-first order the searches kept on each delay tree
    (:attr:`ShortestTree.egress_order`): up to about 1 MB per destination
    at 4000 nodes and 99,351 links.  After two passes of the
    ``drcr-4k-dst`` benchmark pool (10 destinations) the cache holds 20
    trees and 39 distance lists, 16.3 MB with the memo, CSR matrix and
    weight columns.
    """

    num_nodes: int
    node_names: list[str]
    table: np.ndarray
    link_srlgs: dict[int, frozenset[int]]
    srlgs: dict[int, frozenset[int]]

    def __post_init__(self):
        self.src, self.dst, self.delay, self.cost = self.table

    @classmethod
    def build(cls, num_nodes: int, src, dst, delay, cost,
              link_srlgs: Optional[dict[int, Iterable[int]]] = None,
              node_names: Optional[list[str]] = None) -> "Network":
        """Check the link columns and names once and wrap them.

        ``src``, ``dst``, ``delay`` and ``cost`` are equal-length integer
        sequences indexed by link id; ``link_srlgs`` maps link ids to their
        Srlg ids.  Ends must be nodes, links no self-loops, values and Srlg
        ids non-negative, the delay and cost totals below 2^53, and node
        names free of ``,``, line breaks and repeats.
        """
        if not len(src) == len(dst) == len(delay) == len(cost):
            raise GraphFormatError("link columns differ in length")
        try:
            table = np.array([src, dst, delay, cost], np.int64)
        except OverflowError:
            raise GraphFormatError("link values must fit in 64 bits") from None
        table.flags.writeable = False
        src, dst, delay, cost = table
        if node_names is None:
            node_names = [str(i) for i in range(num_nodes)]
        if len(node_names) != num_nodes:
            raise GraphFormatError(
                f"{len(node_names)} node names for {num_nodes} nodes")
        problem = _name_problem(node_names)
        if problem:
            raise GraphFormatError(problem)
        bad = np.flatnonzero((src < 0) | (src >= num_nodes)
                             | (dst < 0) | (dst >= num_nodes))
        if bad.size:
            raise GraphFormatError(f"link {bad[0]}: endpoint out of range")
        bad = np.flatnonzero(src == dst)
        if bad.size:
            raise GraphFormatError(
                f"link {bad[0]}: self-loop {src[bad[0]]}->{dst[bad[0]]} rejected")
        bad = np.flatnonzero((delay < 0) | (cost < 0))
        if bad.size:
            raise GraphFormatError(f"link {bad[0]}: negative delay or cost")
        if _total(delay) >= _SUM_LIMIT or _total(cost) >= _SUM_LIMIT:
            raise GraphFormatError(
                "delay/cost totals must stay below 2^53 to stay exact")
        by_link = {lid: kept for lid, groups in (link_srlgs or {}).items()
                   if (kept := frozenset(groups))}
        lids = np.fromiter(by_link, np.int64, len(by_link))
        if lids.size and (lids.min() < 0 or lids.max() >= len(src)):
            raise GraphFormatError("Srlgs given for a link that is not there")
        sizes = np.fromiter(map(len, by_link.values()), np.int64, len(lids))
        try:
            ids = np.fromiter(chain.from_iterable(by_link.values()), np.int64,
                              int(sizes.sum()))
        except OverflowError:
            raise GraphFormatError("Srlg ids must fit in 64 bits") from None
        if ids.size and ids.min() < 0:
            lid = next(lid for lid, groups in by_link.items() if min(groups) < 0)
            raise GraphFormatError(f"link {lid}: negative Srlg id")
        # the inverted index: member links grouped by ascending Srlg id
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        members = np.repeat(lids, sizes)[order].tolist()
        starts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist()
        srlgs = {r: frozenset(members[a:b]) for r, a, b
                 in zip(ids[starts].tolist(), starts, starts[1:] + [len(ids)])}
        return cls(num_nodes, node_names, table, by_link, srlgs)

    @property
    def links(self) -> "LinkView":
        """The link table as a read-only sequence of :class:`Link` records."""
        return LinkView(self)

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
        return {"delay": self.delay.astype(float),
                "cost": self.cost.astype(float)}

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
            rows, cols = (self.dst, self.src) if reverse else (self.src, self.dst)
            perm = np.argsort(rows, kind="stable")
            indptr = np.zeros(n + 1, np.int32)
            indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
            mat = csr_matrix((np.zeros(len(perm)), cols[perm].astype(np.int32),
                              indptr), shape=(n, n))
            cached = self._matrices[reverse] = (mat, perm)
        return cached

    @cached_property
    def _trees(self) -> OrderedDict[tuple, "ShortestTree | list[float]"]:
        return OrderedDict()

    @cached_property
    def totals(self) -> tuple[int, int]:
        """The delay and the cost total over all links, each below 2^53."""
        return _total(self.delay), _total(self.cost)

    def _rows(self, at: np.ndarray, other: np.ndarray,
              ) -> list[list[tuple[int, int, int, int]]]:
        """Rows ``(other, delay, cost, link_id)`` grouped by ``at``, each
        group in link-id order; Python ints throughout."""
        order = np.argsort(at, kind="stable")
        # memoryviews yield Python ints, and unlike lists of them they hold
        # nothing the collector walks while it sorts out the new tuples
        columns = (memoryview(column) for column in
                   (other[order], self.delay[order], self.cost[order], order))
        ends = np.cumsum(np.bincount(at, minlength=self.num_nodes)).tolist()
        flat = list(zip(*columns))
        return [flat[a:b] for a, b in zip([0] + ends, ends)]

    @cached_property
    def egress(self) -> list[list[tuple[int, int, int, int]]]:
        """Per-node rows ``(dst, delay, cost, link_id)`` of the links leaving
        it, in link-id order."""
        return self._rows(self.src, self.dst)

    @cached_property
    def ingress(self) -> list[list[tuple[int, int, int, int]]]:
        """Per-node rows ``(src, delay, cost, link_id)`` of the links entering
        it, in link-id order."""
        return self._rows(self.dst, self.src)


class LinkView(Sequence):
    """Read-only view of a network's link table: ``view[i]`` builds link
    ``i``'s :class:`Link` record afresh, and ``len`` is the link count."""

    __slots__ = ("_net",)

    def __init__(self, net: Network):
        self._net = net

    def __len__(self) -> int:
        return self._net.table.shape[1]

    def __getitem__(self, lid: int) -> Link:
        if not -len(self) <= lid < len(self):
            raise IndexError(f"link id {lid} out of range")
        lid %= len(self)
        src, dst, delay, cost = self._net.table[:, lid].tolist()
        return Link(lid, src, dst, delay, cost,
                    self._net.link_srlgs.get(lid, frozenset()))


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
        if not link_ids:
            return cls((), (), 0, 0)
        _check_link_ids(net, link_ids)
        src, dst, delay, cost = net.table.take(link_ids, axis=1).tolist()
        if src[1:] != dst[:-1]:
            k = next(k for k in range(1, len(src)) if src[k] != dst[k - 1])
            raise GraphFormatError(
                f"links do not chain: ...->{dst[k - 1]} then {src[k]}->{dst[k]}")
        return cls(link_ids, (src[0], *dst), sum(delay), sum(cost))

    def __len__(self) -> int:
        return len(self.links)


def is_elementary(p: Path) -> bool:
    """True iff no node repeats along the path.  The empty path qualifies."""
    return len(set(p.nodes)) == len(p.nodes)


def _check_link_ids(net: Network, link_ids: tuple[int, ...]) -> None:
    m = len(net.src)
    if link_ids and (min(link_ids) < 0 or max(link_ids) >= m):
        bad = next(lid for lid in link_ids if not 0 <= lid < m)
        raise GraphFormatError(f"unknown link id {bad}")


def srlgs_of_path(net: Network, p: Path) -> frozenset[int]:
    _check_link_ids(net, p.links)
    groups = net.link_srlgs
    return frozenset().union(*[groups[lid] for lid in p.links if lid in groups])


@dataclass
class ShortestTree:
    """Single-metric shortest-path tree.

    For a destination-rooted (reverse) tree, ``dist[u]`` is the least metric
    over all u->root paths; for a source-rooted (forward) tree, over all
    root->u paths.  ``pred`` is csgraph's predecessor array (negative at the
    root and where unreachable), ``weights`` the per-link weights the tree
    was built on and ``disabled`` the links it was built without.
    :meth:`path_from` derives the tree's links from these.  At 4000 nodes
    ``dist`` and ``pred`` take about 160 KB; ``weights`` is shared with the
    network for a delay or cost tree, and its own array otherwise (0.8 MB at
    99,351 links), which is why the cache keeps only the ``dist`` of a
    Lagrangian tree (:func:`lagrangian_dist`).  A tree from
    :func:`build_reverse_tree` may be the network's cached copy, shared with
    every later caller: read it, never write to it, except for the search's
    :attr:`egress_order` memo.  The memo holds one tuple of rows per
    expanded node: about 1 MB once every node of a 4000-node, 99,351-link
    network is in it, and 0.54 MB per destination after one pass of the
    ``drcr-4k-dst`` benchmark pool.  A masked tree is built afresh, so its
    memo lives only as long as its sub-instance's searches.
    """

    root: int
    reverse: bool
    dist: list[float]
    pred: np.ndarray
    weights: np.ndarray
    disabled: frozenset[int] = frozenset()

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
        (``weight + dist[h] == dist[v]``, never a disabled one) to a node
        ``h`` with ``dist[h] < dist[v]``, the one with the least ``(dist[h],
        h, link id)``.  That is the link a heap Dijkstra keeps on positive
        weights: it settles nodes in ``(dist, id)`` order and keeps the first
        strictly improving link.  A node whose tight links all lead to nodes
        at its own distance (zero weights) takes the lowest-id tight link to
        ``pred[v]`` instead, so the walk never cycles.  A tree on the
        network's own delay or cost column reads each link's weight off its
        row, and the path is summed from the rows walked.
        """
        dist = self.dist
        if dist[u] == INF:
            return None
        rows = net.egress if self.reverse else net.ingress
        weights, disabled = self.weights, self.disabled
        field = (1 if weights is net.weights("delay")
                 else 2 if weights is net.weights("cost") else None)
        hops: list[tuple[int, int, int, int]] = []
        node = u
        while node != self.root:
            dv = dist[node]
            if field is None:
                tight = [row for row in rows[node]
                         if dist[row[0]] + weights[row[3]] == dv]
            else:
                tight = [row for row in rows[node]
                         if dist[row[0]] + row[field] == dv]
            if disabled:
                tight = [row for row in tight if row[3] not in disabled]
            # rows run in link-id order, and min keeps the first least one
            nearer = [row for row in tight if dist[row[0]] < dv]
            if nearer:
                hop = min(nearer, key=lambda row: (dist[row[0]], row[0]))
            else:
                pred = int(self.pred[node])
                hop = next(row for row in tight if row[0] == pred)
            hops.append(hop)
            node = hop[0]
        if not hops:
            return Path((), (), 0, 0)
        if not self.reverse:
            hops.reverse()
        ends, delays, costs, links = zip(*hops)
        nodes = (u, *ends) if self.reverse else (*ends, u)
        return Path(links, nodes, sum(delays), sum(costs))


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
    disabled = frozenset(disabled or ())
    if deadline is not None and deadline.expired("graph.dijkstra"):
        dist = [INF] * net.num_nodes
        dist[root] = 0.0
        return ShortestTree(root, reverse, dist,
                            np.full(net.num_nodes, -9999), weights, disabled)
    masked = weights
    if disabled:
        masked = weights.copy()
        masked[list(disabled)] = INF
    mat, perm = net.matrix(reverse)
    mat.data = masked[perm]
    with warnings.catch_warnings():
        # at lam = -mu float rounding leaves c + lam*d a hair below zero
        warnings.filterwarnings("ignore", "Graph has negative weights")
        dist, pred = _csgraph_dijkstra(mat, indices=root,
                                       return_predecessors=True)
    if deadline is not None:
        deadline.expired("graph.dijkstra")
    return ShortestTree(root, reverse, dist.tolist(), pred, weights, disabled)


def _cached(net: Network, key: tuple, build: Callable[[], object],
            deadline: Optional[Deadline]):
    """``net``'s cache entry for ``key``, made most recently used; on a miss
    ``build()``'s result, kept unless ``deadline`` has expired.  A hit still
    checks ``deadline`` once."""
    cache = net._trees
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
        if deadline is not None:
            deadline.expired("graph.dijkstra")
        return entry
    entry = build()
    if deadline is None or deadline.phase is None:
        cache[key] = entry
        if len(cache) > TREE_CACHE_SIZE:
            cache.popitem(last=False)
    return entry


def build_reverse_tree(net: Network, t: int, metric: str,
                       disabled: Optional[set[int]] = None,
                       deadline: Optional[Deadline] = None) -> ShortestTree:
    """Destination-rooted shortest tree: dist[u] = min metric over u->t paths.

    A tree on all links (no ``disabled``) is kept in ``net``'s cache of the
    ``TREE_CACHE_SIZE`` most recently used entries under ``(t, metric)`` and
    returned shared, read-only, to later calls; a hit still checks
    ``deadline`` once.  Only trees whose Dijkstra ran to the end with the
    deadline unexpired are kept, never the root-only tree of a passed
    deadline.  Masked trees are built every time.
    """
    def build() -> ShortestTree:
        return dijkstra(net, t, net.weights(metric), reverse=True,
                        disabled=disabled, deadline=deadline)

    return build() if disabled else _cached(net, (t, metric), build, deadline)


def trees_cached(net: Network, t: int) -> bool:
    """True when ``net``'s cache holds both unmasked trees rooted at ``t``."""
    return (t, "delay") in net._trees and (t, "cost") in net._trees


def lagrangian_weights(net: Network, lam: float) -> np.ndarray:
    """Per-link ``cost + lam * delay`` as float64, indexed by link id."""
    return net.weights("cost") + lam * net.weights("delay")


def lagrangian_dist(net: Network, t: int, lam: float,
                    deadline: Optional[Deadline] = None) -> list[float]:
    """``dist[u]``, the least ``cost + lam * delay`` over all u->t paths.

    Kept in the same cache as :func:`build_reverse_tree`'s trees, under
    ``(t, "lagrangian", lam)`` and on the same terms, but only the distances
    are kept: no predecessors or weights, so no path can be derived.
    """
    def build() -> list[float]:
        return dijkstra(net, t, lagrangian_weights(net, lam), reverse=True,
                        deadline=deadline).dist

    return _cached(net, (t, "lagrangian", lam), build, deadline)


def build_forward_tree(net: Network, s: int, metric: str,
                       deadline: Optional[Deadline] = None) -> ShortestTree:
    """Source-rooted shortest tree: dist[u] = min metric over s->u paths."""
    return dijkstra(net, s, net.weights(metric), deadline=deadline)


def _srlg_ids(field: str) -> frozenset[int]:
    """The Srlg ids of a ``;``-separated field; ``ValueError`` if malformed."""
    return frozenset(map(int, filter(None, field.strip().split(";"))))


def _line_problem(line: str, index: int) -> Optional[str]:
    """What, if anything, is wrong with data line ``line`` as link ``index``:
    each check of :func:`load_network` and :meth:`Network.build` that one
    line can fail, in the order the format lists them."""
    parts = line.split(",")
    if len(parts) != 6:
        return f"expected 6 comma-separated fields, got {len(parts)}"
    try:
        link_id, cost, delay = int(parts[0]), int(parts[3]), int(parts[4])
    except ValueError as exc:
        return str(exc)
    if link_id != index:
        return f"link ids must run 0,1,2,... (got {link_id})"
    try:
        srlgs = _srlg_ids(parts[5])
    except ValueError:
        return f"bad Srlg list {parts[5].strip()!r}"
    if parts[1] == parts[2]:
        return f"self-loop {parts[1]}->{parts[2]} rejected"
    if cost < 0 or delay < 0:
        return "negative delay or cost"
    if max(cost, delay) >= _SUM_LIMIT:
        return "delay/cost totals must stay below 2^53 to stay exact"
    if srlgs and min(srlgs) < 0:
        return "negative Srlg id"
    if srlgs and max(srlgs) >= 1 << 63:
        return "Srlg ids must fit in 64 bits"
    return None


def _parse_lines(lines: list[str]) -> Network:
    """The network of the stripped data ``lines``, checked column-wise."""
    m = len(lines)
    if not m:
        return Network.build(0, [], [], [], [])
    # each line's six fields, then a "\n" field between two lines: the
    # m - 1 "\n" fields fall every seventh place iff every line has six
    fields = ",\n,".join(lines).split(",")
    if len(fields) != 7 * m - 1 or fields[6::7].count("\n") != m - 1:
        raise GraphFormatError("a line without 6 fields")
    ids, cost, delay = (np.array(fields[k::7], np.int64) for k in (0, 3, 4))
    if not np.array_equal(ids, np.arange(m)):
        raise GraphFormatError("link ids out of order")
    ends = [""] * (2 * m)
    ends[0::2] = fields[1::7]
    ends[1::2] = fields[2::7]
    names = list(dict.fromkeys(ends))  # in order of first appearance
    index = dict(zip(names, range(len(names))))
    ends = np.fromiter(map(index.__getitem__, ends), np.int64, 2 * m)
    srlg_fields = fields[5::7]
    link_srlgs = {lid: _srlg_ids(srlg_fields[lid])
                  for lid in compress(range(m), srlg_fields)}
    return Network.build(len(names), ends[0::2], ends[1::2], delay, cost,
                         link_srlgs, names)


def load_network(text: str) -> Network:
    """Parse the edge-list format described in the module docstring.

    The data lines are split on ``,`` at once and every check runs on whole
    columns.  When one fails, the lines are checked one at a time, so that
    the :class:`GraphFormatError` names the first bad line; only the 2^53
    totals belong to no line.  A value too large for int64 fails too.
    """
    lines = [line for line in map(str.strip, text.splitlines())
             if line and line[0] != "#"]
    try:
        return _parse_lines(lines)
    except (ValueError, OverflowError):  # GraphFormatError is a ValueError
        index = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            problem = _line_problem(line, index)
            if problem:
                raise GraphFormatError(f"line {lineno}: {problem}") from None
            index += 1
        raise


def dump_network(net: Network) -> str:
    """Inverse of :func:`load_network` (modulo comments)."""
    srlg_fields = [""] * len(net.links)
    for lid, groups in net.link_srlgs.items():
        srlg_fields[lid] = ";".join(map(str, sorted(groups)))
    names = net.node_names
    lines = [f"{lid},{names[u]},{names[v]},{c},{d},{r}"
             for lid, (u, v, d, c, r)
             in enumerate(zip(*net.table.tolist(), srlg_fields))]
    return "\n".join(lines) + "\n"
