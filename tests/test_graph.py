import gc
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import drcr.graph
import drcr.ksp
import drcr.pulse
from conftest import G3B_TEXT, Link, links_network, links_of, multigraphs, \
    random_net
from drcr.costfn import compute_cost_functions
from drcr.graph import (
    INF,
    NO_LIMIT,
    GraphFormatError,
    Network,
    Path,
    SolveStats,
    TREE_CACHE_SIZE,
    build_forward_tree,
    build_reverse_tree,
    dijkstra,
    dump_network,
    is_elementary,
    lagrangian_dist,
    lagrangian_weights,
    load_network,
    srlgs_of_path,
)
from drcr.ksp import _larac, choose_lambda, cost_ksp_drcr, delay_ksp_drcr, \
    lagrangian_ksp_drcr, srlg_ksp_drcr, srlg_lagrangian_ksp, yen_ksp
from drcr.pulse import DrcrCase, DrcrQuery, PulseOptions, classify_case, \
    dst_trees, lagrangian_cut, pulse_plus, run_pulse_search, solve_drcr
from drcr.srlg import SrlgDrcrQuery, SubInstance, ap_pulse_plus, \
    backup_search, cose_pulse_plus, find_conflict_set
from oracle import brute_drcr


def test_g1_shape(g1):
    assert g1.num_nodes == 4
    assert len(g1.src) == 4
    assert sum(g1.delay.tolist()) == 6
    assert sum(g1.cost.tolist()) == 12
    assert [row[3] for row in g1.egress[g1.node_id("s")]] == [0, 2]


def test_reverse_delay_tree(g1):
    t = g1.node_id("t")
    tree = build_reverse_tree(g1, t, "delay")
    assert tree.dist[g1.node_id("s")] == 2
    p = tree.path_from(g1, g1.node_id("s"))
    assert p.links == (0, 1)


def test_forward_tree(g1):
    s = g1.node_id("s")
    tree = build_forward_tree(g1, s, "cost")
    assert tree.dist[g1.node_id("t")] == 2


def test_unreachable_dist_is_inf():
    net = load_network("0,a,b,1,1,\n")
    tree = build_reverse_tree(net, 0, "delay")
    assert tree.dist[1] == INF
    assert tree.path_from(net, 1) is None


def weighted(num_nodes, ends):
    """A net whose link i runs ``ends[i] = (src, dst, delay)``, cost 1."""
    return links_network(num_nodes, [Link(i, u, v, d, 1)
                                     for i, (u, v, d) in enumerate(ends)])


def test_path_from_tie_rule_pinned():
    # Nodes 1 and 2 both sit at delay 2 from the root 0.  Node 3 reaches
    # them over links 2 (to 2) and 3, 4 (parallel, to 1) at delay 2 each,
    # and over link 5 (to 1) at delay 5.  Node 4 reaches the root at delay
    # 5 both over link 6 (to 3, at 4) and over link 7 (to 1, at 2).  The
    # least (dist[h], h, link id) takes link 3 at node 3 and link 7 at node
    # 4, as a heap Dijkstra does; csgraph's predecessor of 3 is node 2.
    net = weighted(5, [(2, 0, 2), (1, 0, 2), (3, 2, 2), (3, 1, 2), (3, 1, 2),
                       (3, 1, 5), (4, 3, 1), (4, 1, 3)])
    tree = build_reverse_tree(net, 0, "delay")
    assert tree.dist == [0, 2, 2, 4, 5]
    assert [tree.path_from(net, u).links for u in range(5)] == \
        [(), (1,), (0,), (3, 1), (7, 1)]


def test_path_from_zero_weight_ties_terminate():
    # Nodes 1 and 2 reach the root only through each other, 3 and 4, all at
    # distance 5 over zero-delay links: every tight link of theirs leads to
    # a node at their own distance, so the walk follows the predecessors.
    net = weighted(5, [(1, 2, 0), (2, 1, 0), (1, 3, 0), (2, 4, 0),
                       (3, 0, 5), (4, 0, 5)])
    tree = build_reverse_tree(net, 0, "delay")
    assert tree.dist == [0, 5, 5, 5, 5]
    for u in (1, 2):
        p = tree.path_from(net, u)
        assert is_elementary(p) and p.nodes[0] == u and p.nodes[-1] == 0
        assert p.delay == 5


def bellman_ford(net, root, metric, reverse, disabled):
    dist = [INF] * net.num_nodes
    dist[root] = 0
    for _ in range(net.num_nodes):
        for link in links_of(net):
            if link.id in disabled:
                continue
            w = getattr(link, metric)
            near, far = (link.dst, link.src) if reverse else (link.src, link.dst)
            dist[far] = min(dist[far], dist[near] + w)
    return dist


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dijkstra_matches_bellman_ford(data):
    net = data.draw(multigraphs())
    root = data.draw(st.integers(0, net.num_nodes - 1))
    disabled = data.draw(st.sets(st.integers(0, max(len(net.src) - 1, 0)),
                                 max_size=len(net.src)))
    for metric in ("delay", "cost"):
        for reverse in (True, False):
            tree = dijkstra(net, root, net.weights(metric), reverse=reverse,
                            disabled=disabled)
            assert tree.dist == bellman_ford(net, root, metric, reverse,
                                             disabled)
            for u in range(net.num_nodes):
                p = tree.path_from(net, u)
                if tree.dist[u] == INF:
                    assert p is None
                    continue
                assert Path.from_links(net, p.links) == p  # a chain
                assert is_elementary(p) and not disabled & set(p.links)
                if p.links:
                    assert (p.nodes[0], p.nodes[-1]) == \
                        ((u, root) if reverse else (root, u))
                assert getattr(p, metric) == tree.dist[u]


def assert_same_tree(net, tree, fresh):
    assert tree.dist == fresh.dist
    for u in range(net.num_nodes):
        assert tree.path_from(net, u) == fresh.path_from(net, u)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cached_trees_match_fresh_dijkstra(data):
    # a cache of 4 trees against up to 14 (root, metric) keys: calls that
    # revisit a key hit or miss as least-recently-used order says
    net = data.draw(multigraphs())
    keys = st.tuples(st.integers(0, net.num_nodes - 1),
                     st.sampled_from(["delay", "cost"]))
    calls = data.draw(st.lists(keys, min_size=1, max_size=30))
    order: list = []  # the keys the cache should hold, oldest first
    with mock.patch.object(drcr.graph, "TREE_CACHE_SIZE", 4):
        for root, metric in calls:
            tree = build_reverse_tree(net, root, metric)
            assert_same_tree(net, tree, dijkstra(
                net, root, net.weights(metric), reverse=True))
            if (root, metric) in order:
                order.remove((root, metric))
            order = (order + [(root, metric)])[-4:]
            assert list(net._trees) == order


def test_tree_cache_keeps_the_last_64_trees():
    n = 40
    net = weighted(n, [(u, (u + 1) % n, 1) for u in range(n)])
    for root in range(n):
        for metric in ("delay", "cost"):
            build_reverse_tree(net, root, metric)
            assert len(net._trees) <= TREE_CACHE_SIZE
    assert TREE_CACHE_SIZE == 64
    assert list(net._trees) == [(root, metric) for root in range(8, n)
                                for metric in ("delay", "cost")]
    kept = net._trees[(n - 1, "cost")]
    assert build_reverse_tree(net, n - 1, "cost") is kept


def test_masked_trees_bypass_the_cache():
    net = weighted(3, [(0, 2, 1), (0, 1, 1), (1, 2, 1)])
    masked = build_reverse_tree(net, 2, "delay", disabled={0})
    assert masked.dist[0] == 2 and not net._trees  # not filled
    full = build_reverse_tree(net, 2, "delay")
    assert full.dist[0] == 1 and list(net._trees) == [(2, "delay")]
    masked = build_reverse_tree(net, 2, "delay", disabled={0})
    assert masked.dist[0] == 2  # not read
    assert net._trees[(2, "delay")] is full and full.dist[0] == 1


def test_expired_deadline_trees_are_not_cached():
    net = random_net(5, 12, 0.4)
    query = DrcrQuery(0, 11, 12, 20)
    expect = brute_drcr(net, query)
    for solve in (solve_drcr, pulse_plus):
        path, stats = solve(net, query, PulseOptions(time_limit=0.0))
        assert path is None and stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"
        assert not net._trees  # the root-only trees were dropped
    for solve in (solve_drcr, pulse_plus):
        path, stats = solve(net, query)
        assert expect is not None and path.cost == expect[0]
        assert stats.status == "optimal"
    assert sorted(net._trees) == [(11, "cost"), (11, "delay")]


def test_lagrangian_rounding_below_zero_is_silent():
    # At lam = -mu, c + lam*d of the link with the least c/d can round to a
    # hair below zero: 7 - (7/25)*25 is -8.9e-16 in float64.  Such a weight
    # is clamped to 0, so csgraph sees no negative weight.
    net = Network.build(3, [0, 1], [1, 2], [25, 1], [7, 1])
    weights = lagrangian_weights(net, -(7 / 25))
    assert 7 - (7 / 25) * 25 < 0 and weights.tolist() == [0.0, 1 - 7 / 25]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = dijkstra(net, 0, weights)
    assert tree.path_from(net, 2).links == (0, 1)


def test_totals_below_2_53_load_and_2_53_is_rejected():
    big = (1 << 53) - 2
    load_network(f"0,a,b,0,{big},\n1,b,c,0,1,\n")
    with pytest.raises(GraphFormatError, match="2\\^53"):
        load_network(f"0,a,b,0,{big},\n1,b,c,0,2,\n")
    with pytest.raises(GraphFormatError, match="2\\^53"):
        load_network(f"0,a,b,{1 << 53},0,\n")


def test_tree_distances_exact_near_2_52():
    delays = [(1 << 52) - 3, 1, (1 << 51) + 7, (1 << 51) - 9]
    net = weighted(5, [(i, i + 1, d) for i, d in enumerate(delays)])
    tree = build_reverse_tree(net, 4, "delay")
    for u in range(4):
        p = tree.path_from(net, u)
        assert tree.dist[u] == p.delay == sum(delays[u:])
        assert int(tree.dist[u]) == p.delay
    assert build_forward_tree(net, 0, "delay").dist[4] == sum(delays)


_FIELDS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(
    ["", " ", "x", "1.5", "-0", "1e3", "7;8", "1;-2", ";", "9" * 20]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_FIELDS, min_size=0, max_size=8).map(",".join),
                max_size=6))
def test_load_network_raises_only_graph_format_errors(lines):
    try:
        net = load_network("\n".join(lines))
    except GraphFormatError:
        return
    assert len(net.src) <= len(lines)


def test_node_id_looks_names_up():
    net = load_network("0,x,y,1,1,\n1,y,z,1,1,\n")
    assert [net.node_id(name) for name in "xyz"] == [0, 1, 2]
    with pytest.raises(ValueError):
        net.node_id("w")


def test_disabled_links_cut_routes(g1):
    t = g1.node_id("t")
    tree = build_reverse_tree(g1, t, "delay", disabled={0, 1})
    assert tree.dist[g1.node_id("s")] == 4


def test_path_from_links_chains(g1):
    p = Path.from_links(g1, [0, 1])
    assert p.delay == 2 and p.cost == 2
    assert p.nodes == (g1.node_id("s"), g1.node_id("a"), g1.node_id("t"))
    with pytest.raises(GraphFormatError):
        Path.from_links(g1, [0, 3])


def test_is_elementary():
    net = load_network("0,a,b,1,1,\n1,b,a,1,1,\n")
    assert is_elementary(Path.from_links(net, [0]))
    assert not is_elementary(Path.from_links(net, [0, 1]))


def test_srlgs_of_path(g3a):
    p = Path.from_links(g3a, [0, 1])
    assert srlgs_of_path(g3a, p) == {0, 1}


def test_load_rejects_bad_field_count():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_network("0,a,b,1,1\n")


def test_load_rejects_non_dense_ids():
    with pytest.raises(GraphFormatError, match="0,1,2"):
        load_network("5,a,b,1,1,\n")


def test_load_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_network("0,a,a,1,1,\n")


def test_load_skips_comments_and_blanks():
    net = load_network("# header\n\n0,a,b,1,2,3;4\n")
    assert links_of(net) == [Link(0, 0, 1, 2, 1, frozenset({3, 4}))]


# A valid text whose fifth line, link 2, the cases below corrupt; a
# comment and a blank line come before it.
_VALID = "# nodes a-e\n0,a,b,1,2,0;1\n\n1,b,c,3,4,\n2,c,d,5,6,2\n3,d,e,7,8,\n"


@pytest.mark.parametrize("bad, message", [
    ("2,c,d,5,6", "expected 6 comma-separated fields, got 5"),
    ("2,c,d,5,6,2,9", "expected 6 comma-separated fields, got 7"),
    ("2,c,d,five,6,2", "invalid literal"),
    ("2,c,d,5,6.5,2", "invalid literal"),
    ("2,c,d," + "9" * 20 + ",6,2", "2^53"),
    ("2,c,d,5," + "9" * 20 + ",2", "2^53"),
    ("3,c,d,5,6,2", "link ids must run 0,1,2,... (got 3)"),
    ("9" * 20 + ",c,d,5,6,2", "(got 99999999999999999999)"),
    ("2,c,d,5,6,2;x", "bad Srlg list '2;x'"),
    ("2,c,d,5,6,2; ;3", "bad Srlg list"),
    ("2,c,c,5,6,2", "self-loop c->c"),
    ("2,c,d,-5,6,2", "negative delay or cost"),
    ("2,c,d,5,6,-2", "negative Srlg id"),
    ("2,c,d,5,6," + "9" * 20, "Srlg ids must fit in 64 bits"),
])
def test_load_names_the_first_bad_line(bad, message):
    lines = _VALID.splitlines()
    assert links_of(load_network(_VALID))[2] == \
        Link(2, 2, 3, 6, 5, frozenset({2}))
    lines[4] = bad
    with pytest.raises(GraphFormatError) as err:
        load_network("\n".join(lines))
    assert str(err.value).startswith("line 5: ") and message in str(err.value)
    # a later bad line is not the one named
    lines[5] = "0,x,y,1,1,"
    with pytest.raises(GraphFormatError, match="^line 5: "):
        load_network("\n".join(lines))


def test_totals_past_2_53_name_no_line():
    big = 1 << 52
    with pytest.raises(GraphFormatError, match="^delay/cost totals"):
        load_network(f"0,a,b,{big},1,\n1,b,c,{big},1,\n")


def reference_load(text):
    """The format read one line at a time: the columns and Srlg map, or
    the number of the first bad line (0 when only the totals fail)."""
    names, rows = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            assert len(parts) == 6 and int(parts[0]) == len(rows)
            cost, delay = int(parts[3]), int(parts[4])
            srlgs = frozenset(int(tok) for tok in parts[5].strip().split(";")
                              if tok != "")
            assert parts[1] != parts[2] and 0 <= min(cost, delay)
            assert max(cost, delay) < 1 << 53
            assert all(0 <= r < 1 << 63 for r in srlgs)
        except (AssertionError, ValueError):
            return lineno
        for name in parts[1:3]:
            names.setdefault(name, len(names))
        rows.append((names[parts[1]], names[parts[2]], delay, cost, srlgs))
    if any(sum(row[k] for row in rows) >= 1 << 53 for k in (2, 3)):
        return 0
    return list(names), rows


_LINE_FIELDS = [
    st.sampled_from(["0", "1", "2", " 1", "+1", "x", "9" * 20]),
    st.sampled_from(["a", "b", " a", "c d", "#", ""]),
    st.sampled_from(["a", "b", "c", "b "]),
    st.sampled_from(["0", "3", "-1", "2.0", str(1 << 52), "9" * 20]),
    st.sampled_from(["0", "7", " 7", "-0", str(1 << 52), "1_0"]),
    st.sampled_from(["", "1", "2;3", ";", " 1;2", "1;;2", "-1", "x",
                     "9" * 20]),
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(*_LINE_FIELDS).map(",".join),
    st.sampled_from(["", "  ", "# note", "0,a,b,1,1", "0,a,b,1,1,2,3"])),
    max_size=6))
def test_load_agrees_with_a_line_by_line_reading(lines):
    text = "\n".join(lines)
    expect = reference_load(text)
    try:
        net = load_network(text)
    except GraphFormatError as exc:
        assert not isinstance(expect, tuple)
        assert str(exc).startswith(f"line {expect}: " if expect
                                   else "delay/cost totals")
        return
    assert isinstance(expect, tuple)
    names, rows = expect
    assert net.node_names == names
    assert [l[1:] for l in links_of(net)] == rows
    assert load_network(dump_network(net)).node_names == names


@pytest.mark.parametrize("names, message", [
    (["a,b", "c"], "comma or a line break"),
    (["a", "b\nc"], "comma or a line break"),
    (["a\r", "b"], "comma or a line break"),
    (["a", "b\u2028"], "comma or a line break"),
    (["a\x1c", "b"], "comma or a line break"),
    (["a", "a"], "appears twice"),
    (["a"], "1 node names for 2 nodes"),
])
def test_build_rejects_names_that_do_not_reload(names, message):
    with pytest.raises(GraphFormatError, match=message):
        Network.build(2, [0], [1], [1], [1], node_names=names)


def test_names_with_spaces_and_empty_names_reload():
    net = Network.build(3, [0, 1], [1, 2], [1, 1], [1, 1],
                        node_names=["", " a b ", "#c"])
    again = load_network(dump_network(net))
    assert again.node_names == net.node_names
    assert links_of(again) == links_of(net)


@pytest.mark.parametrize("columns, link_srlgs, message", [
    (([0], [1, 0], [1], [1]), None, "differ in length"),
    (([0], [1], [1 << 63], [1]), None, "64 bits"),
    (([0], [2], [1], [1]), None, "endpoint out of range"),
    (([0], [1], [1], [-1]), None, "negative delay or cost"),
    (([0], [1], [1], [1]), {1: {0}}, "not there"),
    (([0], [1], [1], [1]), {0: {-1}}, "negative Srlg id"),
    (([0], [1], [1], [1]), {0: {1 << 63}}, "64 bits"),
])
def test_build_checks_the_columns(columns, link_srlgs, message):
    with pytest.raises(GraphFormatError, match=message):
        Network.build(2, *columns, link_srlgs)


def test_links_is_a_read_only_view(g3b):
    links = g3b.links
    assert len(links) == 8 and links[-1].tolist() == links[7].tolist()
    assert links[1].tolist() == [g3b.node_id("D"), g3b.node_id("E"), 1, 1]
    assert not links.flags.writeable
    assert np.shares_memory(links, g3b.table)
    with pytest.raises(IndexError):
        links[8]
    assert g3b.table.dtype == np.int64 and g3b.table.shape == (4, 8)
    assert not g3b.table.flags.writeable
    assert g3b.link_srlgs == {0: {0}, 1: {2}, 2: {3}, 3: {1}, 4: {0}, 6: {1}}


def test_rows_and_paths_hold_python_ints(g3b):
    rows = [row for rows in g3b.egress + g3b.ingress for row in rows]
    assert len(rows) == 16
    assert all(type(x) is int for row in rows for x in row)
    p = Path.from_links(g3b, [0, 1, 3])
    assert all(type(x) is int for x in p.nodes + (p.delay, p.cost))


def test_loading_keeps_no_tracked_object_per_link():
    # a ring of 500 nodes with ten parallel links per hop
    n_links = 5000
    text = "".join(f"{i},{i % 500},{(i + 1) % 500},1,1,\n"
                   for i in range(n_links))
    gc.collect()
    before = len(gc.get_objects())
    net = load_network(text)
    gc.collect()
    assert len(net.src) == n_links
    assert len(gc.get_objects()) - before < n_links


def test_srlg_index_inverted(g3a):
    assert g3a.srlgs == {0: {0, 3}, 1: {1, 2}}


def test_dump_load_roundtrip(g3b):
    again = load_network(dump_network(g3b))
    assert again.num_nodes == g3b.num_nodes
    assert links_of(again) == links_of(g3b)


@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.integers(0, 50), st.integers(0, 50),
              st.sets(st.integers(0, 3), max_size=2)),
    max_size=12))
def test_build_dump_load_identity(raw):
    links = []
    for (u, v, d, c, srlgs) in raw:
        if u == v:
            continue
        links.append(Link(len(links), u, v, d, c, frozenset(srlgs)))
    net = links_network(6, links)
    # every link is one egress row at its tail and one ingress row at its
    # head; each node's rows run in ascending link id
    egress = sorted((u, row) for u, rows in enumerate(net.egress)
                    for row in rows)
    ingress = sorted((u, row) for u, rows in enumerate(net.ingress)
                     for row in rows)
    assert egress == sorted((l.src, (l.dst, l.delay, l.cost, l.id))
                            for l in links)
    assert ingress == sorted((l.dst, (l.src, l.delay, l.cost, l.id))
                             for l in links)
    for rows in net.egress + net.ingress:
        ids = [row[3] for row in rows]
        assert ids == sorted(ids)
    if not links:
        return
    again = load_network(dump_network(net))
    # reload may permute node ids (first-appearance order); compare by name
    def named(n):
        return [(n.node_names[l.src], n.node_names[l.dst], l.delay, l.cost,
                 l.srlgs) for l in links_of(n)]
    assert named(again) == named(net)


def drcr_query(src, dst):
    return DrcrQuery(src, dst, 0, 10)


def srlg_query(src, dst):
    return SrlgDrcrQuery(src, dst, 10, 10)


ENTRY_POINTS = pytest.mark.parametrize("solve, make", [
    (solve_drcr, drcr_query), (pulse_plus, drcr_query),
    (cost_ksp_drcr, drcr_query), (delay_ksp_drcr, drcr_query),
    (lagrangian_ksp_drcr, drcr_query), (cose_pulse_plus, srlg_query),
    (srlg_ksp_drcr, srlg_query), (srlg_lagrangian_ksp, srlg_query),
], ids=lambda v: getattr(v, "__name__", ""))
ENTRY_NET = "0,a,b,1,1,0\n1,b,c,1,1,1\n2,a,c,5,5,2\n"


@ENTRY_POINTS
@pytest.mark.parametrize("src, dst", [(-1, 2), (3, 2), (0, -1), (0, 3)])
def test_entry_points_reject_out_of_range_endpoints(solve, make, src, dst):
    net = load_network(ENTRY_NET)
    with pytest.raises(ValueError, match="out of range"):
        solve(net, make(src, dst))


@ENTRY_POINTS
def test_entry_points_return_one_stats_record(solve, make):
    answer, stats = solve(load_network(ENTRY_NET), make(0, 2))
    assert answer is not None
    assert type(stats) is SolveStats and stats.status == "optimal"


def test_search_kernel_returns_one_stats_record():
    net = load_network(ENTRY_NET)
    path, stats = run_pulse_search(
        net, 0, 2, 0, 10, build_reverse_tree(net, 2, "delay"),
        build_reverse_tree(net, 2, "cost").dist)
    assert path.cost == 2
    assert type(stats) is SolveStats and stats.status == "optimal"


@pytest.mark.parametrize("jump", [False, True])
def test_no_limit_never_latches(limit_passes_in, jump):
    """Every layer called without a deadline runs on ``NO_LIMIT``: it runs
    to the end, even when the clock jumps an hour at each Dijkstra and each
    largest-delay-first sort, and leaves ``NO_LIMIT`` unexpired."""
    if jump:
        for module, name in ((drcr.graph, "dijkstra"), (drcr.ksp, "dijkstra"),
                             (drcr.pulse, "ldf_sorted")):
            limit_passes_in(module, name)
    net = load_network(G3B_TEXT)  # A D E F B C are nodes 0-5
    query = DrcrQuery(0, 3, 0, 2)  # U binds: A-B-F, cost 11, delay 2
    assert dijkstra(net, 0, net.weights("delay")).dist[3] == 2
    assert drcr.graph._cached(net, (3, "delay"), lambda: build_reverse_tree(
        net, 3, "delay")).dist[0] == 2
    assert build_forward_tree(net, 0, "cost").dist[3] == 3
    delay_tree, cost_tree = dst_trees(net, query)
    assert (delay_tree.dist[0], cost_tree.dist[0]) == (2, 3)
    case, min_cost = classify_case(net, query)
    assert case is DrcrCase.DEGENERATED and min_cost.cost == 3
    lam, dist = lagrangian_cut(net, query, min_cost)
    assert lam == 8.0 and lagrangian_dist(net, 3, lam) == dist
    cf = compute_cost_functions(net, 0, 3, query.U)
    assert (cf.delays[0], cf.costs[0]) == ([2], [11])
    path, stats = run_pulse_search(net, 0, 3, 0, 2, delay_tree,
                                   cost_tree.dist)
    assert path.cost == 11 and stats.status == "optimal"
    active = Path.from_links(net, [4, 5])
    assert backup_search(net, active, 2, 0).links == (6, 7)
    assert find_conflict_set(net, Path.from_links(net, [0, 1, 3]), 10) \
        == {0, 1}
    empty = SubInstance(frozenset(), frozenset())
    assert ap_pulse_plus(net, 0, 3, 10, empty, []).cost == 3
    assert len(list(yen_ksp(net, 0, 3, net.weights("cost")))) == 4
    assert _larac(net, 0, 3, 2, min_cost, delay_tree.path_from(net, 0)) \
        == choose_lambda(net, query) > 0
    assert NO_LIMIT.phase is None and NO_LIMIT.at == INF
    assert (time.monotonic() >= 3600.0) == jump
    path, stats = solve_drcr(net, query)
    assert path.cost == 11 and stats.status == "optimal"
