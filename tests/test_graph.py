import pytest
from hypothesis import given, strategies as st

from drcr.graph import (
    INF,
    GraphFormatError,
    Link,
    Network,
    Path,
    build_forward_tree,
    build_reverse_tree,
    dump_network,
    is_elementary,
    load_network,
    srlgs_of_path,
)
from drcr.ksp import cost_ksp_drcr, delay_ksp_drcr, lagrangian_ksp_drcr, \
    srlg_ksp_drcr, srlg_lagrangian_ksp
from drcr.pulse import DrcrQuery, pulse_plus, solve_drcr
from drcr.srlg import SrlgDrcrQuery, cose_pulse_plus


def test_g1_shape(g1):
    assert g1.num_nodes == 4
    assert len(g1.links) == 4
    assert sum(l.delay for l in g1.links) == 6
    assert sum(l.cost for l in g1.links) == 12
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
    assert len(net.links) == 1
    assert net.links[0].srlgs == {3, 4}
    assert net.links[0].cost == 1 and net.links[0].delay == 2


def test_srlg_index_inverted(g3a):
    assert g3a.srlgs[0].links == {0, 3}
    assert g3a.srlgs[1].links == {1, 2}


def test_dump_load_roundtrip(g3b):
    again = load_network(dump_network(g3b))
    assert again.num_nodes == g3b.num_nodes
    assert again.links == g3b.links


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
    net = Network.build(6, links)
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
                 l.srlgs) for l in n.links]
    assert named(again) == named(net)


def drcr_query(src, dst):
    return DrcrQuery(src, dst, 0, 10)


def srlg_query(src, dst):
    return SrlgDrcrQuery(src, dst, 10, 10)


@pytest.mark.parametrize("solve, make", [
    (solve_drcr, drcr_query), (pulse_plus, drcr_query),
    (cost_ksp_drcr, drcr_query), (delay_ksp_drcr, drcr_query),
    (lagrangian_ksp_drcr, drcr_query), (cose_pulse_plus, srlg_query),
    (srlg_ksp_drcr, srlg_query), (srlg_lagrangian_ksp, srlg_query),
], ids=lambda v: getattr(v, "__name__", ""))
@pytest.mark.parametrize("src, dst", [(-1, 2), (3, 2), (0, -1), (0, 3)])
def test_entry_points_reject_out_of_range_endpoints(solve, make, src, dst):
    net = load_network("0,a,b,1,1,0\n1,b,c,1,1,1\n2,a,c,5,5,2\n")
    with pytest.raises(ValueError, match="out of range"):
        solve(net, make(src, dst))
