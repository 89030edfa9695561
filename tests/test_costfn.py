import numpy as np
import pytest

from conftest import Link, links_network, random_net
from drcr.costfn import compute_cost_functions
from drcr.graph import INF, load_network
from drcr.testgen import GenConfig, gen_drcr_query, gen_er_network
from oracle import eval_cost_function, reference_cost_functions


def test_destination_has_zero_pair(g1):
    t = g1.node_id("t")
    cf = compute_cost_functions(g1, g1.node_id("s"), t, 10)
    assert cf.delays[t][0] == 0 and cf.costs[t][0] == 0


def test_chain_single_pair():
    net = load_network("0,s,x,5,2,\n1,x,t,1,1,\n")
    x, t = net.node_id("x"), net.node_id("t")
    cf = compute_cost_functions(net, net.node_id("s"), t, 10)
    assert list(zip(cf.delays[x], cf.costs[x])) == [(1, 1)]
    assert eval_cost_function(cf, x, 0) == INF
    assert eval_cost_function(cf, x, 1) == 1


def test_dominated_pair_dropped(g1):
    s = g1.node_id("s")
    cf = compute_cost_functions(g1, s, g1.node_id("t"), 10)
    # the (4, 10) route is dominated by (2, 2)
    assert list(zip(cf.delays[s], cf.costs[s])) == [(2, 2)]


def test_pareto_shape_sorted():
    net = random_net(11, 8, 0.6)
    cf = compute_cost_functions(net, 0, 7, 25)
    for u in range(net.num_nodes):
        ds, cs = cf.delays[u], cf.costs[u]
        assert ds == sorted(ds)
        assert cs == sorted(cs, reverse=True)
        assert len(set(ds)) == len(ds)


def test_eval_examples():
    from drcr.costfn import CostFunction
    cf = CostFunction([[1, 4]], [[9, 2]])
    assert eval_cost_function(cf, 0, 3) == 9
    assert eval_cost_function(cf, 0, 0) == INF
    assert eval_cost_function(cf, 0, 99) == 2


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_walk_dp(self, seed):
        from oracle import brute_cost_function

        rng = np.random.default_rng(seed)
        net = random_net(seed + 500, int(rng.integers(3, 9)), 0.5, value_hi=6)
        s = 0
        t = net.num_nodes - 1
        U = int(rng.integers(5, 30))
        cf = compute_cost_functions(net, s, t, U)
        f = brute_cost_function(net, s, t, U)
        from drcr.graph import build_forward_tree
        fwd = build_forward_tree(net, s, "delay")
        for u in range(net.num_nodes):
            if fwd.dist[u] == INF:
                continue  # node cannot appear on any s-rooted branch
            # equality is guaranteed only for budgets a branch through u
            # can actually present, i.e. l <= U - min-delay(s->u)
            for l in range(int(U - fwd.dist[u]) + 1):
                assert eval_cost_function(cf, u, l) == f[u][l], (seed, u, l)


def random_multigraph(seed):
    """Seeded net of 3-10 nodes: each ordered node pair gets up to two
    parallel links, with delays and costs from 0 to 5, so zero-delay and
    zero-cost cycles occur."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    links = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            for _ in range(int(rng.choice(3, p=[0.5, 0.35, 0.15]))):
                links.append(Link(len(links), u, v, int(rng.integers(0, 6)),
                                  int(rng.integers(0, 6))))
    return links_network(n, links)


class TestSameListsAsPopTimeBuild:
    """The build keeps exactly the pairs, in the order, of the reference
    that tests dominance only when a pair pops."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed):
        net = random_multigraph(seed)
        rng = np.random.default_rng(seed + 900)
        s, t = 0, net.num_nodes - 1
        U = int(rng.integers(0, 25))
        for cap in (INF, int(rng.integers(0, 15))):
            cf = compute_cost_functions(net, s, t, U, cap=cap)
            ref = reference_cost_functions(net, s, t, U, cap=cap)
            assert (cf.delays, cf.costs) == (ref.delays, ref.costs), cap

    def test_generated_network(self):
        net = gen_er_network(GenConfig(n=300, p_mult=3, seed=31))
        for i, case in ((500, 4), (503, 6), (504, 4)):
            q = gen_drcr_query(net, i, case)
            for cap in (INF, 11, 14):
                cf = compute_cost_functions(net, q.src, q.dst, q.U, cap=cap)
                ref = reference_cost_functions(net, q.src, q.dst, q.U, cap=cap)
                assert (cf.delays, cf.costs) == (ref.delays, ref.costs), cap
