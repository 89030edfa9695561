import numpy as np
import pytest

from conftest import random_net
from drcr.costfn import compute_cost_functions
from drcr.graph import INF, load_network
from oracle import eval_cost_function


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
