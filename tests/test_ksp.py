import numpy as np
import pytest

import drcr.ksp
import drcr.pulse
from conftest import pair_instance, random_net
from drcr.graph import Deadline, SolveStats, lagrangian_weights, \
    load_network
from drcr.ksp import (
    _cheapest_first,
    choose_lambda,
    cost_ksp_drcr,
    delay_ksp_drcr,
    lagrangian_ksp_drcr,
    srlg_ksp_drcr,
    srlg_lagrangian_ksp,
    yen_ksp,
)
from drcr.pulse import DrcrQuery
from drcr.srlg import SrlgDrcrQuery
from oracle import brute_drcr, brute_srlg_drcr, enumerate_elementary_paths


def q(g, src, dst, L, U):
    return DrcrQuery(g.node_id(src), g.node_id(dst), L, U)


class TestYen:
    def test_cost_order_on_diamond(self, g1):
        paths = list(yen_ksp(g1, g1.node_id("s"), g1.node_id("t"),
                             g1.weights("cost")))
        assert [(p.cost, p.delay) for p in paths] == [(2, 2), (10, 4)]

    def test_delay_order_on_diamond(self, g1):
        paths = list(yen_ksp(g1, g1.node_id("s"), g1.node_id("t"),
                             g1.weights("delay")))
        assert [p.delay for p in paths] == [2, 4]

    def test_disconnected_yields_nothing(self):
        net = load_network("0,a,b,1,1,\n0,c,d,1,1,\n".replace("0,c", "1,c"))
        assert list(yen_ksp(net, 0, 3, net.weights("cost"))) == []

    def test_parallel_links_both_emitted(self):
        net = load_network("0,a,b,1,1,\n1,a,b,2,2,\n")
        paths = list(yen_ksp(net, 0, 1, net.weights("cost")))
        assert [p.links for p in paths] == [(0,), (1,)]

    def test_weights_non_decreasing_and_loopless(self):
        net = random_net(21, 8, 0.5)
        prev = -1.0
        paths = list(yen_ksp(net, 0, 7, lagrangian_weights(net, 0.7)))
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes)
            assert p.cost + 0.7 * p.delay >= prev - 1e-9
            prev = p.cost + 0.7 * p.delay

    def test_matches_brute_force_enumeration(self):
        net = random_net(22, 7, 0.5)
        expect = sorted(enumerate_elementary_paths(net, 0, 6),
                        key=lambda p: p.cost)
        got = list(yen_ksp(net, 0, 6, net.weights("cost")))
        assert len(got) == len(expect)
        assert [p.cost for p in got] == [p.cost for p in expect]
        assert sorted(p.links for p in got) == sorted(p.links for p in expect)


class TestCheapestFirst:
    # parallel s->t links (cost, delay): two in-range ties at cost 3 and a
    # cheaper link past U = 5
    TIES = "0,s,t,3,2,\n1,s,t,3,1,\n2,s,t,1,9,\n"

    @pytest.mark.parametrize("lam, first", [(0.0, (0,)), (0.5, (1,)),
                                            (None, (1,))])
    def test_equal_cost_returns_the_first_drawn(self, lam, first):
        net = load_network(self.TIES)
        weights = (net.weights("delay") if lam is None
                   else lagrangian_weights(net, lam))
        drawn = [p.links for p in yen_ksp(net, 0, 1, weights)
                 if p.delay <= 5 and p.cost == 3]
        assert drawn[0] == first and len(drawn) == 2
        path, stats = _cheapest_first(net, 0, 1, 0, 5, lam, SolveStats(),
                                      Deadline())
        assert path.links == first and stats.status == "optimal"

    def test_delay_order_counts_the_first_path_past_u(self):
        # delays 1, 2, 3: the second path is past U and ends the enumeration
        net = load_network("0,s,t,5,1,\n1,s,t,1,2,\n2,s,t,1,3,\n")
        path, stats = delay_ksp_drcr(net, DrcrQuery(0, 1, 0, 1))
        assert path.links == (0,) and stats.iterations == 2
        path, stats = delay_ksp_drcr(net, DrcrQuery(0, 1, 0, 3))
        assert path.links == (1,) and stats.iterations == 3


class TestCostKsp:
    def test_wide_range_first_hit(self, g1):
        p, stats = cost_ksp_drcr(g1, q(g1, "s", "t", 0, 10))
        assert p.cost == 2 and stats.iterations == 1

    def test_range_skips_cheapest(self, g1):
        p, stats = cost_ksp_drcr(g1, q(g1, "s", "t", 3, 5))
        assert p.cost == 10 and stats.iterations == 2

    def test_exhausts_to_infeasible(self, g1):
        p, stats = cost_ksp_drcr(g1, q(g1, "s", "t", 5, 6))
        assert p is None and stats.status == "infeasible"
        assert stats.iterations == 2


class TestDelayKsp:
    def test_mirrors_cost_ksp_on_diamond(self, g1):
        for L, U, cost in [(0, 10, 2), (3, 5, 10)]:
            p, _ = delay_ksp_drcr(g1, q(g1, "s", "t", L, U))
            assert p.cost == cost
        p, stats = delay_ksp_drcr(g1, q(g1, "s", "t", 5, 6))
        assert p is None and stats.status == "infeasible"


class TestChooseLambda:
    def test_mu_constant_when_ratios_equal(self, g3a):
        # every link has cost 1, delay 1
        res = choose_lambda(g3a, DrcrQuery(g3a.node_id("s"), g3a.node_id("t"),
                                           3, 3))
        assert res.mu == 1.0

    def test_dual_value_bounds_optimum(self, g1):
        query = q(g1, "s", "t", 3, 5)
        res = choose_lambda(g1, query)
        opt = brute_drcr(g1, query)[0]
        assert res.g_value <= opt + 1e-9

    def test_upper_case_interior(self):
        # min-cost path delay above U forces a positive multiplier
        net = load_network("0,s,t,1,9,\n1,s,a,5,1,\n2,a,t,5,1,\n")
        res = choose_lambda(net, DrcrQuery(0, 1, 0, 4))
        assert res.subcase == "upper"
        assert res.lambda_star >= 0
        assert res.g_value <= 10 + 1e-9

    def test_g_concave_and_bounded(self):
        from drcr.ksp import _dual_value, _min_weight_delay

        net = random_net(31, 8, 0.6)
        query = DrcrQuery(0, 7, 0, 12)
        opt = brute_drcr(net, query)
        rng = np.random.default_rng(0)
        lams = sorted(float(x) for x in rng.uniform(0, 50, size=20))

        def g(lam):
            w, _ = _min_weight_delay(net, 0, 7, lam)
            return _dual_value(w, lam, query.L, query.U)

        vals = [g(l) for l in lams]
        if opt is not None:
            assert all(v <= opt[0] + 1e-6 for v in vals)
        for a, b in zip(lams, lams[2:]):
            mid = (a + b) / 2
            assert g(a) + g(b) <= 2 * g(mid) + 1e-6

    def test_weights_stay_non_negative_at_minus_mu(self):
        net = random_net(32, 7, 0.6)
        ratios = [l.cost / l.delay for l in net.links if l.delay > 0]
        mu = min(ratios)
        w = lagrangian_weights(net, -mu)
        assert min(w) >= -1e-9


class TestLagrangianKsp:
    def test_diamond_examples(self, g1):
        p, _ = lagrangian_ksp_drcr(g1, q(g1, "s", "t", 3, 5))
        assert p.cost == 10
        p, _ = lagrangian_ksp_drcr(g1, q(g1, "s", "t", 0, 10))
        assert p.cost == 2
        p, stats = lagrangian_ksp_drcr(g1, q(g1, "s", "t", 5, 6))
        assert p is None and stats.status == "infeasible"

    def test_classifies_once(self, g1, monkeypatch):
        calls = []
        real = drcr.pulse.build_reverse_tree

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(drcr.pulse, "build_reverse_tree", counted)
        # a case-6 query: classified, then a multiplier is chosen
        p, _ = lagrangian_ksp_drcr(g1, q(g1, "s", "t", 3, 5))
        assert p.cost == 10
        assert sorted(calls) == ["cost", "delay"]

    def test_zero_limit_times_out_in_first_dijkstra(self, g1, g3b):
        _, stats = lagrangian_ksp_drcr(g1, q(g1, "s", "t", 3, 5), 0.0)
        assert stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"
        query = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        pair, stats = srlg_lagrangian_ksp(g3b, query, 0.0)
        assert pair is None and stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"

    def test_bisection_stops_once_limit_passes(self, monkeypatch):
        calls = []
        real = drcr.ksp.dijkstra

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(drcr.ksp, "dijkstra", counted)
        # degenerated: the ceiling binds and lambda is bisected on [0, big]
        net = load_network("0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n")
        query = DrcrQuery(0, 1, 0, 4)
        choose_lambda(net, query)
        assert len(calls) > 2
        calls.clear()
        deadline = Deadline(0.0)
        choose_lambda(net, query, deadline=deadline)
        assert deadline.phase == "graph.dijkstra"
        assert len(calls) == 2  # the bracket ends only

    def test_bisection_cut_short_chooses_no_lambda(self, limit_passes_in):
        net = load_network("0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n")
        limit_passes_in(drcr.ksp, "_bisect_lambda")
        path, stats = lagrangian_ksp_drcr(net, DrcrQuery(0, 1, 0, 4), 1.0)
        assert path is None and stats.status == "timeout"
        assert stats.lambda_value is None
        pair, stats = srlg_lagrangian_ksp(net, SrlgDrcrQuery(0, 1, 4, 1), 1.0)
        assert pair is None and stats.status == "timeout"
        assert stats.lambda_value is None

    @pytest.mark.parametrize("seed", range(20))
    def test_three_ksp_solvers_agree_with_oracle(self, seed):
        rng = np.random.default_rng(seed + 700)
        net = random_net(seed + 40, int(rng.integers(4, 9)), 0.5)
        for _ in range(3):
            s, t = rng.integers(0, net.num_nodes, size=2)
            if s == t:
                continue
            L = int(rng.integers(0, 25))
            query = DrcrQuery(int(s), int(t), L, L + int(rng.integers(0, 15)))
            expect = brute_drcr(net, query)
            for solver in (cost_ksp_drcr, delay_ksp_drcr, lagrangian_ksp_drcr):
                p, _ = solver(net, query)
                if expect is None:
                    assert p is None, (seed, query, solver.__name__)
                else:
                    assert p is not None and p.cost == expect[0], \
                        (seed, query, solver.__name__)


class TestSrlgKsp:
    @pytest.mark.parametrize("solver", ["cost", "delay", "lagrangian"])
    def test_trap_fixture_finds_escape_pair(self, g3b, solver):
        query = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        if solver == "lagrangian":
            pair, _ = srlg_lagrangian_ksp(g3b, query)
        else:
            pair, _ = srlg_ksp_drcr(g3b, query, solver)
        assert pair is not None
        assert pair.is_valid(g3b, query.U, query.delta)
        assert pair.active.cost == 11
        assert brute_srlg_drcr(g3b, query)[0] == 11

    def test_delay_order_backup_searches_run_cheapest_first(
            self, g3b, monkeypatch):
        tried = []
        real = drcr.ksp.backup_search

        def counted(net, active, *args):
            tried.append(active.cost)
            return real(net, active, *args)

        monkeypatch.setattr(drcr.ksp, "backup_search", counted)
        query = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        pair, _ = srlg_ksp_drcr(g3b, query, "delay")
        assert pair.active.cost == 11
        # after U, cheapest first: the two cost-3 actives through the trap
        # links fail, then the cost-11 escape pairs; none is tried twice
        assert tried == [3, 3, 11]

    @pytest.mark.parametrize("U", [1, -1])
    def test_lagrangian_u_below_min_delay_is_infeasible_at_once(self, g3b, U):
        # every A->F path has delay 2 or more
        query = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), U, 4)
        pair, stats = srlg_lagrangian_ksp(g3b, query)
        assert pair is None and stats.status == "infeasible"
        assert stats.iterations == 0 and stats.lambda_value is None

    def test_no_srlg_diamond_immediate(self, diamond):
        query = SrlgDrcrQuery(diamond.node_id("s"), diamond.node_id("t"), 5, 2)
        pair, stats = srlg_ksp_drcr(diamond, query, "cost")
        assert pair is not None and pair.active.cost == 2
        assert stats.iterations == 1

    def test_single_path_infeasible(self, limit_passes_in):
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,0\n")
        query = SrlgDrcrQuery(0, 2, 5, 5)
        solvers = (lambda: srlg_ksp_drcr(net, query, "cost", 1.0),
                   lambda: srlg_ksp_drcr(net, query, "delay", 1.0),
                   lambda: srlg_lagrangian_ksp(net, query, 1.0))
        for fn in solvers:
            pair, stats = fn()
            assert pair is None and stats.status == "infeasible"
        # the limit passes inside the only active's backup search, so the
        # search gave up and proved nothing
        limit_passes_in(drcr.ksp, "backup_search")
        for fn in solvers:
            pair, stats = fn()
            assert pair is None and stats.status == "timeout"
            assert stats.timeout_phase == "graph.dijkstra"

    @pytest.mark.parametrize("seed", range(60))
    def test_delay_order_finds_the_cheapest_pair(self, seed):
        # the first active in delay order that admits a backup need not be
        # the cheapest such active (seed 7: cost 19 against 7)
        net, query = pair_instance(seed)
        expect = brute_srlg_drcr(net, query)
        for pair, stats in (srlg_ksp_drcr(net, query, "delay"),
                            srlg_lagrangian_ksp(net, query)):
            if expect is None:
                assert pair is None and stats.status == "infeasible", seed
            else:
                assert stats.status == "optimal", seed
                assert pair is not None and pair.active.cost == expect[0], seed
                assert pair.is_valid(net, query.U, query.delta)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_pair_oracle(self, seed):
        net = random_net(seed + 80, 7, 0.5, max_srlgs=5)
        query = SrlgDrcrQuery(0, 6, 25, 6)
        expect = brute_srlg_drcr(net, query)
        for got, _ in (srlg_ksp_drcr(net, query, "cost"),
                       srlg_lagrangian_ksp(net, query)):
            if expect is None:
                assert got is None, seed
            else:
                assert got is not None and got.active.cost == expect[0], seed
                assert got.is_valid(net, query.U, query.delta)
