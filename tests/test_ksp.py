import itertools
import time

import numpy as np
import pytest

import drcr.ksp
import drcr.pulse
from conftest import links_of, pair_instance, random_net
from drcr.graph import Deadline, Path, SolveStats, build_reverse_tree, \
    dijkstra, is_elementary, lagrangian_weights, load_network
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
from drcr.pulse import DrcrCase, DrcrQuery, PulseOptions, classify_case, \
    pulse_plus, solve_drcr
from drcr.srlg import SrlgDrcrQuery, cose_pulse_plus
from oracle import brute_drcr, brute_srlg_drcr, enumerate_elementary_paths


# s -> a -> t and s -> t, no link with delay
ZERO_DELAY_TEXT = "0,s,a,1,0,\n1,a,t,1,0,\n2,s,t,5,0,\n"


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


# s -> t (cost 1, delay 1) and s -> a -> t (cost 2, delay 4): a case-6
# query with L = 3 has mu = 1/2, and at -mu the slow path weighs least
FLOOR_TEXT = "0,s,t,1,1,\n1,s,a,1,2,\n2,a,t,1,2,\n"

# s -> t (cost 9, delay 1), s -> b -> t (4, 4) and s -> a -> t (2, 10): with
# U = 4, LARAC steps from slope 7/9 to 1/3, where s -> b -> t ties the ends
CEILING_TEXT = "0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n3,s,b,2,2,\n4,b,t,2,2,\n"


def dual_at(net, query, lam):
    """The dual bound of ``query`` at multiplier ``lam``: the least
    ``c + lam*d`` over s->t paths, less ``max(lam*L, lam*U)``."""
    path = dijkstra(net, query.src, lagrangian_weights(net, lam)).path_from(
        net, query.dst)
    return path.cost + lam * path.delay - max(lam * query.L, lam * query.U)


def count_dijkstras(monkeypatch):
    """A list that gains one entry per ``drcr.ksp.dijkstra`` call."""
    calls = []
    real = drcr.ksp.dijkstra

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(drcr.ksp, "dijkstra", counted)
    return calls


class TestChooseLambda:
    def test_mu_constant_when_ratios_equal(self, g3a):
        # every link has cost 1, delay 1: the floor binds at the -mu end
        lam = choose_lambda(g3a, DrcrQuery(g3a.node_id("s"),
                                           g3a.node_id("t"), 3, 3))
        assert lam == -1.0

    def test_dual_value_bounds_optimum(self, g1):
        query = q(g1, "s", "t", 3, 5)
        lam = choose_lambda(g1, query)
        opt = brute_drcr(g1, query)[0]
        assert dual_at(g1, query, lam) <= opt + 1e-9

    def test_upper_case_interior(self):
        # min-cost path delay above U forces a positive multiplier
        net = load_network("0,s,t,1,9,\n1,s,a,5,1,\n2,a,t,5,1,\n")
        query = DrcrQuery(0, 1, 0, 4)
        lam = choose_lambda(net, query)
        assert lam >= 0
        assert dual_at(net, query, lam) <= 10 + 1e-9

    def test_no_timed_link_gives_zero(self):
        # every delay is 0, so L = 1 binds but no multiplier can price it
        net = load_network(ZERO_DELAY_TEXT)
        query = DrcrQuery(0, 2, 1, 3)
        assert choose_lambda(net, query) == 0.0
        for solver in (lagrangian_ksp_drcr, cost_ksp_drcr):
            path, stats = solver(net, query)
            assert path is None and stats.status == "infeasible"
        path, stats = pulse_plus(net, query)
        assert path is None and stats.status == "infeasible"

    def test_g_concave_and_bounded(self):
        net = random_net(31, 8, 0.6)
        query = DrcrQuery(0, 7, 0, 12)
        opt = brute_drcr(net, query)
        rng = np.random.default_rng(0)
        lams = sorted(float(x) for x in rng.uniform(0, 50, size=20))

        def g(lam):
            return dual_at(net, query, lam)

        vals = [g(l) for l in lams]
        if opt is not None:
            assert all(v <= opt[0] + 1e-6 for v in vals)
        for a, b in zip(lams, lams[2:]):
            mid = (a + b) / 2
            assert g(a) + g(b) <= 2 * g(mid) + 1e-6

    def test_weights_stay_non_negative_at_minus_mu(self):
        net = random_net(32, 7, 0.6)
        ratios = [l.cost / l.delay for l in links_of(net) if l.delay > 0]
        mu = min(ratios)
        w = lagrangian_weights(net, -mu)
        assert min(w) >= -1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_lambda_maximizes_the_dual(self, seed):
        net = random_net(seed + 900, 8, 0.5)
        rng = np.random.default_rng(seed)
        timed = net.delay > 0
        mu = float((net.cost[timed] / net.delay[timed]).min())
        checked = set()
        for _ in range(60):
            s, t = (int(x) for x in rng.integers(0, net.num_nodes, size=2))
            if s == t:
                continue
            L = int(rng.integers(0, 20))
            query = DrcrQuery(s, t, L, L + int(rng.integers(0, 10)))
            case = classify_case(net, query)[0]
            if case in (DrcrCase.DEGENERATED, DrcrCase.NON_TRIVIAL_4):
                grid = np.linspace(0.0, net.totals[1] + 1.0, 61)
            elif case is DrcrCase.NON_TRIVIAL_6:
                grid = np.linspace(-mu, 0.0, 61)
            else:
                continue
            checked.add(case)
            best = dual_at(net, query, choose_lambda(net, query, case))
            for x in grid:
                g = dual_at(net, query, float(x))
                assert best >= g - 1e-9 * (1 + abs(g)), (query, x)
        assert checked  # every seed has a query whose bound binds


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

    def test_larac_stops_once_limit_passes(self, monkeypatch):
        calls = count_dijkstras(monkeypatch)
        # degenerated: the ceiling binds; the ends come off the cached trees
        net = load_network(CEILING_TEXT)
        query = DrcrQuery(0, 1, 0, 4)
        assert choose_lambda(net, query) == 1 / 3
        assert len(calls) == 2  # at 7/9, then at 1/3, where LARAC stops
        calls.clear()
        deadline = Deadline(0.0)
        choose_lambda(net, query, deadline=deadline)
        assert deadline.phase == "graph.dijkstra"
        assert len(calls) == 1  # cut short, it finds no path

    def test_larac_cut_short_chooses_no_lambda(self, limit_passes_in):
        net = load_network(CEILING_TEXT)
        limit_passes_in(drcr.ksp, "_larac")
        path, stats = lagrangian_ksp_drcr(net, DrcrQuery(0, 1, 0, 4), 1.0)
        assert path is None and stats.status == "timeout"
        assert stats.lambda_value is None
        pair, stats = srlg_lagrangian_ksp(net, SrlgDrcrQuery(0, 1, 4, 1), 1.0)
        assert pair is None and stats.status == "timeout"
        assert stats.lambda_value is None

    def test_floor_larac_from_the_minus_mu_path(self, monkeypatch):
        calls = count_dijkstras(monkeypatch)
        net = load_network(FLOOR_TEXT)
        query = DrcrQuery(0, 1, 3, 5)
        # at -1/2 the slow path (delay 4) weighs least; both paths weigh
        # 2/3 at -1/3, which maximizes the dual
        assert choose_lambda(net, query) == -1 / 3
        assert len(calls) == 2
        path, stats = lagrangian_ksp_drcr(net, query)
        assert path.cost == 2 and stats.lambda_value == -1 / 3

    def test_limit_passing_in_the_minus_mu_dijkstra(self, limit_passes_in):
        net = load_network(FLOOR_TEXT)
        query = DrcrQuery(0, 1, 3, 5)
        deadline = Deadline(0.0)
        lam = choose_lambda(net, query, deadline=deadline)
        assert isinstance(lam, float) and deadline.phase == "graph.dijkstra"
        # the first Dijkstra of drcr.ksp is the one at -mu
        limit_passes_in(drcr.ksp, "dijkstra")
        path, stats = lagrangian_ksp_drcr(net, query, 1.0)
        assert path is None and stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"
        assert stats.lambda_value is None

    def test_rounding_below_zero_at_minus_mu(self):
        # case 6 with mu = 10^6/7: at -mu, c - mu*d rounds to about -1.2e-10
        net = load_network("0,s,t,1000000,7,\n1,s,a,1000000,7,\n"
                           "2,a,t,1000000,7,\n")
        query = DrcrQuery(0, 1, 10, 20)
        assert classify_case(net, query)[0] is DrcrCase.NON_TRIVIAL_6
        expect, _ = cost_ksp_drcr(net, query)
        path, stats = lagrangian_ksp_drcr(net, query)
        assert stats.status == "optimal" and path.cost == expect.cost == 2000000

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


def sweep_limits(monkeypatch, solve):
    """The result of ``solve(None)``, then of ``solve(k)`` for every limit
    ``k`` from 0 to one past the clock reads of ``solve(None)``, on a
    ``time.monotonic`` that advances one unit per read."""
    clock = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
    start = next(clock)
    unlimited = solve(None)
    reads = next(clock) - start - 1
    return unlimited, [solve(float(k)) for k in range(reads + 2)]


def check_path(net, path, src, dst):
    """``path`` is an elementary src->dst path whose sums match its links."""
    assert path == Path.from_links(net, path.links) and is_elementary(path)
    assert (path.nodes[0], path.nodes[-1]) == (src, dst)


def sweep_runner(fresh, solve, warm):
    """``run(limit)``, which returns ``solve(net, limit)`` on a ``fresh()``
    network, and ``after``, the unlimited solves that follow each limited
    one on its network, which a cut-short tree left in the cache would
    change.  With ``warm``, an odd limit runs after an unlimited warm-up
    solve, so that it also passes in the phases of a solve that finds its
    trees cached; the unlimited run is warmed too, so that a sweep's limits
    reach past the clock reads of a cold solve and of a warm one."""
    after = []

    def run(limit):
        net = fresh()
        if warm and (limit is None or limit % 2):
            solve(net, None)
        result = solve(net, limit)
        if limit is not None:
            after.append(solve(net, None))
        return result
    return run, after


def drcr_sweep_instance(seed):
    """A maker of fresh copies of a seeded 7-node net, and its first
    U-binding and first L-binding query."""
    def fresh():
        return random_net(seed + 950, 7, 0.5)

    rng = np.random.default_rng(seed + 960)
    queries = {}
    for _ in range(200):
        s, t = (int(x) for x in rng.integers(0, 7, size=2))
        L = int(rng.integers(0, 20))
        if s != t:
            query = DrcrQuery(s, t, L, L + int(rng.integers(0, 10)))
            case = classify_case(fresh(), query)[0]
            if case in (DrcrCase.DEGENERATED, DrcrCase.NON_TRIVIAL_4,
                        DrcrCase.NON_TRIVIAL_6):
                queries.setdefault(case is DrcrCase.NON_TRIVIAL_6, query)
    assert len(queries) == 2
    return fresh, [queries[False], queries[True]]


def check_drcr_sweep(fresh, query, unlimited, runs, after):
    """Each run of a DRCR sweep is proven as the unlimited solve is, or a
    timeout that names a phase; every path returned is valid and no
    cheaper than the oracle's optimum.  Each solve ``after`` one is proven
    as the unlimited one."""
    expect = brute_drcr(fresh(), query)
    best, proven = unlimited
    assert proven.status == ("optimal" if expect else "infeasible")
    cost = None if best is None else best.cost
    assert cost == (expect and expect[0])
    assert runs[0][1].status == "timeout"
    assert runs[-1][1].status == proven.status
    assert len(after) == len(runs)
    for path, stats in after:
        assert (stats.status, None if path is None else path.cost) \
            == (proven.status, cost)
    for path, stats in runs:
        if stats.status == "timeout":
            assert stats.timeout_phase is not None
        else:
            assert stats.status == proven.status
            assert (None if path is None else path.cost) == cost
        if path is not None:
            check_path(fresh(), path, query.src, query.dst)
            assert query.L <= path.delay <= query.U
            assert path.cost >= expect[0]


def srlg_sweep_instance(seed):
    """A maker of fresh copies of a seeded 8-node Srlg net, and a ``0 ->
    7`` query whose ``U`` lies between the min-delay path's delay and the
    min-cost path's."""
    def fresh():
        return random_net(seed + 1300, 8, 0.5, max_srlgs=4)

    net, rng = fresh(), np.random.default_rng(seed + 1400)
    min_delay = build_reverse_tree(net, 7, "delay").dist[0]
    min_cost = build_reverse_tree(net, 7, "cost").path_from(net, 0)
    assert min_delay < min_cost.delay
    return fresh, SrlgDrcrQuery(0, 7, int(rng.integers(min_delay,
                                                       min_cost.delay)),
                                int(rng.integers(0, 7)))


def check_srlg_sweep(fresh, query, unlimited, runs, after):
    """:func:`check_drcr_sweep` for a pair solver: every pair returned is
    valid and its active path no cheaper than the oracle's."""
    net, (best, proven) = fresh(), unlimited
    expect = brute_srlg_drcr(net, query)
    assert proven.status == ("optimal" if expect else "infeasible")
    assert runs[0][1].status == "timeout"
    assert runs[-1][1].status == proven.status
    assert len(after) == len(runs)
    for pair, stats in after:
        assert (stats.status, None if pair is None else pair.active.cost) \
            == (proven.status, None if best is None else best.active.cost)
    for pair, stats in runs:
        if stats.status == "timeout":
            assert stats.timeout_phase is not None
        else:
            assert stats.status == proven.status
            assert (None if pair is None else pair.active.cost) \
                == (None if best is None else best.active.cost)
        if pair is not None:
            for path in (pair.active, pair.backup):
                check_path(net, path, query.src, query.dst)
            assert pair.is_valid(net, query.U, query.delta)
            assert pair.active.cost >= expect[0]


class TestTimeLimitSweep:
    """A limit that passes at any clock read leaves a solve either proven
    as without a limit or timed out with a valid answer."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lagrangian_ksp(self, monkeypatch, seed):
        fresh, queries = drcr_sweep_instance(seed)
        for query in queries:
            run, after = sweep_runner(fresh, lambda net, limit:
                                      lagrangian_ksp_drcr(net, query, limit),
                                      warm=False)
            check_drcr_sweep(fresh, query, *sweep_limits(monkeypatch, run),
                             after)

    @pytest.mark.parametrize("solver", [cost_ksp_drcr, delay_ksp_drcr],
                             ids=["cost", "delay"])
    @pytest.mark.parametrize("seed", range(6))
    def test_drcr_ksp(self, monkeypatch, seed, solver):
        fresh, queries = drcr_sweep_instance(seed)
        for query in queries:
            run, after = sweep_runner(fresh, lambda net, limit:
                                      solver(net, query, limit), warm=False)
            check_drcr_sweep(fresh, query, *sweep_limits(monkeypatch, run),
                             after)

    @pytest.mark.parametrize("seed", range(6))
    def test_pulse_plus_link_order(self, monkeypatch, seed):
        fresh, queries = drcr_sweep_instance(seed)
        for query in queries:
            run, after = sweep_runner(fresh, lambda net, limit: pulse_plus(
                net, query, PulseOptions(ldf=False, time_limit=limit)),
                warm=True)
            check_drcr_sweep(fresh, query, *sweep_limits(monkeypatch, run),
                             after)

    @pytest.mark.parametrize("joint", [False, True], ids=["plain", "joint"])
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_drcr(self, monkeypatch, seed, joint):
        # a budget this low sends every search of a joint run through the
        # cost-function build
        monkeypatch.setattr(drcr.pulse, "PLAIN_BUDGET", 2)
        fresh, queries = drcr_sweep_instance(seed)
        for query, u_binds in zip(queries, (True, False)):
            run, after = sweep_runner(fresh, lambda net, limit: solve_drcr(
                net, query, PulseOptions(joint_pruning=joint,
                                         time_limit=limit)), warm=True)
            unlimited, runs = sweep_limits(monkeypatch, run)
            check_drcr_sweep(fresh, query, unlimited, runs, after)
            # the warm solve of the U-binding query takes the Lagrangian cut
            assert (unlimited[1].lambda_value is not None) == u_binds
            assert (unlimited[1].cf_build_us > 0) == joint

    # seeds whose relaxed query binds at U, so that LARAC runs: four with
    # a pair and one proven infeasible after 22 iterations (in 0.9 s; the
    # other infeasible ones below seed 30 take up to 52 s to sweep)
    @pytest.mark.parametrize("seed", [5, 10, 11, 12, 28])
    def test_srlg_lagrangian_ksp(self, monkeypatch, seed):
        fresh, query = srlg_sweep_instance(seed)
        run, after = sweep_runner(fresh, lambda net, limit:
                                  srlg_lagrangian_ksp(net, query, limit),
                                  warm=False)
        unlimited, runs = sweep_limits(monkeypatch, run)
        check_srlg_sweep(fresh, query, unlimited, runs, after)
        assert unlimited[1].lambda_value > 0

    # the seeds above with a pair: on seed 11, srlg-cost-ksp would draw
    # every path within U before it proves there is none
    @pytest.mark.parametrize("order", ["cost", "delay"])
    @pytest.mark.parametrize("seed", [5, 10, 12, 28])
    def test_srlg_ksp(self, monkeypatch, seed, order):
        fresh, query = srlg_sweep_instance(seed)
        run, after = sweep_runner(fresh, lambda net, limit:
                                  srlg_ksp_drcr(net, query, order, limit),
                                  warm=False)
        unlimited, runs = sweep_limits(monkeypatch, run)
        check_srlg_sweep(fresh, query, unlimited, runs, after)
        assert unlimited[0] is not None

    @pytest.mark.parametrize("seed", [5, 10, 11, 12, 28])
    def test_cose_pulse_plus(self, monkeypatch, seed):
        fresh, query = srlg_sweep_instance(seed)
        run, after = sweep_runner(fresh, lambda net, limit:
                                  cose_pulse_plus(net, query, limit),
                                  warm=True)
        check_srlg_sweep(fresh, query, *sweep_limits(monkeypatch, run),
                         after)
