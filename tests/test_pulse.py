import itertools
import time

import numpy as np
import pytest

import drcr.pulse
from conftest import G3B_TEXT, random_net
from drcr.graph import (
    INF,
    Deadline,
    Network,
    build_reverse_tree,
    is_elementary,
    load_network,
)
from drcr.pulse import (
    DrcrCase,
    DrcrQuery,
    PulseOptions,
    classify_case,
    ldf_sorted,
    pulse_plus,
    run_pulse_search,
    solve_drcr,
)
from drcr.srlg import SubInstance, ap_pulse_plus, backup_search
from drcr.testgen import GenConfig, gen_drcr_query, gen_er_network
from oracle import brute_drcr


def q(g, src, dst, L, U):
    return DrcrQuery(g.node_id(src), g.node_id(dst), L, U)


class TestClassify:
    def test_upper_below_min_delay(self, g1):
        case, p = classify_case(g1, q(g1, "s", "t", 0, 1))
        assert case is DrcrCase.INFEASIBLE and p is None

    def test_wide_range_returns_min_cost(self, g1):
        case, p = classify_case(g1, q(g1, "s", "t", 0, 10))
        assert case is DrcrCase.TRIVIAL_MIN_COST
        assert p.cost == 2 and p.links == (0, 1)

    def test_lower_above_min_cost_delay(self, g1):
        case, p = classify_case(g1, q(g1, "s", "t", 3, 5))
        assert case is DrcrCase.NON_TRIVIAL_6 and not case.trivial
        assert p.links == (0, 1)  # the min-cost path, delay 2 < L

    def test_degenerated(self):
        # min-delay path fits, min-cost path violates U
        net = load_network("0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n")
        case, p = classify_case(net, DrcrQuery(0, 1, 0, 4))
        assert case is DrcrCase.DEGENERATED and not case.trivial
        assert p.links == (1, 2) and p.delay == 10  # the min-cost path

    def test_case_4(self):
        net = load_network("0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n")
        case, _ = classify_case(net, DrcrQuery(0, 1, 2, 4))
        assert case is DrcrCase.NON_TRIVIAL_4

    def test_case_5(self):
        # d_min_delay < L <= d_min_cost <= U
        net = load_network("0,s,t,9,1,\n1,s,a,1,5,\n2,a,t,1,5,\n")
        case, p = classify_case(net, DrcrQuery(0, 1, 2, 10))
        assert case is DrcrCase.TRIVIAL_MIN_COST_5
        assert p.cost == 2 and p.delay == 10


class TestPulse:
    def test_range_forces_dear_path(self, g1):
        p, stats = pulse_plus(g1, q(g1, "s", "t", 3, 5))
        assert (p.cost, p.delay) == (10, 4)
        assert stats.status == "optimal"

    def test_empty_delay_window(self, g1):
        p, stats = pulse_plus(g1, q(g1, "s", "t", 5, 6))
        assert p is None and stats.status == "infeasible"

    def test_non_elementary_walk_rejected(self, g2):
        p, _ = pulse_plus(g2, q(g2, "A", "E", 8, 8))
        assert p.cost == 8
        assert is_elementary(p)

    def test_searched_fraction_completes_to_one(self, g2):
        _, stats = pulse_plus(g2, q(g2, "A", "E", 8, 8))
        assert stats.searched_fraction == pytest.approx(1.0, abs=1e-6)

    def test_timeout_reported_distinctly(self):
        net = random_net(3, 15, 1.0)
        query = DrcrQuery(0, 14, 60, 80)
        _, stats = pulse_plus(net, query, PulseOptions(time_limit=0.0))
        assert stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"

    def test_limit_passing_in_tree_build_times_out(self, g1, limit_passes_in):
        limit_passes_in(drcr.pulse, "build_reverse_tree")
        p, stats = solve_drcr(g1, q(g1, "s", "t", 3, 5),
                              PulseOptions(time_limit=1.0))
        assert p is None and stats.status == "timeout"
        assert stats.timeout_phase == "graph.dijkstra"

    def test_determinism(self, g1):
        runs = [pulse_plus(g1, q(g1, "s", "t", 3, 5)) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].iterations == runs[1][1].iterations

    def test_best_cost_trace_improves(self, g1):
        _, stats = pulse_plus(g1, q(g1, "s", "t", 0, 10))
        costs = [c for _, c in stats.best_cost_trace]
        assert costs == sorted(costs, reverse=True)

    def test_elapsed_covers_tree_builds(self, g1, monkeypatch):
        real = drcr.pulse.build_reverse_tree

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(drcr.pulse, "build_reverse_tree", slow)
        p, stats = solve_drcr(g1, q(g1, "s", "t", 0, 10))
        assert p is not None and stats.status == "optimal"
        assert stats.elapsed_us >= 40_000

    def test_joint_pruning_builds_only_past_plain_budget(self, monkeypatch):
        caps = []
        real = drcr.pulse.compute_cost_functions

        def counted(*args, cap, **kwargs):
            caps.append(cap)
            return real(*args, cap=cap, **kwargs)

        monkeypatch.setattr(drcr.pulse, "compute_cost_functions", counted)
        net = gen_er_network(GenConfig(n=300, p_mult=3, seed=31))
        opts = PulseOptions(joint_pruning=True)
        # the plain search finishes this one within its budget
        _, stats = pulse_plus(net, gen_drcr_query(net, 500, 4), opts)
        assert caps == [] and stats.cf_build_us == 0
        # this one needs 2361 plain iterations: the build is capped at the
        # plain phase's incumbent, which the joint phase then improves on
        p, stats = pulse_plus(net, gen_drcr_query(net, 503, 6), opts)
        assert stats.status == "optimal" and p.cost == 11
        budget = drcr.pulse.PLAIN_BUDGET
        plain = [c for i, c in stats.best_cost_trace if i <= budget]
        assert caps == [plain[-1]] and p.cost < caps[0] < INF
        # stamps run on from the plain phase into the joint phase
        stamps = [i for i, _ in stats.best_cost_trace]
        costs = [c for _, c in stats.best_cost_trace]
        assert stamps == sorted(stamps)
        assert budget < stamps[-1] <= stats.iterations
        assert costs == sorted(set(costs), reverse=True) and costs[-1] == 11


# (status, cost, iterations, searched_fraction) for six case-4/6 queries
# under LDF, link order, LDF + joint pruning with the plain phase skipped
# (PLAIN_BUDGET = 0: one uncapped cost-function build, then the joint-cut
# search) and LDF + joint pruning in its default two phases.  Criteria 6
# and 7 compare iteration counts only as ratios; these exact figures change
# whenever the egress order, the pop order or the plain budget does.
PINNED = [
    [("optimal", 9, 710, 0.9999999999999998),
     ("optimal", 9, 1571, 0.9999999999999999),
     ("optimal", 9, 416, 0.9999999999999998),
     ("optimal", 9, 710, 0.9999999999999998)],
    [("optimal", 7, 744, 1.0),
     ("optimal", 7, 2010, 1.0000000000000013),
     ("optimal", 7, 544, 1.0),
     ("optimal", 7, 744, 1.0)],
    [("optimal", 10, 364, 1.0000000000000004),
     ("optimal", 10, 380, 0.9999999999999983),
     ("optimal", 10, 151, 1.0000000000000013),
     ("optimal", 10, 364, 1.0000000000000004)],
    [("optimal", 11, 2361, 0.9999999999999998),
     ("optimal", 11, 1436, 0.9999999999999991),
     ("optimal", 11, 712, 0.9999999999999998),
     ("optimal", 11, 1342, 0.9999999999999998)],
    [("optimal", 8, 1014, 1.000000000000002),
     ("optimal", 8, 421, 1.0000000000000002),
     ("optimal", 8, 515, 1.000000000000002),
     ("optimal", 8, 1014, 1.000000000000002)],
    [("optimal", 7, 3559, 0.9999999999999923),
     ("optimal", 7, 2670, 0.9999999999999966),
     ("optimal", 7, 750, 0.999999999999996),
     ("optimal", 7, 1431, 0.9999999999999958)],
]


def test_search_order_pinned(monkeypatch):
    net = gen_er_network(GenConfig(n=300, p_mult=3, seed=31))
    default = drcr.pulse.PLAIN_BUDGET
    configs = ((PulseOptions(), default), (PulseOptions(ldf=False), default),
               (PulseOptions(joint_pruning=True), 0),
               (PulseOptions(joint_pruning=True), default))
    for i, expect in enumerate(PINNED):
        query = gen_drcr_query(net, 500 + i, 4 if i % 2 == 0 else 6)
        got = []
        for opts, budget in configs:
            monkeypatch.setattr(drcr.pulse, "PLAIN_BUDGET", budget)
            p, stats = pulse_plus(net, query, opts)
            got.append((stats.status, p.cost, stats.iterations,
                        stats.searched_fraction))
        assert got == expect, i


def ldf_links(net, src, dst):
    """Link ids of ``src``'s egress rows in the order the LDF search sorts
    them when it expands ``src`` on a search towards ``dst``."""
    tree = build_reverse_tree(net, net.node_id(dst), "delay")
    rows = ldf_sorted(net.egress[net.node_id(src)], tree.dist)
    return [lid for _, _, _, lid in rows]


class TestLdfOrder:
    def test_sorted_by_remaining_delay(self):
        # three egress links from s with w(e) = 7, 3, 9
        net = load_network(
            "0,s,a,1,6,\n1,a,t,1,1,\n"
            "2,s,b,1,2,\n3,b,t,1,1,\n"
            "4,s,c,1,8,\n5,c,t,1,1,\n")
        assert ldf_links(net, "s", "t") == [2, 0, 4]

    def test_tie_breaks_by_link_id(self):
        net = load_network("0,s,a,1,1,\n1,s,b,1,1,\n2,a,t,1,1,\n3,b,t,1,1,\n")
        assert ldf_links(net, "s", "t") == [0, 1]

    def test_unreachable_head_placed_last(self):
        net = load_network("0,s,x,1,1,\n1,s,a,1,1,\n2,a,t,1,1,\n")
        assert ldf_links(net, "s", "t") == [1, 0]


def fan_net(width=1500):
    """``s`` (node 0) with ``width`` parallel links to ``x`` (node 2), which
    has no out-link, and one link to ``t`` (node 1), all of delay 1.

    LDF sorts ``s -> t`` first and the fan last, so expanding ``s`` leaves
    one delay-cut tail of ``width`` children: with a full search the pops
    run 1 (``s``), 2-1501 (the fan) and 1502 (``t``), across a small budget
    and the 1024-pop deadline stride.
    """
    ones = [1] * (width + 1)
    return Network.build(3, [0] * (width + 1), [2] * width + [1], ones, ones)


def fan_search(**kwargs):
    net = fan_net()
    path, stats = run_pulse_search(
        net, 0, 1, 0, 5, build_reverse_tree(net, 1, "delay"),
        build_reverse_tree(net, 1, "cost").dist, **kwargs)
    return (stats.status, stats.iterations, stats.searched_fraction,
            stats.best_cost_trace, path and path.links)


FAN_DONE = 1.0000000000000242  # 1501 shares of 1/1501, one at a time


class TestSettledTail:
    """The delay-cut tail settled at expansion counts exactly as the pops
    of a pushed tail did (figures recorded with a kernel that pushes every
    child)."""

    def test_full_search(self):
        assert fan_search() == ("optimal", 1502, FAN_DONE, [(1502, 1)],
                                (1500,))
        # link order pushes the fan first: t pops second, the fan after it
        assert fan_search(ldf=False) == ("optimal", 1502, FAN_DONE,
                                         [(2, 1)], (1500,))

    @pytest.mark.parametrize("budget, fraction", [
        (700, 0.46568954030645854),
        (1024, 0.6815456362425109),
        (1025, 0.682211858760832),
        (1100, 0.7321785476349189),
        (1501, 0.9993337774817032),
    ])
    def test_budget_inside_the_tail(self, budget, fraction):
        got = fan_search(max_iterations=budget)
        assert got == ("budget", budget, fraction, [], None)
        # an unexpired deadline is checked at pop 1025 on the way
        got = fan_search(max_iterations=budget, deadline=Deadline(3600.0))
        assert got == ("budget", budget, fraction, [], None)

    def test_budget_past_the_tail(self):
        assert fan_search(max_iterations=1502) == fan_search()

    def test_limit_passing_inside_the_tail(self, limit_passes_in):
        # the clock jumps while s is expanded, after the check at pop 1
        limit_passes_in(drcr.pulse, "ldf_sorted")
        p, stats = pulse_plus(fan_net(), DrcrQuery(0, 1, 0, 5),
                              PulseOptions(time_limit=1.0))
        assert p is None and stats.status == "timeout"
        assert stats.timeout_phase == "pulse.search"
        assert (stats.iterations, stats.searched_fraction) == \
            (1025, 0.6815456362425109)
        # a budget that falls first stops the search before pop 1025
        got = fan_search(max_iterations=700, deadline=Deadline(1.0))
        assert got == ("budget", 700, 0.46568954030645854, [], None)
        deadline = Deadline(1.0)
        got = fan_search(max_iterations=1100, deadline=deadline)
        assert got == ("infeasible", 1025, 0.6815456362425109, [], None)
        assert deadline.phase == "pulse.search"


def search_figures(path, stats):
    return (stats.status, path and path.links, stats.iterations,
            stats.searched_fraction, stats.best_cost_trace)


class TestEgressOrderMemo:
    def test_solve_order_does_not_matter(self, monkeypatch):
        def net():
            return gen_er_network(GenConfig(n=300, p_mult=3, seed=31))

        first = gen_drcr_query(net(), 503, 6)
        other = gen_drcr_query(net(), 501, 4).src
        second = DrcrQuery(other, first.dst, first.L, first.U)
        fresh = [search_figures(*pulse_plus(net(), q))
                 for q in (first, second)]
        assert first.src != other and fresh[0] != fresh[1]
        for queries in ((first, second), (second, first)):
            shared = net()
            got = [search_figures(*pulse_plus(shared, q)) for q in queries]
            if queries[0] is second:
                got.reverse()
            assert got == fresh
        # a repeated destination sorts each node once
        sorts = []
        real = drcr.pulse.ldf_sorted

        def counted(*args):
            sorts.append(args[0])
            return real(*args)

        monkeypatch.setattr(drcr.pulse, "ldf_sorted", counted)
        assert search_figures(*pulse_plus(shared, first)) == fresh[0]
        assert sorts == []

    def test_masked_trees_keep_their_own_memo(self):
        net = load_network(G3B_TEXT)
        src, dst = net.node_id("A"), net.node_id("F")
        cached = build_reverse_tree(net, dst, "delay")
        rows = cached.egress_order
        # a masked sub-instance search and a masked backup search
        exclude = SubInstance(frozenset(), frozenset({0}))
        active = ap_pulse_plus(net, src, dst, 10, exclude, [])
        assert active is not None and active.cost == 11
        assert backup_search(net, active, 10, 1) is not None
        assert rows == [None] * net.num_nodes  # never filled
        masked = build_reverse_tree(net, dst, "delay", disabled={0})
        assert masked.egress_order == [None] * net.num_nodes
        pulse_plus(net, DrcrQuery(src, dst, 0, 10))
        assert rows[src] == ldf_sorted(net.egress[src], cached.dist)
        assert build_reverse_tree(net, dst, "delay") is cached
        masked = build_reverse_tree(net, dst, "delay", disabled={0})
        assert masked.egress_order == [None] * net.num_nodes


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed, monkeypatch):
        # These nets never reach the default plain budget; budgets 0 and 1
        # send joint pruning through the cost-function build, and 8 often
        # builds it capped at a plain-phase incumbent.
        budgets = (drcr.pulse.PLAIN_BUDGET, 0, 1, 8)
        rng = np.random.default_rng(seed + 9000)
        net = random_net(seed, int(rng.integers(4, 10)),
                         float(rng.choice([0.3, 0.5, 0.8])))
        for _ in range(4):
            s, t = rng.integers(0, net.num_nodes, size=2)
            if s == t:
                continue
            L = int(rng.integers(0, 30))
            U = L + int(rng.integers(0, 20))
            query = DrcrQuery(int(s), int(t), L, U)
            expect = brute_drcr(net, query)
            runs = [(ldf, False, budgets[0]) for ldf in (True, False)]
            runs += itertools.product((True, False), (True,), budgets)
            for ldf, jp, budget in runs:
                monkeypatch.setattr(drcr.pulse, "PLAIN_BUDGET", budget)
                p, stats = solve_drcr(net, query,
                                      PulseOptions(ldf=ldf, joint_pruning=jp))
                if expect is None:
                    assert p is None, (seed, query, budget)
                    assert stats.status == "infeasible"
                else:
                    assert p is not None and p.cost == expect[0], \
                        (seed, query, budget)
                    assert stats.status == "optimal"
                    assert is_elementary(p)
                    assert L <= p.delay <= U
