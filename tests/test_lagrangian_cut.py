"""The Lagrangian cut of ``solve_drcr`` and its cached distances.

A query whose ``U`` binds (cases 2 and 4) to a destination whose trees were
cached before it arrived searches with a second lower bound, ``dist_lam[u]
- lam * (U - dly)``, taken from a reverse tree on ``cost + lam * delay``
that the network caches next to its delay and cost trees.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import drcr.graph
import drcr.pulse
from conftest import multigraphs, random_net
from drcr.graph import (
    Network,
    build_reverse_tree,
    dijkstra,
    is_elementary,
    lagrangian_dist,
)
from drcr.pulse import (
    DrcrCase,
    DrcrQuery,
    PulseOptions,
    classify_case,
    lagrangian_cut,
    run_pulse_search,
    solve_drcr,
)
from oracle import brute_drcr, enumerate_elementary_paths

U_BINDS = (DrcrCase.DEGENERATED, DrcrCase.NON_TRIVIAL_4)

# multigraphs() has few s->t paths, and seldom one the cut removes; these
# denser random nets have many
dense_nets = st.builds(random_net, st.integers(0, 10**6), st.integers(7, 9),
                       st.sampled_from([0.4, 0.6]),
                       value_hi=st.integers(3, 10))


def u_binding(net, s, t):
    """A ``U`` that the min-delay s->t path meets and the min-cost one does
    not, if there is one (from trees built outside the cache)."""
    delay = dijkstra(net, t, net.weights("delay"), reverse=True).dist[s]
    cheap = dijkstra(net, t, net.weights("cost"), reverse=True
                     ).path_from(net, s)
    if cheap is None or cheap.delay <= delay:
        return st.integers(0, 30)
    return st.integers(int(delay), cheap.delay - 1)


def lagrangian_keys(net):
    return [key for key in net._trees if key[1] == "lagrangian"]


def assert_matches_oracle(net, q, p, stats):
    expect = brute_drcr(net, q)
    if expect is None:
        assert p is None and stats.status == "infeasible"
    else:
        assert stats.status == "optimal" and p.cost == expect[0]
        assert is_elementary(p) and q.L <= p.delay <= q.U
        assert (p.nodes[0], p.nodes[-1]) == (q.src, q.dst)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_repeated_queries_match_oracle(data):
    # Queries to one destination, each solved twice: the second solve of a
    # query whose U binds finds the destination's trees cached and runs
    # the Lagrangian cut.
    net = data.draw(dense_nets)
    t = net.num_nodes - 1
    queries = []
    for _ in range(data.draw(st.integers(1, 3))):
        s = data.draw(st.integers(0, t - 1))
        U = data.draw(u_binding(net, s, t))
        queries.append(DrcrQuery(s, t, data.draw(st.integers(0, U)), U))
    opts = data.draw(st.sampled_from([
        PulseOptions(), PulseOptions(ldf=False),
        PulseOptions(joint_pruning=True)]))
    budget = data.draw(st.sampled_from([drcr.pulse.PLAIN_BUDGET, 0, 3]))
    with mock.patch.object(drcr.pulse, "PLAIN_BUDGET", budget):
        for q in queries:
            for _ in range(2):
                repeat = bool(net._trees)
                p, stats = solve_drcr(net, q, opts)
                assert_matches_oracle(net, q, p, stats)
                case, _ = classify_case(net, q)
                if stats.lambda_value is not None:
                    assert repeat and case in U_BINDS
                    assert stats.lambda_value > 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_power_of_two_lambda_is_exact(data):
    # The bound holds for every lam >= 0, not only LARAC's: the kernel with
    # the cut finds the oracle's optimum for any power of two.
    net = data.draw(st.one_of(multigraphs(), dense_nets))
    t = net.num_nodes - 1
    U = data.draw(st.integers(0, 30))
    q = DrcrQuery(0, t, data.draw(st.integers(0, U)), U)
    lam = 2.0 ** data.draw(st.integers(-4, 4))
    p, stats = run_pulse_search(
        net, q.src, t, q.L, q.U, build_reverse_tree(net, t, "delay"),
        build_reverse_tree(net, t, "cost").dist,
        ldf=data.draw(st.booleans()),
        lagrangian=(lam, lagrangian_dist(net, t, lam)))
    assert_matches_oracle(net, q, p, stats)


def near_limit_net(pad: int) -> Network:
    """A case-4 net whose LARAC slope is just above 1/2, with a link
    ``t -> s`` (on no s->t path) of delay ``pad`` that sets the delay
    total.

    Link ``s -> t`` costs 1 at delay 2^51 + 1 (the min-cost path); ``s -> a
    -> t`` costs 2^50 + 1 at delay 3 (the min-delay path); ``s -> b -> t``
    costs 2^40 + 2 at delay 5 (the optimum for L = 4, U = 100).
    """
    ends = [(0, 3), (0, 1), (1, 3), (0, 2), (2, 3), (3, 0)]
    delays = [(1 << 51) + 1, 1, 2, 3, 2, pad]
    costs = [1, 1 << 50, 1, 1 << 40, 2, 0]
    src, dst = zip(*ends)
    return Network.build(4, src, dst, delays, costs)


def exact_lagrangian_dist(net, t, lam):
    """The least ``cost + lam * delay`` over each node's paths to ``t``,
    as fractions."""
    lam = Fraction(lam)
    return [min((p.cost + lam * p.delay for p in
                 enumerate_elementary_paths(net, u, t)), default=None)
            if u != t else 0 for u in range(net.num_nodes)]


def test_fractional_lambda_with_totals_near_2_53():
    q = DrcrQuery(0, 3, 4, 100)
    cost_total = 1 + (1 << 50) + 1 + (1 << 40) + 2
    base = near_limit_net(0)
    # 2 C << 1 + D is the largest sum the cut adds, in halves; the pad puts
    # it one below 2^53 and then at 2^53
    pad = (1 << 53) - 1 - (4 * cost_total + base.totals[0])
    for extra, runs in ((0, True), (1, False)):
        net = near_limit_net(pad + extra)
        assert net.totals[1] == cost_total
        assert (4 * cost_total + net.totals[0] < 1 << 53) == runs
        case, min_cost = classify_case(net, q)
        assert case is DrcrCase.NON_TRIVIAL_4
        cut = lagrangian_cut(net, q, min_cost)
        if runs:
            lam, dist = cut
            assert lam == 0.5
            assert [Fraction(d) for d in dist] == \
                exact_lagrangian_dist(net, 3, lam)
            assert any(Fraction(d).denominator == 2 for d in dist)
        else:
            assert cut is None
        for _ in range(2):
            p, stats = solve_drcr(net, q)
            assert stats.status == "optimal" and p.links == (3, 4)
            assert p.cost == (1 << 40) + 2
        assert stats.lambda_value == (0.5 if runs else None)


def case_4_net():
    """``s -> t`` costs 1 at delay 9; ``s -> a -> t`` costs 8 at delay 2;
    ``s -> b -> t`` costs 4 at delay 5."""
    return Network.build(4, [0, 0, 1, 0, 2], [3, 1, 3, 2, 3],
                         [9, 1, 1, 2, 3], [1, 4, 4, 2, 2])


CASE_4 = DrcrQuery(0, 3, 3, 6)  # slope (8 - 1) / (9 - 2) = 1


def test_first_visit_builds_no_lagrangian_tree():
    net = case_4_net()
    assert classify_case(net, CASE_4)[0] is DrcrCase.NON_TRIVIAL_4
    net._trees.clear()
    p, stats = solve_drcr(net, CASE_4)
    assert p.cost == 4 and stats.lambda_value is None
    assert not lagrangian_keys(net)
    p, stats = solve_drcr(net, CASE_4)
    assert p.cost == 4 and stats.lambda_value == 1.0
    assert lagrangian_keys(net) == [(3, "lagrangian", 1.0)]


def test_same_rounded_lambda_runs_no_dijkstra():
    net = case_4_net()
    for _ in range(2):
        solve_drcr(net, CASE_4)
    # U = 7 leaves the slope at 1: every tree is a cache hit
    with mock.patch.object(drcr.graph, "dijkstra",
                           side_effect=AssertionError("Dijkstra ran")):
        for q in (CASE_4, DrcrQuery(0, 3, 3, 7)):
            p, stats = solve_drcr(net, q)
            assert p.cost == 4 and stats.lambda_value == 1.0
    assert lagrangian_keys(net) == [(3, "lagrangian", 1.0)]


def test_expired_deadline_caches_no_lagrangian_tree(limit_passes_in):
    net = case_4_net()
    solve_drcr(net, CASE_4)  # caches the delay and cost trees
    # the only Dijkstra of the repeat is the Lagrangian tree's
    limit_passes_in(drcr.graph, "dijkstra")
    p, stats = solve_drcr(net, CASE_4, PulseOptions(time_limit=1.0))
    assert p is None and stats.status == "timeout"
    assert stats.timeout_phase == "graph.dijkstra"
    assert stats.lambda_value is None
    assert not lagrangian_keys(net)
    p, stats = solve_drcr(net, CASE_4)
    assert p.cost == 4 and stats.lambda_value == 1.0
    assert lagrangian_keys(net) == [(3, "lagrangian", 1.0)]
