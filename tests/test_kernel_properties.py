"""Property tests of the search kernel and the capped cost-function build
on oracle-sized multigraphs.

The generated nets have what ``conftest.random_net`` never produces: links
with zero delay or cost, parallel links, ``L = 0``, ``U`` equal to the delay
of some path, and ``delta = 0``.
"""

import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import multigraphs
import drcr.pulse
import drcr.srlg
from drcr.costfn import compute_cost_functions
from drcr.graph import (
    INF,
    build_forward_tree,
    build_reverse_tree,
    is_elementary,
    load_network,
    srlgs_of_path,
)
from drcr.pulse import DrcrQuery, PulseOptions, run_pulse_search, solve_drcr
from drcr.srlg import (
    SrlgDrcrQuery,
    SubInstance,
    ap_pulse_plus,
    cose_pulse_plus,
)
from oracle import (
    brute_cost_function,
    brute_drcr,
    brute_srlg_drcr,
    enumerate_elementary_paths,
    eval_cost_function,
    verify_conflict_set,
)


# No limit, a limit that has passed on entry, and limits short enough to
# pass in any layer of these small solves.
limits = st.one_of(st.none(), st.just(0.0), st.floats(1e-6, 2e-4))

PICKS = ("largest", "first-link")  # the Srlg pick rules of find_conflict_set


def upper_bounds(net):
    """U values that often equal an s->t path delay exactly."""
    delays = sorted({p.delay for p in
                     enumerate_elementary_paths(net, 0, net.num_nodes - 1)})
    exact = [st.sampled_from(delays)] if delays else []
    return st.one_of(*exact, st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_drcr_matches_oracle(data):
    net = data.draw(multigraphs())
    U = data.draw(upper_bounds(net))
    L = data.draw(st.one_of(st.just(0), st.integers(0, U)))
    q = DrcrQuery(0, net.num_nodes - 1, L, U)
    expect = brute_drcr(net, q)
    limit = data.draw(limits)
    # These nets never reach the default plain budget; the small budgets
    # send joint pruning through the capped cost-function build.
    runs = [(PulseOptions(time_limit=limit), drcr.pulse.PLAIN_BUDGET)]
    runs += [(PulseOptions(joint_pruning=True, time_limit=limit), b) for b in
             (drcr.pulse.PLAIN_BUDGET, 0, 1, data.draw(st.integers(2, 40)))]
    for opts, budget in runs:
        with mock.patch.object(drcr.pulse, "PLAIN_BUDGET", budget):
            p, stats = solve_drcr(net, q, opts)
        assert (stats.status == "timeout") == (stats.timeout_phase is not None)
        if p is not None:
            assert is_elementary(p) and L <= p.delay <= U
            assert (p.nodes[0], p.nodes[-1]) == (q.src, q.dst)
        if stats.status == "timeout":
            continue
        if expect is None:
            assert p is None and stats.status == "infeasible"
        else:
            assert stats.status == "optimal" and p.cost == expect[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_budgets_stop_the_search_where_it_stands(data):
    # Every budget up to the full count plus one stops the same walk after
    # that many pops, whether its delay cuts are taken at pop time or
    # settled at expansion.
    net = data.draw(multigraphs())
    t = net.num_nodes - 1
    U = data.draw(upper_bounds(net))
    L = data.draw(st.one_of(st.just(0), st.integers(0, U)))
    delay_tree = build_reverse_tree(net, t, "delay")
    cost_dist = build_reverse_tree(net, t, "cost").dist
    for ldf in (True, False):
        def search(budget=sys.maxsize):
            return run_pulse_search(net, 0, t, L, U, delay_tree, cost_dist,
                                    ldf=ldf, max_iterations=budget)[1]

        full = search()
        assert full.status in ("optimal", "infeasible")
        assert abs(full.searched_fraction - 1.0) <= 1e-9
        for budget in range(full.iterations + 2):
            stats = search(budget)
            assert stats.iterations == min(budget, full.iterations)
            assert (stats.status == "budget") == (budget < full.iterations)
            assert stats.best_cost_trace == [
                (i, c) for i, c in full.best_cost_trace if i <= budget]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_cost_functions_match_walk_dp_below_cap(data):
    net = data.draw(multigraphs())
    s, t = 0, net.num_nodes - 1
    U = data.draw(st.integers(0, 12))
    cap = data.draw(st.integers(0, 15))
    cf = compute_cost_functions(net, s, t, U, cap=cap)
    f = brute_cost_function(net, s, t, U)
    min_delay = build_forward_tree(net, s, "delay").dist
    min_cost = build_forward_tree(net, s, "cost").dist
    for u in range(net.num_nodes):
        for l in range(U + 1):
            got = eval_cost_function(cf, u, l)
            # a branch at u has cost >= min_cost[u] and a budget of at
            # most U - min_delay[u]; below the cap it must see exact values
            if l <= U - min_delay[u] and f[u][l] + min_cost[u] < cap:
                assert got == f[u][l], (u, l)
            else:
                assert got >= f[u][l], (u, l)


def extended_groups(net, p):
    """``p``'s real Srlgs plus the synthetic group ``-(id + 1)`` of each of
    its links."""
    return srlgs_of_path(net, p) | {-(lid + 1) for lid in p.links}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forced_links_match_brute_force(data):
    net = data.draw(multigraphs(num_srlgs=4))
    s, t = 0, net.num_nodes - 1
    U = data.draw(upper_bounds(net))
    paths = enumerate_elementary_paths(net, s, t)
    synthetic = [-(lid + 1) for lid in range(len(net.links))]
    # links into src or out of dst can never be on an elementary src->dst
    # path; forcing one must leave no path, whatever it disables
    ends = [-(l.id + 1) for l in net.links if l.dst == s or l.src == t]
    include: set[int] = set()
    exclude: set[int] = set()
    if paths:  # mostly links of one path, so that some path carries them
        on_path = data.draw(st.sampled_from(paths)).links
        include |= {-(lid + 1) for lid in data.draw(
            st.sets(st.sampled_from(on_path), min_size=1, max_size=3))}
    for pool in (synthetic, ends):  # at most one more link of each
        if pool:
            include |= data.draw(st.sets(st.sampled_from(pool), max_size=1))
    if synthetic:
        exclude |= data.draw(st.sets(st.sampled_from(synthetic),
                                     max_size=2)) - include
    groups = synthetic + sorted(net.srlgs)
    conflicts = [frozenset(g) for g in data.draw(st.lists(
        st.sets(st.sampled_from(groups), min_size=1, max_size=2),
        max_size=2))] if groups else []
    tmp_min = data.draw(st.one_of(st.just(INF), st.integers(0, 15)))
    expect = INF
    for p in paths:
        g = extended_groups(net, p)
        if p.delay <= U and include <= g and not exclude & g \
                and not any(cs <= g for cs in conflicts):
            expect = min(expect, p.cost)
    inst = SubInstance(frozenset(include), frozenset(exclude))
    p = ap_pulse_plus(net, s, t, U, inst, conflicts, tmp_min)
    if expect >= tmp_min:
        assert p is None
        return
    assert p is not None and p.cost == expect
    assert is_elementary(p) and (p.nodes[0], p.nodes[-1]) == (s, t)
    assert p.delay <= U
    assert {-r - 1 for r in include} <= set(p.links)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cose_matches_pair_oracle(data):
    net = data.draw(multigraphs(num_srlgs=4))
    U = data.draw(upper_bounds(net))
    q = SrlgDrcrQuery(0, net.num_nodes - 1, U,
                      data.draw(st.one_of(st.just(0), st.integers(0, 3))))
    expect = brute_srlg_drcr(net, q)
    for pick in PICKS:
        pair, stats = cose_pulse_plus(net, q, time_limit=data.draw(limits),
                                      pick=pick)
        assert (stats.status == "timeout") == (stats.timeout_phase is not None)
        if pair is not None:
            assert pair.is_valid(net, q.U, q.delta)
        if stats.status == "timeout":
            pass
        elif expect is None:
            assert pair is None and stats.status == "infeasible"
        else:
            assert stats.status == "optimal" and pair.active.cost == expect[0]
        for cs in stats.conflict_sets:
            assert verify_conflict_set(net, q, cs)


def assert_queue_bound(net, q):
    """Both pick rules: the root is solved first, and no child is solved
    once its key, the parent's active cost, has reached the incumbent."""
    for pick in PICKS:
        calls = []  # (sub-instance, tmp_min, active path or None)

        def recorded(net, src, dst, U, inst, conflicts, tmp_min, *args):
            p = ap_pulse_plus(net, src, dst, U, inst, conflicts, tmp_min,
                              *args)
            calls.append((inst, tmp_min, p))
            return p

        with mock.patch.object(drcr.srlg, "ap_pulse_plus", recorded):
            _pair, stats = cose_pulse_plus(net, q, pick=pick)
        assert stats.subinstances == len(calls)
        if not calls:
            continue
        root = calls[0][0]
        assert not root.include and not root.exclude and calls[0][1] == INF
        for k, (child, tmp_min, _p) in enumerate(calls[1:], 1):
            # The parent: solved before ``child``, which extends its
            # constraints by one exclusion taken from its active path.
            keys = [p.cost for inst, _m, p in calls[:k] if p is not None
                    and inst.include <= child.include
                    and inst.exclude <= child.exclude
                    and len(child.exclude - inst.exclude) == 1
                    and child.exclude - inst.exclude
                    <= extended_groups(net, p)]
            assert keys, (pick, k)
            assert min(keys) < tmp_min, (pick, k, keys, tmp_min)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cose_queue_bound(data):
    net = data.draw(multigraphs(num_srlgs=4))
    U = data.draw(upper_bounds(net))
    assert_queue_bound(net, SrlgDrcrQuery(0, net.num_nodes - 1, U,
                                          data.draw(st.integers(0, 3))))


def test_cose_queue_bound_skips_a_losing_subtree():
    # The root s-a-t (group 0 on s->a, group 1 on a->t) has conflict set
    # {0, 1}.  Its first child's path s-b-t (cost 3) has no backup and
    # branches; its second child's s-a-t via link 2 (cost 3) pairs with
    # s-c-t, so the first child's children, keyed 3, cannot win.
    net = load_network("0,s,a,1,1,0\n1,a,t,1,1,1\n2,a,t,2,1,\n"
                       "3,s,b,2,5,1\n4,b,t,1,5,\n5,s,c,3,1,1\n6,c,t,3,1,\n")
    q = SrlgDrcrQuery(0, net.node_id("t"), 20, 1)
    assert_queue_bound(net, q)
    pair, stats = cose_pulse_plus(net, q)
    assert pair.active.cost == 3 and stats.subinstances == 3
