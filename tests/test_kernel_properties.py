"""Property tests of the search kernel and the capped cost-function build
on oracle-sized multigraphs.

The generated nets have what ``conftest.random_net`` never produces: links
with zero delay or cost, parallel links, ``L = 0``, ``U`` equal to the delay
of some path, and ``delta = 0``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import multigraphs
import drcr.pulse
from drcr.costfn import compute_cost_functions, eval_cost_function
from drcr.graph import build_forward_tree, is_elementary
from drcr.oracle import (
    brute_cost_function,
    brute_drcr,
    brute_srlg_drcr,
    enumerate_elementary_paths,
    verify_conflict_set,
)
from drcr.pulse import DrcrQuery, PulseOptions, solve_drcr
from drcr.srlg import SrlgDrcrQuery, cose_pulse_plus


# No limit, a limit that has passed on entry, and limits short enough to
# pass in any layer of these small solves.
limits = st.one_of(st.none(), st.just(0.0), st.floats(1e-6, 2e-4))


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cose_matches_pair_oracle(data):
    net = data.draw(multigraphs(num_srlgs=4))
    U = data.draw(upper_bounds(net))
    q = SrlgDrcrQuery(0, net.num_nodes - 1, U,
                      data.draw(st.one_of(st.just(0), st.integers(0, 3))))
    expect = brute_srlg_drcr(net, q)
    pair, stats = cose_pulse_plus(net, q, time_limit=data.draw(limits))
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
        assert verify_conflict_set(net, q, cs.srlgs)
