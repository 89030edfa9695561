import pytest

import drcr.srlg
from conftest import links_network, pair_instance
from drcr.graph import Link, Network, Path, load_network, srlgs_of_path
from drcr.srlg import (
    PathPair,
    SrlgDrcrQuery,
    SubInstance,
    ap_pulse_plus,
    backup_search,
    cose_pulse_plus,
    find_conflict_set,
)
from oracle import brute_srlg_drcr, verify_conflict_set


class TestBackupSearch:
    def test_disjoint_square_found(self, diamond):
        active = Path.from_links(diamond, [0, 1])
        backup = backup_search(diamond, active, U=5, delta=0)
        assert backup is not None and backup.links == (2, 3)

    def test_single_route_has_none(self):
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,0\n")
        active = Path.from_links(net, [0, 1])
        assert backup_search(net, active, U=5, delta=5) is None

    def test_srlg_free_active_can_back_itself(self, diamond):
        # disjointness is over risk groups only; an Srlg-free route is a
        # legal backup for itself
        active = Path.from_links(diamond, [0, 1])
        backup = backup_search(diamond, active, U=5, delta=0)
        assert backup is not None

    def test_delay_gap_beyond_delta(self):
        # second route exists but is 4 delay units slower
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,0\n"
                           "2,s,b,1,3,1\n3,b,t,1,3,1\n")
        active = Path.from_links(net, [0, 1])
        assert backup_search(net, active, U=10, delta=1) is None
        assert backup_search(net, active, U=10, delta=4) is not None

    def test_window_clamped_by_u(self):
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,0\n"
                           "2,s,b,1,2,1\n3,b,t,1,2,1\n")
        active = Path.from_links(net, [0, 1])
        # backup delay 4 <= active + delta but above U
        assert backup_search(net, active, U=3, delta=5) is None


class TestConflictSet:
    def test_square_yields_singleton(self, g3a):
        active = Path.from_links(g3a, [0, 1])
        cs = find_conflict_set(g3a, active, U=10)
        assert len(cs) == 1
        assert verify_conflict_set(
            g3a, SrlgDrcrQuery(0, g3a.node_id("t"), 10, 10), cs)

    def test_trap_corridor_needs_two(self, g3b):
        active = Path.from_links(g3b, [0, 1, 3])
        cs = find_conflict_set(g3b, active, U=10)
        assert cs == {0, 1}
        assert verify_conflict_set(
            g3b, SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 10),
            cs)

    def test_none_when_disjoint_backup_exists(self, diamond):
        active = Path.from_links(diamond, [0, 1])
        assert find_conflict_set(diamond, active, U=5) is None

    def test_pick_strategies_both_valid(self, g3b):
        active = Path.from_links(g3b, [0, 1, 3])
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 10)
        for pick in ("largest", "first-link"):
            cs = find_conflict_set(g3b, active, U=10, pick=pick)
            assert cs is not None
            assert verify_conflict_set(g3b, q, cs)

    def test_lone_route_conflicts_with_itself(self):
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,0\n")
        active = Path.from_links(net, [0, 1])
        cs = find_conflict_set(net, active, U=10)
        assert cs == {0}
        assert verify_conflict_set(net, SrlgDrcrQuery(0, 2, 10, 10), cs)


class TestApSearch:
    def test_unconstrained_equals_min_cost(self, g1):
        empty = SubInstance(frozenset(), frozenset())
        p = ap_pulse_plus(g1, g1.node_id("s"), g1.node_id("t"), 10, empty, [])
        assert p.cost == 2

    def test_exclusion_blocks_only_route(self):
        net = load_network("0,s,a,1,1,0\n1,a,t,1,1,1\n")
        inst = SubInstance(frozenset(), frozenset({0}))
        assert ap_pulse_plus(net, 0, 2, 10, inst, []) is None

    def test_conflict_pushes_to_second_cheapest(self, g1):
        # tag the cheap route's first link with a synthetic conflict
        empty = SubInstance(frozenset(), frozenset())
        conflicts = [frozenset({-1})]  # link 0
        p = ap_pulse_plus(g1, g1.node_id("s"), g1.node_id("t"), 10, empty,
                          conflicts)
        assert p.cost == 10

    def test_inclusion_enforced(self, g3a):
        inst = SubInstance(frozenset({1}), frozenset())
        p = ap_pulse_plus(g3a, 0, g3a.node_id("t"), 10, inst, [])
        assert p is not None
        assert 1 in srlgs_of_path(g3a, p)

    def test_tmp_min_filters(self, g1):
        empty = SubInstance(frozenset(), frozenset())
        p = ap_pulse_plus(g1, g1.node_id("s"), g1.node_id("t"), 10, empty, [],
                          tmp_min=2)
        assert p is None


class TestCose:
    def test_no_pair_exists(self, g3a):
        q = SrlgDrcrQuery(0, g3a.node_id("t"), 10, 10)
        pair, stats = cose_pulse_plus(g3a, q)
        assert pair is None and stats.status == "infeasible"
        assert len(stats.conflict_sets) >= 1

    def test_trap_escaped_optimally(self, g3b):
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        pair, stats = cose_pulse_plus(g3b, q)
        assert stats.status == "optimal"
        assert pair.active.cost == 11
        assert pair.is_valid(g3b, q.U, q.delta)
        assert len(stats.conflict_sets) >= 1

    def test_no_srlg_diamond(self, diamond):
        q = SrlgDrcrQuery(0, diamond.node_id("t"), 5, 5)
        pair, stats = cose_pulse_plus(diamond, q)
        assert pair.active.cost == 2
        assert pair.is_valid(diamond, q.U, q.delta)

    def test_first_pair_mode_feasible_only(self, g3b):
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        pair, _ = cose_pulse_plus(g3b, q, first_pair=True)
        assert pair is not None
        assert pair.is_valid(g3b, q.U, q.delta)

    def test_timeout_status(self, g3b):
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        _, stats = cose_pulse_plus(g3b, q, time_limit=0.0)
        assert stats.status == "timeout"

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_pair_oracle(self, seed):
        net, q = pair_instance(seed)
        expect = brute_srlg_drcr(net, q)
        pair, stats = cose_pulse_plus(net, q)
        if expect is None:
            assert pair is None, seed
        else:
            assert pair is not None, seed
            assert pair.active.cost == expect[0], seed
            assert pair.is_valid(net, q.U, q.delta)


def ladder_net(k: int) -> Network:
    """s=0, t=1.  A cheap route s->2->t in group 0, and a dear ladder from
    s into node 3 in group 1: then k - 1 layers of two nodes, each node
    linked to both nodes of the next layer and the last layer to t, so the
    ladder holds 2^(k-1) paths.  Their delays are far apart, so neither
    route backs the other up, and neither has a conflict set."""
    links = []

    def add(u, v, delay, cost, groups=()):
        links.append(Link(len(links), u, v, delay, cost, frozenset(groups)))

    add(0, 2, 1, 1, {0})
    add(2, 1, 1, 1, {0})
    add(0, 3, 2, 1, {1})
    layers = [[3]] + [[2 * j + 2, 2 * j + 3] for j in range(1, k)] + [[1]]
    for tails, heads in zip(layers, layers[1:]):
        for u in tails:
            for v in heads:
                add(u, v, 2, 1)
    return links_network(2 * k + 2, links)


class TestForcedLinks:
    def test_forced_prefix_pins_the_search(self):
        # Child i of a conflict-free ladder path includes its first i
        # links.  Unless they are forced, each such child walks every
        # ladder path and rejects it at t, some 8,000 iterations in all.
        net = ladder_net(7)
        pair, stats = cose_pulse_plus(net, SrlgDrcrQuery(0, 1, 40, 1))
        assert pair is None and stats.status == "infeasible"
        assert stats.subinstances == 194 and not stats.conflict_sets
        assert stats.iterations <= 2000


class TestIterationCount:
    @pytest.mark.parametrize("pick", ["largest", "first-link"])
    def test_counts_every_search(self, g3a, g3b, pick, monkeypatch):
        # active, backup and conflict-set searches all run through
        # drcr.srlg.run_pulse_search; the pair's iterations are their sum
        searched = []
        real = drcr.srlg.run_pulse_search

        def counted(*args, **kwargs):
            path, stats = real(*args, **kwargs)
            searched.append(stats.iterations)
            return path, stats

        monkeypatch.setattr(drcr.srlg, "run_pulse_search", counted)
        cases = [(ladder_net(7), SrlgDrcrQuery(0, 1, 40, 1)),
                 (g3a, SrlgDrcrQuery(0, g3a.node_id("t"), 10, 10)),
                 (g3b, SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"),
                                     10, 4))]
        cases += [pair_instance(seed) for seed in range(10)]
        for net, q in cases:
            searched.clear()
            _, stats = cose_pulse_plus(net, q, pick=pick)
            assert stats.iterations == sum(searched), q


class TestPathPair:
    def test_validity_recomputed(self, diamond):
        a = Path.from_links(diamond, [0, 1])
        b = Path.from_links(diamond, [2, 3])
        assert PathPair(a, b).is_valid(diamond, U=5, delta=0)
        assert not PathPair(a, b).is_valid(diamond, U=1, delta=0)
        assert not PathPair(a, a).is_valid(diamond, U=5, delta=0) \
            or not srlgs_of_path(diamond, a)

    def test_shared_srlg_invalid(self, g3a):
        a = Path.from_links(g3a, [0, 1])
        b = Path.from_links(g3a, [2, 3])
        assert not PathPair(a, b).is_valid(g3a, U=5, delta=5)
