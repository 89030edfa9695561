import pytest

from conftest import random_net
from drcr.graph import Network, load_network
from drcr.pulse import DrcrQuery
from drcr.srlg import SrlgDrcrQuery
from oracle import (
    ExplosionGuard,
    brute_cost_function,
    brute_drcr,
    brute_srlg_drcr,
    enumerate_elementary_paths,
    verify_conflict_set,
)


def complete_graph(n):
    ends = [(u, v) for u in range(n) for v in range(n) if u != v]
    src, dst = zip(*ends)
    return Network.build(n, src, dst, [1] * len(ends), [1] * len(ends))


class TestEnumeration:
    def test_diamond_has_two(self, g1):
        paths = enumerate_elementary_paths(g1, g1.node_id("s"), g1.node_id("t"))
        assert len(paths) == 2

    def test_disconnected_has_none(self):
        net = load_network("0,a,b,1,1,\n1,c,d,1,1,\n")
        assert enumerate_elementary_paths(net, 0, 3) == []

    def test_k4_has_five(self):
        paths = enumerate_elementary_paths(complete_graph(4), 0, 3)
        assert len(paths) == 5

    def test_guard_trips(self):
        with pytest.raises(ExplosionGuard):
            enumerate_elementary_paths(complete_graph(8), 0, 7, max_paths=10)


class TestBruteDrcr:
    def test_matches_diamond_examples(self, g1):
        s, t = g1.node_id("s"), g1.node_id("t")
        assert brute_drcr(g1, DrcrQuery(s, t, 0, 10))[0] == 2
        assert brute_drcr(g1, DrcrQuery(s, t, 3, 5))[0] == 10
        assert brute_drcr(g1, DrcrQuery(s, t, 5, 6)) is None

    def test_cost_non_increasing_in_u(self):
        net = random_net(77, 8, 0.5)
        prev = None
        for U in range(0, 40, 3):
            got = brute_drcr(net, DrcrQuery(0, 7, 0, U))
            if got is None:
                continue
            if prev is not None:
                assert got[0] <= prev
            prev = got[0]


class TestBruteSrlg:
    def test_square_has_no_pair(self, g3a):
        assert brute_srlg_drcr(g3a, SrlgDrcrQuery(0, g3a.node_id("t"),
                                                  10, 10)) is None

    def test_trap_escape_pair(self, g3b):
        cost, pair = brute_srlg_drcr(
            g3b, SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4))
        assert cost == 11
        assert pair.is_valid(g3b, 10, 4)

    def test_plain_diamond_pair(self, diamond):
        cost, pair = brute_srlg_drcr(
            diamond, SrlgDrcrQuery(0, diamond.node_id("t"), 5, 5))
        assert cost == 2


class TestVerifyConflictSet:
    def test_empty_set_rejected_when_pair_exists(self, diamond):
        q = SrlgDrcrQuery(0, diamond.node_id("t"), 5, 5)
        assert not verify_conflict_set(diamond, q, frozenset())

    def test_square_singleton_accepted(self, g3a):
        q = SrlgDrcrQuery(0, g3a.node_id("t"), 10, 10)
        assert verify_conflict_set(g3a, q, frozenset({0}))
        assert verify_conflict_set(g3a, q, frozenset({1}))

    def test_singleton_with_detour_rejected(self, g3b):
        # group 2 sits on one parallel corridor link; its twin detours it
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 10)
        assert not verify_conflict_set(g3b, q, frozenset({0}))

    def test_synthetic_link_groups(self, diamond):
        q = SrlgDrcrQuery(0, diamond.node_id("t"), 5, 5)
        # "-1" means link 0; paths through link 0 still have the b route
        assert not verify_conflict_set(diamond, q, frozenset({-1}))


class TestBruteCostFunction:
    def test_destination_zero(self, g1):
        f = brute_cost_function(g1, g1.node_id("s"), g1.node_id("t"), 10)
        assert f[g1.node_id("t")][0] == 0

    def test_chain_values(self):
        net = load_network("0,s,x,5,2,\n1,x,t,1,1,\n")
        f = brute_cost_function(net, 0, 2, 10)
        x = net.node_id("x")
        assert f[x][0] == float("inf")
        assert f[x][1] == 1
        assert f[0][3] == 6

    def test_state_guard(self):
        net = random_net(5, 6, 0.5)
        with pytest.raises(ExplosionGuard):
            brute_cost_function(net, 0, 5, 10, max_states=3)
