import math
from dataclasses import replace

import numpy as np
import pytest

import drcr.srlg
from drcr.graph import dump_network
from drcr.pulse import classify_case
from drcr.testgen import (
    COST_RANGE,
    DELAY_RANGE,
    SRLG_SIZE_RANGE,
    GenConfig,
    GenerationError,
    classify_trap,
    gen_drcr_query,
    gen_er_network,
    gen_srlg_query,
    gen_srlgs,
)
from drcr.srlg import SrlgDrcrQuery
from drcr.graph import build_reverse_tree


class TestErNetwork:
    def test_forced_edges_at_p_one(self):
        net = gen_er_network(GenConfig(n=2, p=1.0, seed=1))
        assert len(net.src) == 2

    def test_deterministic_under_seed(self):
        a = gen_er_network(GenConfig(n=200, p_mult=1, seed=7))
        b = gen_er_network(GenConfig(n=200, p_mult=1, seed=7))
        assert dump_network(a) == dump_network(b)

    def test_seed_changes_output(self):
        a = gen_er_network(GenConfig(n=100, p_mult=1, seed=7))
        b = gen_er_network(GenConfig(n=100, p_mult=1, seed=8))
        assert dump_network(a) != dump_network(b)

    def test_expected_link_count(self):
        n = 1000
        net = gen_er_network(GenConfig(n=n, p_mult=1, seed=3))
        expect = n * (n - 1) * math.log(n) / n
        assert abs(len(net.src) - expect) / expect < 0.05

    def test_values_within_ranges(self):
        assert DELAY_RANGE == COST_RANGE == (1, 10)
        net = gen_er_network(GenConfig(n=50, p=0.2, seed=5))
        # about 490 links draw every value of each range
        assert set(net.delay.tolist()) == set(range(1, 11))
        assert set(net.cost.tolist()) == set(range(1, 11))


class TestDrcrQueries:
    @pytest.mark.parametrize("target", [4, 6])
    def test_query_classifies_to_target(self, target):
        net = gen_er_network(GenConfig(n=100, p_mult=2, seed=11))
        for seed in range(5):
            q = gen_drcr_query(net, seed, target)
            case, _ = classify_case(net, q)
            assert case.value == target
            assert q.U - q.L <= 20

    def test_case4_brackets(self):
        net = gen_er_network(GenConfig(n=100, p_mult=2, seed=11))
        q = gen_drcr_query(net, 1, 4)
        dtree = build_reverse_tree(net, q.dst, "delay")
        ctree = build_reverse_tree(net, q.dst, "cost")
        assert dtree.dist[q.src] < q.L
        assert q.U < ctree.path_from(net, q.src).delay

    def test_give_up_reported(self):
        # two isolated nodes linked one way only: no case-4 query exists
        from drcr.graph import Network
        net = Network.build(2, [0], [1], [1], [1])
        with pytest.raises(GenerationError):
            gen_drcr_query(net, 0, 4)


class TestSrlgs:
    def test_nonstar_covers_every_link(self):
        assert SRLG_SIZE_RANGE == (1, 40)
        net = gen_er_network(GenConfig(n=60, p_mult=2, seed=9,
                                       srlg_style="nonstar"))
        assert set(net.link_srlgs) == set(range(len(net.src)))
        for links in net.srlgs.values():
            assert 1 <= len(links) <= 40

    def test_star_groups_share_source(self):
        net = gen_er_network(GenConfig(n=60, p_mult=2, seed=9,
                                       srlg_style="star"))
        assert net.srlgs
        for links in net.srlgs.values():
            srcs = set(net.src[sorted(links)].tolist())
            assert len(srcs) == 1

    def test_deterministic(self):
        cfg = GenConfig(n=40, p_mult=2, seed=4, srlg_style="nonstar")
        plain = replace(cfg, srlg_style="none")
        a = gen_srlgs(gen_er_network(plain), cfg)
        b = gen_srlgs(gen_er_network(plain), cfg)
        assert dump_network(a) == dump_network(b)
        assert dump_network(gen_er_network(cfg)) == dump_network(a)

    def test_no_style_draws_no_srlgs(self):
        cfg = GenConfig(n=10, p_mult=2, seed=4)
        with pytest.raises(ValueError, match="draws no Srlgs"):
            gen_srlgs(gen_er_network(cfg), cfg)


class TestSrlgQuery:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_u_from_min_delay(self, seed):
        net = gen_er_network(GenConfig(n=80, p_mult=2, seed=21))
        q = gen_srlg_query(net, seed, delta=3)
        tree = build_reverse_tree(net, q.dst, "delay")
        assert q.U == math.ceil(2.5 * tree.dist[q.src])
        assert q.delta == 3


class TestClassifyTrap:
    def test_trap_fixture(self, g3b):
        q = SrlgDrcrQuery(g3b.node_id("A"), g3b.node_id("F"), 10, 4)
        assert classify_trap(g3b, q) == "trap"

    def test_plain_diamond_nontrap(self, diamond):
        q = SrlgDrcrQuery(0, diamond.node_id("t"), 5, 5)
        assert classify_trap(diamond, q) == "nontrap"

    def test_square_infeasible(self, g3a):
        q = SrlgDrcrQuery(0, g3a.node_id("t"), 10, 10)
        assert classify_trap(g3a, q) == "infeasible"

    @pytest.mark.parametrize("fixture,dst,U,delta", [
        ("g3b", "F", 10, 4), ("diamond", "t", 5, 5), ("g3a", "t", 10, 10)])
    def test_backup_timeout_gives_no_verdict(self, request, limit_passes_in,
                                             fixture, dst, U, delta):
        # a backup search that gives up must not read as "no backup"
        net = request.getfixturevalue(fixture)
        limit_passes_in(drcr.srlg, "backup_search")
        q = SrlgDrcrQuery(0, net.node_id(dst), U, delta)
        assert classify_trap(net, q, time_limit=1.0) == "timeout"
