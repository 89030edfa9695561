import time

import numpy as np
import pytest
from hypothesis import strategies as st

from drcr.graph import Link, Network, load_network


@pytest.fixture
def limit_passes_in(monkeypatch):
    """``limit_passes_in(module, name)`` moves the clock an hour ahead each
    time ``module.name`` is entered.

    ``time.monotonic``, which ``Deadline`` reads, is replaced by a clock
    that stands still otherwise, so a test places the moment a time limit
    passes without sleeping.
    """
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])

    def install(module, name):
        real = getattr(module, name)

        def late(*args, **kwargs):
            now[0] += 3600.0
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, late)

    return install


def random_net(seed, n, p, max_srlgs=0, value_hi=10):
    """Small seeded random directed net for oracle comparisons."""
    rng = np.random.default_rng(seed)
    links = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                srlgs = frozenset()
                if max_srlgs:
                    k = int(rng.integers(0, 3))
                    srlgs = frozenset(int(r) for r in
                                      rng.integers(0, max_srlgs, size=k))
                links.append(Link(len(links), u, v,
                                  int(rng.integers(1, value_hi + 1)),
                                  int(rng.integers(1, value_hi + 1)),
                                  srlgs))
    return links_network(n, links)


def links_network(num_nodes, links, node_names=None):
    """``Network.build`` on a list of ``Link`` records with ids 0, 1, 2, ..."""
    assert [link.id for link in links] == list(range(len(links)))
    return Network.build(num_nodes, [link.src for link in links],
                         [link.dst for link in links],
                         [link.delay for link in links],
                         [link.cost for link in links],
                         {link.id: link.srlgs for link in links}, node_names)


def pair_instance(seed):
    """Seeded small Srlg net and a ``0 -> n-1`` pair query for oracle
    comparisons of the pair solvers."""
    from drcr.srlg import SrlgDrcrQuery

    rng = np.random.default_rng(seed + 300)
    net = random_net(seed + 1200, int(rng.integers(4, 9)), 0.5,
                     max_srlgs=int(rng.integers(1, 8)))
    q = SrlgDrcrQuery(0, net.num_nodes - 1, int(rng.integers(4, 30)),
                      int(rng.integers(0, 8)))
    return net, q


@st.composite
def multigraphs(draw, num_srlgs=0):
    """Up to 7 nodes; each drawn node pair gets one or two parallel links."""
    n = draw(st.integers(2, 7))
    groups = (st.frozensets(st.integers(0, num_srlgs - 1), max_size=2)
              if num_srlgs else st.just(frozenset()))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                     groups), min_size=1, max_size=2)),
        max_size=10))
    links = []
    for u, v, specs in pairs:
        if u == v:
            continue
        for delay, cost, srlgs in specs:
            links.append(Link(len(links), u, v, delay, cost, srlgs))
    return links_network(n, links)


# Diamond with a cheap fast path and a dear slow one.  Min-delay and
# min-cost coincide on s->a->t (delay 2, cost 2); s->b->t has delay 4,
# cost 10.
G1_TEXT = """\
0,s,a,1,1,
1,a,t,1,1,
2,s,b,5,2,
3,b,t,5,2,
"""

# Five-node net where the cheapest delay-8 A->E walk revisits D
# (A-D-C-D-E, cost 7); the elementary optimum is A-B-C-D-E at cost 8.
G2_TEXT = """\
0,A,B,2,2,
1,B,C,2,2,
2,A,D,2,3,
3,D,C,1,1,
4,C,D,1,1,
5,D,E,3,3,
"""

# Four-node square whose two s->t paths cross-share both risk groups, so
# no disjoint pair exists at all.
G3A_TEXT = """\
0,s,a,1,1,0
1,a,t,1,1,1
2,s,b,1,1,1
3,b,t,1,1,0
"""

# Trap net: the cheap corridor A->D->E->F (two parallel D->E links in
# distinct groups) shares group 0 with the only left detour and group 1
# with the only right detour, so it has no backup; the dear detour pair
# (via B, via C) is disjoint and feasible at active cost 11.
G3B_TEXT = """\
0,A,D,1,1,0
1,D,E,1,1,2
2,D,E,1,1,3
3,E,F,1,1,1
4,A,B,10,1,0
5,B,F,1,1,
6,A,C,10,1,1
7,C,F,1,1,
"""

# Srlg-free square: two node-disjoint equal-delay s->t routes.
DIAMOND_TEXT = """\
0,s,a,1,1,
1,a,t,1,1,
2,s,b,2,1,
3,b,t,2,1,
"""


@pytest.fixture(scope="session")
def g1():
    return load_network(G1_TEXT)


@pytest.fixture(scope="session")
def g2():
    return load_network(G2_TEXT)


@pytest.fixture(scope="session")
def g3a():
    return load_network(G3A_TEXT)


@pytest.fixture(scope="session")
def g3b():
    return load_network(G3B_TEXT)


@pytest.fixture(scope="session")
def diamond():
    return load_network(DIAMOND_TEXT)


# Acceptance tests register one (criterion, passed, detail) tuple each;
# the summary hook prints them so the verdict survives output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_LINES):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict}  {detail}")
