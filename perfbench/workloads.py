"""Workload definitions, corpus rebuilding and answer checking.

Each workload is a generated network plus a fixed pool of queries with
reference answers, stored in ``refs/<workload>.json``.  The reference file
also carries the corpus spec and the SHA-256 of the generated graph text, so
a run on a corpus that no longer matches its references fails instead of
comparing against the wrong answers.  ``make_refs.py`` writes these files.

The solver sees only a ``Network`` parsed from graph text (as ``drcr solve``
does) and query objects; trees and egress orders are never precomputed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable, Optional

from drcr.graph import Path, dump_network, is_elementary
from drcr.pulse import DrcrQuery, PulseOptions, solve_drcr
from drcr.srlg import PathPair, SrlgDrcrQuery, cose_pulse_plus
from drcr.testgen import GenConfig, gen_er_network

REFS_DIR = FsPath(__file__).resolve().parent / "refs"

TIME_LIMIT_S = 10.0

# Solver settings per workload; the corpus spec lives in the reference file.
SOLVER_OPTIONS = {
    "drcr-1k-joint": {"kind": "drcr", "joint_pruning": True},
    "drcr-4k-dst": {"kind": "drcr", "joint_pruning": False},
    "srlg-200": {"kind": "srlg"},
}


@dataclass
class Workload:
    name: str
    kind: str  # drcr | srlg
    corpus: dict
    query_spec: dict
    graph_sha256: str
    rows: list[list]  # query fields by node name, then [status, cost]

    def queries(self, net) -> list:
        """Query objects with node names mapped onto ``net``'s dense ids."""
        index = {name: i for i, name in enumerate(net.node_names)}
        out = []
        for row in self.rows:
            s, t, a, b = index[str(row[0])], index[str(row[1])], row[2], row[3]
            out.append(DrcrQuery(s, t, a, b) if self.kind == "drcr"
                       else SrlgDrcrQuery(s, t, a, b))
        return out

    def expected(self) -> list[tuple[str, Optional[int]]]:
        return [(row[4], row[5]) for row in self.rows]


def load_workload(name: str, refs_dir: FsPath = REFS_DIR) -> Workload:
    if name not in SOLVER_OPTIONS:
        raise ValueError(f"unknown workload {name!r}")
    with open(refs_dir / f"{name}.json") as fh:
        doc = json.load(fh)
    if doc["workload"] != name:
        raise ValueError(f"reference file names workload {doc['workload']!r}")
    return Workload(name, SOLVER_OPTIONS[name]["kind"], doc["corpus"],
                    doc["query_spec"], doc["graph_sha256"], doc["rows"])


def graph_text(corpus: dict) -> str:
    """Regenerate the workload's graph as edge-list text."""
    cfg = GenConfig(n=corpus["n"], p_mult=corpus["p_mult"],
                    seed=corpus["seed"], srlg_style=corpus["srlg_style"])
    return dump_network(gen_er_network(cfg))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def make_solver(name: str, net, time_limit: float = TIME_LIMIT_S) -> Callable:
    """One top-level library call per query, as ``drcr solve`` makes it."""
    spec = SOLVER_OPTIONS[name]
    if spec["kind"] == "drcr":
        opts = PulseOptions(joint_pruning=spec["joint_pruning"],
                            time_limit=time_limit)
        return lambda q: solve_drcr(net, q, opts)
    return lambda q: cose_pulse_plus(net, q, time_limit=time_limit)


def _path_ok(net, p: Path, src: int, dst: int) -> bool:
    return (len(p) > 0 and Path.from_links(net, p.links) == p
            and is_elementary(p) and p.nodes[0] == src and p.nodes[-1] == dst)


def answer_valid(net, q, answer) -> bool:
    """Recheck a returned path or pair from raw links; ``None`` is valid."""
    if answer is None:
        return True
    if isinstance(q, DrcrQuery):
        return _path_ok(net, answer, q.src, q.dst) and q.L <= answer.delay <= q.U
    return (isinstance(answer, PathPair)
            and _path_ok(net, answer.active, q.src, q.dst)
            and _path_ok(net, answer.backup, q.src, q.dst)
            and answer.is_valid(net, q.U, q.delta))


def outcome(answer, stats) -> tuple[str, Optional[int]]:
    """The ``(status, cost)`` pair compared against the references."""
    if answer is None:
        return stats.status, None
    cost = answer.cost if isinstance(answer, Path) else answer.active.cost
    return stats.status, cost


def completed(net, q, answer, stats, expected) -> bool:
    """A proven status, a valid answer, and the reference ``(status, cost)``."""
    if stats.status not in ("optimal", "infeasible"):
        return False
    if (stats.status == "optimal") != (answer is not None):
        return False
    return answer_valid(net, q, answer) and outcome(answer, stats) == tuple(expected)
