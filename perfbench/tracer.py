"""Span tracing from outside the library, by wrapping module attributes.

A span is ``[layer, start, end, parent, query_id, info]``; spans stay in
memory and are written out when the run ends.  The wrappers replace each
traced name in every ``drcr`` namespace that calls it, so calls made inside
the library (``solve_drcr`` -> ``classify_case``, ``backup_search`` ->
``run_pulse_search``, ...) are recorded without editing the library.

A layer's self time is its span's duration minus the durations of its direct
child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from time import perf_counter

# Layers in the order a DRCR query passes through them, then the Srlg-pair
# searches.  ``query`` is the top-level call; its self time is the glue
# between the wrapped layers.
LAYERS = ("graph.dijkstra", "pulse.classify", "pulse.egress", "costfn.build",
          "pulse.search", "srlg.active", "srlg.backup", "srlg.conflict")

# Layers that never look at the time limit: a deadline that passes inside
# one of them is only noticed after it returns.
UNCHECKED = {"graph.dijkstra", "pulse.classify", "pulse.egress", "costfn.build"}


def _search_info(result):
    stats = result[1]
    return stats.iterations, stats.searched_fraction


def _label_count(result):
    return sum(map(len, result.delays))


def _found(result):
    return result is not None


# (module, attribute, layer, per-call figure taken from the result)
TARGETS = (
    ("drcr.pulse", "build_reverse_tree", "graph.dijkstra", None),
    ("drcr.pulse", "classify_case", "pulse.classify", None),
    ("drcr.pulse", "ldf_order", "pulse.egress", None),
    ("drcr.pulse", "run_pulse_search", "pulse.search", _search_info),
    ("drcr.pulse", "compute_cost_functions", "costfn.build", _label_count),
    ("drcr.costfn", "build_forward_tree", "graph.dijkstra", None),
    ("drcr.srlg", "build_reverse_tree", "graph.dijkstra", None),
    ("drcr.srlg", "ldf_order", "pulse.egress", None),
    ("drcr.srlg", "run_pulse_search", "pulse.search", _search_info),
    ("drcr.srlg", "ap_pulse_plus", "srlg.active", _found),
    ("drcr.srlg", "backup_search", "srlg.backup", _found),
    ("drcr.srlg", "find_conflict_set", "srlg.conflict", _found),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.query_id = -1
        self.enabled = True  # while False the wrappers only pass calls on
        self._open: list[int] = []
        self.unwrapped: list[str] = []

    def wrap(self, layer: str, fn, info=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, open_[-1] if open_ else -1,
                   self.query_id, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if info is not None:
                rec[5] = info(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer, info in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.unwrapped.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(layer, fn, info))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def innermost_open(self, query_id: int, instant: float) -> str:
        """Layer of the deepest span of ``query_id`` open at ``instant``.

        Spans nest, so the deepest open one is the one that started last.
        """
        open_at = [rec for rec in self.spans
                   if rec[4] == query_id and rec[1] <= instant < rec[2]]
        return max(open_at, key=lambda rec: rec[1])[0] if open_at else "finished"


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures over the ``query`` spans in ``spans``.

    ``*.calls`` and ``*.self_ms`` are means per query (so the self times of
    all layers plus the untraced glue add up to the mean query latency);
    ``*.share`` is the layer's self time over all traced query wall time.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    walls: dict[int, float] = {}
    per_query: dict[int, dict[str, float]] = {}
    calls = dict.fromkeys(LAYERS, 0)
    infos: dict[str, list] = {layer: [] for layer in LAYERS}
    iters: dict[int, int] = {}
    glue = 0.0
    for i, rec in enumerate(spans):
        layer, start, end, _parent, qid, info = rec
        self_s = end - start - child[i]
        if layer == "query":
            walls[qid] = end - start
            glue += self_s
            continue
        slot = per_query.setdefault(qid, {})
        slot[layer] = slot.get(layer, 0.0) + self_s
        calls[layer] += 1
        if info is not None:
            infos[layer].append(info)
        if layer == "pulse.search" and info is not None:
            iters[qid] = iters.get(qid, 0) + info[0]
    total = sum(walls.values())
    nq = len(walls)
    m: dict[str, float] = {}
    for layer in LAYERS:
        self_s = sum(per_query.get(q, {}).get(layer, 0.0) for q in walls)
        m[f"{layer}.calls"] = _safe_ratio(calls[layer], nq)
        m[f"{layer}.self_ms"] = _safe_ratio(self_s, nq) * 1e3
        m[f"{layer}.share"] = _safe_ratio(self_s, total)
    search = infos["pulse.search"]
    m["pulse.search.iterations"] = (statistics.median(iters.values())
                                    if iters else 0.0)
    m["pulse.search.searched_fraction"] = (
        statistics.median(f for _, f in search) if search else 0.0)
    labels = infos["costfn.build"]
    m["costfn.labels"] = statistics.median(labels) if labels else 0.0
    for layer, key in (("srlg.active", "found_ratio"),
                       ("srlg.backup", "hit_ratio")):
        m[f"{layer}.{key}"] = _safe_ratio(sum(infos[layer]),
                                          len(infos[layer]))
    m["srlg.conflict.sets"] = _safe_ratio(sum(infos["srlg.conflict"]), nq)
    m["trace.coverage"] = 1.0 - _safe_ratio(glue, total)
    return m
