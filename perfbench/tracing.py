"""Spans around the library's public functions, recorded from outside.

``traced(tracer)`` replaces each function at the name the pipeline actually
calls with a wrapper that records a span (name, start, end, parent span and
query id), and restores the originals on exit. ``fm_refine`` additionally gets
a counting observer chained in front of the caller's observer. Spans stay in
memory; ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

QUERY_SPAN = "pipeline.query"


@dataclass
class Span:
    id: int
    name: str
    query: int | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: int | None = None
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, self.query, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "name": sp.name,
                            "query": sp.query,
                            "parent": sp.parent,
                            "start": sp.start,
                            "end": sp.end,
                            "counts": sp.counts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class FMCounter:
    """fm_refine observer: counts passes and moves, and replays fm_refine's
    rollback rule (each pass keeps the moves up to its first strictly best
    cut) to count the moves kept."""

    def __init__(self, inner=None):
        self.inner = inner
        self.passes = 0
        self.moves = 0
        self.kept = 0
        self._pass_moves = 0
        self._best_cut = 0
        self._best_len = 0

    def __call__(self, event, blocks, moved, cut):
        if event == "pass":
            self.kept += self._best_len
            self.passes += 1
            self._pass_moves = 0
            self._best_cut = cut
            self._best_len = 0
        else:
            self.moves += 1
            self._pass_moves += 1
            if cut < self._best_cut:
                self._best_cut = cut
                self._best_len = self._pass_moves
        if self.inner is not None:
            self.inner(event, blocks, moved, cut)

    def close(self) -> None:
        self.kept += self._best_len
        self._best_len = 0


def _aux_counts(aux) -> dict:
    pairs = set()
    pins = 0
    for members, _weight in aux.edges:
        pins += len(members)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b))
    return {"hyperedges": aux.num_edges, "pins": pins, "node_pairs": len(pairs)}


# span name -> cheap counts taken from the wrapped call's result
_RESULT_COUNTS = {
    "io.parse": lambda r: {"hyperedges": r.hypergraph.num_edges},
    "balls.core_ball": lambda r: {"balls": 1, "ball_nodes": len(r.nodes)},
    "balls.bfs_balls": lambda r: {"balls": len(r), "ball_nodes": sum(len(b.nodes) for b in r)},
    "motifs.enumerate": lambda r: {"occurrences": len(r)},
}


def _targets():
    import motifclust.balls
    import motifclust.io
    import motifclust.partition
    import motifclust.pipeline
    from motifclust.core import Hypergraph

    pipeline = motifclust.pipeline
    partition = motifclust.partition
    return [
        (motifclust.io, "parse_arb_simplices", "io.parse"),
        (Hypergraph, "connected_component", "core.component"),
        (motifclust.balls, "nbr_core_decomposition", "balls.core_decomposition"),
        (pipeline, "core_ball", "balls.core_ball"),
        (pipeline, "bfs_balls", "balls.bfs_balls"),
        (pipeline, "enumerate_motifs", "motifs.enumerate"),
        (pipeline, "motif_degrees", "motifs.degrees"),
        (pipeline, "build_aux", "auxiliary.build"),
        (pipeline, "partition_search", "partition.search"),
        (pipeline, "cut_net", "partition.cut_net"),
        (partition, "random_feasible_partition", "partition.init"),
        (partition, "fm_refine", "partition.refine"),
        (partition, "cut_net", "partition.cut_net"),
    ]


def _wrap(tracer: Tracer, name: str, fn):
    counts = _RESULT_COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if counts is not None:
            sp.counts = counts(result)
        elif name == "auxiliary.build":
            sp.counts = {"aux": result}  # counted after the query, outside its span
        return result

    return wrapper


def _wrap_refine(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        counter = FMCounter(bound.arguments.get("observer"))
        bound.arguments["observer"] = counter
        with tracer.span("partition.refine") as sp:
            result = fn(*bound.args, **bound.kwargs)
        counter.close()
        sp.counts = {"passes": counter.passes, "moves": counter.moves, "kept": counter.kept}
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]  # KeyError: the library API moved
            saved.append((owner, attr, original))
            if name == "partition.refine":
                setattr(owner, attr, _wrap_refine(tracer, original))
            else:
                setattr(owner, attr, _wrap(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def finish_query(tracer: Tracer, query: int) -> None:
    """Replace kept aux references of one query by their counts."""
    for sp in tracer.spans:
        if sp.query == query and "aux" in sp.counts:
            sp.counts = _aux_counts(sp.counts["aux"])


# -- span arithmetic -----------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for c in sorted(children[sp.id], key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out


def self_time_error(spans: list[Span], walls: dict[int, float]) -> float:
    """Largest |sum of a query's span self times - its wall time|, over the
    queries in ``walls`` (query id -> wall time measured outside the tracer).
    A query without spans counts its whole wall time as error."""
    selfs = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    for sp in spans:
        total[sp.query] += selfs[sp.id]
    return max((abs(total[q] - w) for q, w in walls.items()), default=0.0)


def _restart_durations(spans: list[Span]) -> list[float]:
    """One restart runs from a partition.init start to the next one, or to
    the end of its partition.search."""
    inits: dict[int, list[Span]] = defaultdict(list)
    searches = {sp.id: sp for sp in spans if sp.name == "partition.search"}
    for sp in spans:
        if sp.name == "partition.init" and sp.parent in searches:
            inits[sp.parent].append(sp)
    out = []
    for search_id, group in inits.items():
        starts = [sp.start for sp in group] + [searches[search_id].end]
        out.extend(b - a for a, b in zip(starts, starts[1:]))
    return out


# per-layer time metric -> span name; value is the median over the traced
# queries that made the call of that query's total inclusive span time
TIME_METRICS = {
    "io.parse_s": "io.parse",
    "core.component_s": "core.component",
    "balls.bfs_balls_s": "balls.bfs_balls",
    "balls.core_decomposition_s": "balls.core_decomposition",
    "balls.core_ball_s": "balls.core_ball",
    "motifs.enumerate_s": "motifs.enumerate",
    "motifs.degrees_s": "motifs.degrees",
    "auxiliary.build_s": "auxiliary.build",
    "partition.search_s": "partition.search",
    "partition.refine_s": "partition.refine",
    "partition.init_s": "partition.init",
    "partition.cut_net_s": "partition.cut_net",
}

# per-layer count metric -> (span name, count key); summed over the count queries
COUNT_METRICS = {
    "io.hyperedges": ("io.parse", "hyperedges"),
    "balls.balls": (None, "balls"),
    "balls.ball_nodes": (None, "ball_nodes"),
    "motifs.occurrences": ("motifs.enumerate", "occurrences"),
    "auxiliary.hyperedges": ("auxiliary.build", "hyperedges"),
    "auxiliary.pins": ("auxiliary.build", "pins"),
    "auxiliary.node_pairs": ("auxiliary.build", "node_pairs"),
    "partition.restarts": ("partition.init", None),
    "partition.fm_passes": ("partition.refine", "passes"),
    "partition.fm_moves": ("partition.refine", "moves"),
}


def layer_metrics(spans: list[Span], count_queries: set[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced queries.

    Times are medians over queries; counts are exact sums over
    ``count_queries``, a fixed set of queries every run completes, so they
    repeat exactly for a given seed and FM trajectory.
    """
    per_query: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        per_query[sp.name][sp.query] += sp.duration
    out = {}
    for metric, name in TIME_METRICS.items():
        values = list(per_query[name].values())
        out[metric] = statistics.median(values) if values else 0.0
    selfs = self_times(spans)
    out["pipeline.self_s"] = statistics.median(
        selfs[sp.id] for sp in spans if sp.name == QUERY_SPAN
    )
    restarts = _restart_durations(spans)
    out["partition.restart_s_p50"] = statistics.median(restarts) if restarts else 0.0

    counted = [sp for sp in spans if sp.query in count_queries]
    for metric, (name, key) in COUNT_METRICS.items():
        total = 0
        for sp in counted:
            if name is None:
                total += sp.counts.get(key, 0)
            elif sp.name == name:
                total += 1 if key is None else sp.counts[key]
        out[metric] = total
    kept = sum(sp.counts["kept"] for sp in counted if sp.name == "partition.refine")
    moves = out["partition.fm_moves"]
    out["partition.kept_move_ratio"] = kept / moves if moves else 0.0
    return out
