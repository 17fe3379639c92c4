"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from motifclust import RunConfig, run_local_clustering  # noqa: E402
from motifclust import partition as mpartition  # noqa: E402
from motifclust import MotifPattern, enumerate_motifs, parse_arb_simplices  # noqa: E402
from motifclust.testing import synthetic_contact_edges, write_arb_dataset  # noqa: E402
from referee import judge  # noqa: E402
from workloads import WORKLOADS, query_stream, ring_contact_edges  # noqa: E402

SMALL_RING = dict(n_groups=20, edges_per_group=60)


def test_ring_generator_is_deterministic_under_a_seed():
    a = ring_contact_edges(7, **SMALL_RING)
    assert a == ring_contact_edges(7, **SMALL_RING)
    assert a != ring_contact_edges(8, **SMALL_RING)
    edges, hill = a
    assert edges == sorted(set(edges))
    assert hill and set(hill) < set(range(len(edges)))


def test_run_offers_every_workload():
    import run

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_query_stream_is_deterministic_and_pairs_methods():
    def first(seed):
        stream = query_stream(WORKLOADS["ring-IV"], seed, list(range(100)))
        return [next(stream) for _ in range(3)]

    pairs = first(3)
    assert pairs == first(3) and pairs != first(4)
    assert all([q.method for q in pair] == ["core", "bfs"] for pair in pairs)
    assert all(pair[0].seed_edge == pair[1].seed_edge for pair in pairs)
    assert [q.index for pair in pairs for q in pair] == list(range(6))


def _span(sid, parent, start, end, name="x", query=0):
    return tracing.Span(sid, name, query, parent, start, end)


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0, tracing.QUERY_SPAN),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, 3, 5.5, 6.0),
        _span(5, 3, 7.0, 8.5),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5})
    assert tracing.self_time_error(spans, {0: 10.0}) == pytest.approx(0.0)
    # a child that escaped its parent, or time outside the spans, shows
    assert tracing.self_time_error(spans, {0: 10.5}) == pytest.approx(0.5)
    overlapping = spans + [_span(6, 0, 2.5, 3.5)]
    assert tracing.self_time_error(overlapping, {0: 10.0}) == pytest.approx(1.0)


def test_self_times_clip_children_to_the_parent_and_merge_overlaps():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 5.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    edges = synthetic_contact_edges(seed=5, n_nodes=44, n_edges=500, n_groups=2)
    prefix = str(tmp_path_factory.mktemp("data") / "small")
    write_arb_dataset(edges, f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    return prefix


def _config(prefix, method="core"):
    return RunConfig(
        input=prefix, format="arb", seed_edge="index:3", motif="VI",
        method=method, beta=3, min_ball=10, rng_seed=11,
    )


def _referee_inputs(prefix):
    parsed = parse_arb_simplices(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    H = parsed.hypergraph
    return enumerate_motifs(H, range(H.n), MotifPattern.VI), parsed.label_index()


def test_referee_gate_fails_corrupted_answers(small_dataset):
    report = run_local_clustering(_config(small_dataset))
    M_global, label_index = _referee_inputs(small_dataset)
    good = judge(report, M_global, label_index)
    assert good.ok and good.phi_true is not None and len(good.cluster_sha256) == 64

    seeds = set(report.params["seed_nodes"])
    dropped_seed = replace(report, cluster=[v for v in report.cluster if v not in seeds])
    assert not judge(dropped_seed, M_global, label_index).ok
    wrong_cut = replace(report, motif_cut=report.motif_cut + 1)
    assert not judge(wrong_cut, M_global, label_index).ok
    no_cluster = replace(report, status="no-motifs")
    assert not judge(no_cluster, M_global, label_index).ok


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing._targets()]


def test_traced_wrappers_record_spans_and_are_removed(small_dataset):
    before = _originals()
    tracer = tracing.Tracer()
    walls = {}
    for index, method in enumerate(("core", "bfs")):
        tracer.query = index
        with tracing.traced(tracer):
            t0 = time.perf_counter()
            with tracer.span(tracing.QUERY_SPAN):
                run_local_clustering(_config(small_dataset, method))
            walls[index] = time.perf_counter() - t0
        tracing.finish_query(tracer, index)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)

    names = {sp.name for sp in tracer.spans}
    assert set(tracing.TIME_METRICS.values()) <= names
    assert tracing.self_time_error(tracer.spans, walls) < 1e-3
    metrics = tracing.layer_metrics(tracer.spans, {0, 1})
    assert metrics["partition.restarts"] >= 3
    assert 0 < metrics["partition.kept_move_ratio"] <= 1
    assert metrics["auxiliary.node_pairs"] <= metrics["auxiliary.pins"]


def test_traced_wrappers_are_removed_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_fm_counter_keeps_the_prefix_up_to_the_first_strict_best():
    counter = tracing.FMCounter()
    for event, cut in [("pass", 10), ("move", 9), ("move", 7), ("move", 8), ("move", 7),
                       ("pass", 7), ("move", 8), ("move", 9)]:
        counter(event, None, None, cut)
    counter.close()
    assert (counter.passes, counter.moves, counter.kept) == (2, 6, 2)


def test_fm_counter_matches_fm_refine(small_dataset):
    _, details = run_local_clustering(_config(small_dataset), return_details=True)
    aux = details.aux
    init = mpartition.random_feasible_partition(aux, 0.2, random.Random(2))
    states = []
    counter = tracing.FMCounter(
        lambda event, blocks, moved, cut: states.append((event, list(blocks), counter.kept))
    )
    final = mpartition.fm_refine(aux, init, 0.2, observer=counter)
    counter.close()
    assert counter.passes == sum(1 for s in states if s[0] == "pass")
    assert counter.moves == len(states) - counter.passes
    # fm_refine returns the state after the kept prefix of its last pass
    last = max(i for i, s in enumerate(states) if s[0] == "pass")
    kept_last = counter.kept - states[last][2]
    assert final == states[last + kept_last][1]
    assert mpartition.cut_net(aux, final) == counter._best_cut
