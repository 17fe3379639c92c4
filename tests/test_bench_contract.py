"""The library calls that perfbench/run.py makes directly in its setup and
referee, each spelled exactly as run.py spells it, positional arguments
included. The benchmark's files are frozen between benchmark changes, so a
signature change that would break it must fail here first.
perfbench/test_perfbench.py covers the names its tracer patches,
test_aux_views_the_tracer_reads the aux attributes its tracer reads, and
test_core_queries_call_the_decomposition_the_tracer_wraps that a query
reaches the decomposition through the name the tracer wraps.
"""

import random
from fractions import Fraction

from motifclust import (
    MotifPattern,
    RunConfig,
    bfs_balls,
    conductance_direct,
    core_ball,
    enumerate_motifs,
    motif_cut,
    nbr_core_decomposition,
    parse_arb_simplices,
    run_local_clustering,
)
from motifclust.testing import (
    brute_motifs,
    random_hypergraph,
    synthetic_contact_edges,
    write_arb_dataset,
)


def test_direct_calls_of_the_benchmark(tmp_path):
    edges = synthetic_contact_edges(n_edges=500, n_nodes=44, n_groups=2, seed=5)
    prefix = str(tmp_path / "contract")
    files = (f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    write_arb_dataset(edges, *files)
    nverts, simplices = files

    parsed = parse_arb_simplices(nverts, simplices)
    n = parsed.hypergraph.n
    H = parsed.hypergraph
    label_index = parsed.label_index()
    assert H.num_edges == len(edges)
    assert n == H.n == len(parsed.labels) == len(label_index)
    assert all(label_index[parsed.labels[i]] == i for i in range(n))
    for pattern in MotifPattern:
        M_global = enumerate_motifs(H, range(H.n), pattern, "exact")
        assert M_global == enumerate_motifs(H, range(H.n), pattern)

    decomposition = nbr_core_decomposition(H)
    alpha, min_ball = 3, 20
    for edge in (0, H.num_edges - 1):
        members = H.edge(edge).members
        assert members == H.members[edge]
        k = max(min_ball, len(members))
        balls = [core_ball(H, members, k, decomposition)]
        balls += bfs_balls(H, members, alpha, min_ball)
        assert len(balls) >= 2
        assert all(set(members) <= ball.nodes for ball in balls)


def test_aux_views_the_tracer_reads(tmp_path):
    # perfbench/tracing.py::_aux_counts reads aux.num_edges and unpacks each
    # aux.edges entry as (members, weight); both view W's pairs
    path = tmp_path / "contract.txt"
    edges = synthetic_contact_edges(n_edges=300, n_nodes=30, n_groups=2, seed=7)
    path.write_text("".join(" ".join(map(str, e)) + "\n" for e in edges))
    config = RunConfig(input=str(path), seed_edge="index:0", motif="III", beta=2, min_ball=10)
    _, details = run_local_clustering(config, return_details=True)
    aux = details.aux
    assert aux is not None and aux.pairs
    assert aux.num_edges == len(aux.edges)
    pairs = set()
    for members, weight in aux.edges:
        assert isinstance(weight, int)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b))
    assert pairs == {(a, b) for a, b, _ in aux.pairs}


def test_referee_calls_on_the_global_enumeration():
    # perfbench/referee.py::judge calls motif_cut(M_global, ids) and
    # conductance_direct(M_global, ids).phi on run.py's global enumeration;
    # both must agree with the cut and phi counted here from brute_motifs
    rng = random.Random(17)
    checked = 0
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(5, 12), 0.25, 0.1, big_edge_p=0.02)
        for pattern in MotifPattern:
            M_global = enumerate_motifs(H, range(H.n), pattern, "exact")
            ids = [v for v in range(H.n) if rng.random() < 0.4] or [0]
            inside = [sum(v in ids for v in t) for t in brute_motifs(H, pattern)]
            cut = sum(0 < k < 3 for k in inside)
            volume = sum(inside)
            assert motif_cut(M_global, ids) == cut
            rest = 3 * len(inside) - volume
            if rest == 0:
                continue  # the complement holds no motif volume: phi is undefined
            phi = conductance_direct(M_global, ids).phi
            assert phi == (Fraction(cut, min(volume, rest)) if volume else 0)
            checked += cut > 0
    assert checked > 20


def test_core_queries_call_the_decomposition_the_tracer_wraps(monkeypatch, tmp_path):
    # perfbench/tracing.py times balls.core_decomposition by wrapping
    # motifclust.balls.nbr_core_decomposition as a module attribute: a core
    # query must call it through that name, once, with the seed's members,
    # and a bfs query must not call it
    import motifclust.balls

    calls = []
    real = motifclust.balls.nbr_core_decomposition

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(motifclust.balls, "nbr_core_decomposition", counting)
    edges = synthetic_contact_edges(n_edges=500, n_nodes=44, n_groups=2, seed=5)
    prefix = str(tmp_path / "contract")
    write_arb_dataset(edges, f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    H = parse_arb_simplices(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt").hypergraph
    for edge in (0, H.num_edges - 1):
        for method in ("core", "bfs"):
            config = RunConfig(
                input=prefix, format="arb", seed_edge=f"index:{edge}", motif="IV",
                method=method, beta=2, min_ball=20,
            )
            calls.clear()
            assert run_local_clustering(config).status == "ok"
            if method == "bfs":
                assert calls == []
                continue
            assert len(calls) == 1
            (graph, seed), kwargs = calls[0]
            assert kwargs == {}
            assert graph.members == H.members
            assert tuple(seed) == H.members[edge]
