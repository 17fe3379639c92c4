"""The library calls that perfbench/run.py makes directly in its setup and
referee, each spelled exactly as run.py spells it, positional arguments
included. The benchmark's files are frozen between benchmark changes, so a
signature change that would break it must fail here first.
perfbench/test_perfbench.py covers the names its tracer patches.
"""

from motifclust import (
    MotifPattern,
    bfs_balls,
    core_ball,
    enumerate_motifs,
    nbr_core_decomposition,
    parse_arb_simplices,
)
from motifclust.testing import synthetic_contact_edges, write_arb_dataset


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
        k = max(min_ball, len(members))
        balls = [core_ball(H, members, k, decomposition)]
        balls += bfs_balls(H, members, alpha, min_ball)
        assert len(balls) >= 2
        assert all(set(members) <= ball.nodes for ball in balls)
