import random
import sys
from itertools import chain
from pathlib import Path

import pytest

from motifclust import Hypergraph, InputError, bfs_balls, core_ball, nbr_core_decomposition
from motifclust.testing import brute_nbr_core_numbers, random_hypergraph, synthetic_contact_edges
from references import reference_nbr_core_decomposition

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import ring_contact_edges  # noqa: E402


def test_core_numbers_single_triadic_edge():
    H = Hypergraph.from_members([[0, 1, 2]])
    assert nbr_core_decomposition(H).core_number == (2, 2, 2)


def test_core_numbers_path():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert nbr_core_decomposition(H).core_number == (1, 1, 1)


def test_core_numbers_triangle_with_pendant():
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [2, 3]])
    decomp = nbr_core_decomposition(H)
    assert decomp.core_number == (2, 2, 2, 1)
    assert decomp.max_core == 2


def test_core_nesting_and_max_degree_bound():
    rng = random.Random(5)
    for _ in range(25):
        H = random_hypergraph(rng, rng.randint(3, 11), 0.25, 0.1, big_edge_p=0.02)
        decomp = nbr_core_decomposition(H)
        assert decomp.max_core <= max(H.degree(v) for v in range(H.n))
        for k in range(decomp.max_core + 1):
            assert decomp.level_set(k + 1) <= decomp.level_set(k)


def test_core_numbers_match_brute_oracle():
    rng = random.Random(99)
    for _ in range(25):
        H = random_hypergraph(rng, rng.randint(3, 9), 0.3, 0.12, big_edge_p=0.03)
        got = list(nbr_core_decomposition(H).core_number)
        assert got == brute_nbr_core_numbers(H)


def test_core_decomposition_matches_the_tuple_keyed_reference_beyond_the_oracle():
    # past the brute oracle's 12 nodes, the pair counts keyed a * n + b must
    # peel exactly as the reference's counts keyed (a, b) do
    rng = random.Random(314)
    graphs = [
        random_hypergraph(rng, rng.randint(13, 30), 0.12, 0.01, big_edge_p=0.0005)
        for _ in range(12)
    ]
    graphs += [Hypergraph.from_members(synthetic_contact_edges(seed, n_edges=2000)) for seed in (1, 2, 3)]
    for H in graphs:
        assert H.n > 12
        assert nbr_core_decomposition(H) == reference_nbr_core_decomposition(H)


def test_seed_bounded_peel_is_the_full_decomposition_truncated_at_the_seed_level():
    # given a seed, the peel stops once a seed node is queued; every core
    # number is then min(core(v), k*) with k* the seed's level, and
    # core_ball, which reads only levels up to k*, picks the same ball
    rng = random.Random(2718)
    graphs = [
        random_hypergraph(rng, rng.randint(13, 30), 0.12, 0.04, big_edge_p=0.002)
        for _ in range(12)
    ]
    graphs += [Hypergraph.from_members(synthetic_contact_edges(seed, n_edges=2000)) for seed in (1, 2, 3)]
    # the ring that test_golden parses, with its nodes numbered as the parser does
    edges, _hill = ring_contact_edges(5, n_groups=36, edges_per_group=150)
    ids = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(edges)))}
    graphs.append(Hypergraph.from_members([[ids[v] for v in e] for e in edges]))
    assert graphs[-1].n == 761
    truncated = 0
    for H in graphs:
        full = nbr_core_decomposition(H)
        for ei in rng.sample(range(H.num_edges), min(H.num_edges, 12)):
            members = H.members[ei]
            k_star = min(full.core_number[v] for v in members)
            got = nbr_core_decomposition(H, members)
            assert got.max_core == k_star
            assert got.core_number == tuple(min(c, k_star) for c in full.core_number)
            truncated += k_star < full.max_core
            for min_size in (len(members), 20, 100):
                assert core_ball(H, members, min_size) == core_ball(H, members, min_size, full)
    assert truncated > 20


def test_seed_bounded_peel_checks_the_seed_nodes():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert nbr_core_decomposition(H, ()) == nbr_core_decomposition(H)
    with pytest.raises(InputError):
        nbr_core_decomposition(H, [1, 3])


def test_core_ball_accepts_first_component():
    # triangle is the 2-core; the seed's core component at k* = 2 already
    # reaches min_size, so the pendant stays out
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [2, 3]])
    ball = core_ball(H, [0, 1], min_size=3)
    assert ball.nodes == {0, 1, 2} and ball.detail == 2 and ball.method == "core"


def test_core_ball_descends_to_k1():
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [2, 3]])
    ball = core_ball(H, [2, 3], min_size=2)
    assert ball.detail == 1
    assert ball.nodes == {0, 1, 2, 3}


def test_core_ball_stays_in_seed_component():
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    ball = core_ball(H, [0, 1], min_size=6)
    assert ball.nodes == {0, 1, 2}


def test_core_ball_rejects_non_edges_and_small_min_size():
    H = Hypergraph.from_members([[0, 1, 2]])
    with pytest.raises(InputError):
        core_ball(H, [0, 1], min_size=2)
    with pytest.raises(InputError):
        core_ball(H, [0, 1, 2], min_size=2)


def test_bfs_layers_path():
    H = Hypergraph.from_members([[0, 1], [1, 2], [2, 3]])
    assert list(H.bfs([0, 1])) == [[0, 1], [2], [3]]


def test_bfs_layers_one_big_edge():
    H = Hypergraph.from_members([[0, 1, 2, 3]])
    assert list(H.bfs([0, 1])) == [[0, 1], [2, 3]]


def test_bfs_layers_seed_spans_component():
    H = Hypergraph.from_members([[0, 1], [2, 3]])
    assert list(H.bfs([0, 1])) == [[0, 1]]


def test_bfs_layers_partition_component():
    rng = random.Random(17)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 11), 0.2, 0.08)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        layers = list(H.bfs(seed))
        flat = [v for layer in layers for v in layer]
        assert len(flat) == len(set(flat))
        assert set(flat) == H.connected_component(seed)


def test_bfs_balls_small_component_single_ball():
    H = Hypergraph.from_members([[0, 1], [1, 2], [2, 3]])
    balls = bfs_balls(H, [0, 1], alpha=3, min_size=100)
    assert len(balls) == 1
    assert balls[0].nodes == {0, 1, 2, 3}


def test_bfs_balls_three_growing_balls():
    # long path: layers keep coming, three cumulative balls
    edges = [[i, i + 1] for i in range(12)]
    H = Hypergraph.from_members(edges)
    balls = bfs_balls(H, [0, 1], alpha=3, min_size=3)
    assert len(balls) == 3
    sizes = [len(b.nodes) for b in balls]
    assert sizes == sorted(sizes) and sizes[0] < sizes[1] < sizes[2]
    assert balls[0].detail + 1 == balls[1].detail


def test_bfs_balls_truncated_by_exhaustion():
    # path 0-1-2-3: the first ball lands on layer 1, BFS has only layer 2 left
    H = Hypergraph.from_members([[0, 1], [1, 2], [2, 3]])
    balls = bfs_balls(H, [0, 1], alpha=3, min_size=2)
    assert len(balls) == 2
    assert balls[0].nodes == {0, 1, 2}
    assert balls[1].nodes == {0, 1, 2, 3}


def test_every_ball_contains_seed_and_stays_in_component():
    rng = random.Random(23)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 11), 0.2, 0.08)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        component = H.connected_component(seed)
        for ball in bfs_balls(H, seed, alpha=3, min_size=3) + [
            core_ball(H, seed, max(3, len(seed)))
        ]:
            assert set(seed) <= ball.nodes <= component
