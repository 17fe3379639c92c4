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
    assert nbr_core_decomposition(H) == (2, 2, 2)


def test_core_numbers_path():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert nbr_core_decomposition(H) == (1, 1, 1)


def test_core_numbers_triangle_with_pendant():
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [2, 3]])
    assert nbr_core_decomposition(H) == (2, 2, 2, 1)


def test_core_nesting_and_max_degree_bound():
    rng = random.Random(5)
    for _ in range(25):
        H = random_hypergraph(rng, rng.randint(3, 11), 0.25, 0.1, big_edge_p=0.02)
        core = nbr_core_decomposition(H)
        assert len(core) == H.n
        assert max(core) <= max(map(len, H.incidence))
        # each level set k holds every deeper one, and each of its nodes has
        # at least k neighbors over the hyperedges inside it
        below = set(range(H.n))
        for k in range(1, max(core) + 1):
            level = {v for v, c in enumerate(core) if c >= k}
            assert level <= below
            for v in level:
                inside = [H.members[ei] for ei in H.incidence[v] if level.issuperset(H.members[ei])]
                assert len(set().union(*inside)) - 1 >= k
            below = level


def test_core_numbers_match_brute_oracle():
    rng = random.Random(99)
    for _ in range(25):
        H = random_hypergraph(rng, rng.randint(3, 9), 0.3, 0.12, big_edge_p=0.03)
        got = list(nbr_core_decomposition(H))
        assert got == brute_nbr_core_numbers(H)


def test_core_decomposition_matches_the_tuple_keyed_reference_beyond_the_oracle():
    # past the brute oracle's 12 nodes, the pair counts taken on first loss
    # must peel exactly as the reference's, built up front, do
    rng = random.Random(314)
    graphs = [
        random_hypergraph(rng, rng.randint(13, 30), 0.12, 0.01, big_edge_p=0.0005)
        for _ in range(12)
    ]
    graphs += [Hypergraph.from_members(synthetic_contact_edges(seed, n_edges=2000)) for seed in (1, 2, 3)]
    for H in graphs:
        assert H.n > 12
        assert nbr_core_decomposition(H) == reference_nbr_core_decomposition(H)


def parsed_ring(seed, n_groups, edges_per_group):
    """A ring_contact_edges ring with its nodes numbered as the parser does."""
    edges, _hill = ring_contact_edges(seed, n_groups=n_groups, edges_per_group=edges_per_group)
    ids = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(edges)))}
    return Hypergraph.from_members([[ids[v] for v in e] for e in edges])


def test_seed_bounded_peel_is_the_full_decomposition_truncated_at_the_seed_level():
    # given a seed, the peel stops once a seed node is queued, at the seed's
    # level k*. Once the seed's component splits off in some round r, the
    # nodes outside it get r and only the component peels on. Every core
    # number is then min(core(v), r), and min(core(v), k*) on the seed's
    # component of level r; core_ball, which reads only those levels, picks
    # the same ball
    rng = random.Random(2718)
    graphs = [
        random_hypergraph(rng, rng.randint(13, 30), 0.12, 0.04, big_edge_p=0.002)
        for _ in range(12)
    ]
    graphs += [Hypergraph.from_members(synthetic_contact_edges(seed, n_edges=2000)) for seed in (1, 2, 3)]
    rings = [parsed_ring(5, 36, 150), parsed_ring(7, 24, 120), parsed_ring(2, 30, 300), parsed_ring(11, 60, 150)]
    # the first is the ring that test_golden parses
    assert [H.n for H in rings] == [761, 497, 657, 1281]
    truncated = 0
    restricted = {}
    for H, samples in [(H, 12) for H in graphs] + [(H, 25) for H in rings]:
        full = nbr_core_decomposition(H)
        for ei in rng.sample(range(H.num_edges), min(H.num_edges, samples)):
            members = H.members[ei]
            k_star = min(full[v] for v in members)
            got = nbr_core_decomposition(H, members)
            assert max(got) == k_star
            # r is the level every node the restriction capped holds
            capped = [g for g, c in zip(got, full) if g != min(c, k_star)]
            r = min(capped, default=k_star)
            level = {v for v, c in enumerate(full) if c >= r}
            component = H.connected_component(members, within=level)
            for v, c in enumerate(full):
                assert got[v] == min(c, k_star if v in component else r)
            truncated += k_star < max(full)
            restricted[H] = restricted.get(H, 0) + (r < k_star)
            for min_size in (len(members), 20, 100):
                assert core_ball(H, members, min_size) == core_ball(H, members, min_size, full)
    assert truncated > 20
    # each ring's hills split off from one another before most seeds' levels
    assert all(restricted[H] > 25 // 2 for H in rings), [restricted[H] for H in rings]


def clique_on(nodes):
    return [[a, b] for i, a in enumerate(nodes) for b in nodes[i + 1 :]]


def test_a_pair_keeps_a_shared_dyad_when_a_third_node_kills_their_triad():
    # 0 and 1 share the dyad [0, 1] and the triad [0, 1, 2]; deleting 2 in
    # round 3 kills only the triad, so 0 and 1 stay neighbors and the six
    # nodes 0, 1, 3..6 stay a 5-core. Losing the pair there would leave 0
    # and 1 four neighbors and every node of it level 4
    edges = [[0, 1], [0, 1, 2]] + [[x, c] for x in (0, 1) for c in (3, 4, 5, 6)] + clique_on([3, 4, 5, 6])
    H = Hypergraph.from_members(edges)
    want = (5, 5, 2, 5, 5, 5, 5)
    assert list(want) == brute_nbr_core_numbers(H)
    assert nbr_core_decomposition(H) == want
    assert nbr_core_decomposition(H, [3, 4]) == nbr_core_decomposition(H)


def test_a_pair_whose_shared_hyperedges_die_in_one_deletion_loses_each_other_once():
    # 0 and 1 share only [0, 1, 2] and [0, 1, 2, 3]; deleting 2 in round 4
    # kills both, so 0 and 1 stop being neighbors once and keep 4..7 as
    # their four neighbors until round 5. Losing each other twice would drop
    # them in round 4 (all levels 3), and not at all would leave 0, 1, 4..7
    # a 5-core
    edges = [[0, 1, 2], [0, 1, 2, 3]] + [[x, c] for x in (0, 1) for c in (4, 5, 6, 7)]
    H = Hypergraph.from_members(edges + clique_on([4, 5, 6, 7]))
    want = (4, 4, 3, 3, 4, 4, 4, 4)
    assert list(want) == brute_nbr_core_numbers(H)
    assert nbr_core_decomposition(H) == want
    assert nbr_core_decomposition(H, [4, 5]) == nbr_core_decomposition(H)


def test_core_decomposition_of_two_blobs_with_and_without_a_bridge_matches_the_reference():
    # the seedless call never restricts the peel: two blobs, disjoint or
    # joined by one dyad, peel as one hypergraph
    first = synthetic_contact_edges(4, n_nodes=60, n_edges=400, n_groups=3, group_size=24)
    second = synthetic_contact_edges(9, n_nodes=80, n_edges=900, n_groups=4, group_size=24)
    edges = first + [tuple(v + 60 for v in e) for e in second]
    for bridge in ([], [(0, 60)]):
        H = Hypergraph.from_members(edges + bridge)
        assert H.n == 140
        core = nbr_core_decomposition(H)
        assert core == reference_nbr_core_decomposition(H)
        assert len(set(core)) > 2


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


def test_core_ball_rejects_non_edges_and_floors_min_size_at_the_seed():
    H = Hypergraph.from_members([[0, 1, 2]])
    with pytest.raises(InputError):
        core_ball(H, [0, 1], min_size=2)
    # every component holds the seed, so a min_size below the seed's size
    # gives the ball the seed's size gives
    rng = random.Random(11)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(6, 14), 0.2, 0.1, big_edge_p=0.02)
        for seed in H.members:
            ball = core_ball(H, seed, min_size=len(seed))
            for min_size in range(1, len(seed)):
                assert core_ball(H, seed, min_size=min_size) == ball, (H.members, seed)


def test_core_ball_refuses_a_decomposition_of_another_hypergraph():
    H = Hypergraph.from_members([[0, 1], [1, 2], [0, 2], [2, 3]])
    assert core_ball(H, [0, 1], 3, (2, 2, 2, 1)) == core_ball(H, [0, 1], 3)
    for core in ((2, 2, 2), (2, 2, 2, 1, 0)):
        with pytest.raises(InputError, match=f"decomposition holds {len(core)} core numbers, the hypergraph 4 nodes"):
            core_ball(H, [0, 1], 3, core)


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


def test_bfs_balls_rejects_a_bad_alpha_or_min_size():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    with pytest.raises(InputError, match="alpha must be >= 1, got 0"):
        bfs_balls(H, [0, 1], alpha=0, min_size=2)
    with pytest.raises(InputError, match="min_size must be >= 1, got 0"):
        bfs_balls(H, [0, 1], alpha=3, min_size=0)


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
