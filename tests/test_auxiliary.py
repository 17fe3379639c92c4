import random
from itertools import cycle

import pytest

from motifclust import (
    AuxHypergraph,
    Hypergraph,
    InputError,
    MotifPattern,
    bfs_balls,
    build_aux,
    core_ball,
    cut_net,
    enumerate_motifs,
    motif_cut,
    motif_degrees,
)
from motifclust.testing import (
    brute_motifs,
    random_ball_nodes,
    random_hypergraph,
    synthetic_contact_edges,
)
from references import aux_from_hyperedges, reference_aux_hyperedges


def test_build_aux_toy():
    # one occurrence inside the ball, one reaching outside through node 2
    M = [(0, 1, 2), (2, 3, 4)]
    aux = build_aux(M, {0, 1, 2}, [0, 1, 2])
    assert aux.u == 3
    assert reference_aux_hyperedges(M, {0, 1, 2}) == {(0, 1, 2): 1, (2, 3): 1}
    assert aux.pairs == ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 2))
    assert aux.back_map == (0, 1, 2)


def test_build_aux_merges_parallel_crossing_edges():
    M = [(0, 5, 6), (0, 7, 8)]
    aux = build_aux(M, {0}, [0])
    assert aux.pairs == ((0, 1, 4),)


def test_build_aux_two_pins_inside_add_u():
    # an occurrence with two ball nodes contracts to (a, b, u): 1 per pair
    aux = build_aux([(0, 1, 5)], {0, 1}, [0])
    assert aux.pairs == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert aux.volumes == (1, 1, 0)


def test_build_aux_all_inside_leaves_u_isolated():
    M = [(0, 1, 2)]
    aux = build_aux(M, {0, 1, 2}, [0, 1, 2])
    assert all(aux.u not in (a, b) for a, b, _ in aux.pairs)
    assert aux.neighbors[aux.u] == ()


def test_aux_pair_graph_doubles_weights():
    aux = aux_from_hyperedges(3, [((0, 1, 2), 2), ((2, 3), 3)], seed_nodes=[0])
    assert aux.pairs == ((0, 1, 2), (0, 2, 2), (1, 2, 2), (2, 3, 6))
    assert aux.neighbors[2] == ((0, 2), (1, 2), (3, 6))


def _assert_volumes_are_motif_degrees(H, ball, seed):
    for pattern in MotifPattern:
        M = enumerate_motifs(H, ball, pattern)
        if not M:
            continue
        aux = build_aux(M, ball, seed)
        dmu = motif_degrees(M)
        for a in range(aux.u):
            assert aux.volumes[a] == dmu.get(aux.back_map[a], 0), (pattern, a)
        assert aux.volumes[aux.u] == 0


def test_aux_volumes_are_motif_degrees():
    # d_mu(a) = deg_W(a) / 2 for every ball node, on criterion 1's random
    # hypergraphs and on the core and BFS balls of a contact-style instance
    rng = random.Random(53)
    densities = cycle([(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)])
    for _ in range(60):
        H = random_hypergraph(rng, rng.randint(4, 12), *next(densities), big_edge_p=0.02)
        seed = H.edge(rng.randrange(H.num_edges)).members
        _assert_volumes_are_motif_degrees(H, random_ball_nodes(rng, H, seed), seed)
    H = Hypergraph.from_members(synthetic_contact_edges(n_edges=2000))
    seed = H.edge(0).members
    for ball in [core_ball(H, seed, 100)] + bfs_balls(H, seed, 3, 100):
        _assert_volumes_are_motif_degrees(H, ball.nodes, seed)


def _assert_matches_reference(H, ball, seed):
    for pattern in MotifPattern:
        M = enumerate_motifs(H, ball, pattern)
        if not M:
            continue
        aux = build_aux(M, ball, seed)
        ref = aux_from_hyperedges(
            aux.u, reference_aux_hyperedges(M, ball).items(), aux.seed_nodes, aux.back_map
        )
        assert {(a, b): w for a, b, w in aux.pairs} == {(a, b): w for a, b, w in ref.pairs}
        assert aux.volumes == ref.volumes
        assert [set(nb) for nb in aux.neighbors] == [set(nb) for nb in ref.neighbors]


def test_build_aux_matches_the_hyperedge_reference_randomized():
    # W added straight from the occurrences equals W doubled from the merged
    # auxiliary hyperedges, on criterion 1's random hypergraphs (the seed
    # hyperedge alone and a random connected ball) and on the core and BFS
    # balls of a contact-style instance
    rng = random.Random(59)
    densities = cycle([(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)])
    for _ in range(60):
        H = random_hypergraph(rng, rng.randint(4, 12), *next(densities), big_edge_p=0.02)
        seed = H.edge(rng.randrange(H.num_edges)).members
        _assert_matches_reference(H, frozenset(seed), seed)
        _assert_matches_reference(H, random_ball_nodes(rng, H, seed), seed)
    H = Hypergraph.from_members(synthetic_contact_edges(n_edges=2000))
    seed = H.edge(0).members
    for ball in [core_ball(H, seed, 100)] + bfs_balls(H, seed, 3, 100):
        _assert_matches_reference(H, ball.nodes, seed)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(-1, 1, 2)], "0 <= a < b <= 3"),
        ([(1, 1, 2)], "0 <= a < b <= 3"),
        ([(1, 0, 2)], "0 <= a < b <= 3"),
        ([(0, 4, 2)], "0 <= a < b <= 3"),
        ([(0, 1, 0)], "positive integer weight"),
        ([(0, 1, 2.0)], "positive integer weight"),
        ([(0, 1, 2), (0, 1, 2)], "repeated W pair"),
        # a motif degree is half a W degree, so every W degree is even
        ([(0, 1, 1)], "odd W degree"),
        ([(0, 1, 1), (1, 2, 1)], "odd W degree"),
    ],
)
def test_aux_rejects_bad_pairs(pairs, message):
    with pytest.raises(InputError, match=message):
        AuxHypergraph(3, pairs, seed_nodes=[0])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_ball_nodes": 0, "seed_nodes": [0]}, "at least one ball node"),
        ({"num_ball_nodes": 3, "seed_nodes": []}, "at least one seed node"),
        ({"num_ball_nodes": 3, "seed_nodes": [3]}, "seed nodes must be ball nodes"),
        ({"num_ball_nodes": 3, "seed_nodes": [-1]}, "seed nodes must be ball nodes"),
        ({"num_ball_nodes": 3, "seed_nodes": [0], "back_map": [10, 11]}, "back_map"),
    ],
)
def test_aux_rejects_bad_seeds_and_back_map(kwargs, message):
    with pytest.raises(InputError, match=message):
        AuxHypergraph(pairs=[(0, 1, 2)], **kwargs)


def test_aux_accepts_a_valid_pair_graph():
    aux = AuxHypergraph(3, [[0, 1, 1], [0, 3, 1], [1, 3, 1]], seed_nodes=[0], back_map=[7, 8, 9])
    assert aux.pairs == ((0, 1, 1), (0, 3, 1), (1, 3, 1))
    assert aux.volumes == (1, 1, 0, 0)
    assert aux.edges == (((0, 1), 1), ((0, 3), 1), ((1, 3), 1))
    assert aux.num_edges == 3
    assert aux.back_map == (7, 8, 9)


def test_build_aux_rejects_outside_occurrence():
    with pytest.raises(InputError, match="has no node in the ball"):
        build_aux([(5, 6, 7)], {0, 1}, [0, 1])


def test_build_aux_rejects_seed_outside_ball():
    with pytest.raises(InputError, match="not all inside the ball"):
        build_aux([(0, 1, 2)], {0, 1, 2}, [0, 9])


def test_weight_conservation_and_u_mass_randomized():
    rng = random.Random(51)
    for _ in range(30):
        H = random_hypergraph(rng, rng.randint(4, 11), 0.25, 0.12)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        ball = random_ball_nodes(rng, H, seed)
        pattern = rng.choice(list(MotifPattern))
        M = enumerate_motifs(H, ball, pattern)
        if not M:
            continue
        aux = build_aux(M, ball, seed)
        # each occurrence adds 1 to the motif volume of each of its ball nodes
        assert sum(aux.volumes) == sum(len(ball.intersection(t)) for t in M)
        # and 2 to u's W degree when it reaches outside the ball
        crossing = sum(1 for t in M if not ball.issuperset(t))
        assert sum(w for _, w in aux.neighbors[aux.u]) == 2 * crossing


def test_cut_net_equals_motif_cut_randomized():
    # any 2-way aux split maps back to a split of H whose brute-force
    # motif-cut equals the aux cut-net (u's block absorbs the complement)
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        H = random_hypergraph(rng, rng.randint(4, 11), 0.25, 0.12)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        ball = random_ball_nodes(rng, H, seed)
        pattern = rng.choice(list(MotifPattern))
        M = enumerate_motifs(H, ball, pattern)
        if not M:
            continue
        aux = build_aux(M, ball, seed)
        blocks = [rng.randint(0, 1) for _ in range(aux.num_nodes)]
        blocks[aux.u] = 1
        if sum(blocks) == len(blocks):
            blocks[0] = 0
        cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
        M_global = brute_motifs(H, pattern)
        assert cut_net(aux, blocks) == motif_cut(M_global, cluster)
        checked += 1
