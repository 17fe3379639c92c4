import random
from itertools import cycle

import pytest

from motifclust import (
    COMPLEMENT,
    AuxHypergraph,
    ConstraintError,
    Hypergraph,
    InputError,
    MotifOccurrence,
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


def occ(*nodes):
    return MotifOccurrence(tuple(sorted(nodes)), MotifPattern.III)


def test_build_aux_toy():
    M = [occ(0, 1, 2), occ(2, 3, 4)]
    aux = build_aux(M, {0, 1, 2}, [0, 1, 2])
    assert aux.u == 3
    assert aux.edges == (((0, 1, 2), 1), ((2, 3), 1))
    assert aux.back_map == (0, 1, 2, COMPLEMENT)


def test_build_aux_merges_parallel_crossing_edges():
    M = [occ(0, 5, 6), occ(0, 7, 8)]
    aux = build_aux(M, {0}, [0])
    assert aux.edges == (((0, 1), 2),)


def test_build_aux_all_inside_leaves_u_isolated():
    M = [occ(0, 1, 2)]
    aux = build_aux(M, {0, 1, 2}, [0, 1, 2])
    assert all(aux.u not in members for members, _ in aux.edges)
    assert aux.neighbors[aux.u] == ()


def test_aux_pair_graph_doubles_weights():
    aux = AuxHypergraph(3, [((0, 1, 2), 2), ((2, 3), 3)], seed_nodes=[0])
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


def test_aux_rejects_more_than_three_pins():
    # cut-net equals half the pair-graph cut only for hyperedges of <= 3 pins
    with pytest.raises(InputError):
        AuxHypergraph(4, [((0, 1, 2, 3), 1)], seed_nodes=[0])


def test_build_aux_rejects_outside_occurrence():
    with pytest.raises(ConstraintError):
        build_aux([occ(5, 6, 7)], {0, 1}, [0, 1])


def test_build_aux_rejects_seed_outside_ball():
    with pytest.raises(ConstraintError):
        build_aux([occ(0, 1, 2)], {0, 1, 2}, [0, 9])


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
        assert sum(w for _, w in aux.edges) == len(M)
        crossing = sum(1 for o in M if not set(o.nodes) <= ball)
        u_mass = sum(w for members, w in aux.edges if aux.u in members)
        assert u_mass == crossing
        for members, _ in aux.edges:
            assert len(members) >= 2
            assert all(0 <= v <= aux.u for v in members)


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
