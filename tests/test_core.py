import random
from itertools import combinations

import pytest

from motifclust import Hyperedge, Hypergraph, InputError
from motifclust.testing import random_hypergraph, synthetic_contact_edges


def test_neighbors_single_edge():
    H = Hypergraph.from_members([[0, 1, 2]])
    assert H.neighbors(0) == {1, 2}


def test_neighbors_pairwise_and_union():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert H.neighbors(0) == {1}
    assert H.neighbors(1) == {0, 2}


def test_neighbors_out_of_range():
    H = Hypergraph.from_members([[0, 1]])
    with pytest.raises(InputError):
        H.neighbors(7)


def test_closed_neighborhood():
    H = Hypergraph.from_members([[0, 1], [1, 2], [3, 4]])
    assert H.closed_neighborhood([]) == frozenset()
    assert H.closed_neighborhood({0}) == {0, 1}
    H2 = Hypergraph.from_members([[0, 1, 2], [2, 3]])
    assert H2.closed_neighborhood({0}) == {0, 1, 2}


def test_connected_component():
    H = Hypergraph.from_members([[0, 1], [2, 3]])
    assert H.connected_component({0}) == {0, 1}
    H2 = Hypergraph.from_members([[0, 1, 2], [2, 3], [4, 5]])
    assert H2.connected_component({3}) == {0, 1, 2, 3}
    # within a node set, only hyperedges fully inside it are traversed
    assert H2.connected_component({3}, within={1, 2, 3}) == {2, 3}
    assert H2.connected_component({0}, within={0, 1, 2, 3}) == {0, 1, 2, 3}
    with pytest.raises(InputError):
        H.connected_component(set())


def test_bfs_within_crosses_only_inside_edges():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3], [3, 4], [1, 4]])
    assert list(H.bfs([3])) == [[3], [2, 4], [0, 1]]
    # [0, 1, 2] reaches outside {1, 2, 3, 4}, so 1 is only reached through [1, 4]
    assert list(H.bfs([3], within={1, 2, 3, 4})) == [[3], [2, 4], [1]]


def test_edge_index_of_round_trip_randomized():
    rng = random.Random(101)
    graphs = [
        random_hypergraph(rng, rng.randint(4, 12), dyad_p, triad_p, big_edge_p=0.02)
        for dyad_p, triad_p in [(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)] * 10
    ]
    graphs.append(Hypergraph.from_members(synthetic_contact_edges(n_edges=2000)))
    for H in graphs:
        for i, e in enumerate(H.edges):
            members = list(e.members)
            assert H.edge_index_of(members) == i
            rng.shuffle(members)
            assert H.edge_index_of(members) == i
            assert H.edge_index_of(members + members[:2]) == i
            if len(members) == 3:
                for pair in combinations(e.members, 2):
                    if pair not in H.dyads:
                        assert H.edge_index_of(pair) is None


def test_edge_index_of_misses():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3]])
    assert H.edge_index_of([0, 1]) is None  # a dyad inside a triad, not an edge
    assert H.edge_index_of([2, 4]) is None  # id >= n
    assert H.edge_index_of([-1, 0]) is None


def test_duplicate_edges_rejected_at_construction():
    with pytest.raises(InputError):
        Hypergraph(3, [[0, 1], [1, 0]])


def test_hyperedge_canonical_form():
    e = Hyperedge.of([2, 0, 1, 1])
    assert e.members == (0, 1, 2)
    with pytest.raises(InputError):
        Hyperedge.of([3])


def test_neighbor_symmetry_randomized():
    rng = random.Random(42)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.2, 0.08, big_edge_p=0.02)
        for v in range(H.n):
            for u in H.neighbors(v):
                assert v in H.neighbors(u)


def test_handshake_identity_randomized():
    rng = random.Random(7)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.25, 0.1)
        assert sum(H.degree(v) for v in range(H.n)) == sum(len(e) for e in H.edges)


def test_connected_component_idempotent_randomized():
    rng = random.Random(11)
    for _ in range(15):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.15, 0.05)
        comp = H.connected_component({0})
        for v in sorted(comp):
            assert H.connected_component({v}) == comp
