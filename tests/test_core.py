import random
from itertools import combinations

import pytest

from motifclust import Hyperedge, Hypergraph, InputError
from motifclust.core import canonical_members
from motifclust.testing import random_hypergraph, synthetic_contact_edges


def test_neighbors_single_edge():
    H = Hypergraph.from_members([[0, 1, 2]])
    assert H.closed_neighborhood({0}) - {0} == {1, 2}


def test_neighbors_pairwise_and_union():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert H.closed_neighborhood({0}) - {0} == {1}
    assert H.closed_neighborhood({1}) - {1} == {0, 2}


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
        for i, mem in enumerate(H.members):
            members = list(mem)
            assert H.edge_index_of(members) == i
            rng.shuffle(members)
            assert H.edge_index_of(members) == i
            assert H.edge_index_of(members + members[:2]) == i
            if len(members) == 3:
                for pair in combinations(mem, 2):
                    if pair not in H.dyads:
                        assert H.edge_index_of(pair) is None


def test_edge_index_of_misses():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3]])
    assert H.edge_index_of([0, 1]) is None  # a dyad inside a triad, not an edge
    assert H.edge_index_of([2, 4]) is None  # id >= n
    assert H.edge_index_of([-1, 0]) is None


def test_edge_is_range_checked():
    # like a BFS start node: no silent wrap-around at -1
    H = Hypergraph.from_members([[0, 1, 2], [2, 3]])
    assert H.edge(1).members == (2, 3)
    for i in (-1, 2):
        with pytest.raises(InputError, match="out of range"):
            H.edge(i)


def test_incidence_is_the_read_only_view_of_incident_edges():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3]], n=5)
    assert H.incidence == ((0,), (0,), (0, 1), (1,), ())
    with pytest.raises(AttributeError):
        H.incidence = ()


def test_constructor_canonicalises_raw_members_and_keeps_canonical_ones():
    # unsorted or repeating raw members are canonicalised, not trusted
    assert Hypergraph(3, [(2, 0), [1, 1, 0]]).members == ((0, 2), (0, 1))
    # a canonical tuple is kept as it is
    H = Hypergraph(4, [(1, 3), (0, 1, 2), iter([3, 0])])
    assert H.members == ((1, 3), (0, 1, 2), (0, 3))
    # members that are no ints are converted, as canonical_members does
    H = Hypergraph(3, [(0.0, 2.0), (False, True)])
    assert H.members == ((0, 2), (0, 1))
    assert all(type(v) is int for mem in H.members for v in mem)
    for edges, message in [
        ([(0,)], "at least 2 distinct"),
        ([(1, 1)], "at least 2 distinct"),
        ([(0, 1), (-1, 2)], "negative node id in hyperedge \\(-1, 2\\)"),
        ([(2, -1)], "negative node id"),
        ([(0, 1), (1, 3)], "references node >= n=3"),
        ([(0, 1), (1, 0)], "duplicate hyperedge \\(0, 1\\)"),
    ]:
        with pytest.raises(InputError, match=message):
            Hypergraph(3, edges)


def test_edge_views_equal_the_member_tuples():
    H = Hypergraph.from_members(synthetic_contact_edges(n_edges=300, n_nodes=44, n_groups=2))
    for i, mem in enumerate(H.members):
        assert type(H.edge(i)) is Hyperedge
        assert H.edge(i) == Hyperedge(mem)
        assert H.edge(i).members is mem


def test_duplicate_edges_rejected_at_construction():
    with pytest.raises(InputError):
        Hypergraph(3, [[0, 1], [1, 0]])


def test_hyperedge_canonical_form():
    assert canonical_members([2, 0, 1, 1]) == (0, 1, 2)
    with pytest.raises(InputError):
        canonical_members([3])


def test_hypergraph_rejects_a_repeated_hyperedge_object():
    # a repeated canonical tuple is caught on the constructor's fast path
    with pytest.raises(InputError, match="duplicate hyperedge"):
        Hypergraph(3, [(0, 1), (0, 1)])


@pytest.mark.parametrize("members", [(1, 0), (0,), (0, 0), (-1, 2), [0, 1]])
def test_hyperedge_rejects_non_canonical_members(members):
    with pytest.raises(InputError):
        Hyperedge(members)


def test_hypergraph_rejects_an_out_of_range_node():
    with pytest.raises(InputError, match="references node >= n=2"):
        Hypergraph(2, [[0, 2]])


def test_neighbor_symmetry_randomized():
    rng = random.Random(42)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.2, 0.08, big_edge_p=0.02)
        for v in range(H.n):
            for u in H.closed_neighborhood({v}):
                assert v in H.closed_neighborhood({u})


def test_handshake_identity_randomized():
    rng = random.Random(7)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.25, 0.1)
        assert sum(map(len, H.incidence)) == sum(map(len, H.members))


def test_connected_component_idempotent_randomized():
    rng = random.Random(11)
    for _ in range(15):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.15, 0.05)
        comp = H.connected_component({0})
        for v in sorted(comp):
            assert H.connected_component({v}) == comp
