import random
from itertools import cycle

import pytest

from motifclust import (
    Hypergraph,
    InputError,
    MotifPattern,
    classify_triple,
    count_motifs,
    enumerate_motifs,
    motif_degrees,
)
from motifclust.testing import (
    brute_motifs,
    random_ball_nodes,
    random_hypergraph,
    synthetic_contact_edges,
)


def test_pattern_table():
    flags = {(p.has_triadic, p.dyad_count) for p in MotifPattern}
    assert flags == {(False, 2), (False, 3), (True, 0), (True, 1), (True, 2), (True, 3)}
    assert MotifPattern.from_flags(False, 0) is None
    assert MotifPattern.from_flags(False, 1) is None
    assert MotifPattern.from_spec("4") is MotifPattern.IV
    assert MotifPattern.from_spec("vi") is MotifPattern.VI
    assert MotifPattern.VI.number == 6
    with pytest.raises(InputError):
        MotifPattern.from_spec("7")


def test_classify_wedge_is_pattern_one():
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert classify_triple(H, 0, 1, 2) is MotifPattern.I


def test_classify_bare_triad_is_pattern_three():
    H = Hypergraph.from_members([[0, 1, 2]])
    assert classify_triple(H, 2, 0, 1) is MotifPattern.III


def test_classify_disconnected_is_none():
    H = Hypergraph.from_members([[0, 1], [2, 3]])
    assert classify_triple(H, 0, 1, 2) is None


def test_classify_ignores_large_edges():
    # the size-4 hyperedge cannot be contained in any 3-set
    H = Hypergraph.from_members([[0, 1, 2, 3], [0, 1]])
    assert classify_triple(H, 0, 1, 2) is None


def test_classify_rejects_duplicates():
    H = Hypergraph.from_members([[0, 1, 2]])
    with pytest.raises(InputError):
        classify_triple(H, 0, 0, 1)


def test_enumerate_two_triads_touching_ball():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3, 4]])
    M = enumerate_motifs(H, {0, 1, 2}, MotifPattern.III)
    # an occurrence is its sorted node triple, a plain tuple
    assert M == [(0, 1, 2), (2, 3, 4)]
    assert all(type(t) is tuple for t in M)


def test_enumerate_pattern_one_needs_dyads():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3, 4]])
    assert enumerate_motifs(H, {0, 1, 2}, MotifPattern.I) == []


def test_enumerate_requires_nonempty_ball():
    H = Hypergraph.from_members([[0, 1]])
    with pytest.raises(InputError):
        enumerate_motifs(H, set(), MotifPattern.I)


def test_enumerate_rejects_a_ball_node_out_of_range():
    H = Hypergraph.from_members([[0, 1, 2]])
    for node in (3, -1):
        with pytest.raises(InputError, match=f"ball node {node} out of range"):
            enumerate_motifs(H, {0, node}, MotifPattern.III)


def test_enumerate_accepts_only_the_exact_scope():
    # wedge 0-1-2 with ball {0}: endpoint 2 sits outside N[{0}] = {0, 1}
    H = Hypergraph.from_members([[0, 1], [1, 2]])
    assert enumerate_motifs(H, {0}, MotifPattern.I) == [(0, 1, 2)]
    for pattern in MotifPattern:
        assert enumerate_motifs(H, {0}, pattern, "exact") == enumerate_motifs(H, {0}, pattern)
    with pytest.raises(InputError):
        enumerate_motifs(H, {0}, MotifPattern.I, "paper")


def test_enumerate_on_a_ball_matches_brute_force_randomized():
    # criterion 1's random hypergraphs: a ball's occurrences are exactly the
    # brute-force occurrences with a node in the ball, in the same order,
    # wherever their other nodes lie. The seed hyperedge alone is the smallest
    # ball; its closed neighborhood often misses a wedge's far endpoint.
    rng = random.Random(31)
    densities = cycle([(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)])
    for _ in range(60):
        H = random_hypergraph(rng, rng.randint(4, 12), *next(densities), big_edge_p=0.02)
        seed = H.edge(rng.randrange(H.num_edges)).members
        for ball in (frozenset(seed), random_ball_nodes(rng, H, seed)):
            for pattern in MotifPattern:
                expected = [t for t in brute_motifs(H, pattern) if not ball.isdisjoint(t)]
                assert enumerate_motifs(H, ball, pattern) == expected, (H.members, ball, pattern)


def test_enumerate_matches_brute_force_all_patterns():
    rng = random.Random(13)
    for _ in range(30):
        H = random_hypergraph(rng, rng.randint(4, 11), 0.25, 0.1, big_edge_p=0.02)
        everything = frozenset(range(H.n))
        for pattern in MotifPattern:
            got = enumerate_motifs(H, everything, pattern)
            assert got == brute_motifs(H, pattern)
            assert len(got) == len(set(got))  # no duplicates


def test_count_motifs_equals_global_enumeration():
    # criterion 1's random hypergraphs (three densities, some size-4 edges)
    rng = random.Random(41)
    densities = cycle([(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)])
    graphs = [
        random_hypergraph(
            rng, rng.randint(4, 12), *next(densities), big_edge_p=0.02, require_edge=False
        )
        for _ in range(60)
    ]
    graphs.append(Hypergraph.from_members(synthetic_contact_edges(n_edges=2000)))
    for H in graphs:
        for pattern in MotifPattern:
            expected = len(enumerate_motifs(H, range(H.n), pattern))
            assert count_motifs(H, pattern) == expected, (H.members, pattern)


def test_pattern_partition_randomized():
    rng = random.Random(37)
    for _ in range(15):
        H = random_hypergraph(rng, rng.randint(4, 9), 0.3, 0.12)
        everything = frozenset(range(H.n))
        by_triple = {}
        for pattern in MotifPattern:
            for triple in enumerate_motifs(H, everything, pattern):
                assert triple not in by_triple
                by_triple[triple] = pattern
        for triple, pattern in by_triple.items():
            assert classify_triple(H, *triple) is pattern


def test_motif_degrees():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3, 4]])
    M = enumerate_motifs(H, {0, 1, 2}, MotifPattern.III)
    degrees = motif_degrees(M)
    assert degrees[2] == 2 and degrees[0] == 1
    assert motif_degrees([]) == {}
    assert sum(motif_degrees(M).values()) == 3 * len(M)


def test_triads_with_dyads_partitions_the_triads_by_classification():
    # the index classifies each triad once; groups 0..3 hold every triad
    # once, each in the group of its pattern (III..VI)
    rng = random.Random(59)
    graphs = [random_hypergraph(rng, rng.randint(4, 12), 0.3, 0.15, big_edge_p=0.02) for _ in range(20)]
    graphs.append(Hypergraph.from_members(synthetic_contact_edges(n_edges=2000)))
    checked = [0] * 4
    for H in graphs:
        groups = [H.triads_with_dyads(d) for d in range(4)]
        flat = [t for group in groups for t in group]
        assert len(flat) == len(set(flat))
        assert set(flat) == H.triads
        for d, group in enumerate(groups):
            pattern = MotifPattern.from_flags(True, d)
            assert all(classify_triple(H, *t) is pattern for t in group)
            checked[d] += len(group)
    assert min(checked) > 0
    for bad in (-1, 4):
        with pytest.raises(InputError):
            graphs[0].triads_with_dyads(bad)


def test_motif_degrees_match_the_per_triple_count_in_value_and_key_order():
    def per_triple(M):
        counts = {}
        for triple in M:
            for v in triple:
                counts[v] = counts.get(v, 0) + 1
        return counts

    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(3, 40)
        M = [tuple(sorted(rng.sample(range(n), 3))) for _ in range(rng.randint(0, 60))]
        got = motif_degrees(M)
        assert type(got) is dict
        assert list(got.items()) == list(per_triple(M).items())
