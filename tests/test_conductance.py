import random
from fractions import Fraction

import pytest

from motifclust import (
    Hypergraph,
    MotifPattern,
    UndefinedConductanceError,
    build_aux,
    conductance_direct,
    cut_net,
    enumerate_motifs,
    motif_conductance,
    motif_cut,
)
from motifclust.testing import random_ball_nodes, random_hypergraph


def two_triad_toy():
    H = Hypergraph.from_members([[0, 1, 2], [2, 3, 4]])
    M = enumerate_motifs(H, frozenset(range(5)), MotifPattern.III)
    return H, M


def test_motif_cut_examples():
    _, M = two_triad_toy()
    assert motif_cut(M, set()) == 0
    assert motif_cut(M, {0, 1, 2}) == 1
    assert motif_cut(M, {0, 1, 2, 3, 4}) == 0


def test_conductance_direct_toy():
    _, M = two_triad_toy()
    res = conductance_direct(M, {0, 1, 2})
    assert res.phi == Fraction(1, 2)
    assert res.motif_cut == 1
    assert res.volume_used == 2 and res.side == "complement"


def test_conductance_direct_degenerate_cases():
    _, M = two_triad_toy()
    with pytest.raises(UndefinedConductanceError):
        conductance_direct(M, {0, 1, 2, 3, 4})  # complement volume 0, cut 0
    with pytest.raises(UndefinedConductanceError):
        conductance_direct([], {0})
    # one side empty of motifs but no cut: phi = 0 by convention
    H = Hypergraph.from_members([[0, 1, 2], [3, 4]])
    M2 = enumerate_motifs(H, frozenset(range(5)), MotifPattern.III)
    res = conductance_direct(M2, {3, 4})
    assert res.phi == 0 and res.volume_used == 0 and res.side == "cluster"


def test_conductance_direct_symmetry():
    rng = random.Random(21)
    for _ in range(20):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.25, 0.1)
        pattern = rng.choice(list(MotifPattern))
        M = enumerate_motifs(H, frozenset(range(H.n)), pattern)
        if not M:
            continue
        C = {v for v in range(H.n) if rng.random() < 0.5}
        comp = set(range(H.n)) - C
        try:
            a = conductance_direct(M, C)
            b = conductance_direct(M, comp)
        except UndefinedConductanceError:
            continue
        assert a.phi == b.phi


def aux_route(aux, blocks, total):
    """(phi, cut, volume, side) of block 0 as the pipeline scores it: the aux
    cut-net over the smaller motif volume side; phi is None when a side has
    no motif volume."""
    cut = cut_net(aux, blocks)
    vol0 = sum(aux.volumes[a] for a in range(aux.u) if blocks[a] == 0)
    side = "cluster" if vol0 <= total - vol0 else "complement"
    return motif_conductance(cut, vol0, total), cut, min(vol0, total - vol0), side


def test_via_aux_uses_the_complement_when_the_ball_outweighs_it():
    # d_mu(B) = 4 > 2 = d_mu(complement): the complement is the denominator
    H, M = two_triad_toy()
    B = {0, 1, 2}
    M_ball = enumerate_motifs(H, B, MotifPattern.III)
    aux = build_aux(M_ball, B, [0, 1, 2])
    blocks = [0, 0, 0, 1]
    via = aux_route(aux, blocks, 3 * len(M))
    direct = conductance_direct(M, B)
    assert via == (direct.phi, direct.motif_cut, direct.volume_used, direct.side)
    assert via == (Fraction(1, 2), 1, 2, "complement")


def test_motif_conductance_is_cut_over_the_smaller_side():
    assert motif_conductance(3, 4, 20) == Fraction(3, 4)
    assert motif_conductance(3, 16, 20) == Fraction(3, 4)
    assert motif_conductance(0, 10, 20) == 0
    assert motif_conductance(0, 0, 20) is None
    assert motif_conductance(0, 20, 20) is None


def test_aux_route_equals_direct_route_randomized():
    # with the global motif volume, the aux route equals the direct route on
    # every split; where it is undefined, the direct route is 0/0 or has a
    # motif-free cluster (phi 0 by convention)
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        H = random_hypergraph(rng, rng.randint(4, 11), 0.25, 0.12)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        ball = random_ball_nodes(rng, H, seed)
        pattern = rng.choice(list(MotifPattern))
        M_ball = enumerate_motifs(H, ball, pattern)
        if not M_ball:
            continue
        M_global = enumerate_motifs(H, frozenset(range(H.n)), pattern)
        aux = build_aux(M_ball, ball, seed)
        blocks = [rng.randint(0, 1) for _ in range(aux.num_nodes)]
        blocks[aux.u] = 1
        for s in aux.seed_nodes:
            blocks[s] = 0
        cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
        checked += 1
        try:
            direct = conductance_direct(M_global, cluster)
        except UndefinedConductanceError:
            direct = None
        via = aux_route(aux, blocks, 3 * len(M_global))
        if via[0] is None:
            assert direct is None or direct.volume_used == 0
            continue
        assert via == (
            direct.phi,
            direct.motif_cut,
            direct.volume_used,
            direct.side,
        )  # exact rational equality


def test_phi_range_invariant():
    rng = random.Random(71)
    for _ in range(40):
        H = random_hypergraph(rng, rng.randint(4, 10), 0.25, 0.12)
        pattern = rng.choice(list(MotifPattern))
        M = enumerate_motifs(H, frozenset(range(H.n)), pattern)
        if not M:
            continue
        C = {v for v in range(H.n) if rng.random() < 0.5}
        try:
            res = conductance_direct(M, C)
        except UndefinedConductanceError:
            continue
        assert 0 <= res.phi <= 1


def test_monotone_sanity_adding_inside_occurrence():
    from motifclust.motifs import MotifOccurrence

    M = [
        MotifOccurrence((0, 1, 2), MotifPattern.III),
        MotifOccurrence((2, 3, 4), MotifPattern.III),
    ]
    C = {0, 1, 2, 5}
    base = conductance_direct(M, C)
    extra = M + [MotifOccurrence((0, 1, 5), MotifPattern.III)]
    # an occurrence entirely inside C leaves the cut unchanged and can only
    # shrink phi through the denominator
    res = conductance_direct(extra, C)
    assert res.motif_cut == base.motif_cut
    assert res.phi <= base.phi
