import random
from fractions import Fraction
from itertools import product

import pytest

import motifclust.partition as mp
from motifclust import (
    AuxHypergraph,
    ConstraintError,
    InputError,
    cut_net,
    enforce_consistency,
    fm_refine,
    is_consistent,
    partition_search,
    random_feasible_partition,
)


def toy_aux():
    # the contracted two-triad toy: nodes a=0, b=1, v=2, u=3
    return AuxHypergraph(3, [((0, 1, 2), 1), ((2, 3), 1)], seed_nodes=[0, 1, 2])


def random_aux(rng, max_nodes=12):
    ball = rng.randint(2, max_nodes - 1)
    u = ball
    edges = {}
    for _ in range(rng.randint(1, 3 * ball)):
        size = rng.choice((2, 2, 3))
        members = tuple(sorted(rng.sample(range(u + 1), size)))
        if len(members) == size:
            edges[members] = edges.get(members, 0) + rng.randint(1, 3)
    if not edges:
        edges = {(0, u): 1}
    n_seeds = rng.randint(1, max(1, ball // 2))
    seeds = rng.sample(range(ball), n_seeds)
    return AuxHypergraph(ball, sorted(edges.items()), seed_nodes=seeds)


def all_consistent_partitions(aux):
    free = [v for v in range(aux.u) if v not in aux.seed_nodes]
    for bits in product((0, 1), repeat=len(free)):
        blocks = [0] * aux.num_nodes
        blocks[aux.u] = 1
        for v, b in zip(free, bits):
            blocks[v] = b
        yield blocks


def test_cut_net_toy():
    aux = toy_aux()
    assert cut_net(aux, [0, 0, 0, 1]) == 1
    assert cut_net(aux, [0, 0, 1, 1]) == 1
    with pytest.raises(ConstraintError):
        cut_net(aux, [0, 0, 0, 0])


def test_random_feasible_partition_contract():
    aux = toy_aux()
    rng = random.Random(1)
    blocks = random_feasible_partition(aux, 0.5, rng)
    assert blocks == [0, 0, 0, 1]  # everything is fixed in the toy
    again = random_feasible_partition(aux, 0.5, random.Random(1))
    assert blocks == again


def test_random_feasible_partition_respects_bound():
    rng = random.Random(2)
    for _ in range(50):
        aux = random_aux(rng)
        eps = rng.uniform(0.03, 0.5)
        blocks = random_feasible_partition(aux, eps, rng)
        bound = mp.size_bound(aux.num_nodes, eps)
        assert sum(blocks) <= bound and len(blocks) - sum(blocks) <= bound
        assert blocks[aux.u] == 1
        assert all(blocks[s] == 0 for s in aux.seed_nodes)


def test_random_feasible_partition_infeasible_seeds():
    aux = AuxHypergraph(4, [((0, 4), 1)], seed_nodes=[0, 1, 2, 3])
    with pytest.raises(ConstraintError):
        random_feasible_partition(aux, 0.01, random.Random(0))


def test_fm_refine_never_increases_cut():
    rng = random.Random(3)
    for _ in range(60):
        aux = random_aux(rng)
        eps = rng.uniform(0.03, 0.5)
        blocks = random_feasible_partition(aux, eps, rng)
        before = cut_net(aux, blocks)
        after = fm_refine(aux, blocks, eps)
        assert cut_net(aux, after) <= before


def test_fm_refine_keeps_fixed_nodes():
    rng = random.Random(4)
    for _ in range(30):
        aux = random_aux(rng)
        blocks = random_feasible_partition(aux, 0.4, rng)
        refined = fm_refine(aux, blocks, 0.4)  # every node but u may move
        assert refined[aux.u] == 1


def hyperedge_cut(aux, blocks):
    # reference cut-net straight from the hyperedges, independent of W
    return sum(w for members, w in aux.edges if len({blocks[v] for v in members}) == 2)


def test_fm_gain_correctness_brute():
    # each node's gain on the pair graph W (external minus internal weight)
    # is twice the hyperedge cut-net delta of flipping it
    rng = random.Random(5)
    for _ in range(40):
        aux = random_aux(rng, max_nodes=9)
        blocks = random_feasible_partition(aux, 0.5, rng)
        base = hyperedge_cut(aux, blocks)
        assert cut_net(aux, blocks) == base
        for v in range(aux.num_nodes):
            flipped = list(blocks)
            flipped[v] = 1 - flipped[v]
            if sum(flipped) in (0, len(flipped)):
                continue
            gain_w = sum(w if blocks[x] != blocks[v] else -w for x, w in aux.neighbors[v])
            assert gain_w % 2 == 0
            assert gain_w // 2 == base - hyperedge_cut(aux, flipped), f"node {v}"


def test_fm_refine_toy_no_worse_than_start():
    aux = toy_aux()
    free_aux = AuxHypergraph(3, [((0, 1, 2), 1), ((2, 3), 1)], seed_nodes=[0])
    start = [0, 0, 1, 1]
    refined = fm_refine(free_aux, start, 0.5)
    assert cut_net(free_aux, refined) <= cut_net(free_aux, start) == 1
    # already optimal: no move lowers the cut
    assert fm_refine(aux, [0, 0, 0, 1], 0.5) == [0, 0, 0, 1]


def test_fm_observer_cut_tracking_and_nonempty_blocks():
    # the cut reported after every committed move equals a recomputation, and
    # no visited state (nor the result) ever empties a block, even with a
    # bound loose enough to allow it
    rng = random.Random(6)
    for _ in range(40):
        aux = random_aux(rng)
        eps = rng.uniform(0.05, 1.0)
        blocks = random_feasible_partition(aux, eps, rng)

        def observer(event, live, moved, cut, aux=aux):
            if event == "move":
                assert 0 < sum(live) < len(live)
                assert cut_net(aux, live) == cut

        out = fm_refine(aux, blocks, eps, observer=observer)
        assert 0 < sum(out) < len(out)


def test_enforce_consistency():
    aux = AuxHypergraph(3, [((0, 3), 1)], seed_nodes=[0, 1])
    assert enforce_consistency(aux, [0, 0, 1, 1]) == [0, 0, 1, 1]
    # u on block 0: relabel flips everything first
    assert enforce_consistency(aux, [1, 1, 0, 0]) == [0, 0, 1, 1]
    # stray seeds moved; block 1 may end up holding only u
    moved = enforce_consistency(aux, [1, 1, 1, 1])
    assert moved == [0, 0, 1, 1]
    assert is_consistent(aux, moved)


def test_partition_search_toy():
    aux = toy_aux()
    assert aux.volumes == (1, 1, 2, 0)  # degrees from the two-triad toy, 0 for u
    # the toy's global volume is 6: the ball {0, 1, 2} outweighs its complement
    found = partition_search(aux, 5, (0.03, 0.5), random.Random(0), 6)
    assert found is not None
    blocks, phi = found
    assert blocks == [0, 0, 0, 1]
    assert phi == Fraction(1, 2)
    # with more volume outside the ball, the cluster side is the denominator
    found = partition_search(aux, 5, (0.03, 0.5), random.Random(0), 12)
    assert found[1] == Fraction(1, 4)
    # no state with motif volume on both sides
    assert partition_search(aux, 5, (0.03, 0.5), random.Random(0), 4) is None


def test_partition_search_beta_one_and_validation():
    aux = toy_aux()
    found = partition_search(aux, 1, (0.1, 0.1), random.Random(7), 6)
    assert found is not None
    with pytest.raises(InputError):
        partition_search(aux, 0, (0.03, 0.5), random.Random(0), 6)
    with pytest.raises(InputError):
        partition_search(aux, 1, (0.0, 0.5), random.Random(0), 6)


def test_partition_search_monotone_in_beta():
    rng = random.Random(8)
    aux = random_aux(rng)
    total = 2 * sum(aux.volumes)

    phis = []
    for beta in (1, 4, 16):
        found = partition_search(aux, beta, (0.03, 0.5), random.Random(42), total)
        phis.append(found[1] if found else None)
    defined = [p for p in phis if p is not None]
    assert defined == sorted(defined, reverse=True) or len(defined) < 2


def test_partition_search_matches_exhaustive_toy_scale():
    # stochastic acceptance bound: >= 95% optimal over 100 random instances
    # built from real motif collections; eps sampled up to 1.0 so extreme
    # block sizes stay reachable
    from motifclust import (
        MotifPattern,
        build_aux,
        count_motifs,
        enumerate_motifs,
        motif_conductance,
        motif_degrees,
    )
    from motifclust.testing import random_ball_nodes, random_hypergraph

    rng = random.Random(9)
    hits = checked = 0
    while checked < 100:
        H = random_hypergraph(rng, rng.randint(5, 11), 0.25, 0.12)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        ball = random_ball_nodes(rng, H, seed)
        pattern = rng.choice(list(MotifPattern))
        M = enumerate_motifs(H, ball, pattern)
        if not M:
            continue
        aux = build_aux(M, ball, seed)
        if aux.u - len(aux.seed_nodes) > 10:
            continue  # keep the exhaustive side cheap
        dmu = motif_degrees(M)  # the reference counts volumes from the occurrences
        total = 3 * count_motifs(H, pattern)

        best = None
        for blocks in all_consistent_partitions(aux):
            vol0 = sum(dmu.get(aux.back_map[a], 0) for a in range(aux.u) if blocks[a] == 0)
            phi = motif_conductance(cut_net(aux, blocks), vol0, total)
            if phi is not None and (best is None or phi < best):
                best = phi
        checked += 1
        found = partition_search(aux, 200, (0.03, 1.0), random.Random(1000 + checked), total)
        got = None if found is None else found[1]
        if (best is None and got is None) or got == best:
            hits += 1
    assert hits >= 95
