import random
from fractions import Fraction
from itertools import product

import pytest

import motifclust.partition as mp
from motifclust import (
    Hypergraph,
    InputError,
    MotifPattern,
    bfs_balls,
    build_aux,
    core_ball,
    cut_net,
    enumerate_motifs,
    fm_refine,
    motif_conductance,
    partition_search,
    random_feasible_partition,
)
from motifclust.testing import synthetic_contact_edges
from references import aux_from_hyperedges, reference_fm_refine, reference_partition_search


def toy_aux():
    # the contracted two-triad toy: nodes a=0, b=1, v=2, u=3
    return aux_from_hyperedges(3, [((0, 1, 2), 1), ((2, 3), 1)], seed_nodes=[0, 1, 2])


def random_hyperedges(rng, max_nodes=12):
    """(ball size, {members: weight}, seeds) of a random auxiliary hypergraph."""
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
    return ball, edges, seeds


def random_aux(rng, max_nodes=12):
    ball, edges, seeds = random_hyperedges(rng, max_nodes)
    return aux_from_hyperedges(ball, sorted(edges.items()), seed_nodes=seeds)


def desk_auxes(n_edges, pattern):
    """The aux of each ball (core, then bfs) around hyperedge 0 of the desk
    contact hypergraph with ``n_edges`` hyperedges."""
    H = Hypergraph.from_members(synthetic_contact_edges(n_edges=n_edges))
    seed = H.edge(0).members
    balls = [core_ball(H, seed, 100)] + bfs_balls(H, seed, 3, 100)
    return [build_aux(enumerate_motifs(H, ball, pattern), ball, seed) for ball in balls]


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
    with pytest.raises(InputError, match="both blocks must be nonempty"):
        cut_net(aux, [0, 0, 0, 0])
    for bad in ("x", None):
        with pytest.raises(InputError, match="block values must be 0 or 1"):
            cut_net(aux, [0, 0, bad, 1])
    for blocks in ([0, 0, 1], [0, 0, 0, 1, 1]):
        with pytest.raises(InputError, match=f"partition covers {len(blocks)} nodes, aux has 4"):
            cut_net(aux, blocks)


def test_size_bound_needs_a_positive_eps():
    assert mp.size_bound(43, 0.03) == 23
    for eps in (0, -0.1):
        with pytest.raises(InputError, match="imbalance eps must be > 0"):
            mp.size_bound(43, eps)


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


def test_random_feasible_partition_falls_back_when_no_draw_fits():
    # 23 seeds fill block 0 of a 43-node ball at eps 0.03 (cap 23 of the 44
    # aux nodes), so a draw fits only when all 20 free nodes land in block 1
    # (p = 2**-20); after MAX_ATTEMPTS misses, the capacity-aware fallback
    # assigns them from the same stream
    aux = aux_from_hyperedges(43, [((v, 43), 1) for v in range(43)], seed_nodes=range(23))
    assert mp.size_bound(aux.num_nodes, 0.03) == 23
    draws = []

    class Counting(random.Random):
        def random(self):
            draws.append(None)
            return super().random()

    blocks = random_feasible_partition(aux, 0.03, Counting(5))
    assert len(draws) == (mp.MAX_ATTEMPTS + 1) * 20  # every draw missed, then the fallback
    assert blocks[aux.u] == 1 and not any(blocks[s] for s in aux.seed_nodes)
    assert blocks.count(0) <= 23 and blocks.count(1) <= 23


def test_random_feasible_partition_infeasible_seeds():
    aux = aux_from_hyperedges(4, [((0, 4), 1)], seed_nodes=[0, 1, 2, 3])
    with pytest.raises(InputError, match="4 seed nodes exceed the block size bound 3"):
        random_feasible_partition(aux, 0.01, random.Random(0))


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: build_aux([(0, 1, 2)], {0, 1, 2}, [0, 9]), "not all inside the ball"),
        (lambda: build_aux([(5, 6, 7)], {0, 1}, [0, 1]), "has no node in the ball"),
        (
            lambda: random_feasible_partition(
                aux_from_hyperedges(4, [((0, 4), 1)], seed_nodes=[0, 1, 2, 3]), 0.01, random.Random(0)
            ),
            "exceed the block size bound",
        ),
        (lambda: cut_net(toy_aux(), [0, 0, 0, 0]), "both blocks must be nonempty"),
    ],
    ids=["seed-outside-ball", "occurrence-outside-ball", "seeds-above-cap", "one-block-split"],
)
def test_caller_input_refusals_raise_input_error(refuse, message):
    # the library has one caller-input error type, the one the CLI maps to exit 2
    with pytest.raises(InputError, match=message):
        refuse()


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
        refined = fm_refine(aux, blocks, 0.4)  # every node but u and the seeds may move
        assert refined[aux.u] == 1
        assert all(refined[s] == 0 for s in aux.seed_nodes)


def test_fm_refine_visits_only_states_with_every_seed_in_block_0():
    # the seeds are fixed like u: no state FM passes through, at a pass
    # start or after a move, has a seed outside block 0 or u outside block 1
    rng = random.Random(41)
    cases = [random_aux(rng) for _ in range(80)]
    cases += desk_auxes(2000, MotifPattern.I) + desk_auxes(12704, MotifPattern.VI)
    states = 0
    for aux in cases:
        for eps in (0.03, 0.5, 1.0):
            blocks = random_feasible_partition(aux, eps, rng)

            def observer(event, live, moved, cut, aux=aux):
                nonlocal states
                states += 1
                assert live[aux.u] == 1 and not any(live[s] for s in aux.seed_nodes)

            fm_refine(aux, blocks, eps, observer=observer)
    assert states > 10_000


def test_fm_refine_rejects_a_start_with_a_fixed_node_outside_its_block():
    aux = aux_from_hyperedges(4, [((0, 1, 2), 1), ((2, 3, 4), 1)], seed_nodes=[0, 1])
    assert fm_refine(aux, [0, 0, 1, 0, 1], 0.5)[4] == 1  # a consistent start is fine
    for start in ([0, 1, 1, 0, 1], [1, 0, 0, 0, 1], [0, 0, 1, 1, 0]):
        with pytest.raises(InputError, match="seed node in block 0 and u in block 1"):
            fm_refine(aux, start, 0.5)


def hyperedge_cut(edges, blocks):
    # reference cut-net straight from the hyperedges, independent of W
    return sum(w for members, w in edges.items() if len({blocks[v] for v in members}) == 2)


def test_fm_gain_correctness_brute():
    # each node's gain on the pair graph W (external minus internal weight)
    # is twice the hyperedge cut-net delta of flipping it
    rng = random.Random(5)
    for _ in range(40):
        ball, edges, seeds = random_hyperedges(rng, max_nodes=9)
        aux = aux_from_hyperedges(ball, sorted(edges.items()), seed_nodes=seeds)
        blocks = random_feasible_partition(aux, 0.5, rng)
        base = hyperedge_cut(edges, blocks)
        assert cut_net(aux, blocks) == base
        for v in range(aux.num_nodes):
            flipped = list(blocks)
            flipped[v] = 1 - flipped[v]
            if sum(flipped) in (0, len(flipped)):
                continue
            gain_w = sum(w if blocks[x] != blocks[v] else -w for x, w in aux.neighbors[v])
            assert gain_w % 2 == 0
            assert gain_w // 2 == base - hyperedge_cut(edges, flipped), f"node {v}"


def test_fm_refine_toy_no_worse_than_start():
    aux = toy_aux()
    free_aux = aux_from_hyperedges(3, [((0, 1, 2), 1), ((2, 3), 1)], seed_nodes=[0])
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


def _fm_trajectory(refine, aux, blocks, eps):
    events = []

    def observer(event, live, moved, cut):
        events.append((event, moved, cut, tuple(live)))

    return refine(aux, blocks, eps, observer=observer), events


def _key_shapes(aux, blocks):
    """Which of (a key above N in size, a negative key, two free nodes of one
    block with equal keys) the starting keys of ``blocks`` show."""
    n = aux.num_nodes
    keys = {}
    for v in range(aux.u):
        keys[v] = sum(w if blocks[x] == blocks[v] else -w for x, w in aux.neighbors[v])
    sides = [(blocks[v], k) for v, k in keys.items()]
    return (
        any(abs(k) > n for k in keys.values()),
        any(k < 0 for k in keys.values()),
        len(set(sides)) < len(sides),
    )


def test_fm_refine_matches_the_tuple_heap_reference():
    # the int-keyed heaps make the same moves as the (key, node) tuple heaps:
    # the same observer stream and the same result, at a size bound that
    # binds (eps 0.03) and at looser ones, with light and heavy weights
    rng = random.Random(61)
    shapes = [False, False, False]
    cases = []
    for i in range(120):
        ball, edges, seeds = random_hyperedges(rng)
        scale = 1 if i % 2 else rng.choice((7, 40, 1000))  # heavy: |key| > N
        aux = aux_from_hyperedges(
            ball, [(m, w * scale) for m, w in sorted(edges.items())], seed_nodes=seeds
        )
        cases.append(aux)
    cases += desk_auxes(2000, MotifPattern.I) + desk_auxes(2000, MotifPattern.VI)
    for aux in cases:
        for eps in (0.03, 0.5, 1.0):
            blocks = random_feasible_partition(aux, eps, rng)
            shapes = [a or b for a, b in zip(shapes, _key_shapes(aux, blocks))]
            got = _fm_trajectory(fm_refine, aux, blocks, eps)
            want = _fm_trajectory(reference_fm_refine, aux, blocks, eps)
            assert got == want
    assert shapes == [True, True, True]


def _passes(events):
    """The observer stream split at its "pass" events."""
    passes = []
    for event in events:
        if event[0] == "pass":
            passes.append([])
        passes[-1].append(event)
    return passes


def _binding_cap(aux, total, last_pass):
    """Which cap on min(vol0, total - vol0) is the least one at the end of a
    stopped pass: 0 for total // 2, 1 for the most block-0 volume a later
    state can hold, 2 for total minus the volume locked in block 0; None on
    a tie."""
    *_, blocks = last_pass[-1]
    moved = {v for _, v, _, _ in last_pass[1:]}
    locked = moved | set(aux.seed_nodes)
    locked0 = sum(aux.volumes[v] for v in locked if not blocks[v])
    free = sum(aux.volumes[v] for v in range(aux.u) if v not in locked)
    caps = [total // 2, locked0 + free, total - locked0]
    least = min(caps)
    return caps.index(least) if caps.count(least) == 1 else None


def test_fm_refine_with_a_best_stops_each_pass_early_and_returns_the_same_blocks():
    # given a _Best, a pass ends once its locked pairs prove that no later
    # state can lower the pass's best cut or beat the best phi. Against FM
    # without a best: the same blocks and pass count, each pass's stream a
    # prefix of the full one, every state cut off rejected by the best, and
    # fewer moves on desk-VI; with totals on either side of sum(volumes) *
    # 3 / 2, so that each cap on the denominator binds at some stop
    rng = random.Random(63)
    cases = []
    for i in range(120):
        ball, edges, seeds = random_hyperedges(rng)
        scale = 1 if i % 2 else rng.choice((7, 40, 1000))
        aux = aux_from_hyperedges(
            ball, [(m, w * scale) for m, w in sorted(edges.items())], seed_nodes=seeds
        )
        cases.append(("random", aux))
    cases += [("desk-VI", aux) for aux in desk_auxes(12704, MotifPattern.VI)]
    cases += [("desk-I", aux) for aux in desk_auxes(2000, MotifPattern.I)]
    moves = {"full": 0, "stopped": 0}
    caps = set()
    for name, aux in cases:
        volume = sum(aux.volumes)
        half = volume // 2
        for total in (volume + rng.randrange(half + 1), volume + half + rng.randrange(volume - half)):
            for eps in (0.03, 0.5):
                seed = rng.randrange(2**32)

                def prefilled():
                    best = mp._Best(total)
                    r = random.Random(seed)
                    for _ in range(3):
                        fm_refine(aux, random_feasible_partition(aux, eps, r), eps, best=best)
                    return best

                blocks = random_feasible_partition(aux, eps, rng)
                want, full = _fm_trajectory(fm_refine, aux, blocks, eps)
                best = prefilled()
                got, stopped = _fm_trajectory(
                    lambda *a, **kw: fm_refine(*a, **kw, best=best), aux, blocks, eps
                )
                assert got == want
                full_passes, stopped_passes = _passes(full), _passes(stopped)
                assert len(stopped_passes) == len(full_passes)
                for a, b in zip(stopped_passes, full_passes):
                    assert a == b[: len(a)]
                    if len(a) < len(b):
                        caps.add(_binding_cap(aux, total, a))
                # the best offered every state of the full run is the same
                reference = prefilled()
                for _, _, cut, live in full:
                    vol0 = sum(d for d, b in zip(aux.volumes, live) if not b)
                    reference.offer(cut, vol0, live.count(0), live)
                assert (best.key, best.blocks) == (reference.key, reference.blocks)
                if name == "desk-VI":
                    moves["full"] += len(full) - len(full_passes)
                    moves["stopped"] += len(stopped) - len(stopped_passes)
    assert moves["stopped"] < moves["full"]
    assert {0, 1, 2} <= caps


def test_partition_search_matches_the_observer_scored_reference(monkeypatch):
    # where FM runs, on balls holding more than half the motif volume
    # (total < 2 * sum(volumes)), fm_refine's own vol0 tracking finds the
    # same winner as the observer that recounts it at each pass start: equal
    # (blocks, phi, cut, size0), or None on both sides, with light and heavy
    # weights, on desk-I and desk-VI balls, at a binding and at looser size
    # bounds, and with totals on either side of sum(volumes) * 3 / 2, so
    # both volume sides win. No restart ends with a seed outside block 0, so
    # no end state needs scoring apart
    displaced = []

    def counting_fm_refine(aux, blocks, eps, observer=None, best=None):
        refined = fm_refine(aux, blocks, eps, observer=observer, best=best)
        displaced.append(any(refined[s] for s in aux.seed_nodes))
        return refined

    monkeypatch.setattr(mp, "fm_refine", counting_fm_refine)
    rng = random.Random(62)
    cases = []
    for i in range(120):
        ball, edges, seeds = random_hyperedges(rng)
        scale = 1 if i % 2 else rng.choice((7, 40, 1000))
        aux = aux_from_hyperedges(
            ball, [(m, w * scale) for m, w in sorted(edges.items())], seed_nodes=seeds
        )
        cases.append((aux, rng.randint(1, 6)))
    for aux in desk_auxes(2000, MotifPattern.I) + desk_auxes(12704, MotifPattern.VI):
        cases.append((aux, 2))
    sides = set()
    undefined = 0
    for aux, beta in cases:
        volume = sum(aux.volumes)
        half = volume // 2
        for total in (volume + rng.randrange(half + 1), volume + half + rng.randrange(volume - half)):
            for eps_range in ((0.03, 0.03), (0.03, 0.5), (0.5, 1.0)):
                seed = rng.randrange(2**32)
                got = partition_search(aux, beta, eps_range, random.Random(seed), total)
                want = reference_partition_search(
                    aux, beta, eps_range, random.Random(seed), total
                )
                assert got == want
                if got is None:
                    undefined += 1
                    continue
                vol0 = sum(d for d, b in zip(aux.volumes, got[0]) if not b)
                sides.add("cluster" if 2 * vol0 <= total else "complement")
    assert sides == {"cluster", "complement"} and undefined > 0
    assert len(displaced) > 1000 and not any(displaced)


def test_partition_search_toy():
    aux = toy_aux()
    assert aux.volumes == (1, 1, 2, 0)  # degrees from the two-triad toy, 0 for u
    # the toy's global volume is 6: the ball {0, 1, 2} outweighs its complement
    found = partition_search(aux, 5, (0.03, 0.5), random.Random(0), 6)
    assert found is not None
    assert found == ([0, 0, 0, 1], Fraction(1, 2), 1, 3)  # blocks, phi, cut, size0
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
    total = 2 * sum(aux.volumes) - 1  # FM runs only where the ball outweighs half

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
    from motifclust import count_motifs, motif_conductance, motif_degrees
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


def brute_least_keys(aux, total):
    """Brute force over every consistent partition: the least (phi, cut,
    size0) key, and the inclusion-minimal block 0 among the minimizers of
    cut - phi * vol0, where phi is the least phi. None, None when no
    partition has a defined phi."""
    states = []
    for blocks in all_consistent_partitions(aux):
        vol0 = sum(d for d, b in zip(aux.volumes, blocks) if not b)
        states.append((blocks, cut_net(aux, blocks), vol0))
    keys = [
        (motif_conductance(cut, vol0, total), cut, blocks.count(0))
        for blocks, cut, vol0 in states
    ]
    defined = [key for key in keys if key[0] is not None]
    if not defined:
        return None, None
    least = min(defined)
    minimal = set(range(aux.num_nodes))
    for blocks, cut, vol0 in states:
        if cut == least[0] * vol0:  # a minimizer, with or without motif volume
            minimal &= {v for v, b in enumerate(blocks) if not b}
    return least, minimal


def test_exact_search_on_a_ball_with_at_most_half_the_volume_matches_brute_force():
    # with 2 * sum(volumes) <= total, partition_search is the flow search:
    # its phi is the least over every consistent partition, and where the
    # inclusion-minimal least-ratio side holds motif volume, its whole key
    # (phi, cut, size0) is the least too. That side is volume-free exactly
    # when the seeds lie in no occurrence (the seeds alone are then a
    # minimizer); phi is still the least there
    rng = random.Random(71)
    keyed = volume_free = seeds_without_volume = 0
    for i in range(2000):
        ball, edges, seeds = random_hyperedges(rng)
        scale = 1 if i % 2 else rng.choice((7, 40, 1000))
        aux = aux_from_hyperedges(
            ball, [(m, w * scale) for m, w in sorted(edges.items())], seed_nodes=seeds
        )
        volume = sum(aux.volumes)
        total = 2 * volume + rng.choice((0, rng.randint(1, 4 * volume)))
        seeds_without_volume += not sum(aux.volumes[s] for s in aux.seed_nodes)
        found = partition_search(aux, 3, (0.03, 0.5), random.Random(i), total)
        least, minimal = brute_least_keys(aux, total)
        if least is None:
            assert found is None
            continue
        assert found[1] == least[0]
        assert cut_net(aux, found[0]) == found[2] and found[0].count(0) == found[3]
        if sum(aux.volumes[v] for v in minimal):
            assert found[1:] == least
            assert {v for v, b in enumerate(found[0]) if not b} == minimal
            keyed += 1
        else:
            volume_free += 1
    assert keyed > 1800 and volume_free == seeds_without_volume > 50

