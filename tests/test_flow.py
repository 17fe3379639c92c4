import random
from fractions import Fraction
from itertools import product

from motifclust.auxiliary import AuxHypergraph
from motifclust.flow import least_ratio_cut, max_flow


def brute_min_cuts(num_nodes, edges, source, sink):
    """The min cut capacity and the intersection of every min-cut source side."""
    best, sides = None, []
    others = [v for v in range(num_nodes) if v not in (source, sink)]
    for bits in product((False, True), repeat=len(others)):
        side = {source} | {v for v, b in zip(others, bits) if b}
        cap = sum(
            ab * (a in side and b not in side) + ba * (b in side and a not in side)
            for a, b, ab, ba in edges
        )
        if best is None or cap < best:
            best, sides = cap, [side]
        elif cap == best:
            sides.append(side)
    return best, set.intersection(*sides)


def test_max_flow_is_the_min_cut_and_reaches_its_least_source_side():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 9)
        source, sink = rng.sample(range(n), 2)
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2)
            edges.append((a, b, rng.randint(0, 9), rng.choice((0, rng.randint(0, 9)))))
        flow, reach = max_flow(n, edges, source, sink)
        cap, least = brute_min_cuts(n, edges, source, sink)
        assert flow == cap
        assert {v for v in range(n) if reach[v]} == least


def test_max_flow_on_a_5000_node_path_needs_no_recursion():
    # one phase whose level graph is 5,000 nodes deep: a recursive DFS would
    # pass Python's default recursion limit of 1,000 frames
    n = 5000
    edges = [(v, v + 1, n - v, 0) for v in range(n - 1)]  # the last arc is the least
    assert max_flow(n, edges, 0, n - 1) == (2, [True] * (n - 1) + [False])


def test_least_ratio_cut_on_a_path_aux_needs_no_recursion():
    # one seed at one end of the path and u at the other: the flow from the
    # far end reaches u only along the whole path, through a level graph
    # deeper than the recursion limit. Dinic needs one phase per path node
    # here, so the path is kept at 1,200 nodes
    n = 1200
    aux = AuxHypergraph(n - 1, [(v, v + 1, 2) for v in range(n - 1)], seed_nodes=[0])
    blocks, cut, vol = least_ratio_cut(aux)
    # every prefix cuts one pair, so the whole ball has the least ratio
    assert (blocks, cut, vol) == ([0] * (n - 1) + [1], 1, 2 * (n - 1) - 1)
    assert Fraction(cut, vol) == Fraction(1, 2 * n - 3)


def test_least_ratio_cut_without_motif_volume_is_none():
    assert least_ratio_cut(AuxHypergraph(3, [], seed_nodes=[0])) is None
