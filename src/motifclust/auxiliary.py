"""Phase three: the contracted auxiliary hypergraph, held as its pair graph W.

Every motif occurrence touching the ball becomes one hyperedge over the ball's
nodes; everything outside the ball is contracted into a single fresh node u,
so an occurrence (a, b, c) with 2 nodes in the ball becomes (a, b, u) and one
with 1 node becomes (a, u). A cut hyperedge splits exactly two of its pairs
when it has 3 pins and its one pair when it has 2. So in the doubled pair
graph W, where each 3-pin hyperedge adds 1 to each of its pairs and each
2-pin one adds 2 to its pair, cut-net = cut_W / 2 for every 2-way split
(Benson, Gleich & Leskovec, Science 2016). ``build_aux`` adds each occurrence
straight into W, and W is all the auxiliary hypergraph holds. Each occurrence
also adds 2 to the W degree of each of its pins, so a ball node's motif
degree is d_mu(a) = deg_W(a) / 2, carried as ``volumes``. All nodes carry
equal (unit) weight for balancing purposes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError


class AuxHypergraph:
    """The doubled pair graph W on ball nodes 0..u-1 plus the contracted node u.

    ``pairs`` lists W as (a, b, weight) with a < b, and ``neighbors[v]`` holds
    v's (x, weight) entries of W. ``volumes[a]`` is the motif degree of ball
    node a, half its W degree, and ``volumes[u]`` is 0: u stands for nodes
    outside the ball. ``back_map[a]`` is ball node a's hypergraph node id;
    u has none. ``edges`` and ``num_edges`` view W's pairs as
    ((a, b), weight) entries and count them.
    """

    def __init__(
        self,
        num_ball_nodes: int,
        pairs: Iterable[tuple[int, int, int]],
        seed_nodes: Iterable[int],
        back_map: Sequence[int] | None = None,
    ):
        if num_ball_nodes < 1:
            raise InputError("auxiliary hypergraph needs at least one ball node")
        self.u = u = num_ball_nodes
        self.num_nodes = u + 1
        self.pairs = tuple((a, b, w) for a, b, w in pairs)
        neighbors: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        degree = [0] * self.num_nodes
        seen: set[tuple[int, int]] = set()
        for a, b, w in self.pairs:
            if not 0 <= a < b <= u:
                raise InputError(f"W pair {(a, b)!r} must satisfy 0 <= a < b <= {u}")
            if not isinstance(w, int) or w < 1:
                raise InputError(f"W pair {(a, b)!r} needs a positive integer weight, got {w!r}")
            if (a, b) in seen:
                raise InputError(f"repeated W pair {(a, b)!r}; merge weights first")
            seen.add((a, b))
            neighbors[a].append((b, w))
            neighbors[b].append((a, w))
            degree[a] += w
            degree[b] += w
        for v, d in enumerate(degree):
            if d & 1:
                raise InputError(f"node {v} has odd W degree {d}; a motif degree is half of it")
        self.neighbors = tuple(map(tuple, neighbors))
        self.volumes = tuple(d >> 1 for d in degree[:u]) + (0,)
        self.seed_nodes = frozenset(seed_nodes)
        if not self.seed_nodes:
            raise InputError("aux hypergraph needs at least one seed node")
        if u in self.seed_nodes or any(not 0 <= s < u for s in self.seed_nodes):
            raise InputError("seed nodes must be ball nodes (0..u-1)")
        back_map = range(u) if back_map is None else back_map
        if len(back_map) != u:
            raise InputError("back_map must cover exactly the ball nodes")
        self.back_map = tuple(back_map)

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    @property
    def edges(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(((a, b), w) for a, b, w in self.pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AuxHypergraph(ball={self.u}, pairs={len(self.pairs)})"


def build_aux(
    M: Iterable[tuple[int, int, int]], ball, seed: Iterable[int]
) -> AuxHypergraph:
    """Contract motif occurrences, sorted node triples, over a ball into W.

    Each occurrence adds the weights of its contracted hyperedge to W's
    pairs. Construction is linear in |ball| + |M|.
    """
    ball_nodes = sorted(getattr(ball, "nodes", ball))
    if not ball_nodes:
        raise InputError("ball must be nonempty")
    aux_of = {v: i for i, v in enumerate(ball_nodes)}
    u = len(ball_nodes)
    seed_set = frozenset(seed)
    if not seed_set:
        raise InputError("seed must be nonempty")
    if not seed_set.issubset(aux_of):
        raise InputError(f"seed nodes {sorted(seed_set)} are not all inside the ball")
    weight: dict[tuple[int, int], int] = {}
    get = weight.get
    for triple in M:
        pins = sorted([aux_of[v] for v in triple if v in aux_of])
        if not pins:
            raise InputError(f"occurrence {triple!r} has no node in the ball")
        if len(pins) < 3:
            pins.append(u)
        if len(pins) == 2:
            pair = tuple(pins)
            weight[pair] = get(pair, 0) + 2
        else:
            a, b, c = pins
            for pair in ((a, b), (a, c), (b, c)):
                weight[pair] = get(pair, 0) + 1
    return AuxHypergraph(
        u,
        ((a, b, w) for (a, b), w in weight.items()),
        seed_nodes=(aux_of[v] for v in seed_set),
        back_map=ball_nodes,
    )
