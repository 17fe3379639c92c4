"""Phase three: the contracted weighted auxiliary hypergraph.

Every motif occurrence touching the ball becomes one hyperedge over the ball's
nodes; everything outside the ball is contracted into a single fresh node u.
Parallel crossing hyperedges merge with weight = number of occurrences they
represent, so the total hyperedge weight always equals |M|. All nodes carry
equal (unit) weight for balancing purposes.

Every hyperedge has 2 or 3 pins, and a cut hyperedge of weight w splits
exactly two of its pairs when it has 3 pins and its one pair when it has 2.
So the hypergraph also carries the doubled pair graph W: each 3-pin edge adds
w to each of its pairs and each 2-pin edge adds 2w to its pair. For every
2-way split, cut-net = cut_W / 2 (Benson, Gleich & Leskovec, Science 2016).
Each hyperedge also adds 2w to the W degree of each of its pins, so a ball
node's motif degree is d_mu(a) = deg_W(a) / 2; the hypergraph carries it as
``volumes``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ConstraintError, InputError
from .motifs import MotifOccurrence

COMPLEMENT = "complement"  # back_map symbol for the contracted node u


class AuxHypergraph:
    """Weighted hypergraph on ball nodes 0..u-1 plus the contracted node u.

    ``pairs`` lists the doubled pair graph W as (a, b, weight) with a < b, in
    order of first appearance, and ``neighbors[v]`` holds v's (x, weight)
    entries of W. ``volumes[a]`` is the motif degree of ball node a, half its
    W degree, and ``volumes[u]`` is 0: u stands for nodes outside the ball.
    """

    def __init__(
        self,
        num_ball_nodes: int,
        edges: Iterable[tuple[Sequence[int], int]],
        seed_nodes: Iterable[int],
        back_map: Sequence[int] | None = None,
    ):
        if num_ball_nodes < 1:
            raise InputError("auxiliary hypergraph needs at least one ball node")
        self.u = num_ball_nodes
        self.num_nodes = num_ball_nodes + 1
        mem_list: list[tuple[int, ...]] = []
        weights: list[int] = []
        seen: set[tuple[int, ...]] = set()
        pair_weight: dict[tuple[int, int], int] = {}
        get = pair_weight.get
        for members, weight in edges:
            mem = tuple(members)
            if len(mem) < 2 or any(mem[i] >= mem[i + 1] for i in range(len(mem) - 1)):
                raise InputError(f"aux hyperedge members must be >= 2 strictly increasing: {mem!r}")
            if len(mem) > 3:
                raise InputError(f"aux hyperedge {mem!r} has more than 3 pins")
            if mem[0] < 0 or mem[-1] > self.u:
                raise InputError(f"aux hyperedge {mem!r} out of node range 0..{self.u}")
            if mem in seen:
                raise InputError(f"parallel aux hyperedge {mem!r}; merge weights first")
            if weight < 1:
                raise InputError(f"aux hyperedge weight must be a positive integer, got {weight}")
            seen.add(mem)
            mem_list.append(mem)
            w = int(weight)
            weights.append(w)
            if len(mem) == 2:
                pair_weight[mem] = get(mem, 0) + 2 * w
            else:
                a, b, c = mem
                for pair in ((a, b), (a, c), (b, c)):
                    pair_weight[pair] = get(pair, 0) + w
        self._members = tuple(mem_list)
        self._weights = tuple(weights)
        self.pairs = tuple((a, b, w) for (a, b), w in pair_weight.items())
        neighbors: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        degree = [0] * self.num_nodes
        for a, b, w in self.pairs:
            neighbors[a].append((b, w))
            neighbors[b].append((a, w))
            degree[a] += w
            degree[b] += w
        self.neighbors = tuple(map(tuple, neighbors))
        degree[self.u] = 0
        self.volumes = tuple(d >> 1 for d in degree)
        self.seed_nodes = frozenset(seed_nodes)
        if not self.seed_nodes:
            raise InputError("aux hypergraph needs at least one seed node")
        if self.u in self.seed_nodes or any(not 0 <= s < self.u for s in self.seed_nodes):
            raise InputError("seed nodes must be ball nodes (0..u-1)")
        if back_map is None:
            self.back_map: tuple = tuple(range(num_ball_nodes)) + (COMPLEMENT,)
        else:
            if len(back_map) != num_ball_nodes:
                raise InputError("back_map must cover exactly the ball nodes")
            self.back_map = tuple(back_map) + (COMPLEMENT,)

    @property
    def num_edges(self) -> int:
        return len(self._members)

    @property
    def edges(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(zip(self._members, self._weights))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AuxHypergraph(ball={self.u}, m={self.num_edges})"


def build_aux(
    M: Iterable[MotifOccurrence], ball, seed: Iterable[int]
) -> AuxHypergraph:
    """Contract a motif occurrence collection over a ball into an AuxHypergraph.

    An occurrence fully inside the ball maps to its own (weight-1) hyperedge;
    an occurrence reaching outside maps to its inside nodes plus u, and
    parallel crossing hyperedges merge with their multiplicity as weight.
    Construction is linear in |ball| + |M|.
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
        raise ConstraintError(f"seed nodes {sorted(seed_set)} are not all inside the ball")
    acc: dict[tuple[int, ...], int] = {}
    for occ in M:
        inside = sorted(aux_of[v] for v in occ.nodes if v in aux_of)
        if not inside:
            raise ConstraintError(f"occurrence {occ.nodes!r} has no node in the ball")
        key = tuple(inside) if len(inside) == 3 else tuple(inside) + (u,)
        acc[key] = acc.get(key, 0) + 1
    edges = sorted(acc.items())
    return AuxHypergraph(
        u,
        edges,
        seed_nodes=(aux_of[v] for v in seed_set),
        back_map=ball_nodes,
    )

