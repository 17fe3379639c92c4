"""Phase one: candidate node sets (balls) around a seed hyperedge.

Two strategies: neighborhood-based core decomposition (peel by neighbor count
inside the surviving strongly-induced subhypergraph, then descend core levels
until the seed's component is big enough) and layered hypergraph BFS (cumulative
layer unions starting at the first union that exceeds the size threshold).

``core_ball`` reads only the core levels up to the seed's own, so it asks
for the peel truncated at the seed (``nbr_core_decomposition(H, seed)``),
which stops once a seed node is due for deletion. It calls the function
through this module's global, which the benchmark's tracer wraps.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable

from .core import Hypergraph, canonical_members
from .errors import InputError


@dataclass(frozen=True)
class Ball:
    """A seed-containing node set plus provenance.

    ``detail`` is the core level k for method "core" and the index of the
    deepest BFS layer included (0 = seed layer) for method "bfs".
    """

    nodes: frozenset[int]
    method: str
    detail: int


@dataclass(frozen=True)
class CoreDecomposition:
    core_number: tuple[int, ...]
    max_core: int

    def level_set(self, k: int) -> frozenset[int]:
        """Nodes with core number >= k."""
        return frozenset(v for v, c in enumerate(self.core_number) if c >= k)


def nbr_core_decomposition(H: Hypergraph, seed: Iterable[int] = ()) -> CoreDecomposition:
    """Neighborhood-based core numbers via progressive peeling.

    For k = 1, 2, ... repeatedly delete every node with fewer than k neighbors
    in the surviving strongly-induced subhypergraph (deleting a node kills all
    hyperedges containing it). A node deleted during round k has core number
    k - 1. Simultaneously sub-threshold nodes are deleted in ascending id order.

    With ``seed`` nodes given, the peel stops in the round k in which the
    first of them is queued for deletion: that node's core number, k* = k - 1,
    is the least over the seed, and every node still alive has core number
    at least k*. The result is the decomposition truncated at k*: core number
    min(core(v), k*) for every v, and ``max_core`` k*. Level sets up to k*,
    the only ones ``core_ball`` reads, equal the full decomposition's.
    """
    n = H.n
    if n == 0:
        raise InputError("core decomposition of an empty hypergraph")
    stop = frozenset(seed)
    if not all(0 <= v < n for v in stop):
        raise InputError(f"seed {sorted(stop)!r} names a node outside [0, {n})")
    members = H.members
    alive = bytearray([1]) * n
    edge_alive = bytearray([1]) * len(members)
    # pair_count[a * n + b] (a < b) = number of surviving hyperedges containing both
    pair_count: dict[int, int] = {}
    get = pair_count.get
    for mem in members:
        for a, b in combinations(mem, 2):
            key = a * n + b
            pair_count[key] = get(key, 0) + 1
    low = Counter(map(n.__rfloordiv__, pair_count))
    high = Counter(map(n.__rmod__, pair_count))
    nbr_count = [low[v] + high[v] for v in range(n)]

    core = [0] * n
    remaining = n
    k = 0
    while remaining:
        k += 1
        queue = deque(v for v in range(n) if alive[v] and nbr_count[v] < k)
        queued = set(queue)
        if not stop.isdisjoint(queued):
            return _truncated(core, alive, k - 1)
        while queue:
            v = queue.popleft()
            alive[v] = 0
            core[v] = k - 1
            remaining -= 1
            for ei in H.incident_edges(v):
                if not edge_alive[ei]:
                    continue
                edge_alive[ei] = 0
                for a, b in combinations(members[ei], 2):
                    key = a * n + b
                    left = pair_count[key] - 1
                    pair_count[key] = left
                    if left == 0:
                        for x in (a, b):
                            if alive[x]:
                                nbr_count[x] -= 1
                                if nbr_count[x] < k and x not in queued:
                                    if x in stop:
                                        return _truncated(core, alive, k - 1)
                                    queue.append(x)
                                    queued.add(x)
    return CoreDecomposition(tuple(core), max(core, default=0))


def _truncated(core: list[int], alive: bytearray, k_star: int) -> CoreDecomposition:
    """The decomposition truncated at k_star, once every node deleted so far
    has its core number and every node still alive has one of at least k_star."""
    for v in compress(range(len(core)), alive):
        core[v] = k_star
    return CoreDecomposition(tuple(core), k_star)


def _require_seed_edge(H: Hypergraph, seed: Iterable[int]) -> tuple[int, ...]:
    members = canonical_members(seed)
    if H.edge_index_of(members) is None:
        raise InputError(f"seed {members!r} is not a hyperedge of the hypergraph")
    return members


def core_ball(
    H: Hypergraph,
    seed: Iterable[int],
    min_size: int = 100,
    decomposition: CoreDecomposition | None = None,
) -> Ball:
    """Seed-containing component of the deepest core level reaching ``min_size``.

    Starting from k* = min core number over the seed's nodes (so the whole seed
    hyperedge survives), descend k and take the component containing the seed
    inside the strongly-induced subhypergraph on {v : core(v) >= k}; return the
    first component with >= min_size nodes, or the k = 1 component if none does.
    Every component holds the seed, so a ``min_size`` below the seed's size
    gives the ball that the seed's size does.
    """
    members = _require_seed_edge(H, seed)
    decomp = decomposition if decomposition is not None else nbr_core_decomposition(H, members)
    k_star = max(1, min(decomp.core_number[v] for v in members))
    comp: frozenset[int] = frozenset(members)
    used_k = k_star
    for k in range(k_star, 0, -1):
        comp = H.connected_component(members, within=decomp.level_set(k))
        used_k = k
        if len(comp) >= min_size:
            break
    return Ball(comp, "core", used_k)


def bfs_balls(
    H: Hypergraph, seed: Iterable[int], alpha: int = 3, min_size: int = 100
) -> list[Ball]:
    """Up to ``alpha`` cumulative BFS balls of consecutive depths.

    The first depth is the smallest l whose cumulative union of layers 0..l has
    more than ``min_size`` nodes; if BFS exhausts first (the seed's component
    has at most min_size nodes), the whole component is the single ball. Every
    layer of ``H.bfs`` is nonempty, so the balls strictly grow.
    """
    if alpha < 1:
        raise InputError(f"alpha must be >= 1, got {alpha}")
    if min_size < 1:
        raise InputError(f"min_size must be >= 1, got {min_size}")
    balls: list[Ball] = []
    nodes: set[int] = set()
    for depth, layer in enumerate(H.bfs(seed)):
        nodes.update(layer)
        if balls or len(nodes) > min_size:
            balls.append(Ball(frozenset(nodes), "bfs", depth))
            if len(balls) == alpha:
                break
    return balls or [Ball(frozenset(nodes), "bfs", depth)]
