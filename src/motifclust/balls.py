"""Phase one: candidate node sets (balls) around a seed hyperedge.

Two strategies: neighborhood-based core decomposition (peel by neighbor count
inside the surviving strongly-induced subhypergraph, then descend core levels
until the seed's component is big enough) and layered hypergraph BFS (cumulative
layer unions starting at the first union that exceeds the size threshold).

``core_ball`` reads only the core levels up to the seed's own, k*, so it
asks for the peel truncated at the seed (``nbr_core_decomposition(H, seed)``),
which stops once a seed node is due for deletion. Once the seed's component
of the surviving subhypergraph splits off, in some round r, that peel gives
every node outside it level r and peels the component only: the level sets
up to r, and the seed's component of every level up to k*, stay those of
the full decomposition, and ``core_ball`` reads nothing else. It calls the
function through this module's global, which the benchmark's tracer wraps.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations, compress
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


def nbr_core_decomposition(H: Hypergraph, seed: Iterable[int] = ()) -> tuple[int, ...]:
    """Neighborhood-based core numbers via progressive peeling: one core
    number per node, by node id.

    For k = 1, 2, ... repeatedly delete every node with fewer than k neighbors
    in the surviving strongly-induced subhypergraph (deleting a node kills all
    hyperedges containing it). A node deleted during round k has core number
    k - 1. Simultaneously sub-threshold nodes are deleted in ascending id order.

    Deleting v costs each alive neighbor exactly v. A pair (x, y) of v's
    other co-members loses each dying hyperedge holding both, and x and y
    stop being neighbors when none is left. No count of such pairs is built
    up front. A hyperedge dies with its first member, so until x first
    loses a hyperedge, all of x's live: its neighbor count is the size of
    their union, and the count of each pair (x, y) the number of them that
    hold y, one ``Counter`` over their members. Both are taken then, or
    once the number of x's dyads, a lower bound on its neighbor count,
    falls below a round's k.

    With ``seed`` nodes given, the peel stops in the round k in which the
    first of them is queued for deletion: that node's core number, k* = k - 1,
    is the least over the seed, and every node still alive has core number
    at least k*; they all get k*, the largest number returned. After each round
    r that deletes a node, a walk from the seed over the surviving
    hyperedges, within a work budget, looks for the seed's component. Once
    it closes short of every surviving node, the nodes outside it get core
    number r and later rounds peel the component only. No surviving
    hyperedge crosses a component, so the component peels as it would in
    the whole. Core numbers are then min(core(v), r) for every node and
    min(core(v), k*) on the seed's component of level r: every level set
    up to r, and the seed's component of every level up to k*, equal the
    full decomposition's, and those are all ``core_ball`` reads.
    """
    n = H.n
    if n == 0:
        raise InputError("core decomposition of an empty hypergraph")
    stop = frozenset(seed)
    if not all(0 <= v < n for v in stop):
        raise InputError(f"seed {sorted(stop)!r} names a node outside [0, {n})")
    members = H.members
    incidence = H.incidence
    edges_of = members.__getitem__
    alive = bytearray([1]) * n
    edge_alive = bytearray([1]) * len(members)
    # shared[v][w] (v < w) = number of surviving hyperedges holding both,
    # counted when v is; until then nbr_count[v] holds v's number of dyads
    shared: dict[int, Counter[int]] = {}
    nbr_count = [0] * n
    for v, dyads in Counter(chain.from_iterable(compress(members, map((2).__eq__, map(len, members))))).items():
        nbr_count[v] = dyads

    def count(v: int) -> None:
        counts = shared[v] = Counter(chain.from_iterable(map(edges_of, incidence[v])))
        nbr_count[v] = len(counts) - 1 if counts else 0

    core = [0] * n
    scope: Iterable[int] = range(n)  # the nodes each round scans
    remaining = n
    # a walk may scan as many incidences as the neighbor-count updates made
    # since the last walk, or budget, which starts at the seed's degree sum
    # and doubles per walk; so walks cost at most the peel plus twice the
    # last budget
    budget = sum(len(incidence[v]) for v in stop)
    updates = 0
    k = 0
    while remaining:
        k += 1
        below = [v for v in scope if alive[v] and nbr_count[v] < k]
        for v in below:
            if v not in shared:
                count(v)
        queue = deque(v for v in below if nbr_count[v] < k)
        queued = set(queue)
        if not stop.isdisjoint(queued):
            return _truncated(core, alive, k - 1)
        if not queue:
            continue
        while queue:
            v = queue.popleft()
            alive[v] = 0
            core[v] = k - 1
            remaining -= 1
            dying = [ei for ei in incidence[v] if edge_alive[ei]]
            if not dying:
                continue
            lost = set().union(*map(edges_of, dying))
            lost.discard(v)
            for x in lost.difference(shared):
                count(x)
            drops = list(lost)
            for ei in dying:
                edge_alive[ei] = 0
                mem = members[ei]
                if len(mem) > 2:
                    rest = [x for x in mem if x != v]
                    for a, b in combinations(rest, 2):
                        counts = shared[a]
                        left = counts[b] - 1
                        counts[b] = left
                        if not left:
                            drops.append(a)
                            drops.append(b)
            updates += len(drops)
            for x in drops:
                left = nbr_count[x] - 1
                nbr_count[x] = left
                if left < k and x not in queued:
                    if x in stop:
                        return _truncated(core, alive, k - 1)
                    queue.append(x)
                    queued.add(x)
        if stop:
            # peel only the seed's component once it splits off
            component = _seed_component(H, stop, edge_alive, max(budget, updates))
            budget *= 2
            updates = 0
            if component is not None and len(component) < remaining:
                for v in scope:
                    if alive[v] and v not in component:
                        alive[v] = 0
                        core[v] = k
                scope = sorted(component)
                remaining = len(scope)
    return tuple(core)


def _truncated(core: list[int], alive: bytearray, k_star: int) -> tuple[int, ...]:
    """The core numbers truncated at k_star, once every node deleted so far
    has its core number and every node still alive has one of at least k_star."""
    for v in compress(range(len(core)), alive):
        core[v] = k_star
    return tuple(core)


def _seed_component(
    H: Hypergraph, seed: frozenset[int], edge_alive: bytearray, budget: int
) -> set[int] | None:
    """The nodes that surviving hyperedges connect to ``seed``, or None once
    the walk would scan more than ``budget`` incidences. It walks by itself,
    not through ``Hypergraph.bfs``, to stop at the budget and to read the
    peel's surviving hyperedges as they stand."""
    members = H.members
    component = set(seed)
    layer = component
    while layer:
        edges = list(chain.from_iterable(map(H.incidence.__getitem__, layer)))
        budget -= len(edges)
        if budget < 0:
            return None
        layer = set().union(*compress(map(members.__getitem__, edges), map(edge_alive.__getitem__, edges)))
        layer -= component
        component |= layer
    return component


def _require_seed_edge(H: Hypergraph, seed: Iterable[int]) -> tuple[int, ...]:
    members = canonical_members(seed)
    if H.edge_index_of(members) is None:
        raise InputError(f"seed {members!r} is not a hyperedge of the hypergraph")
    return members


def core_ball(
    H: Hypergraph,
    seed: Iterable[int],
    min_size: int = 100,
    decomposition: tuple[int, ...] | None = None,
) -> Ball:
    """Seed-containing component of the deepest core level reaching ``min_size``.

    Starting from k* = min core number over the seed's nodes (so the whole seed
    hyperedge survives), descend k and take the component containing the seed
    inside the strongly-induced subhypergraph on {v : core(v) >= k}; return the
    first component with >= min_size nodes, or the k = 1 component if none does.
    Every component holds the seed, so a ``min_size`` below the seed's size
    gives the ball that the seed's size does. ``decomposition``, when given,
    holds one core number per node, as ``nbr_core_decomposition`` returns.
    """
    members = _require_seed_edge(H, seed)
    core = decomposition if decomposition is not None else nbr_core_decomposition(H, members)
    if len(core) != H.n:
        raise InputError(
            f"decomposition holds {len(core)} core numbers, the hypergraph {H.n} nodes"
        )
    k_star = max(1, min(core[v] for v in members))
    comp: frozenset[int] = frozenset(members)
    used_k = k_star
    for k in range(k_star, 0, -1):
        level = frozenset(v for v, c in enumerate(core) if c >= k)
        comp = H.connected_component(members, within=level)
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
