"""Immutable hypergraph with an incidence index and one layered BFS.

Nodes are dense integers 0..n-1. ``Hypergraph`` holds its hyperedges as one
tuple of canonical member tuples, ``members``: each strictly increasing, with
at least two members, all non-negative ints below n, and no two alike
(ingestion merges duplicates before construction). Its constructor checks
every hyperedge once, in one loop over them; it takes a canonical tuple as
is and canonicalises any other member collection first. ``Hyperedge`` is the
public view of one hyperedge, built on demand by ``edge(i)``; no hot path
reads it. Everything downstream (ball selection, motif enumeration,
partitioning) reads this object without mutating it.
``Hypergraph.bfs`` is the one traversal: connected components, closed
neighborhoods and the BFS balls of phase one all read its layers.

The small-edge index that motif classification reads is built on first use,
once per hypergraph: the dyads, the triads, and the triads grouped by how
many of their three node pairs are dyads (``triads_with_dyads``). The dyadic
adjacency is built apart from it, on the first ``dyadic_neighbors`` call,
which only the dyadic patterns make.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Members = tuple[int, ...]


def canonical_members(members: Iterable[int]) -> Members:
    """Sort, deduplicate and validate a member collection (>= 2 distinct nodes)."""
    out = tuple(sorted({int(v) for v in members}))
    if len(out) < 2:
        raise InputError(f"hyperedge needs at least 2 distinct nodes, got {out!r}")
    return out


@dataclass(frozen=True, slots=True)
class Hyperedge:
    """A hyperedge: a strictly increasing tuple of >= 2 non-negative node ids,
    checked here once."""

    members: Members

    def __post_init__(self) -> None:
        mem = self.members
        if not isinstance(mem, tuple) or len(mem) < 2 or not all(map(lt, mem, mem[1:])):
            raise InputError(
                f"members must be a tuple of >= 2 strictly increasing node ids, got {mem!r}"
            )
        if mem[0] < 0:
            raise InputError(f"negative node id in hyperedge {mem!r}")


def _incidence(n: int, members: list[Members]) -> list[list[int]] | None:
    """Each node's incident hyperedge indices, in one pass that checks every
    member tuple once; None when one is not canonical (fewer than 2 members,
    not strictly increasing) or names a node outside 0..n-1."""
    incidence: list[list[int]] = [[] for _ in range(n)]
    for idx, mem in enumerate(members):
        if len(mem) < 2:
            return None
        last = -1
        for v in mem:
            if not last < v < n:
                return None
            incidence[v].append(idx)
            last = v
    return incidence


class Hypergraph:
    """Immutable node/hyperedge store with an incidence index.

    ``incidence[v]`` lists the indices of hyperedges containing ``v``, so the
    node degree is ``len(incidence[v])``.
    """

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise InputError(f"node count must be >= 0, got {n}")
        self._n = n
        members = [mem if type(mem) is tuple else canonical_members(mem) for mem in edges]
        incidence = None
        if {int}.issuperset(map(type, chain.from_iterable(members))):
            incidence = _incidence(n, members)
        if incidence is None:
            # some tuple is not canonical (a member that is no int, such as
            # a float or a bool, counts too), or names a node outside 0..n-1
            members = [canonical_members(mem) for mem in members]
            for mem in members:
                if mem[0] < 0:
                    raise InputError(f"negative node id in hyperedge {mem!r}")
            for mem in members:
                if mem[-1] >= n:
                    raise InputError(f"hyperedge {mem!r} references node >= n={n}")
            incidence = _incidence(n, members)
        if len(set(members)) < len(members):
            seen: set[Members] = set()
            for mem in members:
                if mem in seen:
                    raise InputError(f"duplicate hyperedge {mem!r}; merge before construction")
                seen.add(mem)
        self._members: tuple[Members, ...] = tuple(members)
        self._incidence: tuple[tuple[int, ...], ...] = tuple(map(tuple, incidence))
        self._small_index: tuple[frozenset, frozenset, tuple] | None = None
        self._dyadic_adj: dict[int, frozenset[int]] | None = None

    @classmethod
    def from_members(
        cls, member_lists: Iterable[Iterable[int]], n: int | None = None
    ) -> "Hypergraph":
        """Build from raw member lists; infers n = max id + 1 unless given."""
        members = [canonical_members(m) for m in member_lists]
        if n is None:
            n = max(map(itemgetter(-1), members), default=-1) + 1
        return cls(n, members)

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._members)

    @property
    def members(self) -> tuple[Members, ...]:
        """Every hyperedge's canonical member tuple, by hyperedge index."""
        return self._members

    def edge(self, i: int) -> Hyperedge:
        if not 0 <= i < len(self._members):
            raise InputError(f"hyperedge index {i} out of range [0, {len(self._members)})")
        return Hyperedge(self._members[i])

    @property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Every node's incident hyperedge indices, by node."""
        return self._incidence

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise InputError(f"node id {v} out of range [0, {self._n})")

    def edge_index_of(self, members: Iterable[int]) -> int | None:
        """Index of the hyperedge with exactly these members, or None."""
        mem = canonical_members(members)
        if mem[0] < 0 or mem[-1] >= self._n:
            return None
        for ei in self._incidence[mem[0]]:
            if self._members[ei] == mem:
                return ei
        return None

    # -- traversal -------------------------------------------------------

    def bfs(
        self, start: Iterable[int], within: Iterable[int] | None = None
    ) -> Iterator[list[int]]:
        """Layered BFS over shared-hyperedge adjacency.

        Yields the sorted start nodes, then each sorted layer of newly reached
        nodes. A hyperedge is crossed when any of its members is expanded; with
        ``within`` given, only hyperedges fully inside it are crossed, so the
        walk stays in the strongly induced subhypergraph on ``within``.
        """
        layer = sorted(set(start))
        if not layer:
            raise InputError("bfs needs a nonempty start set")
        for v in layer:
            self._check_node(v)
        allowed = None if within is None else frozenset(within)
        visited = set(layer)
        edge_members = self._members
        edge_done = bytearray(len(edge_members))
        while layer:
            yield layer
            reached: set[int] = set()
            for v in layer:
                for ei in self._incidence[v]:
                    if edge_done[ei]:
                        continue
                    edge_done[ei] = 1
                    members = edge_members[ei]
                    if allowed is None or allowed.issuperset(members):
                        reached.update(members)
            reached -= visited
            visited |= reached
            layer = sorted(reached)

    def closed_neighborhood(self, nodes: Iterable[int]) -> frozenset[int]:
        """N[S] = S together with every neighbor of a node of S."""
        nodes = set(nodes)
        if not nodes:
            return frozenset()
        layers = self.bfs(nodes)
        return frozenset(next(layers) + next(layers, []))

    # -- connectivity ----------------------------------------------------

    def connected_component(
        self, start: Iterable[int], within: Iterable[int] | None = None
    ) -> frozenset[int]:
        """All nodes reachable from ``start``: the union of ``bfs(start, within)``."""
        return frozenset(v for layer in self.bfs(start, within) for v in layer)

    # -- small-edge index (dyads / triads), used by motif classification --

    def _build_small_index(self) -> tuple[frozenset, frozenset, tuple]:
        """Dyads, triads, and the triads grouped by how many of their three
        node pairs are dyads, built on first use; each triad is classified
        once per hypergraph."""
        idx = self._small_index
        if idx is None:
            dyads = frozenset(mem for mem in self._members if len(mem) == 2)
            triads = [mem for mem in self._members if len(mem) == 3]
            groups: tuple[list, list, list, list] = ([], [], [], [])
            for mem in triads:
                x, y, z = mem
                groups[((x, y) in dyads) + ((x, z) in dyads) + ((y, z) in dyads)].append(mem)
            idx = (dyads, frozenset(triads), tuple(map(tuple, groups)))
            self._small_index = idx
        return idx

    def _build_dyadic_adjacency(self) -> dict[int, frozenset[int]]:
        """Each node's dyadic neighbors, built on the first ``dyadic_neighbors``
        call; only the dyadic patterns (I, II) ask for it."""
        adj = self._dyadic_adj
        if adj is None:
            sets: dict[int, set[int]] = {}
            for a, b in self.dyads:
                sets.setdefault(a, set()).add(b)
                sets.setdefault(b, set()).add(a)
            adj = {v: frozenset(s) for v, s in sets.items()}
            self._dyadic_adj = adj
        return adj

    @property
    def dyads(self) -> frozenset[tuple[int, int]]:
        """Member tuples of all size-2 hyperedges."""
        return self._build_small_index()[0]

    @property
    def triads(self) -> frozenset[tuple[int, int, int]]:
        """Member tuples of all size-3 hyperedges."""
        return self._build_small_index()[1]

    def triads_with_dyads(self, dyad_count: int) -> tuple[tuple[int, int, int], ...]:
        """Member tuples of the size-3 hyperedges exactly ``dyad_count`` of
        whose three node pairs are also hyperedges; the groups for 0..3
        partition ``triads``."""
        if not 0 <= dyad_count <= 3:
            raise InputError(f"dyad_count must be in 0..3, got {dyad_count!r}")
        return self._build_small_index()[2][dyad_count]

    def dyadic_neighbors(self, v: int) -> frozenset[int]:
        """Neighbors of v via size-2 hyperedges only."""
        self._check_node(v)
        return self._build_dyadic_adjacency().get(v, frozenset())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph(n={self._n}, m={self.num_edges})"
