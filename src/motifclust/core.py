"""Immutable hypergraph with an incidence index and one layered BFS.

Nodes are dense integers 0..n-1. Hyperedges are canonical strictly-increasing
member tuples with at least two distinct members; no two hyperedges share the
same member set (ingestion merges duplicates before construction). Everything
downstream (ball selection, motif enumeration, partitioning) reads this object
without mutating it. ``Hypergraph.bfs`` is the one traversal: connected
components, closed neighborhoods and the BFS balls of phase one all read its
layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Members = tuple[int, ...]


def canonical_members(members: Iterable[int]) -> Members:
    """Sort, deduplicate and validate a member collection (>= 2 distinct nodes)."""
    out = tuple(sorted({int(v) for v in members}))
    if len(out) < 2:
        raise InputError(f"hyperedge needs at least 2 distinct nodes, got {out!r}")
    return out


@dataclass(frozen=True)
class Hyperedge:
    """A hyperedge: a strictly increasing member tuple."""

    members: Members

    def __post_init__(self) -> None:
        mem = self.members
        if len(mem) < 2 or any(mem[i] >= mem[i + 1] for i in range(len(mem) - 1)):
            raise InputError(f"members must be >= 2 strictly increasing node ids, got {mem!r}")
        if mem[0] < 0:
            raise InputError(f"negative node id in hyperedge {mem!r}")

    @staticmethod
    def of(members: Iterable[int]) -> "Hyperedge":
        return Hyperedge(canonical_members(members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members


class Hypergraph:
    """Immutable node/hyperedge store with an incidence index.

    ``incidence[v]`` lists the indices of hyperedges containing ``v``, so the
    node degree is ``len(incidence[v])``.
    """

    def __init__(self, n: int, edges: Iterable[Hyperedge | Sequence[int]]):
        if n < 0:
            raise InputError(f"node count must be >= 0, got {n}")
        self._n = n
        norm: list[Hyperedge] = []
        seen: set[Members] = set()
        incidence: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            he = e if isinstance(e, Hyperedge) else Hyperedge.of(e)
            if he.members[-1] >= n:
                raise InputError(f"hyperedge {he.members!r} references node >= n={n}")
            if he.members in seen:
                raise InputError(f"duplicate hyperedge {he.members!r}; merge before construction")
            seen.add(he.members)
            idx = len(norm)
            norm.append(he)
            for v in he.members:
                incidence[v].append(idx)
        self._edges: tuple[Hyperedge, ...] = tuple(norm)
        self._incidence: tuple[tuple[int, ...], ...] = tuple(tuple(lst) for lst in incidence)
        self._small_index: tuple[frozenset, frozenset, dict] | None = None

    @classmethod
    def from_members(
        cls, member_lists: Iterable[Iterable[int]], n: int | None = None
    ) -> "Hypergraph":
        """Build from raw member lists; infers n = max id + 1 unless given."""
        canon = [canonical_members(m) for m in member_lists]
        if n is None:
            n = max((m[-1] for m in canon), default=-1) + 1
        return cls(n, [Hyperedge(m) for m in canon])

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[Hyperedge, ...]:
        return self._edges

    def edge(self, i: int) -> Hyperedge:
        return self._edges[i]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        self._check_node(v)
        return self._incidence[v]

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._incidence[v])

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise InputError(f"node id {v} out of range [0, {self._n})")

    def edge_index_of(self, members: Iterable[int]) -> int | None:
        """Index of the hyperedge with exactly these members, or None."""
        mem = canonical_members(members)
        if mem[0] < 0 or mem[-1] >= self._n:
            return None
        for ei in self._incidence[mem[0]]:
            if self._edges[ei].members == mem:
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
        edge_done = bytearray(len(self._edges))
        while layer:
            yield layer
            reached: set[int] = set()
            for v in layer:
                for ei in self._incidence[v]:
                    if edge_done[ei]:
                        continue
                    edge_done[ei] = 1
                    members = self._edges[ei].members
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

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood: every u != v sharing at least one hyperedge with v."""
        return self.closed_neighborhood((v,)) - {v}

    # -- connectivity ----------------------------------------------------

    def connected_component(
        self, start: Iterable[int], within: Iterable[int] | None = None
    ) -> frozenset[int]:
        """All nodes reachable from ``start``: the union of ``bfs(start, within)``."""
        return frozenset(v for layer in self.bfs(start, within) for v in layer)

    # -- small-edge index (dyads / triads), used by motif classification --

    def _build_small_index(self) -> tuple[frozenset, frozenset, dict]:
        idx = self._small_index
        if idx is None:
            dyads: set[tuple[int, int]] = set()
            triads: set[tuple[int, int, int]] = set()
            dyadic_adj: dict[int, set[int]] = {}
            for e in self._edges:
                if len(e.members) == 2:
                    a, b = e.members
                    dyads.add(e.members)
                    dyadic_adj.setdefault(a, set()).add(b)
                    dyadic_adj.setdefault(b, set()).add(a)
                elif len(e.members) == 3:
                    triads.add(e.members)
            adj = {v: frozenset(s) for v, s in dyadic_adj.items()}
            idx = (frozenset(dyads), frozenset(triads), adj)
            self._small_index = idx
        return idx

    @property
    def dyads(self) -> frozenset[tuple[int, int]]:
        """Member tuples of all size-2 hyperedges."""
        return self._build_small_index()[0]

    @property
    def triads(self) -> frozenset[tuple[int, int, int]]:
        """Member tuples of all size-3 hyperedges."""
        return self._build_small_index()[1]

    def dyadic_neighbors(self, v: int) -> frozenset[int]:
        """Neighbors of v via size-2 hyperedges only."""
        self._check_node(v)
        return self._build_small_index()[2].get(v, frozenset())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph(n={self._n}, m={self.num_edges})"
