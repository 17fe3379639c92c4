"""Phase two: order-3 motif classification, enumeration, and motif degrees.

A connected induced subhypergraph on three nodes is classified by which of the
four possible sub-edges exist: the three dyads plus the triad (hyperedges of
size > 3 can never be contained in a 3-set, so they are invisible here). The
six connected patterns are:

    I   = no triad, 2 dyads (open wedge)
    II  = no triad, 3 dyads (dyadic triangle)
    III = triad, 0 dyads
    IV  = triad, 1 dyad
    V   = triad, 2 dyads
    VI  = triad, 3 dyads

No triad with 0 or 1 dyads leaves the triple disconnected, hence no pattern.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable

from .core import Hypergraph
from .errors import InputError


class MotifPattern(Enum):
    I = (False, 2)
    II = (False, 3)
    III = (True, 0)
    IV = (True, 1)
    V = (True, 2)
    VI = (True, 3)

    @property
    def has_triadic(self) -> bool:
        return self.value[0]

    @property
    def dyad_count(self) -> int:
        return self.value[1]

    @property
    def number(self) -> int:
        """1-based pattern number (I -> 1, ..., VI -> 6)."""
        return list(MotifPattern).index(self) + 1

    @classmethod
    def from_flags(cls, has_triadic: bool, dyad_count: int) -> "MotifPattern | None":
        return _BY_FLAGS.get((has_triadic, dyad_count))

    @classmethod
    def from_spec(cls, spec: "str | int | MotifPattern") -> "MotifPattern":
        """Accepts 1..6 (int or str) or a roman-numeral name, case-insensitive."""
        if isinstance(spec, MotifPattern):
            return spec
        text = str(spec).strip().upper()
        if text.isdigit():
            num = int(text)
            if 1 <= num <= 6:
                return list(MotifPattern)[num - 1]
            raise InputError(f"motif pattern number must be in 1..6, got {num}")
        try:
            return cls[text]
        except KeyError:
            raise InputError(f"unknown motif pattern {spec!r} (expected 1..6 or I..VI)") from None


_BY_FLAGS = {p.value: p for p in MotifPattern}


def classify_triple(H: Hypergraph, a: int, b: int, c: int) -> MotifPattern | None:
    """Pattern of the induced subhypergraph on {a, b, c}, or None if disconnected."""
    if a == b or a == c or b == c:
        raise InputError(f"classify_triple needs three distinct nodes, got {(a, b, c)}")
    x, y, z = sorted((a, b, c))
    if x < 0 or z >= H.n:
        raise InputError(f"node id out of range in triple {(a, b, c)}")
    dyads = H.dyads
    d = ((x, y) in dyads) + ((x, z) in dyads) + ((y, z) in dyads)
    return MotifPattern.from_flags((x, y, z) in H.triads, d)


def enumerate_motifs(
    H: Hypergraph,
    ball,
    pattern: MotifPattern,
    scope: str = "exact",
) -> list[tuple[int, int, int]]:
    """All occurrences of ``pattern`` with at least one node in the ball, as
    sorted node triples.

    ``ball`` may be a Ball or any iterable of node ids. Every such occurrence
    is found, wherever its other nodes lie; each triple is reported exactly
    once, and the result is sorted. ``scope`` accepts only
    ``"exact"``: it remains because ``perfbench/run.py`` passes it
    positionally.
    """
    nodes = getattr(ball, "nodes", ball)
    B = frozenset(nodes)
    if not B:
        raise InputError("ball must be nonempty")
    for v in B:
        if not 0 <= v < H.n:
            raise InputError(f"ball node {v} out of range")
    if scope != "exact":
        raise InputError(f"scope must be 'exact', got {scope!r}")
    dyads = H.dyads
    triads = H.triads
    out: list[tuple[int, int, int]] = []

    if pattern.has_triadic:
        want = pattern.dyad_count
        for mem in triads:
            if B.isdisjoint(mem):
                continue
            x, y, z = mem
            d = ((x, y) in dyads) + ((x, z) in dyads) + ((y, z) in dyads)
            if d == want:
                out.append(mem)
    elif pattern is MotifPattern.II:
        # dyadic triangles; any triangle touching B lies inside N[B]
        region = H.closed_neighborhood(B)
        for a in sorted(region):
            na = H.dyadic_neighbors(a)
            for b in sorted(na):
                if b <= a or b not in region:
                    continue
                for c in sorted(na & H.dyadic_neighbors(b)):
                    if c <= b:
                        continue
                    triple = (a, b, c)
                    if B.isdisjoint(triple) or triple in triads:
                        continue
                    out.append(triple)
    else:
        # pattern I: open wedges; the center is always inside N[B], the two
        # endpoints may sit one step further out
        for center in sorted(H.closed_neighborhood(B)):
            nbrs = sorted(H.dyadic_neighbors(center))
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    triple = tuple(sorted((a, center, b)))
                    if B.isdisjoint(triple):
                        continue
                    if (a, b) in dyads or triple in triads:
                        continue
                    out.append(triple)
    out.sort()
    return out


def count_motifs(H: Hypergraph, pattern: MotifPattern) -> int:
    """Number of occurrences of ``pattern`` in the whole hypergraph, counted
    from the small-edge index without enumerating them.

    Triadic patterns are the triads with the wanted dyad count. With T the
    number of dyadic triangles (each dyad (a, b) sees |N(a) & N(b)| of them,
    N the dyadic neighbors) and d_v the dyadic degree: #II = T - #VI, and
    #I = sum_v C(d_v, 2) - 3T - #V, since the pairs of v's dyadic neighbors
    are the wedges centered at v and every triangle holds three of them.
    """
    dyads = H.dyads

    def triads_with(dyad_count: int) -> int:
        return sum(
            1
            for x, y, z in H.triads
            if ((x, y) in dyads) + ((x, z) in dyads) + ((y, z) in dyads) == dyad_count
        )

    if pattern.has_triadic:
        return triads_with(pattern.dyad_count)
    nbrs = H.dyadic_neighbors
    triangles = sum(len(nbrs(a) & nbrs(b)) for a, b in dyads) // 3
    if pattern is MotifPattern.II:
        return triangles - triads_with(3)
    wedges = 0
    for v in range(H.n):
        d = len(nbrs(v))
        wedges += d * (d - 1) // 2
    return wedges - 3 * triangles - triads_with(2)


def motif_degrees(M: Iterable[tuple[int, int, int]]) -> dict[int, int]:
    """d_mu(v): occurrences containing v, for every node of some occurrence;
    set volume d_mu(S) is the sum of the member values."""
    counts: Counter[int] = Counter()
    for triple in M:
        counts.update(triple)
    return dict(counts)
