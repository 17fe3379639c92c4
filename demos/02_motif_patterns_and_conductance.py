"""Walkthrough: order-3 motif patterns, enumeration, and motif conductance.

Three nodes can interact through up to four sub-edges: the three dyads and
the triad. The six connected combinations are the patterns I..VI; a motif
occurrence is a concrete node triple realizing one of them.
"""

from motifclust import (
    Hypergraph,
    MotifPattern,
    classify_triple,
    conductance_direct,
    enumerate_motifs,
    motif_cut,
    motif_degrees,
)

for number, p in enumerate(MotifPattern, start=1):
    print(f"pattern {p.name:>3} (#{number}): triad={p.has_triadic}, dyads={p.dyad_count}")

H = Hypergraph.from_members(
    [
        [0, 1, 2],      # triad
        [0, 1], [1, 2], [0, 2],   # ...plus all three dyads -> pattern VI
        [2, 3], [3, 4],           # a dyadic wedge at node 3 -> pattern I
        [4, 5, 6],                # bare triad -> pattern III
    ]
)
print("\n(0,1,2):", classify_triple(H, 0, 1, 2).name)   # VI
print("(2,3,4):", classify_triple(H, 2, 3, 4).name)     # I
print("(4,5,6):", classify_triple(H, 4, 5, 6).name)     # III
print("(0,1,3):", classify_triple(H, 0, 1, 3))          # None: disconnected

# enumeration is ball-local: every occurrence with >= 1 node in B, including
# wedges whose far endpoint lies outside the closed neighborhood N[B]
B = {2}
print("\nwedges touching {2}:", enumerate_motifs(H, B, MotifPattern.I))  # sorted triples

# motif degrees count occurrences per node; conductance of a cluster C is
# cut / min(volume inside, volume outside), all in exact rationals
M = enumerate_motifs(H, frozenset(range(H.n)), MotifPattern.I)
print("\nall wedge occurrences:", M)
print("motif degrees:", motif_degrees(M))
C = {0, 1, 2, 3}
print("cut of", sorted(C), "=", motif_cut(M, C))
res = conductance_direct(M, C)
print(f"phi = {res.phi} (cut {res.motif_cut} / {res.side} volume {res.volume_used})")
