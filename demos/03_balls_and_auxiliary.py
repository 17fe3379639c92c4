"""Walkthrough: ball selection and the contracted auxiliary hypergraph.

Phase one picks a seed-containing node set B two ways; phase three turns the
occurrence collection into a small weighted graph W whose halved cut equals
the motif-cut, so an ordinary graph partitioner can optimize a motif
objective.
"""

from fractions import Fraction

from motifclust import (
    MotifPattern,
    bfs_balls,
    build_aux,
    conductance_direct,
    core_ball,
    count_motifs,
    cut_net,
    enumerate_motifs,
    motif_conductance,
    parse_edge_list,
)
import io

# two 4-clique pockets (each with one triad inside) joined by a corridor
# node; the pockets are 3-cores, the corridor node is not
pocket_a = ["0 1 2", "0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]
pocket_b = ["4 5 6", "4 5", "4 6", "4 7", "5 6", "5 7", "6 7"]
corridor = ["3 8", "8 4"]
parsed = parse_edge_list(io.StringIO("\n".join(pocket_a + pocket_b + corridor)))
H = parsed.hypergraph
seed = (0, 1, 2)

# the bfs balls are cumulative unions of the seed's BFS layers
print("BFS layers from the seed:", list(H.bfs(seed)))
for ball in bfs_balls(H, seed, alpha=3, min_size=4):
    print(f"bfs ball through layer {ball.detail}: {sorted(ball.nodes)}")
B = core_ball(H, seed, min_size=3)
print(f"core ball at k={B.detail}: {sorted(B.nodes)}")  # pocket A only

# contract everything outside the ball into one node u; each occurrence adds
# its weight straight to the pairs of the doubled pair graph W
M = enumerate_motifs(H, B, MotifPattern.VI)
aux = build_aux(M, B, seed)
print("\noccurrences touching the ball:", M)
print("W pairs (a, b, weight):", aux.pairs, "u =", aux.u)
# each ball node's motif degree is half its degree in the doubled pair graph W
print("motif degrees of the aux nodes (u last, always 0):", aux.volumes)

# the contraction preserves cuts: half the W cut of a split equals the
# motif-cut of the mapped-back cluster
blocks = [0] * aux.num_nodes
blocks[aux.u] = 1
cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
M_all = enumerate_motifs(H, frozenset(range(H.n)), MotifPattern.VI)
direct = conductance_direct(M_all, cluster)
# besides the cluster's motif volume, summed from the aux motif degrees, the
# aux route needs only the global motif volume 3|M|, counted without
# enumerating the occurrences
total = 3 * count_motifs(H, MotifPattern.VI)
cut = cut_net(aux, blocks)
vol0 = sum(aux.volumes[a] for a in range(aux.u) if blocks[a] == 0)
via = motif_conductance(cut, vol0, total)
print(f"\ncluster {sorted(cluster)}: aux cut {cut}, direct cut {direct.motif_cut}")
# and the conductances agree exactly
print(f"phi via aux = {via}, phi direct = {direct.phi}")
assert via == direct.phi == Fraction(direct.motif_cut, direct.volume_used)
