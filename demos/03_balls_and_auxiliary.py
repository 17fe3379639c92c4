"""Walkthrough: ball selection and the contracted auxiliary hypergraph.

Phase one picks a seed-containing node set B two ways; phase three turns the
occurrence collection into a small weighted hypergraph whose cut-net equals
the motif-cut, so an ordinary partitioner can optimize a motif objective.
"""

from fractions import Fraction

from motifclust import (
    MotifPattern,
    bfs_balls,
    bfs_layers,
    build_aux,
    conductance_direct,
    conductance_via_aux,
    core_ball,
    count_motifs,
    cut_net,
    enumerate_motifs,
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

print("BFS layers from the seed:", bfs_layers(H, seed))
for ball in bfs_balls(H, seed, alpha=3, min_size=4):
    print(f"bfs ball through layer {ball.detail}: {sorted(ball.nodes)}")
B = core_ball(H, seed, min_size=3)
print(f"core ball at k={B.detail}: {sorted(B.nodes)}")  # pocket A only

# contract everything outside the ball into one node u; occurrences become
# weighted hyperedges (parallel crossing ones merge)
M = enumerate_motifs(H, B, MotifPattern.VI)
aux = build_aux(M, B, seed)
print("\noccurrences touching the ball:", [o.nodes for o in M])
print("aux hyperedges (members, weight):", aux.edges, "u =", aux.u)
# each ball node's motif degree is half its degree in the doubled pair graph W
print("motif degrees of the aux nodes (u last, always 0):", aux.volumes)

# the contraction preserves cuts: the aux cut-net of a split equals the motif-cut of
# the mapped-back cluster
blocks = [0] * aux.num_nodes
blocks[aux.u] = 1
cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
M_all = enumerate_motifs(H, frozenset(range(H.n)), MotifPattern.VI)
direct = conductance_direct(M_all, cluster)
# besides its own motif degrees, the aux route needs only the global motif
# volume 3|M|, counted without enumerating the occurrences
total = 3 * count_motifs(H, MotifPattern.VI)
via = conductance_via_aux(aux, blocks, total)
print(f"\ncluster {sorted(cluster)}: aux cut {cut_net(aux, blocks)}, direct cut {direct.motif_cut}")
# and the conductances agree exactly
print(f"phi via aux = {via.phi}, phi direct = {direct.phi}")
assert via.phi == direct.phi == Fraction(direct.motif_cut, direct.volume_used)
