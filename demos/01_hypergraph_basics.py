"""Walkthrough: the hypergraph container and its one traversal.

A hypergraph is a node set plus hyperedges of any size >= 2. Everything in
this library sits on one immutable structure with an incidence index.
Neighborhoods, components and BFS balls all come from the layered BFS
``H.bfs``.
"""

from motifclust import Hypergraph, nbr_core_decomposition

# a small co-presence network: one 3-way meeting, a few pairwise chats,
# and a separate pair that never meets the rest
H = Hypergraph.from_members(
    [
        [0, 1, 2],      # group meeting
        [0, 1],
        [1, 2],
        [0, 2],
        [2, 3],         # node 3 hangs off the triangle
        [4, 5],         # disconnected pair
    ]
)
print(H)                                  # Hypergraph(n=6, m=6)
print("degree of 2:", H.degree(2))        # 4 hyperedges touch node 2

# adjacency is shared-hyperedge membership, regardless of edge size; the
# BFS yields the start nodes, then each sorted layer of newly reached nodes
print("BFS layers from {3}:", list(H.bfs({3})))           # [[3], [2], [0, 1]]
# the closed neighborhood N[S] is the first two layers
print("neighbors of 0:", sorted(H.neighbors(0)))          # [1, 2]
print("closed nbhd of {3}:", sorted(H.closed_neighborhood({3})))  # [2, 3]

# the induced subhypergraph keeps only hyperedges fully inside the node set
sub, node_map, edge_map = H.induced_subhypergraph({0, 1, 2})
print("induced on {0,1,2} keeps", sub.num_edges, "of", H.num_edges, "edges")
print("back-maps:", node_map, edge_map)

# connectivity is Berge-path reachability: the union of all BFS layers;
# with `within`, the walk crosses only hyperedges fully inside that set
print("component of 0:", sorted(H.connected_component({0})))   # [0, 1, 2, 3]
print("component of 4:", sorted(H.connected_component({4})))   # [4, 5]
print("component of 3 within {0,2,3}:", sorted(H.connected_component({3}, within={0, 2, 3})))  # [0, 2, 3]

# neighborhood-based core decomposition: peel nodes with too few neighbors
# in the surviving strongly-induced subhypergraph
decomp = nbr_core_decomposition(H)
print("core numbers:", list(decomp.core_number))   # triangle nodes sit in the 2-core
print("max core:", decomp.max_core)
print("2-core:", sorted(decomp.level_set(2)))      # [0, 1, 2]
