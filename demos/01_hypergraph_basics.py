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
print("degree of 2:", len(H.incidence[2]))   # 4 hyperedges touch node 2

# adjacency is shared-hyperedge membership, regardless of edge size; the
# BFS yields the start nodes, then each sorted layer of newly reached nodes
print("BFS layers from {3}:", list(H.bfs({3})))           # [[3], [2], [0, 1]]
# the closed neighborhood N[S] is the first two layers
print("closed nbhd of {3}:", sorted(H.closed_neighborhood({3})))  # [2, 3]
print("neighbors of 0:", sorted(H.closed_neighborhood({0}) - {0}))  # [1, 2]

# connectivity is Berge-path reachability: the union of all BFS layers;
# with `within`, the walk crosses only hyperedges fully inside that set
print("component of 0:", sorted(H.connected_component({0})))   # [0, 1, 2, 3]
print("component of 4:", sorted(H.connected_component({4})))   # [4, 5]
print("component of 3 within {0,2,3}:", sorted(H.connected_component({3}, within={0, 2, 3})))  # [0, 2, 3]

# neighborhood-based core decomposition: peel nodes with too few neighbors
# in the surviving strongly-induced subhypergraph; one core number per node
core = nbr_core_decomposition(H)
print("core numbers:", list(core))                 # triangle nodes sit in the 2-core
print("max core:", max(core))
print("2-core:", [v for v, c in enumerate(core) if c >= 2])  # [0, 1, 2]
