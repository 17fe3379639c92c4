"""Exact phase-4 search on a ball that holds at most half the motif volume.

When 2 * vol(B) <= total, every seed-containing S in the ball B has
vol(S) <= total - vol(S), so its motif conductance is cut(S) / vol(S), and
the best cluster in the ball is the least such ratio. Dinkelbach's iteration
(Dinkelbach, Management Science 1967) finds it exactly, one s-t min cut on
the pair graph W per step. This is MQI (Lang & Rao, IPCO 2004) applied to the
whole ball, with the seeds pinned to the source as in FlowImprove (Andersen &
Lang, SODA 2008).

Capacities are integers, and the max flow's depth-first search keeps its own
stack, so a deep level graph never meets Python's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction

from .auxiliary import AuxHypergraph
from .errors import InternalError


def max_flow(
    num_nodes: int, edges: list[tuple[int, int, int, int]], source: int, sink: int
) -> tuple[int, list[bool]]:
    """Dinic's maximum flow from ``source`` to ``sink`` on nodes 0..num_nodes-1.

    Each edge (a, b, cap_ab, cap_ba) is one arc pair between a and b with
    integer capacity cap_ab from a to b and cap_ba back; an undirected edge
    of weight c is (a, b, c, c). Returns the flow value and, as a mask, the
    nodes reachable from the source in the final residual graph: the
    inclusion-minimal source side over all minimum cuts.
    """
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    head: list[int] = []  # arc e ends at head[e]; arc e ^ 1 is its reverse
    cap: list[int] = []
    for a, b, ab, ba in edges:
        out[a].append(len(head))
        head.append(b)
        cap.append(ab)
        out[b].append(len(head))
        head.append(a)
        cap.append(ba)
    flow = 0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for v in queue:
            down = level[v] + 1
            for e in out[v]:
                x = head[e]
                if cap[e] and level[x] < 0:
                    level[x] = down
                    queue.append(x)
        if level[sink] < 0:
            return flow, [lv >= 0 for lv in level]
        # a blocking flow: advance along arcs that go one level down, from
        # each node's current arc on, and retire a node with no such arc left
        current = [0] * num_nodes
        path: list[int] = []  # the arcs from the source to v
        v = source
        while True:
            if v == sink:
                push = min(cap[e] for e in path)
                flow += push
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                del path[next(i for i, e in enumerate(path) if not cap[e]):]
                v = head[path[-1]] if path else source
                continue
            arcs = out[v]
            i = current[v]
            down = level[v] + 1
            while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == down):
                i += 1
            current[v] = i
            if i < len(arcs):
                path.append(arcs[i])
                v = head[arcs[i]]
            elif v == source:
                break
            else:
                level[v] = -1  # a dead end until the next phase
                v = head[path.pop() ^ 1]


def least_ratio_cut(aux: AuxHypergraph) -> tuple[list[int], int, int] | None:
    """The seed-containing S within the ball of least cut-net(S) / vol(S),
    as (blocks, cut-net, vol(S)) with S as block 0; None when the ball holds
    no motif volume.

    Dinkelbach's iteration starts from S = B. At lambda = p/q, the ratio of
    the current S, it minimizes q * cut(S) - p * vol(S) by one min cut on W:
    each pair of W gets capacity q * w, each free ball node a source arc of
    2p * d_mu(v), the seeds are merged into the source and u is the sink.
    A cut's capacity is then 2 * (q * cut(S) - p * vol(S)) plus a constant.
    A set below zero has a smaller ratio and is the next S; when none is,
    lambda is the least ratio.

    Ties: at the final lambda, the answer is the inclusion-minimal min-cut
    side (the residual graph's source side). Every set of least ratio
    contains it, so when it holds motif volume its cut and size are the
    least among them. When it holds none (the seeds lie in no occurrence),
    the answer is the last S of the iteration, whose ratio is the same.
    """
    u = aux.u
    seeds = aux.seed_nodes
    volumes = aux.volumes
    vol = sum(volumes)
    if not vol:
        return None
    source = u + 1
    merged = []  # W's pairs that some S cuts and some does not
    for a, b, w in aux.pairs:
        a = source if a in seeds else a
        b = source if b in seeds else b
        if a != b and (a, b) != (source, u):
            merged.append((a, b, w))
    free = [v for v in range(u) if v not in seeds and volumes[v]]
    inside = [True] * u + [False]  # S = B
    cut_w = sum(w for _, b, w in aux.pairs if b == u)  # W units, twice the cut-net
    while True:
        ratio = Fraction(cut_w, 2 * vol)
        p, q = ratio.numerator, ratio.denominator
        edges = [(a, b, q * w, q * w) for a, b, w in merged]
        if p:
            edges += [(source, v, 2 * p * volumes[v], 0) for v in free]
        _, reach = max_flow(u + 2, edges, source, u)
        side = [reach[v] or v in seeds for v in range(u)] + [False]
        side_cut_w = sum(w for a, b, w in aux.pairs if side[a] != side[b])
        side_vol = sum(d for d, x in zip(volumes, side) if x)
        gap = q * side_cut_w - 2 * p * side_vol
        if gap > 0:
            raise InternalError(f"min cut at ratio {ratio} is above the current set's")
        if side_vol:  # a smaller ratio, or the least side at the least ratio
            inside, cut_w, vol = side, side_cut_w, side_vol
        if gap == 0:
            break
    return [0 if x else 1 for x in inside], cut_w >> 1, vol
