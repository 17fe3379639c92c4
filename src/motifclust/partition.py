"""Phase four: 2-way cut-net partitioning of the auxiliary hypergraph.

Every aux hyperedge has at most 3 pins, so its cut-net is half the cut of the
doubled pair graph W the hypergraph carries (see ``auxiliary``). Refinement is
Fiduccia-Mattheyses on W, with one lazy max-gain heap per block, restarted
under randomized imbalance. Block 0 is the cluster side (holds the seed
nodes); block 1 holds the contracted node u. The contracted node never moves;
every other node, seeds included, is free during refinement, and seeds are
moved back to block 0 afterwards. States are scored with
``conductance.motif_conductance`` over the aux's own motif volumes.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from .auxiliary import AuxHypergraph
from .conductance import cut_net, motif_conductance
from .errors import ConstraintError, InputError, RefinementError

Blocks = list[int]

MAX_PASSES = 10  # FM passes per refinement
MAX_ATTEMPTS = 10_000  # rejection-sampling draws for a feasible random start


def size_bound(num_nodes: int, eps: float) -> int:
    """Per-block size cap ceil((1 + eps) * num_nodes / 2) for unit node weights."""
    if eps <= 0:
        raise InputError(f"imbalance eps must be > 0, got {eps}")
    return math.ceil((1 + eps) * num_nodes / 2)


def is_consistent(aux: AuxHypergraph, blocks: Sequence[int]) -> bool:
    """Seed nodes in block 0 and u in block 1."""
    return blocks[aux.u] == 1 and all(blocks[s] == 0 for s in aux.seed_nodes)


def enforce_consistency(aux: AuxHypergraph, blocks: Sequence[int]) -> Blocks:
    """Relabel so u sits in block 1, then move stray seed nodes to block 0.

    The post-hoc move may leave block 1 holding only u; that is still valid.
    """
    out = list(blocks)
    if out[aux.u] == 0:
        out = [1 - b for b in out]
    for s in aux.seed_nodes:
        out[s] = 0
    return out


def random_feasible_partition(aux: AuxHypergraph, eps: float, rng: random.Random) -> Blocks:
    """u in block 1, seeds in block 0, the rest uniform subject to the size cap."""
    n = aux.num_nodes
    bound = size_bound(n, eps)
    if len(aux.seed_nodes) > bound:
        raise ConstraintError(
            f"{len(aux.seed_nodes)} seed nodes exceed the block size bound {bound}"
        )
    base = [0] * n
    base[aux.u] = 1
    free = [v for v in range(n) if v != aux.u and v not in aux.seed_nodes]
    for _ in range(MAX_ATTEMPTS):
        blocks = list(base)
        for v in free:
            blocks[v] = 1 if rng.random() < 0.5 else 0
        ones = sum(blocks)
        if ones <= bound and n - ones <= bound:
            return blocks
    # extremely unlikely fallback: same rng stream, capacity-aware assignment
    blocks = list(base)
    counts = [len(aux.seed_nodes), 1]
    for v in free:
        side = 1 if rng.random() < 0.5 else 0
        if counts[side] + 1 > bound:
            side = 1 - side
        blocks[v] = side
        counts[side] += 1
    return blocks


def fm_refine(
    aux: AuxHypergraph,
    blocks: Sequence[int],
    eps: float,
    observer: Callable | None = None,
) -> Blocks:
    """FM passes: move the best-gain unlocked node that keeps the size bound,
    lock it, and roll back to the best prefix at pass end. Stops when a pass
    brings no improvement, or after MAX_PASSES passes. Every node except u
    may move, seeds included. Never returns a worse cut than it received; a
    worse cut raises RefinementError.

    Gains are taken on the pair graph W, where they are exactly twice the
    cut-net gains, so the move order (max gain, ties to the smaller id) is
    the cut-net one. Whether a move is feasible depends only on the mover's
    block, so each block keeps its own lazy heap of (-gain, node) and a block
    that may not give up a node is not scanned. An entry is pushed when a
    gain rises; when a gain falls, the node's older entry surfaces early and
    is re-pushed then. Every free node thus has an entry no larger than its
    key, so the first entry that matches its node's key is the block's best
    move.

    ``observer(event, blocks, moved, cut)`` is called with event "pass" at
    each pass start and "move" after each committed move (before any
    rollback), with the cut in cut-net units; observers must not mutate
    ``blocks``.
    """
    blocks = list(blocks)
    initial_cut = 2 * cut_net(aux, blocks)  # W units from here on
    bound = size_bound(aux.num_nodes, eps)
    nbrs = aux.neighbors
    n = len(blocks)
    push = heapq.heappush
    pop = heapq.heappop
    heapreplace = heapq.heapreplace
    cur = initial_cut
    for _ in range(MAX_PASSES):
        if observer is not None:
            observer("pass", blocks, None, cur >> 1)
        ones = sum(blocks)
        counts = [n - ones, ones]
        key = [0] * n  # negated W gain
        free = [False] * n  # movable and not yet moved in this pass
        heaps: tuple[list, list] = ([], [])
        for v in range(aux.u):  # every node but u, the last one
            side = blocks[v]
            k = 0
            for x, w in nbrs[v]:
                if blocks[x] == side:
                    k += w
                else:
                    k -= w
            key[v] = k
            free[v] = True
            heaps[side].append((k, v))
        heapq.heapify(heaps[0])
        heapq.heapify(heaps[1])
        trail: list[int] = []
        best_cut = cur
        best_len = 0
        while True:
            chosen = None
            for side in (0, 1):
                # a move must respect the size bound and may not empty a block
                if counts[1 - side] >= bound or counts[side] == 1:
                    continue
                heap = heaps[side]
                while heap:
                    k, v = heap[0]
                    if not free[v]:
                        pop(heap)
                    elif k != key[v]:
                        heapreplace(heap, (key[v], v))  # surfaced before its key rose
                    else:
                        if chosen is None or heap[0] < chosen:
                            chosen = heap[0]
                        break
            if chosen is None:
                break
            k, v = chosen
            f = blocks[v]
            stay = heaps[f]
            pop(stay)
            free[v] = False
            for x, w in nbrs[v]:
                if free[x]:
                    if blocks[x] == f:
                        key[x] -= 2 * w
                        push(stay, (key[x], x))
                    else:
                        key[x] += 2 * w
            blocks[v] = 1 - f
            counts[f] -= 1
            counts[1 - f] += 1
            cur += k
            trail.append(v)
            if observer is not None:
                observer("move", blocks, v, cur >> 1)
            if cur < best_cut:
                best_cut = cur
                best_len = len(trail)
        for v in trail[best_len:]:
            blocks[v] = 1 - blocks[v]
        cur = best_cut
        if best_len == 0:
            break
    if cur > initial_cut:
        raise RefinementError(
            f"fm_refine worsened the cut: {initial_cut >> 1} -> {cur >> 1}"
        )
    return blocks


def partition_search(
    aux: AuxHypergraph,
    beta: int,
    eps_range: tuple[float, float],
    rng: random.Random,
    total: int,
) -> tuple[Blocks, Fraction] | None:
    """Best consistent partition over ``beta`` randomized-imbalance restarts.

    ``total`` is the global motif volume, so a state whose block 0 holds
    motif volume vol0 (summed from ``aux.volumes``) scores
    motif_conductance(cut, vol0, total). Each run draws its own RNG stream
    from the master rng, samples eps uniformly from ``eps_range``,
    initializes randomly, refines, enforces consistency and scores the final
    state. Every consistent state visited during refinement is scored as
    well: refinement minimizes the cut, so the best-conductance state is
    often mid-trajectory rather than final. Ties break by smaller cut-net,
    then smaller block 0, then first found. Returns None when no state had a
    defined conductance.
    """
    if beta < 1:
        raise InputError(f"beta must be >= 1, got {beta}")
    lo, hi = eps_range
    if not (0 < lo <= hi):
        raise InputError(f"invalid eps range {eps_range!r}")
    run_seeds = [rng.randrange(2**63) for _ in range(beta)]
    best = _Best()
    for i, run_seed in enumerate(run_seeds):
        r = random.Random(run_seed)
        eps = lo if lo == hi else r.uniform(lo, hi)
        init = random_feasible_partition(aux, eps, r)
        scorer = _StateScorer(aux, total, i, best)
        refined = fm_refine(aux, init, eps, observer=scorer)
        final = enforce_consistency(aux, refined)
        scorer.rescore(final, cut_net(aux, final))
    if best.blocks is None:
        return None
    return best.blocks, best.key[0]


class _Best:
    """The search's smallest (phi, cut-net, block-0 size, run) key so far and
    the blocks that reached it."""

    __slots__ = ("key", "blocks")

    def __init__(self):
        self.key: tuple | None = None
        self.blocks: Blocks | None = None

    def consider(self, key: tuple, blocks: Sequence[int]) -> None:
        if self.key is None or key < self.key:
            self.key = key
            self.blocks = list(blocks)


class _StateScorer:
    """fm_refine observer: tracks (cut, block-0 volume, stray seeds, block-0
    size) incrementally and offers every consistent state to the search.
    ``rescore`` recounts them from scratch, at each pass start and for the
    restart's final state."""

    __slots__ = ("aux", "volumes", "total", "run", "best", "vol0", "size0", "displaced", "seeds")

    def __init__(self, aux: AuxHypergraph, total: int, run: int, best: _Best):
        self.aux = aux
        self.volumes = aux.volumes
        self.total = total
        self.run = run
        self.best = best
        self.seeds = aux.seed_nodes
        self.vol0 = 0
        self.size0 = 0
        self.displaced = 0

    def __call__(self, event: str, blocks: Sequence[int], moved: int | None, cut: int) -> None:
        if event == "pass":
            self.rescore(blocks, cut)
            return
        vols = self.volumes
        if blocks[moved] == 0:  # moved into block 0
            self.vol0 += vols[moved]
            self.size0 += 1
            if moved in self.seeds:
                self.displaced -= 1
        else:
            self.vol0 -= vols[moved]
            self.size0 -= 1
            if moved in self.seeds:
                self.displaced += 1
        self._offer(blocks, cut)

    def rescore(self, blocks: Sequence[int], cut: int) -> None:
        vols = self.volumes
        self.vol0 = sum(vols[a] for a in range(self.aux.u) if blocks[a] == 0)
        self.size0 = len(blocks) - sum(blocks)
        self.displaced = sum(1 for s in self.seeds if blocks[s] == 1)
        self._offer(blocks, cut)

    def _offer(self, blocks: Sequence[int], cut: int) -> None:
        if self.displaced:
            return
        key = self.best.key
        if key is not None and cut * key[0].denominator > key[0].numerator * self.vol0:
            return  # phi >= cut / vol0, which is already above the best phi
        phi = motif_conductance(cut, self.vol0, self.total)
        if phi is not None:
            self.best.consider((phi, cut, self.size0, self.run), blocks)
