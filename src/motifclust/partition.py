"""Phase four: 2-way cut-net partitioning of the auxiliary hypergraph.

The auxiliary hypergraph is held as its doubled pair graph W, whose cut is
twice the cut-net (see ``auxiliary``). A ball holding at most half the motif
volume is searched exactly by parametric min cut (``flow.least_ratio_cut``),
with no restart and no size cap. On any other ball the search is
Fiduccia-Mattheyses on W, with one lazy max-gain heap per block, restarted
under randomized imbalance. A heap entry is one int, ``key * N + v`` for
node v with negated gain ``key`` among N aux nodes; as 0 <= v < N, the ints
order exactly as (key, v) tuples would, so the moves are those of a tuple
heap (``reference_fm_refine`` in ``tests/references.py``) without a tuple
per entry. Block 0 is the cluster side and block 1 the other side. FM moves
every node but the fixed ones: the seed nodes stay in block 0 and the
contracted node u stays in block 1, as fixed vertices do in FM with fixed
vertices (Caldwell, Kahng & Markov, IEEE TCAD 2000). Every state FM visits
is thus a consistent split.

States are scored where FM already tracks them: ``fm_refine`` keeps the
cut, the block sizes and block 0's motif volume (from ``aux.volumes``), and
offers every state it visits to the search's ``_Best`` record. ``_Best``
scores a state with ``conductance.motif_conductance`` and holds the
search's one tie order: smaller phi, then smaller cut-net, then smaller
block 0, then first found. Given a ``_Best``, an FM pass ends as soon as
the pairs between its locked nodes (fixed, or moved in the pass) prove
that no later state of the pass can lower its best cut or beat the best
phi: such states would all be rolled back and rejected, so the blocks FM
returns, and the search's winner, stay the same.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from .auxiliary import AuxHypergraph
from .conductance import cut_net, motif_conductance
from .errors import InputError, RefinementError
from .flow import least_ratio_cut

Blocks = list[int]

MAX_PASSES = 10  # FM passes per refinement
MAX_ATTEMPTS = 10_000  # rejection-sampling draws for a feasible random start


def size_bound(num_nodes: int, eps: float) -> int:
    """Per-block size cap ceil((1 + eps) * num_nodes / 2) for unit node weights."""
    if eps <= 0:
        raise InputError(f"imbalance eps must be > 0, got {eps}")
    return math.ceil((1 + eps) * num_nodes / 2)


def random_feasible_partition(aux: AuxHypergraph, eps: float, rng: random.Random) -> Blocks:
    """u in block 1, seeds in block 0, the rest uniform subject to the size cap."""
    n = aux.num_nodes
    bound = size_bound(n, eps)
    if len(aux.seed_nodes) > bound:
        raise InputError(
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
    best: _Best | None = None,
) -> Blocks:
    """FM passes: move the best-gain unlocked node that keeps the size bound,
    lock it, and roll back to the best prefix at pass end. Stops when a pass
    brings no improvement, or after MAX_PASSES passes. The seed nodes and u
    are fixed: ``blocks`` must hold every seed in block 0 and u in block 1
    (else InputError), and they stay there, so neither block ever empties.
    Never returns a worse cut than it received; a worse cut raises
    RefinementError.

    Gains are taken on the pair graph W, where they are exactly twice the
    cut-net gains, so the move order (max gain, ties to the smaller id) is
    the cut-net one. Whether a move is feasible depends only on the mover's
    block, so each block keeps its own lazy heap and a block that may not
    give up a node is not scanned. A node's key is its negated W gain, and
    its heap entry is the one int ``key * N + v`` with N = ``aux.num_nodes``:
    since 0 <= v < N, ints order exactly as (key, v) pairs would (lowest key
    first, ties to the smaller id), and ``divmod(entry, N)`` gives them back,
    negative keys included. An entry is pushed when a gain rises; when a
    gain falls, the node's older entry surfaces early and is re-pushed then.
    Every free node thus has an entry no larger than its current one, so the
    first entry that equals ``key[v] * N + v`` is the block's best move.

    Beside the cut and the block sizes, each pass keeps block 0's motif
    volume: counted in the pass-start sweep, updated on each committed move,
    and recounted after a rollback by the next pass start. ``best``, a
    search's ``_Best`` record, is offered every visited state, at each pass
    start and after each committed move. The blocks fm_refine returns never
    depend on ``best``; with ``best`` given, a pass ends once no later state
    can lower the pass's best cut or beat ``best``. Later states move only
    free nodes, so their W cut is at least ``locked_cut``, the W weight of
    the cut pairs whose two ends are locked (fixed, or moved this pass), and
    their block-0 volume lies in [``locked0``, ``max0``], between the volume
    locked in block 0 and that plus the free nodes' volume. Once
    ``locked_cut`` is no less than the pass's best cut and locked_cut over
    the largest min(vol0, total - vol0) in that range is above best's phi,
    the rest of the pass would be rolled back and every state in it
    rejected, so it is skipped.

    ``observer(event, blocks, moved, cut)`` is called with event "pass" at
    each pass start and "move" after each committed move (before any
    rollback), with the cut in cut-net units; observers must not mutate
    ``blocks``.
    """
    blocks = list(blocks)
    initial_cut = 2 * cut_net(aux, blocks)  # W units from here on
    seeds = aux.seed_nodes
    u = aux.u
    if blocks[u] != 1 or any(blocks[s] for s in seeds):
        raise InputError("fm_refine needs every seed node in block 0 and u in block 1")
    bound = size_bound(aux.num_nodes, eps)
    nbrs = aux.neighbors
    pairs = aux.pairs
    volumes = aux.volumes
    n = aux.num_nodes  # the N of heap entries key * N + v
    movable = [v not in seeds for v in range(u)] + [False]  # u is the last node
    seed_u_cut = sum(w for x, w in nbrs[u] if x in seeds)  # fixed, so always cut
    seed_volume = sum(volumes[s] for s in seeds)
    ball_volume = sum(volumes[:u])
    half = best.total // 2 if best is not None else 0
    push = heapq.heappush
    pop = heapq.heappop
    heapreplace = heapq.heapreplace
    cur = initial_cut
    for _ in range(MAX_PASSES):
        if observer is not None:
            observer("pass", blocks, None, cur >> 1)
        ones = sum(blocks)
        counts = [n - ones, ones]
        # a node's negated W gain is its internal minus its external W
        # weight, deg_W - 2 * external, and deg_W = 2 * volume; u's is unused
        external = [0] * n
        for a, b, w in pairs:
            if blocks[a] != blocks[b]:
                external[a] += w
                external[b] += w
        key = [2 * (d - e) for d, e in zip(volumes, external)]
        free = list(movable)  # movable and not yet moved in this pass
        heaps: tuple[list, list] = ([], [])
        vol0 = 0  # block 0's motif volume
        for v in range(u):  # every node but u, the last one
            if not blocks[v]:
                vol0 += volumes[v]
            if free[v]:
                heaps[blocks[v]].append(key[v] * n + v)
        heapq.heapify(heaps[0])
        heapq.heapify(heaps[1])
        if best is not None:
            best.offer(cur >> 1, vol0, counts[0], blocks)
        trail: list[int] = []
        best_cut = cur
        best_len = 0
        locked_cut = seed_u_cut
        locked0 = seed_volume
        max0 = ball_volume
        while True:
            chosen = None
            for side in (0, 1):
                if counts[1 - side] >= bound:  # the move would overfill the other block
                    continue
                heap = heaps[side]
                while heap:
                    entry = heap[0]
                    v = entry % n
                    if not free[v]:
                        pop(heap)
                        continue
                    current = key[v] * n + v
                    if entry != current:
                        heapreplace(heap, current)  # surfaced before its key rose
                    else:
                        if chosen is None or entry < chosen:
                            chosen = entry
                        break
            if chosen is None:
                break
            k, v = divmod(chosen, n)
            f = blocks[v]
            stay = heaps[f]
            pop(stay)
            free[v] = False
            for x, w in nbrs[v]:
                if free[x]:
                    if blocks[x] == f:
                        key[x] -= 2 * w
                        push(stay, key[x] * n + x)
                    else:
                        key[x] += 2 * w
                elif blocks[x] == f:  # x is locked and stays behind: cut for good
                    locked_cut += w
            blocks[v] = 1 - f
            counts[f] -= 1
            counts[1 - f] += 1
            if f:
                vol0 += volumes[v]
                locked0 += volumes[v]
            else:
                vol0 -= volumes[v]
                max0 -= volumes[v]
            cur += k
            trail.append(v)
            if observer is not None:
                observer("move", blocks, v, cur >> 1)
            if best is not None:
                best.offer(cur >> 1, vol0, counts[0], blocks)
            if cur < best_cut:
                best_cut = cur
                best_len = len(trail)
            elif (
                best is not None
                and locked_cut >= best_cut
                and locked_cut * best.den
                > best.num * 2 * min(half, max0, best.total - locked0)
            ):
                break  # no later state of this pass can lower best_cut or beat best
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
) -> tuple[Blocks, Fraction, int, int] | None:
    """Best consistent partition: exact on a ball holding at most half the
    motif volume, else over ``beta`` randomized-imbalance restarts.

    ``total`` is the global motif volume, so a state whose block 0 holds
    motif volume vol0 (summed from ``aux.volumes``) scores
    motif_conductance(cut, vol0, total). When 2 * sum(aux.volumes) <= total,
    that is cut / vol0 for every consistent state, and the least one is
    ``flow.least_ratio_cut``'s answer: no restart runs, there is no size
    cap, and ``beta`` and ``eps_range`` are only validated. Otherwise FM
    searches the ball, and every restart caps both blocks at no less than
    ``size_bound(aux.num_nodes, eps_range[0])`` nodes; a seed larger than
    that cap raises InputError before the first restart. Each run draws its
    own RNG stream from the master rng, samples eps uniformly from
    ``eps_range``, initializes randomly and refines. Refinement minimizes
    the cut, so the best-conductance state is often mid-trajectory rather
    than final: ``fm_refine`` keeps the seeds in block 0 and offers every
    state it visits, the run's end state among them, to the search's
    ``_Best`` record. Ties break by smaller cut-net, then smaller block 0,
    then first found.

    Returns ``(blocks, phi, cut, size0)`` of the winner, with ``cut`` its
    cut-net and ``size0`` the node count of its block 0, so that
    ``found[1:]`` is its key in the tie order; None when no state had a
    defined conductance.
    """
    if beta < 1:
        raise InputError(f"beta must be >= 1, got {beta}")
    lo, hi = eps_range
    if not (0 < lo <= hi):
        raise InputError(f"invalid eps range {eps_range!r}")
    best = _Best(total)
    if 2 * sum(aux.volumes) <= total:  # phi(S) = cut(S) / vol(S) for every S in the ball
        found = least_ratio_cut(aux)
        if found is not None:
            blocks, cut, vol0 = found
            best.offer(cut, vol0, blocks.count(0), blocks)
    else:
        bound = size_bound(aux.num_nodes, lo)
        if len(aux.seed_nodes) > bound:
            raise InputError(
                f"the {len(aux.seed_nodes)}-node seed hyperedge does not fit in one block "
                f"of a {aux.u}-node ball at eps {lo} (at most {bound} nodes); "
                "raise min_ball or eps_min"
            )
        for _ in range(beta):
            r = random.Random(rng.randrange(2**63))
            eps = lo if lo == hi else r.uniform(lo, hi)
            fm_refine(aux, random_feasible_partition(aux, eps, r), eps, best=best)
    if best.key is None:
        return None
    return (best.blocks, *best.key)


class _Best:
    """A search's best consistent state so far: its (phi, cut-net, block-0
    size) key and its blocks. ``total`` is the global motif volume phi is
    taken over. A state replaces the best only on a strictly smaller key,
    so ties go to the state offered first. ``num`` and ``den`` are the best
    phi's numerator and denominator as plain ints, 0 and 0 while there is
    no best, so that ``a * den > num * b`` (a, b >= 0) tests a / b > phi
    and is false before the first best."""

    __slots__ = ("total", "key", "blocks", "num", "den")

    def __init__(self, total: int):
        self.total = total
        self.key: tuple[Fraction, int, int] | None = None
        self.blocks: Blocks | None = None
        self.num = 0
        self.den = 0

    def offer(self, cut: int, vol0: int, size0: int, blocks: Sequence[int]) -> None:
        if cut * self.den > self.num * vol0:
            return  # phi >= cut / vol0, which is already above the best phi
        phi = motif_conductance(cut, vol0, self.total)
        key = self.key
        if phi is not None and (key is None or (phi, cut, size0) < key):
            self.key = (phi, cut, size0)
            self.blocks = list(blocks)
            self.num = phi.numerator
            self.den = phi.denominator
