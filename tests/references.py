"""References for tests: the superseded implementations that the library's
faster code replaced, kept so that randomized tests can require both to
agree. None of this ships in the package; the brute-force oracles and the
instance generators stay in ``motifclust.testing``.
"""

from __future__ import annotations

import heapq
import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from motifclust.auxiliary import AuxHypergraph
from motifclust.balls import CoreDecomposition
from motifclust.conductance import cut_net, motif_conductance
from motifclust.core import Hypergraph
from motifclust.errors import ConstraintError, InputError, ParseError, RefinementError
from motifclust.io import ParseResult
from motifclust.partition import (
    MAX_PASSES,
    Blocks,
    fm_refine,
    random_feasible_partition,
    size_bound,
)


# -- reference core decomposition: tuple-keyed pair counts, which
# balls.nbr_core_decomposition replaces with int keys a * n + b


def reference_nbr_core_decomposition(H: Hypergraph) -> CoreDecomposition:
    """Neighborhood-based core numbers via progressive peeling, with each
    pair count keyed by its node pair (u, w)."""
    n = H.n
    if n == 0:
        raise InputError("core decomposition of an empty hypergraph")
    edges = H.members
    alive = bytearray([1]) * n
    edge_alive = bytearray([1]) * H.num_edges
    # pair_count[(u, w)] = number of surviving hyperedges containing both
    pair_count: dict[tuple[int, int], int] = {}
    for mem in edges:
        for pair in combinations(mem, 2):
            pair_count[pair] = pair_count.get(pair, 0) + 1
    nbr_count = [0] * n
    for a, b in pair_count:
        nbr_count[a] += 1
        nbr_count[b] += 1

    core = [0] * n
    remaining = n
    k = 0
    while remaining:
        k += 1
        queue = deque(v for v in range(n) if alive[v] and nbr_count[v] < k)
        queued = set(queue)
        while queue:
            v = queue.popleft()
            alive[v] = 0
            core[v] = k - 1
            remaining -= 1
            for ei in H.incident_edges(v):
                if not edge_alive[ei]:
                    continue
                edge_alive[ei] = 0
                mem = edges[ei]
                for pair in combinations(mem, 2):
                    left = pair_count[pair] - 1
                    pair_count[pair] = left
                    if left == 0:
                        for x in pair:
                            if alive[x]:
                                nbr_count[x] -= 1
                                if nbr_count[x] < k and x not in queued:
                                    queue.append(x)
                                    queued.add(x)
    return CoreDecomposition(tuple(core), max(core, default=0))


# -- reference auxiliary construction: the hyperedge merge that build_aux replaces


def reference_aux_hyperedges(M, ball) -> dict[tuple[int, ...], int]:
    """The auxiliary hyperedges of ``M`` over ``ball``, sorted, with weights.

    Ball nodes get aux ids in sorted order and u = |ball|. An occurrence
    triple maps to its inside ids, plus u when it reaches outside the ball,
    and parallel hyperedges merge with their multiplicity as weight.
    """
    aux_of = {v: i for i, v in enumerate(sorted(getattr(ball, "nodes", ball)))}
    u = len(aux_of)
    acc: dict[tuple[int, ...], int] = {}
    for triple in M:
        inside = sorted(aux_of[v] for v in triple if v in aux_of)
        if not inside:
            raise ConstraintError(f"occurrence {triple!r} has no node in the ball")
        key = tuple(inside) if len(inside) == 3 else tuple(inside) + (u,)
        acc[key] = acc.get(key, 0) + 1
    return dict(sorted(acc.items()))


def reference_pairs(hyperedges) -> list[tuple[int, int, int]]:
    """The doubled pair graph W of (members, weight) hyperedges of 2 or 3
    pins, as (a, b, weight) in order of first appearance: a 3-pin hyperedge
    of weight w adds w to each of its pairs, a 2-pin one adds 2w to its pair."""
    pair_weight: dict[tuple[int, int], int] = {}
    for members, w in hyperedges:
        mem = tuple(members)
        if len(mem) == 2:
            pair_weight[mem] = pair_weight.get(mem, 0) + 2 * w
        elif len(mem) == 3:
            a, b, c = mem
            for pair in ((a, b), (a, c), (b, c)):
                pair_weight[pair] = pair_weight.get(pair, 0) + w
        else:
            raise InputError(f"aux hyperedge {mem!r} does not have 2 or 3 pins")
    return [(a, b, w) for (a, b), w in pair_weight.items()]


def aux_from_hyperedges(
    num_ball_nodes: int, hyperedges, seed_nodes, back_map=None
) -> AuxHypergraph:
    """An AuxHypergraph given by its (members, weight) hyperedges."""
    return AuxHypergraph(num_ball_nodes, reference_pairs(hyperedges), seed_nodes, back_map)


# -- reference FM: the tuple-heap refinement that partition.fm_refine replaces


def reference_fm_refine(
    aux: AuxHypergraph,
    blocks: Sequence[int],
    eps: float,
    observer: Callable | None = None,
) -> Blocks:
    """FM passes: move the best-gain unlocked node that keeps the size bound,
    lock it, and roll back to the best prefix at pass end. Stops when a pass
    brings no improvement, or after MAX_PASSES passes. The seed nodes and u
    are fixed and never move. Never returns a worse cut than it received; a
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
            free[v] = v not in aux.seed_nodes
            heaps[side].append((k, v))
        heapq.heapify(heaps[0])
        heapq.heapify(heaps[1])
        trail: list[int] = []
        best_cut = cur
        best_len = 0
        while True:
            chosen = None
            for side in (0, 1):
                if counts[1 - side] >= bound:  # the move would overfill the other block
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


# -- reference search: the observer-scored restarts that fm_refine's own
# state tracking replaces


def reference_partition_search(
    aux: AuxHypergraph,
    beta: int,
    eps_range: tuple[float, float],
    rng: random.Random,
    total: int,
) -> tuple[Blocks, Fraction, int, int] | None:
    """partition_search with each state scored by an fm_refine observer that
    recounts block 0's volume and size at every pass start and updates them
    on every move. Returns (blocks, phi, cut-net, block-0 size) of the
    smallest (phi, cut-net, block-0 size, run) key, or None."""
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
        fm_refine(aux, init, eps, observer=_StateScorer(aux, total, i, best))
    if best.blocks is None:
        return None
    return (best.blocks, *best.key[:3])


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
    """fm_refine observer: tracks (cut, block-0 volume, block-0 size)
    incrementally and offers every state to the search. It recounts them
    in full at each pass start."""

    __slots__ = ("volumes", "total", "run", "best", "vol0", "size0")

    def __init__(self, aux: AuxHypergraph, total: int, run: int, best: _Best):
        self.volumes = aux.volumes
        self.total = total
        self.run = run
        self.best = best
        self.vol0 = 0
        self.size0 = 0

    def __call__(self, event: str, blocks: Sequence[int], moved: int | None, cut: int) -> None:
        vols = self.volumes
        if event == "pass":
            self.vol0 = sum(d for d, b in zip(vols, blocks) if b == 0)
            self.size0 = len(blocks) - sum(blocks)
        elif blocks[moved] == 0:  # moved into block 0
            self.vol0 += vols[moved]
            self.size0 += 1
        else:
            self.vol0 -= vols[moved]
            self.size0 -= 1
        key = self.best.key
        if key is not None and cut * key[0].denominator > key[0].numerator * self.vol0:
            return  # phi >= cut / vol0, which is already above the best phi
        phi = motif_conductance(cut, self.vol0, self.total)
        if phi is not None:
            self.best.consider((phi, cut, self.size0, self.run), blocks)


# -- reference parsers: the line-by-line ingest that io's one-pass parsers replace


_SPLIT = re.compile(r"[,\s]+")


def _reference_result(raw_edges: list[tuple], dropped: int, source: str) -> ParseResult:
    """raw_edges: label tuples, already deduplicated within each edge."""
    labels: list = []
    index: dict = {}
    keys: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    merged = 0
    for members in raw_edges:
        ids = []
        for lab in members:
            i = index.get(lab)
            if i is None:
                i = len(labels)
                index[lab] = i
                labels.append(lab)
            ids.append(i)
        key = tuple(sorted(ids))
        if key in keys:
            merged += 1
        else:
            keys[key] = None
    if not keys:
        raise InputError(f"no usable hyperedges in {source} after cleaning")
    return ParseResult(Hypergraph(len(labels), list(keys)), labels, dropped, merged)


def reference_parse_edge_list(source) -> ParseResult:
    """What ``io.parse_edge_list`` returns or raises, one line at a time."""
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        lines = source.read().splitlines()
    else:
        name = str(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}", path=name) from exc
        except OSError as exc:
            raise ParseError(f"cannot read: {exc}", path=name) from exc
    raw: list[tuple] = []
    dropped = 0
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = [t for t in _SPLIT.split(text) if t]
        members = tuple(dict.fromkeys(tokens))  # dedupe, keep order
        if len(members) < 2:
            dropped += 1
            continue
        raw.append(members)
    return _reference_result(raw, dropped, name)


def _reference_read_ints(path: str) -> list[int]:
    out: list[int] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                for token in _SPLIT.split(text):
                    if not token:
                        continue
                    try:
                        out.append(int(token))
                    except ValueError:
                        raise ParseError(
                            f"expected an integer, got {token!r}", path=path, line=lineno
                        ) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=str(path)) from exc
    return out


def reference_parse_arb_simplices(nverts_path, simplices_path) -> ParseResult:
    """What ``io.parse_arb_simplices`` returns or raises, one line at a time.
    Unlike io, it does not reject a negative size: it moves the chunk start
    back instead."""
    nverts = _reference_read_ints(str(nverts_path))
    flat = _reference_read_ints(str(simplices_path))
    expected = sum(nverts)
    if expected != len(flat):
        raise ParseError(
            f"simplices length mismatch: nverts sums to {expected}, "
            f"found {len(flat)} node entries",
            path=str(simplices_path),
        )
    raw: list[tuple] = []
    dropped = 0
    pos = 0
    for size in nverts:
        chunk = flat[pos : pos + size]
        pos += size
        members = tuple(dict.fromkeys(chunk))
        if len(members) < 2:
            dropped += 1
            continue
        raw.append(members)
    return _reference_result(raw, dropped, str(nverts_path))
