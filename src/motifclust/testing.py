"""Brute-force oracles and instance generators for validating every phase.

Test support only, not part of the release API: every oracle carries an
explicit size budget and refuses anything beyond toy scale.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .auxiliary import AuxHypergraph
from .conductance import conductance_direct, cut_net
from .core import Hyperedge, Hypergraph
from .errors import (
    BudgetExceededError,
    ConstraintError,
    InputError,
    ParseError,
    RefinementError,
    UndefinedConductanceError,
)
from .io import ParseResult
from .motifs import MotifPattern, classify_triple
from .partition import MAX_PASSES, Blocks, size_bound


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 12
    max_subsets: int = 2**15


DEFAULT_BUDGET = OracleBudget()


def brute_motifs(
    H: Hypergraph, pattern: MotifPattern, budget: OracleBudget = DEFAULT_BUDGET
) -> list[tuple[int, int, int]]:
    """Classify every C(n, 3) triple; the reference for enumerate_motifs."""
    if H.n > budget.max_nodes:
        raise BudgetExceededError(f"{H.n} nodes exceed the oracle budget of {budget.max_nodes}")
    return [t for t in combinations(range(H.n), 3) if classify_triple(H, *t) is pattern]


def brute_best_cluster(
    H: Hypergraph,
    seed,
    pattern: MotifPattern,
    budget: OracleBudget = DEFAULT_BUDGET,
    within=None,
) -> tuple[frozenset[int], Fraction]:
    """Exhaustive minimum of direct conductance over seed-containing proper
    nonempty node subsets (optionally restricted to ``within``). Deterministic:
    ties break by smaller cluster, then lexicographically."""
    if H.n > budget.max_nodes:
        raise BudgetExceededError(f"{H.n} nodes exceed the oracle budget of {budget.max_nodes}")
    seed_set = frozenset(seed)
    if not seed_set:
        raise InputError("seed must be nonempty")
    pool = sorted((frozenset(within) if within is not None else frozenset(range(H.n))) - seed_set)
    if 2 ** len(pool) > budget.max_subsets:
        raise BudgetExceededError(
            f"{2 ** len(pool)} candidate subsets exceed the budget of {budget.max_subsets}"
        )
    M = brute_motifs(H, pattern, budget)
    everything = frozenset(range(H.n))
    best: tuple | None = None
    for mask in range(2 ** len(pool)):
        extra = {pool[i] for i in range(len(pool)) if mask >> i & 1}
        C = seed_set | extra
        if C == everything:
            continue  # proper subsets only
        try:
            res = conductance_direct(M, C)
        except UndefinedConductanceError:
            continue
        key = (res.phi, len(C), tuple(sorted(C)))
        if best is None or key < best:
            best = key
    if best is None:
        raise UndefinedConductanceError("no seed-containing subset has defined conductance")
    return frozenset(best[2]), best[0]


def brute_nbr_core_numbers(H: Hypergraph, budget: OracleBudget = DEFAULT_BUDGET) -> list[int]:
    """Core numbers from the defining property, independent of peeling.

    A set S is k-valid when every node of S has >= k neighbors in the strongly
    induced subhypergraph on S; validity is closed under union, so the level-k
    core is the union of all k-valid sets. Enumerates all 2^n subsets.
    """
    n = H.n
    if n > budget.max_nodes:
        raise BudgetExceededError(f"{n} nodes exceed the oracle budget of {budget.max_nodes}")
    edges = [e.members for e in H.edges]
    core = [0] * n
    # min over nodes of the neighbor count inside S, for every subset S
    for mask in range(1, 2**n):
        S = [v for v in range(n) if mask >> v & 1]
        inside = set(S)
        nbrs: dict[int, set[int]] = {v: set() for v in S}
        for mem in edges:
            if all(v in inside for v in mem):
                for v in mem:
                    nbrs[v].update(mem)
        worst = min(len(nbrs[v] - {v}) for v in S)
        for v in S:
            if worst > core[v]:
                core[v] = worst
    return core


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
    edges = [Hyperedge(key) for key in keys]
    return ParseResult(Hypergraph(len(labels), edges), labels, dropped, merged)


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


# -- instance generators -------------------------------------------------


def random_hypergraph(
    rng: random.Random,
    n: int,
    dyad_p: float,
    triad_p: float,
    big_edge_p: float = 0.0,
    require_edge: bool = True,
) -> Hypergraph:
    """Random dyads/triads (plus occasional size-4 edges, which motif logic
    must ignore); retries until at least one hyperedge exists."""
    for _ in range(200):
        edges: list[tuple[int, ...]] = []
        for pair in combinations(range(n), 2):
            if rng.random() < dyad_p:
                edges.append(pair)
        for triple in combinations(range(n), 3):
            if rng.random() < triad_p:
                edges.append(triple)
        if big_edge_p > 0:
            for quad in combinations(range(n), 4):
                if rng.random() < big_edge_p:
                    edges.append(quad)
        if edges or not require_edge:
            return Hypergraph(n, edges)
    raise RuntimeError("could not generate a nonempty hypergraph; raise the densities")


def random_connected_hypergraph(
    rng: random.Random, n: int, dyad_p: float, triad_p: float, big_edge_p: float = 0.0
) -> Hypergraph:
    """As random_hypergraph, retrying until the hypergraph is connected."""
    for _ in range(500):
        H = random_hypergraph(rng, n, dyad_p, triad_p, big_edge_p)
        if len(H.connected_component([0])) == n:
            return H
    raise RuntimeError("could not generate a connected hypergraph; raise the densities")


def random_ball_nodes(rng: random.Random, H: Hypergraph, seed_members) -> frozenset[int]:
    """A random connected seed-containing node set (a plausible ball)."""
    nodes = set(seed_members)
    component = H.connected_component(seed_members)
    grow = rng.randrange(len(component))
    for _ in range(grow):
        frontier = sorted(H.closed_neighborhood(nodes) - nodes)
        if not frontier:
            break
        nodes.add(rng.choice(frontier))
    return frozenset(nodes)


# -- synthetic contact-style dataset (desk-scale smoke stand-in) ---------


def synthetic_contact_edges(
    seed: int = 20240811,
    n_nodes: int = 242,
    n_edges: int = 12704,
    n_groups: int = 11,
    group_size: int = 44,
    cross_p: float = 0.1,
) -> list[tuple[int, ...]]:
    """Deterministic contact-network-style hypergraph at a fixed scale.

    Contact groups are overlapping windows on a node ring (each node sits in
    two groups, so communities blend into their neighbors the way school
    classes mix); hyperedges are group-local contact events of size 2-5 with
    a small fully-random fraction. Returns exactly ``n_edges`` unique sorted
    member tuples over 0..n_nodes-1, every node appearing in at least one
    edge.
    """
    rng = random.Random(seed)
    stride = n_nodes // n_groups
    groups = [
        [(g * stride + i) % n_nodes for i in range(group_size)] for g in range(n_groups)
    ]
    sizes = [2, 3, 4, 5]
    weights = [0.52, 0.30, 0.13, 0.05]
    edges: set[tuple[int, ...]] = set()
    while len(edges) < n_edges:
        size = rng.choices(sizes, weights)[0]
        pool = range(n_nodes) if rng.random() < cross_p else groups[rng.randrange(n_groups)]
        edges.add(tuple(sorted(rng.sample(pool, size))))
    used = {v for e in edges for v in e}
    if len(used) != n_nodes:  # all nodes covered for the default parameters
        missing = sorted(set(range(n_nodes)) - used)
        raise RuntimeError(f"synthetic generator left nodes unused: {missing}")
    return sorted(edges)


def write_arb_dataset(edges, nverts_path, simplices_path) -> None:
    """Write member tuples in the ARB two-file format with 1-based node ids."""
    with open(nverts_path, "w", encoding="utf-8") as fh:
        for e in edges:
            fh.write(f"{len(e)}\n")
    with open(simplices_path, "w", encoding="utf-8") as fh:
        for e in edges:
            for v in e:
                fh.write(f"{v + 1}\n")


def write_edge_list(H: Hypergraph, labels: list, path) -> None:
    """One line per hyperedge using original labels; parsing it back gives an
    isomorphic hypergraph."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in H.edges:
            fh.write(" ".join(str(labels[v]) for v in e.members) + "\n")
