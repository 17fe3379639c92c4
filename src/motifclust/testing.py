"""Brute-force oracles and instance generators for validating every phase.

Test support only, not part of the release API: every oracle carries an
explicit size budget and refuses anything beyond toy scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .conductance import conductance_direct
from .core import Hypergraph
from .errors import BudgetExceededError, InputError, UndefinedConductanceError
from .motifs import MotifOccurrence, MotifPattern, classify_triple


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 12
    max_subsets: int = 2**15


DEFAULT_BUDGET = OracleBudget()


def brute_motifs(
    H: Hypergraph, pattern: MotifPattern, budget: OracleBudget = DEFAULT_BUDGET
) -> list[MotifOccurrence]:
    """Classify every C(n, 3) triple; the reference for enumerate_motifs."""
    if H.n > budget.max_nodes:
        raise BudgetExceededError(f"{H.n} nodes exceed the oracle budget of {budget.max_nodes}")
    out = []
    for triple in combinations(range(H.n), 3):
        if classify_triple(H, *triple) is pattern:
            out.append(MotifOccurrence(triple, pattern))
    return out


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
