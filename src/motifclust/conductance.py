"""Motif-cut and motif-conductance evaluation.

``motif_conductance`` is the one definition the pipeline scores with:
cut / min(d_mu(C), d_mu(V - C)), where d_mu(V - C) is the global motif volume
3|M| (from ``motifs.count_motifs``) minus d_mu(C). The pipeline feeds it from
the auxiliary hypergraph, held as its doubled pair graph W: its cut-net
(``cut_net``, half the W cut) equals the motif-cut, and its block-0 motif
volume (half the W degree, ``AuxHypergraph.volumes``) is d_mu(C).
``conductance_direct`` computes the same value independently over a global
occurrence collection; it is the oracle the tests compare against. All
arithmetic is exact (fractions); rendering to decimals happens only in
reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .auxiliary import AuxHypergraph
from .errors import ConstraintError, InputError, UndefinedConductanceError


class ConductanceResult:
    """phi = motif_cut / volume_used, with the side whose volume was used."""

    __slots__ = ("phi", "motif_cut", "volume_used", "side")

    def __init__(self, phi: Fraction, motif_cut: int, volume_used: int, side: str):
        self.phi = phi
        self.motif_cut = motif_cut
        self.volume_used = volume_used
        self.side = side

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConductanceResult(phi={self.phi}, cut={self.motif_cut}, "
            f"volume={self.volume_used}, side={self.side!r})"
        )


def _check_blocks(aux: AuxHypergraph, blocks: Sequence[int]) -> None:
    if len(blocks) != aux.num_nodes:
        raise InputError(f"partition covers {len(blocks)} nodes, aux has {aux.num_nodes}")
    if any(b not in (0, 1) for b in blocks):
        raise InputError("block values must be 0 or 1")
    ones = sum(blocks)
    if ones == 0 or ones == len(blocks):
        raise ConstraintError("both blocks must be nonempty")


def cut_net(aux: AuxHypergraph, blocks: Sequence[int]) -> int:
    """Cut-net of a 2-way split: half the weight of W's pairs across it."""
    _check_blocks(aux, blocks)
    return sum(w for a, b, w in aux.pairs if blocks[a] != blocks[b]) // 2


def motif_conductance(cut: int, vol0: int, total: int) -> Fraction | None:
    """cut / min(vol0, total - vol0): the motif conductance of a cluster with
    motif volume ``vol0`` when ``total`` is the hypergraph's whole motif
    volume, three times its occurrence count. None when that minimum is not
    positive (the cluster, or its complement, holds no motif volume)."""
    denom = min(vol0, total - vol0)
    if denom <= 0:
        return None
    return Fraction(cut, denom)


def motif_cut(M: Iterable[tuple[int, int, int]], cluster: Iterable[int]) -> int:
    """Occurrence triples with at least one node inside the cluster and one outside."""
    C = frozenset(cluster)
    total = 0
    for triple in M:
        inside = sum(1 for v in triple if v in C)
        if 0 < inside < 3:
            total += 1
    return total


def conductance_direct(
    M_global: Iterable[tuple[int, int, int]], cluster: Iterable[int]
) -> ConductanceResult:
    """Exact definition: cut / min(d_mu(C), d_mu(complement)) over all occurrences.

    ``M_global`` must contain every occurrence of the pattern in the hypergraph.
    Zero motif volume on the complement side (e.g. C = V) is 0/0 and raises
    UndefinedConductanceError; zero volume on the cluster side alone (which
    forces cut = 0) yields phi = 0 by convention.
    """
    C = frozenset(cluster)
    M = list(M_global)
    cut = motif_cut(M, C)
    vol_c = sum(v in C for triple in M for v in triple)
    vol_rest = 3 * len(M) - vol_c
    if vol_rest == 0:
        raise UndefinedConductanceError(
            "complement side has zero motif volume (degenerate split)"
        )
    if vol_c == 0:
        # a crossing occurrence would add volume to both sides, so cut == 0 here
        return ConductanceResult(Fraction(0), 0, 0, "cluster")
    if vol_c <= vol_rest:
        return ConductanceResult(Fraction(cut, vol_c), cut, vol_c, "cluster")
    return ConductanceResult(Fraction(cut, vol_rest), cut, vol_rest, "complement")
