"""Referee: checks each query's answer against a global motif enumeration.

The reported cut must equal the brute-force motif cut of the cluster over
every occurrence in the hypergraph, the seed must lie inside the cluster, and
the true conductance cut / min(d_mu(C), d_mu(V - C)) is recomputed with
``conductance_direct`` so that reported and true phi can be compared.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from motifclust import conductance_direct, motif_cut
from motifclust.errors import UndefinedConductanceError


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    phi_true: Fraction | None = None
    phi_gap: float | None = None
    cluster_sha256: str | None = None


def cluster_sha256(cluster: list) -> str:
    return hashlib.sha256(json.dumps(sorted(cluster)).encode()).hexdigest()


def judge(report, M_global: list, label_index: dict) -> Verdict:
    """Verdict on one ClusterReport; ``label_index`` maps labels to node ids."""
    if report.status != "ok":
        return Verdict(False, f"status {report.status}")
    sha = cluster_sha256(report.cluster)
    cluster = set(report.cluster)
    if not cluster.issuperset(report.params["seed_nodes"]):
        return Verdict(False, "seed nodes outside the cluster", cluster_sha256=sha)
    ids = [label_index[label] for label in cluster]
    cut = motif_cut(M_global, ids)
    if cut != report.motif_cut:
        return Verdict(
            False, f"reported cut {report.motif_cut} != true cut {cut}", cluster_sha256=sha
        )
    try:
        phi_true = conductance_direct(M_global, ids).phi
    except UndefinedConductanceError as exc:
        return Verdict(False, f"true conductance undefined: {exc}", cluster_sha256=sha)
    gap = abs(float(Fraction(report.phi_exact) - phi_true))
    return Verdict(True, "", phi_true, gap, sha)
