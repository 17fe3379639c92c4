"""Golden answers: canonical reports for patterns I-VI x {core, bfs} on one
fixed synthetic contact hypergraph must keep their sha256 digests, and each
reported phi must be the true motif conductance of its cluster.

The digests were recorded with the exact scoring on global motif totals. A
change that alters any answer, its tie-breaking or the report format fails
here.
"""

import hashlib
from fractions import Fraction

import pytest

from motifclust import (
    MotifPattern,
    RunConfig,
    conductance_direct,
    enumerate_motifs,
    parse_arb_simplices,
    run_local_clustering,
)
from motifclust.testing import synthetic_contact_edges, write_arb_dataset

GOLDEN = {
    ("I", "core"): "bb159a193fe80eb91175569c2c5e6f137e12011b11faadf8ad0465913ef80f97",
    ("I", "bfs"): "21b064b63c6dc088d345236329a91d6c27b0b07eb941436c0886655cf1480768",
    ("II", "core"): "fd4f49552e3b3525cac8c39765034ab31e8cb67e7bef0a83cf19290f5c40f67c",
    ("II", "bfs"): "e9506923327a89fc53d593293b79076f0a25a57287e0e24d95ebf7ffc225d34b",
    ("III", "core"): "0d5b06905b5e2a679be4d28bc93b0e70260b1a0133436d1e06a6ad0d3c2fad29",
    ("III", "bfs"): "a6389e1cd5f5c855e9e7d58b6a6f801d9367b8315c260ed2062c88ccd7d1dc7d",
    ("IV", "core"): "624d339ba97c7cafa64508a6f990bc6fb72c613df2a548ae52a8e7fe91fc7d8b",
    ("IV", "bfs"): "7b5e19c3d8410c31fcd244482332657210a3d45b0aafe87fa0114024c8dacd54",
    ("V", "core"): "ad4d15fe865e6706145b33c981709d71fa4fff128b5b1eb71139a0b8769bbf57",
    ("V", "bfs"): "00a652c9c286ef05f06e34c656d8fba286dbd2a63e3cdc47dafd2886218b05b8",
    ("VI", "core"): "b0463ea71b9f1aea969dc64a09880cdc16155ace750dc7d4b9ff525dcf8e1577",
    ("VI", "bfs"): "45a1d91e1a8937bf1749a3f954edf1bebdd2cf0ab6ca1bacca3ccc413fa49ca9",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("golden") / "golden")
    write_arb_dataset(
        synthetic_contact_edges(n_edges=2000), prefix + "-nverts.txt", prefix + "-simplices.txt"
    )
    return prefix


@pytest.mark.parametrize("pattern,method", sorted(GOLDEN))
def test_golden_report_digest(dataset, pattern, method):
    config = RunConfig(
        input=dataset,
        format="arb",
        method=method,
        motif=pattern,
        seed_edge="index:0",
        beta=4,
        rng_seed=7,
        dataset="golden",
    )
    report = run_local_clustering(config)
    assert report.status == "ok"
    parsed = parse_arb_simplices(dataset + "-nverts.txt", dataset + "-simplices.txt")
    H = parsed.hypergraph
    index = parsed.label_index()
    M_global = enumerate_motifs(H, range(H.n), MotifPattern.from_spec(pattern))
    true = conductance_direct(M_global, [index[label] for label in report.cluster])
    assert Fraction(report.phi_exact) == true.phi
    assert (report.motif_cut, report.volume_used, report.volume_side) == (
        true.motif_cut,
        true.volume_used,
        true.side,
    )
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == GOLDEN[(pattern, method)]
