"""Golden answers: canonical reports for patterns I-VI x {core, bfs} on one
fixed synthetic contact hypergraph, and for patterns I, II and IV x {core,
bfs} on a small ring whose balls are local, must keep their sha256 digests,
and each reported phi must be the true motif conductance of its cluster.

The digests were recorded with the exact scoring on global motif totals. A
change that alters any answer, its tie-breaking or the report format fails
here.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import ring_contact_edges  # noqa: E402

GOLDEN = {
    ("I", "core"): "b215aa310d9af8b0c63a1677420a79b64d62597e2ce7f99cbe37bc947d25732c",
    ("I", "bfs"): "861f17338761afc1ac170ec6a8d2ca952c1d99e9977a2a0eb5b8560e6291a745",
    ("II", "core"): "ce4683beb11c1c8772e7933e2e3b04489c5923e21ad412f7dd6da6660cf03d32",
    ("II", "bfs"): "56caa144c660f01661eae50994d2379fd1bc3d33d9780f153a5eb7ab2c88c1e3",
    ("III", "core"): "a98cdb62180677e4736f143d389eacd48a7601712d1a2e650cae3ce3e0fe6eca",
    ("III", "bfs"): "c76ab62d6f1963891b3a437b5a966b7cc053a07ad888b6629c6119b8e59a3653",
    ("IV", "core"): "e0dd130b47bf504904862b15cbec81c2a17467681e5197ae9a21a15c6efd1d3b",
    ("IV", "bfs"): "e235add4286f81cc4faf75cb2090adfe86d961e4038bc169867435376d2ceeb2",
    ("V", "core"): "cb9481112c62ee2730eef179a4343b52b1796a73f742bd32872f2dceddbefaab",
    ("V", "bfs"): "2e6c071de7f625c6cfbaf42aba2825482705afeeedf8069767798b2e52015215",
    ("VI", "core"): "8fc8ae11f13bbb40a85a64d18d22cac2f4b845bc841ad48bf4c4da11c956c58b",
    ("VI", "bfs"): "55d3b0df26559d4ddcf265c784e56ec36d295e9ec2c71c76787c1a6b6e63aca7",
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
    parsed = parse_arb_simplices(dataset + "-nverts.txt", dataset + "-simplices.txt")
    assert_exact_answer(report, parsed, pattern)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == GOLDEN[(pattern, method)]


def assert_exact_answer(report, parsed, pattern):
    """The reported phi, cut, volume and side are those of conductance_direct
    over a global enumeration."""
    assert report.status == "ok"
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


# The local regime: a 761-node ring of hills and sparse valleys (perfbench's
# ring generator at a small size), seeded on a hyperedge in the middle of a
# hill, so that every ball holds well under half of the graph and pattern I
# finds wedges whose far endpoint lies outside the ball's closed neighborhood.
RING_SEED_EDGE = 281

RING_GOLDEN = {
    ("I", "core"): "a555ac5e6839c9464f65f90958ba649ffef52df300d5323d37507569ae6eb12e",
    ("I", "bfs"): "b76a4a7fa67ab84abf2d265629a3f5a243d12186ba45b5cfc7cfc3d68d6f1e81",
    ("II", "core"): "586552e90124993d328d7ed13bb07b017934149fcd79cfa42e167f0abca88949",
    ("II", "bfs"): "49e212244f7f9c7d215ff8ccc29fd5f746c43b2a49a016411959223acb962f34",
    ("IV", "core"): "f2038743941575c783f072429284d1b54498296a43e18a2fc5ea0da716d6108f",
    ("IV", "bfs"): "e09786211df8d29569b20106598e0242c037d605e761a37e526b42a6f31e0da5",
}


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    """The parsed ring and each pinned query's report and run details."""
    edges, hill = ring_contact_edges(5, n_groups=36, edges_per_group=150)
    assert RING_SEED_EDGE in hill
    prefix = str(tmp_path_factory.mktemp("ring") / "ring")
    write_arb_dataset(edges, prefix + "-nverts.txt", prefix + "-simplices.txt")
    parsed = parse_arb_simplices(prefix + "-nverts.txt", prefix + "-simplices.txt")
    assert parsed.hypergraph.n == 761
    runs = {}
    for pattern, method in RING_GOLDEN:
        config = RunConfig(
            input=prefix,
            format="arb",
            method=method,
            motif=pattern,
            seed_edge=f"index:{RING_SEED_EDGE}",
            beta=4,
            rng_seed=3,
            dataset="ring",
        )
        runs[(pattern, method)] = run_local_clustering(config, return_details=True)
    return parsed, runs


@pytest.mark.parametrize("pattern,method", sorted(RING_GOLDEN))
def test_ring_golden_report_digest(ring, pattern, method):
    parsed, runs = ring
    report, details = runs[(pattern, method)]
    assert all(2 * len(ball.nodes) < parsed.hypergraph.n for ball in details.balls)
    assert_exact_answer(report, parsed, pattern)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == RING_GOLDEN[(pattern, method)]


def test_ring_wedges_reach_past_the_closed_neighborhood(ring):
    # the enumeration must not stop at N[B]: a pattern-I ball holds
    # occurrences with a node two steps out
    parsed, runs = ring
    beyond = 0
    for method in ("core", "bfs"):
        _report, details = runs[("I", method)]
        region = parsed.hypergraph.closed_neighborhood(details.winning_ball.nodes)
        beyond += sum(not region.issuperset(o.nodes) for o in details.occurrences)
    assert beyond > 0
