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
    ("I", "bfs"): "2fc030d320500057a9339170ab6fc8d4db7231a806bed5b6322c20e353bf796b",
    ("II", "core"): "48a8d63f396b96e12312765ab89a68ce05c7c266161e1b2220a2428842e0dbd3",
    ("II", "bfs"): "56caa144c660f01661eae50994d2379fd1bc3d33d9780f153a5eb7ab2c88c1e3",
    ("III", "core"): "a98cdb62180677e4736f143d389eacd48a7601712d1a2e650cae3ce3e0fe6eca",
    ("III", "bfs"): "bfdbffe1415f5a0a00b119c3254b10ed36fbbf8c125bb5b0a6a042b9d908dd29",
    ("IV", "core"): "e0dd130b47bf504904862b15cbec81c2a17467681e5197ae9a21a15c6efd1d3b",
    ("IV", "bfs"): "e235add4286f81cc4faf75cb2090adfe86d961e4038bc169867435376d2ceeb2",
    ("V", "core"): "cb9481112c62ee2730eef179a4343b52b1796a73f742bd32872f2dceddbefaab",
    ("V", "bfs"): "2e6c071de7f625c6cfbaf42aba2825482705afeeedf8069767798b2e52015215",
    ("VI", "core"): "f1c065e82b514454119b3f792644fb80f10374fc45a941e3c728316f0443e51c",
    ("VI", "bfs"): "bc3aa6cdeec6e36ae36a3aedba43b8bb3bca9920012d12f092efd7eb7364cd08",
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
    ("I", "core"): "91b85cd52d055ec430049eaebceb0fa176b5c08d010531dc3fb665c19da9805f",
    ("I", "bfs"): "b76a4a7fa67ab84abf2d265629a3f5a243d12186ba45b5cfc7cfc3d68d6f1e81",
    ("II", "core"): "3fcad7c8169e9c04f16d81fb4432bd8d09351efeab304e4935b212818dfa7809",
    ("II", "bfs"): "49e212244f7f9c7d215ff8ccc29fd5f746c43b2a49a016411959223acb962f34",
    ("IV", "core"): "72448e1e9383ecb32930af4d7475b4da3373dd223325490dd75cccaad7cef538",
    ("IV", "bfs"): "2e31588418d689ed95f46bed2eb535ea8fd664000949e6f804a83fbf7bc87ee7",
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
        beyond += sum(not region.issuperset(t) for t in details.occurrences)
    assert beyond > 0
