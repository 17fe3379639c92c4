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

import motifclust.partition as mp
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


def digest(report):
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


def golden_config(dataset, pattern, method):
    return RunConfig(
        input=dataset,
        format="arb",
        method=method,
        motif=pattern,
        seed_edge="index:0",
        beta=4,
        rng_seed=7,
        dataset="golden",
    )


@pytest.mark.parametrize("pattern,method", sorted(GOLDEN))
def test_golden_report_digest(dataset, pattern, method):
    report = run_local_clustering(golden_config(dataset, pattern, method))
    parsed = parse_arb_simplices(dataset + "-nverts.txt", dataset + "-simplices.txt")
    assert_exact_answer(report, parsed, pattern)
    assert digest(report) == GOLDEN[(pattern, method)]


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
    ("I", "core"): "91c69bf1133c34019a21893d5b311b6679ca481bacff6862623d956eca69766c",
    ("I", "bfs"): "b76a4a7fa67ab84abf2d265629a3f5a243d12186ba45b5cfc7cfc3d68d6f1e81",
    ("II", "core"): "95874cbf071997133340a566668b82ac6fd6fc02fb3a846c75a0793b40caa3cd",
    ("II", "bfs"): "b982143a4b6ed8b476335d535401ea23b2a99c0e4ea85cd46443c4c614a6d681",
    ("IV", "core"): "ee8adf3907e26c9e85ada111d4fe3077faca20e6630324492c1e25290dc22f05",
    ("IV", "bfs"): "e3dc941a77a18444bdf2d399fb5e2eb314039782ab9ce0b6abe4f3d53c6e326d",
}


@pytest.fixture(scope="module")
def ring_prefix(tmp_path_factory):
    edges, hill = ring_contact_edges(5, n_groups=36, edges_per_group=150)
    assert RING_SEED_EDGE in hill
    prefix = str(tmp_path_factory.mktemp("ring") / "ring")
    write_arb_dataset(edges, prefix + "-nverts.txt", prefix + "-simplices.txt")
    return prefix


def ring_config(prefix, pattern, method):
    return RunConfig(
        input=prefix,
        format="arb",
        method=method,
        motif=pattern,
        seed_edge=f"index:{RING_SEED_EDGE}",
        beta=4,
        rng_seed=3,
        dataset="ring",
    )


@pytest.fixture(scope="module")
def ring(ring_prefix):
    """The parsed ring and each pinned query's report and run details."""
    parsed = parse_arb_simplices(ring_prefix + "-nverts.txt", ring_prefix + "-simplices.txt")
    assert parsed.hypergraph.n == 761
    runs = {
        key: run_local_clustering(ring_config(ring_prefix, *key), return_details=True)
        for key in RING_GOLDEN
    }
    return parsed, runs


@pytest.mark.parametrize("pattern,method", sorted(RING_GOLDEN))
def test_ring_golden_report_digest(ring, pattern, method):
    parsed, runs = ring
    report, details = runs[(pattern, method)]
    assert all(2 * len(ball.nodes) < parsed.hypergraph.n for ball in details.balls)
    assert_exact_answer(report, parsed, pattern)
    assert digest(report) == RING_GOLDEN[(pattern, method)]


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


def test_only_balls_above_half_the_motif_volume_run_fm(dataset, ring_prefix, monkeypatch):
    # phase 4 runs FM only on a ball that holds more than half the motif
    # volume. Every ring ball holds less, so its search is the flow and
    # starts no restart; the desk-I core ball holds more, and its search
    # runs beta restarts. The calls are counted on the names the benchmark's
    # tracer wraps, and the answers are the pinned ones
    calls = {"random_feasible_partition": 0, "fm_refine": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mp, name, counted)
    for key in sorted(RING_GOLDEN):
        assert digest(run_local_clustering(ring_config(ring_prefix, *key))) == RING_GOLDEN[key]
    assert calls == {"random_feasible_partition": 0, "fm_refine": 0}
    report, details = run_local_clustering(
        golden_config(dataset, "I", "core"), return_details=True
    )
    assert len(details.balls) == 1
    assert calls == {"random_feasible_partition": 4, "fm_refine": 4}  # beta = 4
    assert digest(report) == GOLDEN[("I", "core")]
