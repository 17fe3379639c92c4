import io as _stdio
import random
from fractions import Fraction

import pytest

from motifclust import ClusterReport, InputError, ParseError, parse_arb_simplices, parse_edge_list, read_report, write_report
from motifclust.io import write_benchmark_csv, write_edge_list
from motifclust.testing import random_hypergraph


def parse_text(text):
    return parse_edge_list(_stdio.StringIO(text))


def test_parse_edge_list_basic():
    result = parse_text("0 1 2\n0 1\n")
    H = result.hypergraph
    assert H.n == 3 and H.num_edges == 2
    members = {tuple(result.labels[v] for v in e.members) for e in H.edges}
    assert members == {("0", "1", "2"), ("0", "1")}


def test_parse_edge_list_merges_duplicates():
    result = parse_text("a b\na b\n")
    H = result.hypergraph
    assert H.num_edges == 1
    assert H.edge(0).weight == Fraction(2)
    assert result.merged_duplicates == 1


def test_parse_edge_list_drops_small_and_errors_when_empty():
    with pytest.raises(InputError):
        parse_text("x\n")
    result = parse_text("x\na b\n")
    assert result.dropped_small == 1 and result.hypergraph.num_edges == 1


def test_parse_edge_list_comments_commas_and_inline_dedup():
    result = parse_text("# header\n a,b , c\nb b a\n")
    H = result.hypergraph
    assert H.num_edges == 2
    members = {tuple(sorted(result.labels[v] for v in e.members)) for e in H.edges}
    assert members == {("a", "b", "c"), ("a", "b")}


def test_parse_edge_list_order_insensitive_cleaning():
    lines = ["a b c", "c d", "a b", "a b c"]
    rng = random.Random(0)
    baseline = None
    for _ in range(5):
        rng.shuffle(lines)
        result = parse_text("\n".join(lines) + "\n")
        shape = sorted(
            (tuple(sorted(result.labels[v] for v in e.members)), e.weight)
            for e in result.hypergraph.edges
        )
        if baseline is None:
            baseline = shape
        assert shape == baseline


def test_parse_edge_list_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe nonsense")
    with pytest.raises(ParseError):
        parse_edge_list(path)


def test_parse_arb_simplices(tmp_path):
    nverts = tmp_path / "x-nverts.txt"
    simplices = tmp_path / "x-simplices.txt"
    nverts.write_text("3\n2\n")
    simplices.write_text("1\n2\n3\n1\n2\n")
    result = parse_arb_simplices(nverts, simplices)
    H = result.hypergraph
    assert H.n == 3 and H.num_edges == 2
    members = {tuple(sorted(result.labels[v] for v in e.members)) for e in H.edges}
    assert members == {(1, 2, 3), (1, 2)}


def test_parse_arb_length_mismatch(tmp_path):
    nverts = tmp_path / "y-nverts.txt"
    simplices = tmp_path / "y-simplices.txt"
    nverts.write_text("2\n")
    simplices.write_text("1\n2\n3\n")
    with pytest.raises(ParseError) as err:
        parse_arb_simplices(nverts, simplices)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_parse_arb_empty(tmp_path):
    nverts = tmp_path / "z-nverts.txt"
    simplices = tmp_path / "z-simplices.txt"
    nverts.write_text("")
    simplices.write_text("")
    with pytest.raises(InputError):
        parse_arb_simplices(nverts, simplices)


def test_report_round_trip(tmp_path):
    report = ClusterReport(
        dataset="toy",
        method="bfs",
        motif="III",
        cluster=["a", "b", "v"],
        cluster_size=3,
        ball_size=5,
        phi=0.5,
        phi_exact="1/2",
        motif_cut=1,
        cluster_motif_degree=4,
        volume_used=2,
        volume_side="complement",
        timings={"total": 0.01},
        rng_seed=7,
        params={"alpha": 3},
    )
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report
    # canonical: sorted keys, trailing newline, 0.5 serialized exactly
    import json

    text = path.read_text()
    assert text.endswith("\n") and '"phi": 0.5' in text
    assert text.strip() == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False)


def test_read_report_rejects_malformed_input(tmp_path):
    report = ClusterReport(dataset="d", method="core", motif="VI")
    stale = report.to_json().replace('"cluster"', '"assumption": "unverified", "cluster"')
    for text in (stale, "[1, 2]", "not json {"):
        with pytest.raises(ParseError):
            read_report(_stdio.StringIO(text))
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(ParseError) as err:
        read_report(path)
    assert str(path) in str(err.value)


def test_report_with_zero_timings_and_canonical_strip():
    report = ClusterReport(dataset="d", method="core", motif="VI", timings={})
    assert read_report(_stdio.StringIO(report.to_json())) == report
    a = ClusterReport(dataset="d", method="core", motif="VI", timings={"total": 1.25})
    b = ClusterReport(dataset="d", method="core", motif="VI", timings={"total": 9.75})
    assert a.canonical_json() == b.canonical_json()
    assert a.to_json() != b.to_json()


def test_edge_list_writer_round_trip(tmp_path):
    rng = random.Random(19)
    H = random_hypergraph(rng, 9, 0.3, 0.1)
    labels = [f"n{v}" for v in range(H.n)]
    path = tmp_path / "dump.txt"
    write_edge_list(H, labels, path)
    back = parse_edge_list(path)
    original = sorted(tuple(sorted(labels[v] for v in e.members)) for e in H.edges)
    parsed = sorted(
        tuple(sorted(back.labels[v] for v in e.members)) for e in back.hypergraph.edges
    )
    assert original == parsed


def test_benchmark_csv(tmp_path):
    rows = [
        {"graph": "toy", "method": "core", "phi": "0.100", "cluster_size": 4, "time_s": "0.010"},
        {"graph": "Overall", "method": "core", "phi": "0.100", "cluster_size": "4.0", "time_s": ""},
    ]
    path = tmp_path / "bench.csv"
    write_benchmark_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "graph,method,phi,cluster_size,time_s"
    assert lines[1] == "toy,core,0.100,4,0.010"
