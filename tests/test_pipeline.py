import random
from fractions import Fraction

import pytest

from motifclust import (
    InputError,
    MotifPattern,
    RunConfig,
    cut_net,
    motif_conductance,
    run_benchmark,
    run_local_clustering,
)
from motifclust.motifs import enumerate_motifs
from motifclust.pipeline import expand_bench_config, resolve_seed_edges
from motifclust.io import parse_edge_list
from motifclust.testing import synthetic_contact_edges


TOY = "a b v\nv c d\n"


def toy_config(tmp_path, **overrides):
    data = tmp_path / "toy.txt"
    if not data.exists():
        data.write_text(TOY)
    base = dict(
        input=str(data),
        seed_edge="nodes:a,b,v",
        motif="III",
        method="bfs",
        beta=20,
        rng_seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_toy_pipeline_finds_optimal_cluster(tmp_path):
    report = run_local_clustering(toy_config(tmp_path))
    assert report.status == "ok"
    assert report.cluster == ["a", "b", "v"]
    assert report.phi == 0.5 and report.phi_exact == "1/2"
    assert report.motif_cut == 1
    assert report.cluster_motif_degree == 4
    assert report.volume_used == 2 and report.volume_side == "complement"
    assert report.ball_size == 5  # small-graph escape: whole component


def test_toy_pipeline_core_method(tmp_path):
    report = run_local_clustering(toy_config(tmp_path, method="core"))
    assert report.status == "ok"
    assert report.cluster == ["a", "b", "v"]
    assert report.phi == 0.5


def test_pipeline_determinism(tmp_path):
    a = run_local_clustering(toy_config(tmp_path))
    b = run_local_clustering(toy_config(tmp_path))
    assert a.canonical_json() == b.canonical_json()


def test_pipeline_seed_not_found(tmp_path):
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, seed_edge="nodes:a,c"))
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, seed_edge="index:99"))


def test_pipeline_no_motifs_status(tmp_path):
    report = run_local_clustering(toy_config(tmp_path, motif="VI"))
    assert report.status == "no-motifs"
    assert report.phi is None and report.cluster == []
    assert report.ball_size > 0


def test_pipeline_report_invariants_and_self_consistency(tmp_path):
    report, details = run_local_clustering(toy_config(tmp_path), return_details=True)
    ball_labels = {details.labels[v] for v in details.winning_ball.nodes}
    assert set(report.cluster) <= ball_labels
    seed_labels = set(report.params["seed_nodes"])
    assert seed_labels <= set(report.cluster)
    # reported phi is recomputable from the persisted partition
    H = details.hypergraph
    aux, blocks = details.aux, details.blocks
    total = 3 * len(enumerate_motifs(H, range(H.n), MotifPattern.III))
    cut = cut_net(aux, blocks)
    vol0 = sum(aux.volumes[a] for a in range(aux.u) if blocks[a] == 0)
    assert cut == report.motif_cut
    assert Fraction(report.phi_exact) == motif_conductance(cut, vol0, total)
    assert min(vol0, total - vol0) == report.volume_used
    assert ("cluster" if vol0 <= total - vol0 else "complement") == report.volume_side
    assert Fraction(report.motif_cut, report.volume_used) == Fraction(report.phi_exact)
    assert abs(report.phi - report.motif_cut / report.volume_used) <= 5e-4


def test_pipeline_writes_report(tmp_path):
    out = tmp_path / "report.json"
    config = toy_config(tmp_path, output=str(out))
    run_local_clustering(config)
    from motifclust import read_report

    assert read_report(out).dataset == "toy"


def test_config_validation(tmp_path):
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, method="dfs"))
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, alpha=0))
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, eps_min=0.9, eps_max=0.5))
    with pytest.raises(InputError):
        run_local_clustering(toy_config(tmp_path, motif="9"))


def test_resolve_seed_edges_forms():
    parsed = parse_edge_list(__import__("io").StringIO("a b\nb c d\n"))
    rng = random.Random(0)
    assert resolve_seed_edges(parsed, "index:1", rng) == [1]
    assert resolve_seed_edges(parsed, "1", rng) == [1]
    assert resolve_seed_edges(parsed, "nodes:b,c,d", rng) == [1]
    assert resolve_seed_edges(parsed, "a,b", rng) == [0]
    picks = resolve_seed_edges(parsed, "random:2", rng)
    assert sorted(picks) == [0, 1]  # distinct draws
    with pytest.raises(InputError):
        resolve_seed_edges(parsed, "nodes:a,zzz", rng)
    with pytest.raises(InputError):
        resolve_seed_edges(parsed, "random:99", rng)


def test_expand_bench_config(tmp_path):
    config = toy_config(tmp_path, seed_edge="random:2", rng_seed=3)
    expanded = expand_bench_config(config)
    assert len(expanded) == 2
    assert all(c.seed_edge.startswith("index:") for c in expanded)
    assert expand_bench_config(config) == expanded  # deterministic
    assert expand_bench_config(toy_config(tmp_path)) == [toy_config(tmp_path)]


def test_run_benchmark_rows_and_overall(tmp_path):
    configs = [
        toy_config(tmp_path, method="core"),
        toy_config(tmp_path, method="bfs"),
        toy_config(tmp_path, method="bfs", seed_edge="nodes:a,zzz"),  # fails per-row
    ]
    result = run_benchmark(configs, output_dir=str(tmp_path / "reports"))
    assert len(result.failures) == 1
    data_rows = [r for r in result.rows if r["graph"] != "Overall"]
    assert len(data_rows) == 3
    overall = [r for r in result.rows if r["graph"] == "Overall"]
    assert {r["method"] for r in overall} == {"core", "bfs"}
    bfs_rows = [r for r in data_rows if r["method"] == "bfs" and r["phi"] != ""]
    mean = sum(float(r["phi"]) for r in bfs_rows) / len(bfs_rows)
    bfs_overall = next(r for r in overall if r["method"] == "bfs")
    assert float(bfs_overall["phi"]) == pytest.approx(mean, abs=1e-3)
    with pytest.raises(InputError):
        run_benchmark([])


def test_dataset_smaller_than_min_ball_still_completes(tmp_path):
    # the whole component becomes the single ball
    report = run_local_clustering(toy_config(tmp_path, min_ball=100))
    assert report.status == "ok" and report.ball_size == 5


def test_seed_larger_than_the_block_bound_is_an_input_error(tmp_path):
    # the first BFS ball is the 5-node seed itself, and one block of a
    # 6-node aux holds at most ceil(1.03 * 3) = 4 nodes
    data = tmp_path / "contact.txt"
    data.write_text(
        "".join(" ".join(map(str, e)) + "\n" for e in synthetic_contact_edges(n_edges=2000))
    )
    config = RunConfig(
        input=str(data), seed_edge="index:1", motif="VI", method="bfs", min_ball=4
    )
    with pytest.raises(InputError, match="5-node seed .* 5-node ball .* --min-ball or --eps-min"):
        run_local_clustering(config)
