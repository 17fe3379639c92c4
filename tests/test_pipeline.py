import gc
import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import motifclust.pipeline as mpipe
from motifclust import (
    Hypergraph,
    InputError,
    InternalError,
    MotifPattern,
    RunConfig,
    cut_net,
    motif_conductance,
    run_benchmark,
    run_local_clustering,
)
from motifclust.motifs import enumerate_motifs
import motifclust.io as mio
from motifclust.pipeline import resolve_seed_edges
from motifclust.io import parse_edge_list
from motifclust.testing import synthetic_contact_edges, write_arb_dataset


TOY = "a b v\nv c d\n"


def write_groups(path, groups):
    """``groups`` disjoint 6-node groups, each with every dyad and triad, after
    a 5-node seed hyperedge (index 0) inside the first group."""
    edges = [range(5)]
    for g in range(groups):
        nodes = range(6 * g, 6 * g + 6)
        edges += [*combinations(nodes, 2), *combinations(nodes, 3)]
    path.write_text("".join(" ".join(map(str, e)) + "\n" for e in edges))


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


@pytest.mark.parametrize(
    "perturb",
    [
        lambda blocks, phi, cut, size0: (blocks, phi, cut + 1, size0),
        lambda blocks, phi, cut, size0: (blocks, phi + Fraction(1, 1000), cut, size0),
    ],
    ids=["cut", "phi"],
)
def test_pipeline_rejects_a_winner_its_recount_disagrees_with(tmp_path, monkeypatch, perturb):
    # the search's true winner, with its cut or its phi off: the recount of
    # the winner's cut and occurrence-counted volume must raise
    real = mpipe.partition_search

    def search(*args):
        found = real(*args)
        return None if found is None else perturb(*found)

    monkeypatch.setattr(mpipe, "partition_search", search)
    with pytest.raises(InternalError, match="does not match the recounted cut"):
        run_local_clustering(toy_config(tmp_path))


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
    for field, value, message in [
        ("format", "csv", "format must be 'edgelist' or 'arb'"),
        ("beta", 0, "beta must be >= 1, got 0"),
        ("min_ball", 0, "min_ball must be >= 1, got 0"),
    ]:
        with pytest.raises(InputError, match=message):
            toy_config(tmp_path, **{field: value}).validate()


def test_resolve_seed_edges_forms():
    parsed = parse_edge_list(io.StringIO("a b\nb c d\n"))
    # every selector but random:k names one edge, queried with the rng seed itself
    assert resolve_seed_edges(parsed, "index:1", 7) == [(1, 7)]
    assert resolve_seed_edges(parsed, "1", 7) == [(1, 7)]
    assert resolve_seed_edges(parsed, "nodes:b,c,d", 7) == [(1, 7)]
    assert resolve_seed_edges(parsed, "a,b", 7) == [(0, 7)]
    picks = resolve_seed_edges(parsed, "random:2", 7)
    assert [edge for edge, _ in picks] == [0, 1]  # distinct draws, sorted
    with pytest.raises(InputError):
        resolve_seed_edges(parsed, "nodes:a,zzz", 7)
    with pytest.raises(InputError):
        resolve_seed_edges(parsed, "random:99", 7)
    with pytest.raises(InputError, match="random seed count must be >= 1, got 0"):
        resolve_seed_edges(parsed, "random:0", 7)


def test_random_k_draws_k_sorted_edges_then_one_rng_seed_per_edge():
    parsed = parse_edge_list(io.StringIO("".join(f"n{i} n{i + 1}\n" for i in range(20))))
    queries = resolve_seed_edges(parsed, "random:5", 3)
    rng = random.Random(3)
    edges = sorted(rng.sample(range(20), 5))
    assert queries == [(edge, rng.randrange(2**63)) for edge in edges]
    assert resolve_seed_edges(parsed, "random:5", 3) == queries  # deterministic


@pytest.mark.parametrize("spec", ["index:2,3,4", "index:nodes:2,3,4"])
def test_index_selector_takes_an_integer_only(spec):
    parsed = parse_edge_list(io.StringIO("1 2\n2 3 4\n5 6\n"))
    assert resolve_seed_edges(parsed, "2,3,4", 0) == [(1, 0)]
    assert resolve_seed_edges(parsed, "nodes:2,3,4", 0) == [(1, 0)]
    with pytest.raises(InputError, match="index: takes one integer"):
        resolve_seed_edges(parsed, spec, 0)


def contact_arb(tmp_path, name="contact"):
    """A 500-hyperedge contact dataset as an ARB pair in its own directory;
    returns the directory, whose basename is the file prefix."""
    root = tmp_path / name
    root.mkdir()
    edges = synthetic_contact_edges(n_edges=500, n_nodes=44)
    write_arb_dataset(edges, root / f"{name}-nverts.txt", root / f"{name}-simplices.txt")
    return root


def contact_config(root, **overrides):
    base = dict(
        input=str(root), format="arb", seed_edge="random:3", motif="III",
        method="core", beta=2, min_ball=20, rng_seed=11,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_arb_input_as_a_directory_with_a_nodes_selector_on_integer_labels(tmp_path):
    # the directory's basename is the file prefix and the dataset name; the
    # integer labels of an ARB file are named by their decimal spelling
    root = contact_arb(tmp_path)
    parsed = mio.parse_arb_simplices(*mpipe.arb_paths(str(root)))
    members = parsed.hypergraph.members[4]
    selector = "nodes:" + ",".join(str(parsed.labels[v]) for v in members)
    report = run_local_clustering(contact_config(root, seed_edge=selector))
    assert report.status == "ok" and report.dataset == "contact"
    assert report.params["seed_edge_index"] == 4


def test_missing_arb_file_is_an_input_error(tmp_path):
    root = contact_arb(tmp_path)
    (root / "contact-simplices.txt").unlink()
    with pytest.raises(InputError, match="ARB input file not found: .*contact-simplices.txt"):
        run_local_clustering(contact_config(root, seed_edge="index:0"))


def test_run_local_clustering_refuses_more_than_one_seed(tmp_path):
    with pytest.raises(InputError, match="needs exactly one seed"):
        run_local_clustering(toy_config(tmp_path, seed_edge="random:2"))


def test_bench_loads_and_parses_a_random_k_entry_once(tmp_path, monkeypatch):
    counts = {"load_input": 0, "parse_arb_simplices": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(mpipe, "load_input")
    counted(mio, "parse_arb_simplices")
    result = run_benchmark([contact_config(contact_arb(tmp_path))])
    assert len(result.reports) == 3 and not result.failures
    assert counts == {"load_input": 1, "parse_arb_simplices": 1}
    # every report carries the load time it was answered from
    assert len({report.timings["ingest"] for report in result.reports}) == 1


def test_random_reports_rerun_byte_identical_from_their_own_fields(tmp_path):
    # a random:k report, from one cluster call or from bench, is the
    # index:<seed_edge_index> query with the report's rng_seed; random:1 means
    # the same in both
    root = contact_arb(tmp_path)
    reports = run_benchmark([contact_config(root), contact_config(root, method="bfs")]).reports
    for rng_seed in (1, 2):
        config = contact_config(root, seed_edge="random:1", rng_seed=rng_seed)
        alone = run_local_clustering(config)
        (benched,) = run_benchmark([config]).reports
        assert alone.canonical_json() == benched.canonical_json()
        reports.append(alone)
    assert len(reports) == 8
    for report in reports:
        config = contact_config(
            root,
            method=report.method,
            seed_edge=f"index:{report.params['seed_edge_index']}",
            rng_seed=report.rng_seed,
        )
        assert run_local_clustering(config).canonical_json() == report.canonical_json()


def test_bench_fails_a_missing_input_in_one_row_and_runs_the_rest(tmp_path):
    configs = [
        toy_config(tmp_path, input=str(tmp_path / "missing.txt")),
        toy_config(tmp_path, method="core"),
    ]
    result = run_benchmark(configs)
    assert len(result.failures) == 1
    graph, method, _error = result.failures[0]
    assert (graph, method) == (str(tmp_path / "missing.txt"), "bfs")
    data_rows = [r for r in result.rows if r["graph"] != "Overall"]
    assert [(r["graph"], r["phi"] != "") for r in data_rows] == [
        (str(tmp_path / "missing.txt"), False),
        ("toy", True),
    ]
    assert [report.method for report in result.reports] == ["core"]


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
    bfs_phis = [Fraction(r.phi_exact) for r in result.reports if r.method == "bfs"]
    bfs_overall = next(r for r in overall if r["method"] == "bfs")
    assert bfs_overall["phi"] == f"{float(sum(bfs_phis) / len(bfs_phis)):.3f}"
    with pytest.raises(InputError):
        run_benchmark([])


def test_bench_overall_row_averages_the_exact_phis(tmp_path, monkeypatch):
    # each row renders its phi to 3 decimals, and a mean of those renderings
    # can differ from the rendered mean: 0.077, 0.077, 0.078 average to
    # 0.077, while the exact phis average to 0.07757
    phis = iter(["774/10000", "774/10000", "779/10000"])
    real = mpipe._query

    def query(*args):
        report, details = real(*args)
        report.phi_exact = next(phis)
        report.phi = mio.render_phi(Fraction(report.phi_exact))
        return report, details

    monkeypatch.setattr(mpipe, "_query", query)
    configs = [toy_config(tmp_path, rng_seed=seed, beta=2) for seed in (1, 2, 3)]
    result = run_benchmark(configs)
    assert [r["phi"] for r in result.rows] == ["0.077", "0.077", "0.078", "0.078"]
    assert result.rows[-1]["graph"] == "Overall"


def test_bench_refuses_a_config_with_an_output_before_any_run(tmp_path, monkeypatch):
    # every query of a bench entry would write the same file; output_dir
    # names each query's report instead
    loads = []
    monkeypatch.setattr(mpipe, "_load", lambda config: loads.append(config))
    out = tmp_path / "one.json"
    configs = [toy_config(tmp_path), toy_config(tmp_path, output=str(out))]
    with pytest.raises(InputError, match="'output_dir' writes its reports"):
        run_benchmark(configs)
    assert not loads and not out.exists()


def test_bench_names_a_failed_query_by_its_loaded_dataset(tmp_path):
    # a query that fails after its input loaded (here a seed edge too large
    # for one block of the ball FM searches) is named as the entry's other
    # rows are, not by its path
    data = tmp_path / "contact.txt"
    write_groups(data, 1)
    configs = [
        RunConfig(input=str(data), seed_edge="index:0", motif="VI", beta=2, min_ball=4, eps_min=0.4),
        RunConfig(input=str(data), seed_edge="index:0", motif="VI", beta=2, min_ball=4),
    ]
    result = run_benchmark(configs)
    assert [r["graph"] for r in result.rows] == ["contact", "contact", "Overall"]
    assert [r["phi"] != "" for r in result.rows[:2]] == [True, False]
    ((graph, method, error),) = result.failures
    assert (graph, method) == ("contact", "bfs") and "does not fit in one block" in error


def test_run_benchmark_names_reports_by_motif(tmp_path):
    out = tmp_path / "reports"
    configs = [
        toy_config(tmp_path, seed_edge="index:0", method="core", motif=motif)
        for motif in ("III", "VI")
    ]
    result = run_benchmark(configs, output_dir=str(out))
    assert len(result.reports) == 2 and not result.failures
    assert sorted(p.name for p in out.iterdir()) == [
        "toy__core__III__seed0.json",
        "toy__core__VI__seed0.json",
    ]


def test_run_benchmark_refuses_to_overwrite_a_report(tmp_path):
    # two runs that differ only in rng_seed share one report name: the second
    # fails its row, names the file, and leaves the first report in place
    out = tmp_path / "reports"
    configs = [toy_config(tmp_path, seed_edge="index:0", rng_seed=seed) for seed in (1, 2)]
    result = run_benchmark(configs, output_dir=str(out))
    path = out / "toy__bfs__III__seed0.json"
    assert [p.name for p in out.iterdir()] == [path.name]
    assert len(result.reports) == 1 and result.reports[0].rng_seed == 1
    assert len(result.failures) == 1
    assert str(path) in result.failures[0][2]
    assert json.loads(path.read_text())["rng_seed"] == 1
    data_rows = [r for r in result.rows if r["graph"] != "Overall"]
    assert [(r["graph"], r["phi"] != "") for r in data_rows] == [("toy", True), ("toy", False)]


def test_run_benchmark_fails_a_run_whose_report_cannot_be_written(tmp_path):
    # a report that failed to write is not written: a second run with the
    # same name fails on the write again, not as a repeat of the first
    out = tmp_path / "reports"
    configs = [toy_config(tmp_path, dataset="sub/toy", rng_seed=seed) for seed in (1, 2)]
    result = run_benchmark(configs, output_dir=str(out))
    assert not result.reports and not list(out.iterdir())
    path = out / "sub" / "toy__bfs__III__seed0.json"
    assert len(result.failures) == 2
    for _, _, error in result.failures:
        assert error.startswith("cannot write report:") and error.endswith(f"[{path}]")
    assert [r["phi"] for r in result.rows] == ["", ""]


def test_run_config_checks_the_report_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    toy_config(tmp_path, output="r.json").validate()  # no directory: the CWD
    toy_config(tmp_path, output=str(tmp_path / "r.json")).validate()
    with pytest.raises(InputError, match="report directory does not exist"):
        toy_config(tmp_path, output=str(tmp_path / "missing" / "r.json")).validate()


def test_dataset_smaller_than_min_ball_still_completes(tmp_path):
    # the whole component becomes the single ball
    report = run_local_clustering(toy_config(tmp_path, min_ball=100))
    assert report.status == "ok" and report.ball_size == 5


def test_seed_larger_than_the_block_bound_is_an_input_error(tmp_path):
    # the first BFS ball is the 5-node seed itself, which holds over half the
    # motif volume, so FM searches it; one block of its 6-node aux holds at
    # most ceil(1.03 * 3) = 4 nodes
    data = tmp_path / "contact.txt"
    write_groups(data, 1)
    config = RunConfig(
        input=str(data), seed_edge="index:0", motif="VI", method="bfs", min_ball=4
    )
    with pytest.raises(InputError, match="5-node seed .* 5-node ball .* min_ball or eps_min"):
        run_local_clustering(config)


@pytest.mark.parametrize("method", ["core", "bfs"])
def test_the_seed_fit_rule_refuses_only_balls_fm_searches(tmp_path, method):
    # one group: each ball holds over half the motif volume, so FM searches
    # it, and a block holds at most 4 of the 5 seed nodes: ceil(1.03 * 7 / 2)
    # for the 6-node core ball, ceil(1.03 * 6 / 2) for the first BFS ball
    one = tmp_path / "one.txt"
    write_groups(one, 1)
    config = RunConfig(input=str(one), seed_edge="index:0", motif="VI", method=method, min_ball=1)
    ball = 6 if method == "core" else 5  # the first BFS ball is the seed
    with pytest.raises(
        InputError,
        match=f"^the 5-node seed hyperedge does not fit in one block of a {ball}-node ball "
        r"at eps 0.03 \(at most 4 nodes\); raise min_ball or eps_min$",
    ):
        run_local_clustering(config)
    # two groups: every ball holds at most half the motif volume, so the
    # flow search, which has no size cap, answers with the seed's group
    two = tmp_path / "two.txt"
    write_groups(two, 2)
    config = RunConfig(input=str(two), seed_edge="index:0", motif="VI", method=method, min_ball=1)
    report = run_local_clustering(config)
    assert report.status == "ok" and report.phi_exact == "0/1"
    assert report.cluster == ["0", "1", "2", "3", "4", "5"]


def test_a_query_runs_with_the_collector_paused_and_restores_its_state(monkeypatch, tmp_path):
    # a query makes no reference cycles, so it runs with the cyclic
    # collector off; afterwards it is on or off as the caller left it, also
    # when the query fails with an InputError
    seen = []

    def spy(name):
        real = getattr(mpipe, name)

        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)

        monkeypatch.setattr(mpipe, name, call)

    for name in ("resolve_seed_edges", "core_ball", "bfs_balls", "enumerate_motifs", "partition_search"):
        spy(name)
    was = gc.isenabled()
    try:
        for caller_collects in (True, False):
            if caller_collects:
                gc.enable()
            else:
                gc.disable()
            for method in ("core", "bfs"):
                report = run_local_clustering(toy_config(tmp_path, method=method, beta=2))
                assert report.status == "ok"
                assert gc.isenabled() is caller_collects
            with pytest.raises(InputError, match="out of range"):
                run_local_clustering(toy_config(tmp_path, seed_edge="index:9"))
            assert gc.isenabled() is caller_collects
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    names = {name for name, _ in seen}
    assert names == {"resolve_seed_edges", "core_ball", "bfs_balls", "enumerate_motifs", "partition_search"}
    assert not any(enabled for _, enabled in seen)


def test_triadic_queries_never_build_the_dyadic_adjacency(monkeypatch, tmp_path):
    # patterns III..VI read the classified triads alone; only I and II ask
    # for dyadic neighbors
    built = []
    real = Hypergraph._build_dyadic_adjacency

    def build(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Hypergraph, "_build_dyadic_adjacency", build)
    data = tmp_path / "contact.txt"
    data.write_text(
        "".join(" ".join(map(str, e)) + "\n" for e in synthetic_contact_edges(n_edges=500, n_nodes=44))
    )
    for pattern in MotifPattern:
        for method in ("core", "bfs"):
            config = RunConfig(
                input=str(data), seed_edge="index:0", motif=pattern, method=method,
                beta=2, min_ball=20,
            )
            built.clear()
            assert run_local_clustering(config).status == "ok"
            assert bool(built) is not pattern.has_triadic, (pattern, method)
