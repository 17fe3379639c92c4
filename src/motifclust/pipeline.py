"""End-to-end orchestration of the four phases, plus the benchmark harness.

A run first loads its input: it validates the config, parses the input and
resolves the seed selector into (seed edge, rng seed) queries
(``resolve_seed_edges`` owns that rule). Each query then runs on the loaded
hypergraph. ``run_local_clustering`` answers one query; ``run_benchmark``
loads each run entry once and answers all of its queries from that load, so
they share the hypergraph and its lazy small-edge index.

Phase 1 selects one core ball or up to alpha BFS balls; for each ball, phase 2
enumerates the chosen motif pattern, phase 3 contracts the occurrences into the
auxiliary hypergraph, and phase 4 searches its partitions: exactly by min cut
on a ball holding at most half the motif volume, else by beta
randomized-imbalance FM restarts.
The minimum-conductance consistent cluster across all balls wins and is mapped
back to original labels.

Scoring is exact: a cluster C scores cut / min(d_mu(C), 3|M| - d_mu(C))
(``conductance.motif_conductance``). The cut and d_mu(C) come from the
ball-local occurrence collection, which holds every occurrence touching the
ball, and |M|, the pattern's occurrence count in the whole hypergraph, comes
from ``motifs.count_motifs``.

The search scores states with the cut and d_mu that FM tracks on the
auxiliary hypergraph (d_mu is half the W degree), and returns the winner with
its (phi, cut, block-0 size) key; the smallest key across balls wins, the
earlier ball on ties. The winner alone is then recounted: its cut with
``cut_net`` and its d_mu(C) straight from its occurrences
(``motif_degrees``). A cut or phi that disagrees raises InternalError.

``run_local_clustering`` and ``run_benchmark`` run with the cyclic garbage
collector paused (and restore the caller's state): a query makes no
reference cycles, and the collector would otherwise rescan the many small
tuples it allocates.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import io as mio
from .auxiliary import AuxHypergraph, build_aux
from .balls import Ball, bfs_balls, core_ball
from .conductance import motif_conductance
from .core import Hypergraph
from .errors import InputError, InternalError, ParseError
from .motifs import MotifPattern, count_motifs, enumerate_motifs, motif_degrees
from .partition import cut_net, partition_search

_PHASES = ("ingest", "ball", "enumerate", "aux", "partition", "total")


@dataclass
class RunConfig:
    """One local-clustering run. Defaults follow the evaluated protocol:
    alpha=3, beta=80, minimum ball size 100, eps sampled from [0.03, 0.5]."""

    input: str
    seed_edge: str
    motif: str | int | MotifPattern
    method: str = "bfs"
    format: str = "edgelist"
    alpha: int = 3
    beta: int = 80
    min_ball: int = 100
    eps_min: float = 0.03
    eps_max: float = 0.5
    rng_seed: int = 0
    output: str | None = None
    dataset: str | None = None

    def validate(self) -> None:
        for name in ("alpha", "beta", "min_ball", "rng_seed", "eps_min", "eps_max"):
            value, kind = getattr(self, name), (float if name.startswith("eps") else int)
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise InputError(f"{name} must be {kind.__name__}, got {value!r}")
        if self.method not in ("core", "bfs"):
            raise InputError(f"method must be 'core' or 'bfs', got {self.method!r}")
        if self.format not in ("edgelist", "arb"):
            raise InputError(f"format must be 'edgelist' or 'arb', got {self.format!r}")
        if self.alpha < 1:
            raise InputError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 1:
            raise InputError(f"beta must be >= 1, got {self.beta}")
        if self.min_ball < 1:
            raise InputError(f"min_ball must be >= 1, got {self.min_ball}")
        if not (0 < self.eps_min <= self.eps_max <= 1):
            raise InputError(
                f"eps range must satisfy 0 < eps_min <= eps_max <= 1, "
                f"got [{self.eps_min}, {self.eps_max}]"
            )
        MotifPattern.from_spec(self.motif)
        if self.output and not os.path.isdir(os.path.dirname(self.output) or "."):
            raise InputError(f"report directory does not exist: {self.output}")


@dataclass
class RunDetails:
    """Internals of the winning ball, for tests and self-consistency checks."""

    hypergraph: Hypergraph
    labels: list
    balls: list[Ball]
    winning_ball: Ball | None = None
    occurrences: list[tuple[int, int, int]] = field(default_factory=list)
    aux: AuxHypergraph | None = None
    blocks: list[int] | None = None


def arb_paths(prefix: str) -> tuple[str, str]:
    """Resolve the ARB file pair from a prefix, a dataset directory or
    either file of the pair.

    "<prefix>-nverts.txt" / "<prefix>-simplices.txt" must exist; a directory
    path uses its basename as the prefix inside it, and an existing file
    named like one of the pair names its pair's prefix.
    """
    if os.path.isdir(prefix):
        base = os.path.basename(os.path.normpath(prefix))
        prefix = os.path.join(prefix, base)
    elif os.path.isfile(prefix):
        for suffix in ("-nverts.txt", "-simplices.txt"):
            if prefix.endswith(suffix):
                prefix = prefix[: -len(suffix)]
                break
    nverts = prefix + "-nverts.txt"
    simplices = prefix + "-simplices.txt"
    for path in (nverts, simplices):
        if not os.path.exists(path):
            raise InputError(f"ARB input file not found: {path}")
    return nverts, simplices


def load_input(config: RunConfig) -> tuple[mio.ParseResult, str]:
    if config.format == "arb":
        nverts, simplices = arb_paths(config.input)
        parsed = mio.parse_arb_simplices(nverts, simplices)
        default_name = os.path.basename(nverts).removesuffix("-nverts.txt")
    else:
        parsed = mio.parse_edge_list(config.input)
        default_name = os.path.splitext(os.path.basename(config.input))[0]
    return parsed, config.dataset or default_name


def resolve_seed_edges(
    parsed: mio.ParseResult, spec: str, rng_seed: int
) -> list[tuple[int, int]]:
    """The (seed edge index, rng seed) queries a seed selector names.

    "random:K" draws K distinct hyperedges from ``Random(rng_seed)``, sorts
    them, then draws one ``randrange(2**63)`` rng seed per edge from the same
    stream. Every other selector names one edge, queried with ``rng_seed``
    itself: "index:N" or a bare N (an integer only), "nodes:a,b,c" or a bare
    comma list of labels.
    """
    H = parsed.hypergraph
    text = str(spec).strip()
    if text.startswith("random:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"cannot parse random seed count in {spec!r}") from None
        if k < 1:
            raise InputError(f"random seed count must be >= 1, got {k}")
        if k > H.num_edges:
            raise InputError(f"asked for {k} random seeds but only {H.num_edges} hyperedges exist")
        rng = random.Random(rng_seed)
        edges = sorted(rng.sample(range(H.num_edges), k))  # k distinct hyperedges
        return [(edge, rng.randrange(2**63)) for edge in edges]
    if text.startswith("nodes:"):
        labels = [t for t in text.split(":", 1)[1].split(",") if t]
    elif "," in text and not text.startswith("index:"):
        labels = [t for t in text.split(",") if t]
    else:
        try:
            idx = int(text.removeprefix("index:"))
        except ValueError:
            raise InputError(
                f"cannot parse seed selector {spec!r}; index: takes one integer"
            ) from None
        if not 0 <= idx < H.num_edges:
            raise InputError(f"seed edge index {idx} out of range [0, {H.num_edges})")
        return [(idx, rng_seed)]
    index = parsed.label_index()
    ids = []
    for lab in labels:
        lab = lab.strip()
        key = lab if lab in index else _coerce_label(lab, index)
        if key is None:
            raise InputError(f"seed node label {lab!r} not found in the dataset")
        ids.append(index[key])
    if len(set(ids)) < 2:
        raise InputError(
            f"seed nodes {labels!r} name fewer than 2 distinct nodes; a hyperedge has at least 2"
        )
    edge = H.edge_index_of(ids)
    if edge is None:
        raise InputError(f"seed nodes {labels!r} do not form a hyperedge of the dataset")
    return [(edge, rng_seed)]


def _coerce_label(lab: str, index: dict):
    try:
        num = int(lab)
    except ValueError:
        return None
    return num if num in index else None


def _load(config: RunConfig) -> tuple[mio.ParseResult, str, list[tuple[int, int]], float]:
    """Validate the config, load its input and resolve its seed selector:
    (parsed input, dataset name, (seed edge, rng seed) queries, load seconds)."""
    config.validate()
    t0 = time.perf_counter()
    parsed, dataset = load_input(config)
    queries = resolve_seed_edges(parsed, config.seed_edge, config.rng_seed)
    return parsed, dataset, queries, time.perf_counter() - t0


def _query(
    config: RunConfig, parsed: mio.ParseResult, dataset: str, ingest: float,
    seed_index: int, rng_seed: int,
) -> tuple[mio.ClusterReport, RunDetails]:
    """Phases 1-4 for one seed edge on a loaded input. The report's ingest
    is the load time ``ingest``, and its total is ingest plus this query."""
    pattern = MotifPattern.from_spec(config.motif)
    rng = random.Random(rng_seed)
    times = {phase: 0.0 for phase in _PHASES}
    times["ingest"] = ingest
    t_start = time.perf_counter()
    H = parsed.hypergraph
    seed_members = H.members[seed_index]

    t0 = time.perf_counter()
    if config.method == "core":
        balls = [core_ball(H, seed_members, config.min_ball)]
    else:
        balls = bfs_balls(H, seed_members, config.alpha, config.min_ball)
    times["ball"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    total = 3 * count_motifs(H, pattern)
    times["enumerate"] = time.perf_counter() - t0

    details = RunDetails(H, parsed.labels, balls)
    ball_seeds = [rng.randrange(2**63) for _ in balls]
    winner = None  # (found, ball, M, aux) of the best ball so far
    any_motifs = False
    for ball, ball_seed in zip(balls, ball_seeds):
        t0 = time.perf_counter()
        M = enumerate_motifs(H, ball, pattern)
        times["enumerate"] += time.perf_counter() - t0
        if not M:
            continue
        any_motifs = True
        t0 = time.perf_counter()
        aux = build_aux(M, ball, seed_members)
        times["aux"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        found = partition_search(
            aux,
            config.beta,
            (config.eps_min, config.eps_max),
            random.Random(ball_seed),
            total,
        )
        times["partition"] += time.perf_counter() - t0
        # found[1:] is the search's (phi, cut, size0) key; ties keep the earlier ball
        if found is not None and (winner is None or found[1:] < winner[0][1:]):
            winner = (found, ball, M, aux)

    params = {
        "alpha": config.alpha,
        "beta": config.beta,
        "min_ball": config.min_ball,
        "eps_min": config.eps_min,
        "eps_max": config.eps_max,
        "seed_edge_index": seed_index,
        "seed_nodes": sorted(parsed.labels[v] for v in seed_members),
    }
    report = mio.ClusterReport(
        dataset=dataset,
        method=config.method,
        motif=pattern.name,
        rng_seed=rng_seed,
        params=params,
    )
    if winner is None:
        report.status = "no-motifs" if not any_motifs else "undefined-conductance"
        report.ball_size = len(balls[0].nodes)
    else:
        (blocks, phi, search_cut, _), ball, M, aux = winner
        cluster_ids = [aux.back_map[a] for a in range(aux.u) if blocks[a] == 0]
        t0 = time.perf_counter()
        dmu = motif_degrees(M)
        vol_cluster = sum(dmu.get(v, 0) for v in cluster_ids)
        times["aux"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        cut = cut_net(aux, blocks)
        times["partition"] += time.perf_counter() - t0
        volume_used = min(vol_cluster, total - vol_cluster)
        if cut != search_cut or phi != motif_conductance(cut, vol_cluster, total):
            raise InternalError(
                f"search phi {phi} at cut {search_cut} does not match the "
                f"recounted cut {cut} over the occurrence-counted volume {volume_used}"
            )
        report.status = "ok"
        report.cluster = sorted(parsed.labels[v] for v in cluster_ids)
        report.cluster_size = len(cluster_ids)
        report.ball_size = len(ball.nodes)
        report.phi = mio.render_phi(phi)
        report.phi_exact = f"{phi.numerator}/{phi.denominator}"
        report.motif_cut = cut
        report.cluster_motif_degree = vol_cluster
        report.volume_used = volume_used
        report.volume_side = "cluster" if volume_used == vol_cluster else "complement"
        details.winning_ball = ball
        details.occurrences = M
        details.aux = aux
        details.blocks = blocks
    times["total"] = ingest + time.perf_counter() - t_start
    report.timings = {k: round(v, 6) for k, v in times.items()}
    return report, details


@mio._collector_paused()
def run_local_clustering(
    config: RunConfig, return_details: bool = False
) -> mio.ClusterReport | tuple[mio.ClusterReport, RunDetails]:
    parsed, dataset, queries, ingest = _load(config)
    if len(queries) != 1:
        raise InputError(
            "run_local_clustering needs exactly one seed; use the bench harness for random:k"
        )
    report, details = _query(config, parsed, dataset, ingest, *queries[0])
    if config.output:
        mio.write_report(report, config.output)
    return (report, details) if return_details else report


@dataclass
class BenchmarkResult:
    rows: list[dict]
    reports: list[mio.ClusterReport]
    failures: list[tuple[str, str, str]]  # (dataset, method, error)


@mio._collector_paused()
def run_benchmark(
    configs: list[RunConfig], output_dir: str | None = None
) -> BenchmarkResult:
    """Run every config, producing one report per query plus aggregate rows
    with a per-method Overall mean row.

    Each config's input is loaded once, and all of its queries (k of them
    for random:k, see ``resolve_seed_edges``) run on that load. A report's
    ``ingest`` is that load time and its ``total`` is ingest plus its own
    phases, so a row's ``time_s`` is what one ``cluster`` call costs. A
    config that fails to load gives one failed row, named by its dataset or
    input path; a query that fails gives its own failed row, named by the
    loaded dataset, and later queries and configs still run. A config with
    ``output`` is refused before any run: ``output_dir`` names each query's
    report. Each method's Overall row holds the plain mean of its
    successful queries' exact phi and of their cluster sizes."""
    if not configs:
        raise InputError("benchmark needs at least one run config")
    if any(config.output for config in configs):
        raise InputError("a bench run takes no 'output'; 'output_dir' writes its reports")
    rows: list[dict] = []
    reports: list[mio.ClusterReport] = []
    failures: list[tuple[str, str, str]] = []

    def fail(graph: str, method: str, exc: Exception) -> None:
        failures.append((graph, method, str(exc)))
        rows.append({"graph": graph, "method": method, "phi": "", "cluster_size": "", "time_s": ""})

    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
    written: set[str] = set()
    for config in configs:
        try:
            parsed, dataset, queries, ingest = _load(config)
        except Exception as exc:  # noqa: BLE001 - per-row failure, not fatal
            fail(config.dataset or config.input, config.method, exc)
            continue
        for seed_index, rng_seed in queries:
            try:
                report, _ = _query(config, parsed, dataset, ingest, seed_index, rng_seed)
            except Exception as exc:  # noqa: BLE001
                fail(dataset, config.method, exc)
                continue
            if output_dir:
                path = os.path.join(
                    output_dir,
                    f"{report.dataset}__{report.method}__{report.motif}"
                    f"__seed{report.params['seed_edge_index']}.json",
                )
                if path in written:
                    error = InputError(f"report {path} was already written in this bench run")
                    fail(dataset, config.method, error)
                    continue
                try:
                    mio.write_report(report, path)
                except ParseError as exc:  # the report is lost, so the run failed
                    fail(dataset, config.method, exc)
                    continue
                written.add(path)
            reports.append(report)
            ok = report.status == "ok"
            rows.append(
                {
                    "graph": report.dataset,
                    "method": report.method,
                    "phi": mio.format_csv_float(report.phi) if ok else "",
                    "cluster_size": report.cluster_size if ok else "",
                    "time_s": mio.format_csv_float(report.timings.get("total")),
                }
            )
    for method in ("core", "bfs"):
        done = [r for r in reports if r.method == method and r.status == "ok"]
        if done:
            mean_phi = sum(Fraction(r.phi_exact) for r in done) / len(done)
            mean_size = sum(r.cluster_size for r in done) / len(done)
            rows.append(
                {
                    "graph": "Overall",
                    "method": method,
                    "phi": mio.format_csv_float(float(mean_phi)),
                    "cluster_size": f"{mean_size:.1f}",
                    "time_s": "",
                }
            )
    return BenchmarkResult(rows, reports, failures)
