"""End-to-end orchestration of the four phases, plus the benchmark harness.

Phase 1 selects one core ball or up to alpha BFS balls; for each ball, phase 2
enumerates the chosen motif pattern, phase 3 contracts the occurrences into the
auxiliary hypergraph, and phase 4 searches beta randomized-imbalance partitions.
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

``run_local_clustering`` runs with the cyclic garbage collector paused (and
restores the caller's state): a query makes no reference cycles, and the
collector would otherwise rescan the many small tuples it allocates.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import io as mio
from .auxiliary import AuxHypergraph, build_aux
from .balls import Ball, bfs_balls, core_ball
from .conductance import motif_conductance
from .core import Hypergraph
from .errors import InputError, InternalError, ParseError
from .motifs import MotifPattern, count_motifs, enumerate_motifs, motif_degrees
from .partition import cut_net, partition_search, size_bound

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
    seed_index: int
    balls: list[Ball]
    winning_ball: Ball | None = None
    occurrences: list[tuple[int, int, int]] = field(default_factory=list)
    aux: AuxHypergraph | None = None
    blocks: list[int] | None = None
    phi: Fraction | None = None


def arb_paths(prefix: str) -> tuple[str, str]:
    """Resolve the ARB file pair from a prefix or a dataset directory.

    "<prefix>-nverts.txt" / "<prefix>-simplices.txt" must exist; a directory
    path uses its basename as the prefix inside it.
    """
    if os.path.isdir(prefix):
        base = os.path.basename(os.path.normpath(prefix))
        prefix = os.path.join(prefix, base)
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
        default_name = os.path.basename(config.input.rstrip("/")).replace("-nverts.txt", "")
    else:
        parsed = mio.parse_edge_list(config.input)
        default_name = os.path.splitext(os.path.basename(config.input))[0]
    return parsed, config.dataset or default_name


def resolve_seed_edges(
    parsed: mio.ParseResult, spec: str, rng: random.Random
) -> list[int]:
    """Seed selector: "index:N", "random:K", "nodes:a,b,c", a bare comma list
    of labels, or a bare edge index."""
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
        return sorted(rng.sample(range(H.num_edges), k))  # k distinct hyperedges
    if text.startswith("index:"):
        text = text.split(":", 1)[1]
    if text.startswith("nodes:"):
        labels = [t for t in text.split(":", 1)[1].split(",") if t]
    elif "," in text:
        labels = [t for t in text.split(",") if t]
    else:
        try:
            idx = int(text)
        except ValueError:
            raise InputError(f"cannot parse seed selector {spec!r}") from None
        if not 0 <= idx < H.num_edges:
            raise InputError(f"seed edge index {idx} out of range [0, {H.num_edges})")
        return [idx]
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
    return [edge]


def _coerce_label(lab: str, index: dict):
    try:
        num = int(lab)
    except ValueError:
        return None
    return num if num in index else None


@mio._collector_paused()
def run_local_clustering(
    config: RunConfig, return_details: bool = False
) -> mio.ClusterReport | tuple[mio.ClusterReport, RunDetails]:
    config.validate()
    pattern = MotifPattern.from_spec(config.motif)
    rng = random.Random(config.rng_seed)
    times = {phase: 0.0 for phase in _PHASES}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    parsed, dataset = load_input(config)
    H = parsed.hypergraph
    seeds = resolve_seed_edges(parsed, config.seed_edge, rng)
    if len(seeds) != 1:
        raise InputError(
            "run_local_clustering needs exactly one seed; use the bench harness for random:k"
        )
    seed_index = seeds[0]
    seed_members = H.members[seed_index]
    times["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.method == "core":
        balls = [core_ball(H, seed_members, max(config.min_ball, len(seed_members)))]
    else:
        balls = bfs_balls(H, seed_members, config.alpha, config.min_ball)
    # each restart keeps the seed in one block, capped at no less than this
    smallest = min(len(ball.nodes) for ball in balls)
    bound = size_bound(smallest + 1, config.eps_min)
    if len(seed_members) > bound:
        raise InputError(
            f"the {len(seed_members)}-node seed hyperedge does not fit in one block "
            f"of a {smallest}-node ball at eps {config.eps_min} (at most {bound} "
            f"nodes); raise --min-ball or --eps-min"
        )
    times["ball"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    total = 3 * count_motifs(H, pattern)
    times["enumerate"] = time.perf_counter() - t0

    details = RunDetails(H, parsed.labels, seed_index, balls)
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
        rng_seed=config.rng_seed,
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
        details.phi = phi
    times["total"] = time.perf_counter() - t_start
    report.timings = {k: round(v, 6) for k, v in times.items()}
    if config.output:
        mio.write_report(report, config.output)
    if return_details:
        return report, details
    return report


@dataclass
class BenchmarkResult:
    rows: list[dict]
    reports: list[mio.ClusterReport]
    failures: list[tuple[str, str, str]]  # (dataset, method, error)


def expand_bench_config(config: RunConfig) -> list[RunConfig]:
    """Expand a random:k seed selector into k single-seed configs with derived
    rng seeds; other selectors pass through unchanged."""
    spec = str(config.seed_edge).strip()
    if not spec.startswith("random:"):
        return [config]
    master = random.Random(config.rng_seed)
    parsed, _ = load_input(config)
    indices = resolve_seed_edges(parsed, spec, master)
    out = []
    for idx in indices:
        out.append(
            replace(config, seed_edge=f"index:{idx}", rng_seed=master.randrange(2**63))
        )
    return out


def run_benchmark(
    configs: list[RunConfig], output_dir: str | None = None
) -> BenchmarkResult:
    """Run every config (random:k selectors expand to k runs), producing one
    report per run plus aggregate rows with a per-method Overall mean row."""
    if not configs:
        raise InputError("benchmark needs at least one run config")
    rows: list[dict] = []
    reports: list[mio.ClusterReport] = []
    failures: list[tuple[str, str, str]] = []

    def fail(config: RunConfig, exc: Exception) -> None:
        graph = config.dataset or config.input
        failures.append((graph, config.method, str(exc)))
        rows.append(
            {"graph": graph, "method": config.method, "phi": "", "cluster_size": "", "time_s": ""}
        )

    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
    written: set[str] = set()
    for config in configs:
        try:
            expanded = expand_bench_config(config)
        except Exception as exc:  # noqa: BLE001 - per-row failure, not fatal
            fail(config, exc)
            continue
        for single in expanded:
            try:
                report = run_local_clustering(single)
            except Exception as exc:  # noqa: BLE001
                fail(single, exc)
                continue
            if output_dir:
                path = os.path.join(
                    output_dir,
                    f"{report.dataset}__{report.method}__{report.motif}"
                    f"__seed{report.params['seed_edge_index']}.json",
                )
                if path in written:
                    fail(single, InputError(f"report {path} was already written in this bench run"))
                    continue
                try:
                    mio.write_report(report, path)
                except ParseError as exc:  # the report is lost, so the run failed
                    fail(single, exc)
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
        done = [r for r in rows if r["method"] == method and r["phi"] != ""]
        if done:
            # plain (unweighted) arithmetic mean over successful runs
            mean_phi = sum(float(r["phi"]) for r in done) / len(done)
            mean_size = sum(int(r["cluster_size"]) for r in done) / len(done)
            rows.append(
                {
                    "graph": "Overall",
                    "method": method,
                    "phi": f"{mean_phi:.3f}",
                    "cluster_size": f"{mean_size:.1f}",
                    "time_s": "",
                }
            )
    return BenchmarkResult(rows, reports, failures)
