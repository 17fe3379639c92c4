"""Command-line interface: single clustering runs and the benchmark harness.

Every flag can be overridden through an environment variable with the prefix
MOTIFCLUST (uppercase, underscore-joined), e.g. MOTIFCLUST_CLUSTER_BETA=200.
Exit codes: 0 success, 2 input errors, 3 when the run produced no usable
cluster (no-motifs / undefined-conductance status).
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import io as mio
from .errors import InputError
from .pipeline import RunConfig, run_benchmark, run_local_clustering

CONTEXT = {"auto_envvar_prefix": "MOTIFCLUST", "help_option_names": ["-h", "--help"]}


class InputFailure(click.ClickException):
    """Bad input data or config: click prints one ``Error:`` line, exit code 2."""

    exit_code = 2


@click.group(context_settings=CONTEXT)
def main() -> None:
    """Local motif-based clustering of hypergraphs."""


@main.command()
@click.option("--input", "input_path", required=True, help="Dataset path (edge list file, or ARB prefix/directory).")
@click.option("--format", "fmt", type=click.Choice(["edgelist", "arb"]), default="edgelist", show_default=True)
@click.option("--method", type=click.Choice(["core", "bfs"]), default="bfs", show_default=True)
@click.option("--motif", required=True, help="Motif pattern, 1..6 (or I..VI).")
@click.option("--seed-edge", required=True, help="Seed selector: index:N, nodes:a,b,c, a bare comma list, or random:1.")
@click.option("--alpha", type=int, default=3, show_default=True, help="BFS ball repetitions.")
@click.option("--beta", type=int, default=80, show_default=True, help="Partitioning restarts per ball.")
@click.option("--min-ball", type=int, default=100, show_default=True, help="Minimum ball size.")
@click.option("--eps-min", type=float, default=0.03, show_default=True)
@click.option("--eps-max", type=float, default=0.5, show_default=True)
@click.option("--rng-seed", type=int, default=0, show_default=True)
@click.option("--output", required=True, help="Report path (JSON), or '-' for stdout.")
@click.option("--dataset", default=None, help="Dataset name for the report (defaults to the input filename).")
def cluster(
    input_path, fmt, method, motif, seed_edge, alpha, beta, min_ball,
    eps_min, eps_max, rng_seed, output, dataset,
) -> None:
    """Run the four-phase local clustering pipeline once and write a report."""
    config = RunConfig(
        input=input_path,
        format=fmt,
        method=method,
        motif=motif,
        seed_edge=seed_edge,
        alpha=alpha,
        beta=beta,
        min_ball=min_ball,
        eps_min=eps_min,
        eps_max=eps_max,
        rng_seed=rng_seed,
        output=None if output == "-" else output,
        dataset=dataset,
    )
    try:
        report = run_local_clustering(config)
    except InputError as exc:
        raise InputFailure(str(exc)) from exc
    if output == "-":
        mio.write_report(report, sys.stdout)
    if report.status != "ok":
        click.echo(f"status: {report.status}", err=True)
        sys.exit(3)
    click.echo(
        f"{report.dataset} [{report.method}/{report.motif}] "
        f"phi={report.phi} |C|={report.cluster_size} |B|={report.ball_size} "
        f"t={report.timings['total']:.2f}s"
    )


@main.command()
@click.option("--config", "config_path", required=True, help="JSON run list (see README).")
def bench(config_path) -> None:
    """Run a declarative list of clustering runs and write the aggregate CSV."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFailure(f"cannot read bench config: {exc}") from exc
    base = os.path.dirname(os.path.abspath(config_path))

    def _resolve(path):
        return path if path is None or os.path.isabs(path) else os.path.join(base, path)

    runs = spec.get("runs") if isinstance(spec, dict) else None
    if not isinstance(runs, list) or not runs:
        raise InputFailure("bench config has no 'runs' entries")
    configs = []
    for entry in runs:
        if not isinstance(entry, dict) or not {"input", "motif", "seed_edge"} <= entry.keys():
            raise InputFailure(f"each run needs input, motif and seed_edge: {entry!r}")
        entry = dict(entry, input=_resolve(entry["input"]))
        try:
            configs.append(RunConfig(**entry))
        except TypeError as exc:
            raise InputFailure(f"bad run entry {entry!r}: {exc}") from exc
    try:
        result = run_benchmark(configs, output_dir=_resolve(spec.get("output_dir")))
    except InputError as exc:
        raise InputFailure(str(exc)) from exc
    csv_path = _resolve(spec.get("csv"))
    if csv_path:
        mio.write_benchmark_csv(result.rows, csv_path)
        click.echo(f"wrote {csv_path}")
    else:
        mio.write_benchmark_csv(result.rows, sys.stdout)
    for dataset, method, error in result.failures:
        click.echo(f"FAILED {dataset} [{method}]: {error}", err=True)


if __name__ == "__main__":  # pragma: no cover
    main()
