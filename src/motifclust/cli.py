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
@click.option("--input", required=True, help="Dataset path (edge list file, or ARB prefix/directory).")
@click.option("--format", type=click.Choice(["edgelist", "arb"]), default=RunConfig.format, show_default=True)
@click.option("--method", type=click.Choice(["core", "bfs"]), default=RunConfig.method, show_default=True)
@click.option("--motif", required=True, help="Motif pattern, 1..6 (or I..VI).")
@click.option("--seed-edge", required=True, help="Seed selector: index:N, nodes:a,b,c, a bare comma list, or random:1.")
@click.option("--alpha", type=int, default=RunConfig.alpha, show_default=True, help="BFS ball repetitions.")
@click.option("--beta", type=int, default=RunConfig.beta, show_default=True, help="FM restarts per ball holding over half the motif volume.")
@click.option("--min-ball", type=int, default=RunConfig.min_ball, show_default=True, help="Minimum ball size.")
@click.option("--eps-min", type=float, default=RunConfig.eps_min, show_default=True)
@click.option("--eps-max", type=float, default=RunConfig.eps_max, show_default=True)
@click.option("--rng-seed", type=int, default=RunConfig.rng_seed, show_default=True)
@click.option("--output", required=True, help="Report path (JSON), or '-' for stdout.")
@click.option("--dataset", default=None, help="Dataset name for the report (defaults to the input filename).")
def cluster(output, **fields) -> None:
    """Run the four-phase local clustering pipeline once and write a report."""
    config = RunConfig(output=None if output == "-" else output, **fields)
    try:
        report = run_local_clustering(config)
    except InputError as exc:
        raise InputFailure(str(exc)) from exc
    if output == "-":
        mio.write_report(report, sys.stdout)
    if report.status != "ok":
        click.echo(f"status: {report.status}", err=True)
        sys.exit(3)
    click.echo(  # stdout holds the report alone when it goes there
        f"{report.dataset} [{report.method}/{report.motif}] "
        f"phi={report.phi} |C|={report.cluster_size} |B|={report.ball_size} "
        f"t={report.timings['total']:.2f}s",
        err=output == "-",
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

    def _resolve(where: dict, key: str):
        path = where.get(key)
        if not isinstance(path, str) and (path is not None or key == "input"):
            raise InputFailure(f"bench config '{key}' must be a path string, got {path!r}")
        return path if path is None or os.path.isabs(path) else os.path.join(base, path)

    runs = spec.get("runs") if isinstance(spec, dict) else None
    if not isinstance(runs, list) or not runs:
        raise InputFailure("bench config has no 'runs' entries")
    output_dir = _resolve(spec, "output_dir")
    csv_path = _resolve(spec, "csv")
    if csv_path and not os.path.isdir(os.path.dirname(csv_path)):
        raise InputFailure(f"bench config 'csv' is in a directory that does not exist: {csv_path}")
    configs = []
    for entry in runs:
        if not isinstance(entry, dict) or not {"input", "motif", "seed_edge"} <= entry.keys():
            raise InputFailure(f"each run needs input, motif and seed_edge: {entry!r}")
        entry = dict(entry, input=_resolve(entry, "input"))
        try:
            config = RunConfig(**entry)
            config.validate()
        except (TypeError, InputError) as exc:
            raise InputFailure(f"bad run entry {entry!r}: {exc}") from exc
        configs.append(config)
    try:
        result = run_benchmark(configs, output_dir=output_dir)
        mio.write_benchmark_csv(result.rows, csv_path or sys.stdout)
    except (InputError, OSError) as exc:
        raise InputFailure(str(exc)) from exc
    if csv_path:
        click.echo(f"wrote {csv_path}")
    for dataset, method, error in result.failures:
        click.echo(f"FAILED {dataset} [{method}]: {error}", err=True)


if __name__ == "__main__":  # pragma: no cover
    main()
