#!/usr/bin/env python3
"""motifclust benchmark: closed-loop local-clustering queries on generated data.

Run from the repository root:

    python3 perfbench/run.py --workload desk-VI --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process, one thread, closed loop: each query is one
``run_local_clustering(RunConfig(...))`` call with an explicit ``index:N``
seed, and the next query starts after it returns. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans recorded
around the library's public functions (see tracing.py). Every answer is
checked by the referee (see referee.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the full
record (environment, shape, every query's answer) goes to perfbench/out/.
``--workload all`` runs every workload, traced and untraced, each in a fresh
process, and prints a summary table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("desk-VI", "desk-I", "ring-IV")

# the untraced run times set-up SETUP_SAMPLES times, spread evenly over the
# run, so that its median samples the whole run rather than the machine's
# state in one moment
SETUP_SAMPLES = 7
# every run completes the first pair (core, bfs); per-layer counts are summed
# over exactly these, so they repeat for a given seed
COUNT_QUERIES = {0, 1}
# the span overhead outside the query span's own interval is a few µs
SELF_TIME_TOLERANCE_S = 1e-3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def timed_query(cfg):
    """(wall seconds, report or None, error or None) of one library call."""
    from motifclust import run_local_clustering

    gc.collect()
    t0 = time.perf_counter()
    try:
        report = run_local_clustering(cfg)
    except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, report, None


def traced_query(cfg, tracer, index):
    """Like timed_query, with spans; the wall time is taken outside the
    tracer, so that the spans' self times can be checked against it."""
    import tracing
    from motifclust import run_local_clustering

    tracer.query = index
    report = error = None
    gc.collect()
    with tracing.traced(tracer):
        t0 = time.perf_counter()
        with tracer.span(tracing.QUERY_SPAN):
            try:
                report = run_local_clustering(cfg)
            except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
                error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    tracing.finish_query(tracer, index)
    return wall, report, error


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import tracing
    from motifclust import (
        MotifPattern,
        RunConfig,
        bfs_balls,
        core_ball,
        enumerate_motifs,
        nbr_core_decomposition,
        parse_arb_simplices,
    )
    from motifclust.testing import write_arb_dataset
    from referee import judge
    from workloads import WORKLOADS, query_stream

    wl = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    prefix = str(work / name)
    files = (f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    try:
        edges, pool = wl.make_edges(seed)
        m = len(edges)
        write_arb_dataset(edges, *files)
        del edges

        def timed_setup():
            gc.collect()
            t0 = time.perf_counter()
            parsed = parse_arb_simplices(*files)
            setup.append(time.perf_counter() - t0)
            if parsed.hypergraph.num_edges != m:
                raise RuntimeError(f"parsed {parsed.hypergraph.num_edges} hyperedges, wrote {m}")
            return parsed.hypergraph.n

        setup = []
        n = timed_setup()

        def config(q):
            return RunConfig(
                input=prefix,
                format="arb",
                seed_edge=f"index:{q.seed_edge}",
                motif=wl.motif,
                method=q.method,
                alpha=wl.alpha,
                beta=wl.beta,
                min_ball=wl.min_ball,
                rng_seed=q.rng_seed,
                dataset=name,
            )

        # closed loop over whole pairs (core, bfs), so that every run weighs
        # both methods alike; in the traced run each query runs untraced,
        # then traced
        records = []
        pair_walls = []
        tracer = tracing.Tracer()
        samples_due = SETUP_SAMPLES if not trace else 1
        t_start = time.perf_counter()
        for pair in query_stream(wl, seed, pool):
            elapsed = time.perf_counter() - t_start
            setups_left = (samples_due - len(setup)) * statistics.median(setup)
            if pair_walls and elapsed + statistics.median(pair_walls) + setups_left > seconds:
                break
            if len(setup) < samples_due and elapsed >= len(setup) * seconds / samples_due:
                timed_setup()
            pair_start = time.perf_counter()
            for q in pair:
                runs = [("untraced", *timed_query(config(q)))]
                if trace:
                    runs.append(("traced", *traced_query(config(q), tracer, q.index)))
                for mode, wall, report, error in runs:
                    records.append({"query": q, "mode": mode, "wall": wall, "report": report, "error": error})
            pair_walls.append(time.perf_counter() - pair_start)
        while len(setup) < samples_due:
            timed_setup()
        measured_s = time.perf_counter() - t_start
        rss = peak_rss_mib()

        # referee, after the timed loop and the memory reading
        parsed = parse_arb_simplices(*files)
        H = parsed.hypergraph
        label_index = parsed.label_index()
        M_global = enumerate_motifs(H, range(H.n), MotifPattern.from_spec(wl.motif), "exact")
        too_big = {}
        if wl.max_ball_share < 1:
            decomposition = nbr_core_decomposition(H)
            for edge in sorted({r["query"].seed_edge for r in records}):
                members = H.edge(edge).members
                balls = [core_ball(H, members, max(wl.min_ball, len(members)), decomposition)]
                balls += bfs_balls(H, members, wl.alpha, wl.min_ball)
                largest = max(len(b.nodes) for b in balls)
                if largest > wl.max_ball_share * n:
                    too_big[edge] = largest
        for r in records:
            if r["error"] is not None:
                r["ok"], r["reason"] = False, r["error"]
                continue
            verdict = judge(r["report"], M_global, label_index)
            if verdict.ok and r["query"].seed_edge in too_big:
                verdict.ok = False
                verdict.reason = (
                    f"ball of {too_big[r['query'].seed_edge]} nodes exceeds "
                    f"{wl.max_ball_share:g} of n={n}"
                )
            r.update(ok=verdict.ok, reason=verdict.reason, verdict=verdict)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    shape = {
        "n": n,
        "m": m,
        "global_occurrences": len(M_global),
        "seed_edges": sorted({r["query"].seed_edge for r in records}),
        "ball_sizes": [r["report"].ball_size for r in records if r["report"] is not None],
    }
    gaps = [r["verdict"].phi_gap for r in records if r["ok"]]
    # recorded and printed in every run; gated only as the traced run's
    # referee metrics, since both are 0 at a correct commit
    info = {
        "referee.phi_gap_max": max(gaps) if gaps else 0.0,
        "referee.failed_share": failed / len(records),
    }
    samples = {}
    if trace == 0:
        walls = [r["wall"] for r in records]
        metrics = {"setup_s": (statistics.median(setup), "s")}
        samples["setup_s"] = len(setup)
        for method in ("core", "bfs"):
            mw = [r["wall"] for r in records if r["query"].method == method]
            metrics[f"query_{method}_s_p50"] = (statistics.median(mw), "s")
            samples[f"query_{method}_s_p50"] = len(mw)
        metrics["queries_per_min"] = (60 * len(walls) / sum(walls), "1/min")
        samples["queries_per_min"] = len(walls)
        metrics["peak_rss_mib"] = (rss, "MiB")
        phis = [float(r["verdict"].phi_true) for r in records if r["ok"]]
        metrics["phi_true_mean"] = (statistics.fmean(phis) if phis else 0.0, "1")
        samples["phi_true_mean"] = len(phis)
        # the pooled median of a 1:1 core/bfs mix falls between the two
        # methods' modes and jumps with one query, so it is recorded, not gated
        info["query_s_p50"] = statistics.median(walls)
    else:
        traced = [r for r in records if r["mode"] == "traced"]
        layer = tracing.layer_metrics(tracer.spans, COUNT_QUERIES)
        metrics = {
            k: (v, "count" if k in tracing.COUNT_METRICS else ("1" if "ratio" in k else "s"))
            for k, v in layer.items()
        }
        untraced_s = sum(r["wall"] for r in records if r["mode"] == "untraced")
        metrics["trace.overhead_ratio"] = (sum(r["wall"] for r in traced) / untraced_s, "1")
        for key in ("referee.phi_gap_max", "referee.failed_share"):
            metrics[key] = (info.pop(key), "1")
        samples["traced_queries"] = len(traced)
        self_error = tracing.self_time_error(tracer.spans, {r["query"].index: r["wall"] for r in traced})
        shape["balls"] = [
            {"query": sp.query, **sp.counts}
            for sp in tracer.spans
            if sp.name in ("motifs.enumerate", "auxiliary.build", "balls.core_ball", "balls.bfs_balls")
        ]
        tracer.dump(OUT / f"{name}-seed{seed}-spans.jsonl")

    correct = failed == 0 and (trace == 0 or self_error <= SELF_TIME_TOLERANCE_S)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "shape": shape,
        "info": info,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "queries": [
            {
                "index": r["query"].index,
                "method": r["query"].method,
                "seed_edge": r["query"].seed_edge,
                "rng_seed": r["query"].rng_seed,
                "mode": r["mode"],
                "wall_s": r["wall"],
                "ok": r["ok"],
                "reason": r["reason"],
                "phi_exact": r["report"].phi_exact if r["report"] is not None else None,
                "phi_true": (
                    str(r["verdict"].phi_true) if r["ok"] else None
                ),
                "cluster_sha256": (
                    r["verdict"].cluster_sha256 if "verdict" in r else None
                ),
                "ball_size": r["report"].ball_size if r["report"] is not None else None,
            }
            for r in records
        ],
    }
    if trace:
        record["self_time_error_s"] = self_error
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for key, (value, unit) in metrics.items():
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"{name} {key} = {value:.6g} {unit}{count}")
    for key, value in info.items():
        print(f"{name} {key} = {value:.6g}  (recorded, not gated)")
    for r in records:
        if not r["ok"]:
            print(f"{name} query {r['query'].index} ({r['mode']}) failed: {r['reason']}")
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": record["metrics"],
    }


def run_all(args) -> int:
    """Each workload untraced then traced, each run in a fresh process."""
    table: dict[str, dict[str, float]] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for key, metric in result["metrics"].items():
                table.setdefault(key, {})[name] = metric["value"]
    print(f"\n{'metric':32s}" + "".join(f"{n:>14s}" for n in WORKLOAD_NAMES))
    for key, row in table.items():
        cells = (f"{row[n]:>14.5g}" if n in row else f"{'-':>14s}" for n in WORKLOAD_NAMES)
        print(f"{key:32s}" + "".join(cells))
    print(json.dumps({"correct": ok, "metrics": table}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "motifclust" / "__init__.py").is_file():
        print(f"perfbench: motifclust sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import motifclust

    if not Path(motifclust.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported motifclust from {motifclust.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
