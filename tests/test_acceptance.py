"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Shared fixtures are memoized module-level so every criterion can also run in
isolation. Criterion 5 uses the real contact-primary-school dataset when its
ARB files sit under data/contact-primary-school/ (see README), and otherwise
a deterministic synthetic contact-style stand-in at the identical scale
(242 nodes, 12704 hyperedges); the PASS line states which one ran.
"""

import hashlib
import os
import random
import tempfile
import time
from fractions import Fraction
from itertools import cycle

from motifclust import (
    MotifPattern,
    RunConfig,
    UndefinedConductanceError,
    build_aux,
    conductance_direct,
    conductance_via_aux,
    cut_net,
    enumerate_motifs,
    fm_refine,
    motif_cut,
    motif_degrees,
    parse_arb_simplices,
    run_local_clustering,
)
from motifclust.io import write_edge_list
from motifclust.pipeline import arb_paths, expand_bench_config
from motifclust.testing import (
    brute_best_cluster,
    brute_motifs,
    random_ball_nodes,
    random_connected_hypergraph,
    random_hypergraph,
    synthetic_contact_edges,
    write_arb_dataset,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REAL_DATA_DIR = os.path.join(REPO_ROOT, "data", "contact-primary-school")

_PHIS: list[Fraction] = []  # every defined conductance produced by criteria 1-5
_CACHE: dict = {}


def _record(phi) -> None:
    if phi is not None:
        _PHIS.append(Fraction(phi) if not isinstance(phi, Fraction) else phi)


def test_criterion_1_oracle_motif_equivalence():
    """Enumeration over B = V matches the brute-force triple classifier for
    all six patterns on 200 random hypergraphs at three densities."""
    started = time.perf_counter()
    rng = random.Random(101)
    densities = cycle([(0.12, 0.04), (0.22, 0.10), (0.35, 0.18)])
    graphs = 0
    while graphs < 200:
        dyad_p, triad_p = next(densities)
        H = random_hypergraph(
            rng, rng.randint(4, 12), dyad_p, triad_p, big_edge_p=0.02, require_edge=False
        )
        graphs += 1
        everything = frozenset(range(H.n))
        for pattern in MotifPattern:
            got = enumerate_motifs(H, everything, pattern, scope="exact")
            assert got == brute_motifs(H, pattern), (H.edges, pattern)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"
    print(f"\nPASS criterion 1: exact enumeration == brute force on {graphs} graphs x 6 patterns ({elapsed:.1f}s)")


def _contraction_instances():
    """100 random (hypergraph, ball, consistent partition) toy instances."""
    if "instances" in _CACHE:
        return _CACHE["instances"]
    rng = random.Random(777)
    instances = []
    while len(instances) < 100:
        H = random_hypergraph(rng, rng.randint(4, 12), 0.25, 0.12)
        if H.num_edges == 0:
            continue
        seed = H.edge(rng.randrange(H.num_edges)).members
        ball = random_ball_nodes(rng, H, seed)
        pattern = rng.choice(list(MotifPattern))
        M_ball = enumerate_motifs(H, ball, pattern, scope="exact")
        if not M_ball:
            continue
        aux = build_aux(M_ball, ball, seed)
        blocks = [rng.randint(0, 1) for _ in range(aux.num_nodes)]
        blocks[aux.u] = 1
        for s in aux.seed_nodes:
            blocks[s] = 0
        instances.append((H, seed, ball, pattern, M_ball, aux, blocks))
    _CACHE["instances"] = instances
    return instances


def test_criterion_2_cut_equivalence():
    """Aux cut-net equals the brute-force motif-cut of the mapped-back split,
    exactly, on 100 random instances."""
    for H, _seed, _ball, pattern, _M, aux, blocks in _contraction_instances():
        cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
        M_global = brute_motifs(H, pattern)
        assert cut_net(aux, blocks) == motif_cut(M_global, cluster)
    print("\nPASS criterion 2: aux cut-net == brute-force motif-cut on 100 instances (exact)")


def test_criterion_3_conductance_equivalence():
    """The aux-route conductance, with the global motif volume, equals the
    direct definition in exact rational arithmetic on every split where it is
    defined; where it is not, the direct route is 0/0 or has a motif-free
    cluster (phi 0 by convention)."""
    compared = 0
    for H, _seed, _ball, pattern, M_ball, aux, blocks in _contraction_instances():
        cluster = {aux.back_map[a] for a in range(aux.u) if blocks[a] == 0}
        M_global = brute_motifs(H, pattern)
        try:
            direct = conductance_direct(M_global, cluster)
        except UndefinedConductanceError:
            direct = None
        try:
            via = conductance_via_aux(aux, blocks, motif_degrees(M_ball), 3 * len(M_global))
        except UndefinedConductanceError:
            assert direct is None or direct.volume_used == 0
            continue
        assert via.phi == direct.phi
        _record(via.phi)
        compared += 1
    assert compared >= 60, f"only {compared} instances had a defined conductance"
    print(f"\nPASS criterion 3: via-aux == direct conductance on {compared} of 100 instances (exact); the other {100 - compared} have a motif-free side")


def test_criterion_4_pipeline_optimality_toy_scale():
    """run_local_clustering (beta=200, scope=exact) matches the exhaustive
    best-cluster oracle on >= 95 of 100 random seeded instances."""
    rng = random.Random(4001)
    tmp = tempfile.mkdtemp(prefix="motifclust-c4-")
    built = hits = 0
    while built < 100:
        n = rng.randint(6, 12)
        H = random_connected_hypergraph(
            rng, n, rng.uniform(0.15, 0.35), rng.uniform(0.06, 0.18)
        )
        triad_edges = [i for i in range(H.num_edges) if len(H.edge(i)) == 3]
        if not triad_edges:
            continue
        seed = H.edge(rng.choice(triad_edges)).members
        pattern = rng.choice(list(MotifPattern))
        M = brute_motifs(H, pattern)
        if not M:
            continue
        degrees = motif_degrees(M)
        if all(degrees.get(v, 0) == 0 for v in seed):
            continue
        # the ball is the whole component at this scale; skip instances where
        # no seed-containing proper subset has defined conductance at all
        try:
            _, phi_star = brute_best_cluster(H, seed, pattern)
        except UndefinedConductanceError:
            continue
        built += 1
        path = os.path.join(tmp, f"i{built}.txt")
        write_edge_list(H, [str(v) for v in range(H.n)], path)
        config = RunConfig(
            input=path,
            seed_edge="nodes:" + ",".join(str(v) for v in seed),
            motif=pattern,
            method="bfs",
            beta=200,
            scope="exact",
            rng_seed=built,
            dataset=f"i{built}",
        )
        report = run_local_clustering(config)
        if report.status == "ok":
            _record(Fraction(report.phi_exact))
        if report.status == "ok" and Fraction(report.phi_exact) == phi_star:
            hits += 1
    assert hits >= 95, f"pipeline matched the oracle on only {hits}/100 instances"
    print(f"\nPASS criterion 4: pipeline == exhaustive oracle on {hits}/100 toy instances (bound: >= 95)")


def _desk_scale_dataset():
    """(arb_prefix, label): the real dataset when present, else the synthetic
    stand-in written once per session."""
    if "dataset" in _CACHE:
        return _CACHE["dataset"]
    if os.path.isdir(REAL_DATA_DIR):
        try:
            arb_paths(REAL_DATA_DIR)
        except Exception:
            pass
        else:
            _CACHE["dataset"] = (REAL_DATA_DIR, "real contact-primary-school")
            return _CACHE["dataset"]
    tmp = tempfile.mkdtemp(prefix="motifclust-c5-")
    prefix = os.path.join(tmp, "contact-primary-school-synthetic")
    edges = synthetic_contact_edges()
    write_arb_dataset(edges, prefix + "-nverts.txt", prefix + "-simplices.txt")
    parsed = parse_arb_simplices(prefix + "-nverts.txt", prefix + "-simplices.txt")
    assert parsed.hypergraph.n == 242 and parsed.hypergraph.num_edges == 12704
    _CACHE["dataset"] = (prefix, "synthetic stand-in (242 nodes, 12704 hyperedges)")
    return _CACHE["dataset"]


def _desk_scale_runs():
    """Criterion 5's ten runs (5 random seeds x both methods) with wall times."""
    if "c5" in _CACHE:
        return _CACHE["c5"]
    prefix, label = _desk_scale_dataset()
    runs = []
    for method in ("core", "bfs"):
        base = RunConfig(
            input=prefix,
            format="arb",
            method=method,
            motif="VI",
            seed_edge="random:5",
            rng_seed=11,
            dataset="contact-primary-school",
        )
        for single in expand_bench_config(base):
            started = time.perf_counter()
            report = run_local_clustering(single)
            wall = time.perf_counter() - started
            runs.append((single, report, wall))
    _CACHE["c5"] = (label, runs)
    return _CACHE["c5"]


def test_criterion_5_desk_scale_smoke():
    """Both methods finish each run well under 120 s at alpha=3, beta=80 and
    at least one of 5 random seeds reports a defined phi <= 0.75. Every
    reported phi is the true motif conductance of its cluster."""
    label, runs = _desk_scale_runs()
    prefix, _ = _desk_scale_dataset()
    parsed = parse_arb_simplices(*arb_paths(prefix))
    H = parsed.hypergraph
    index = parsed.label_index()
    M_global = enumerate_motifs(H, range(H.n), MotifPattern.VI)
    by_method = {"core": [], "bfs": []}
    for config, report, wall in runs:
        assert wall < 120.0, f"{config.method} run took {wall:.1f}s (budget 120s)"
        if report.status == "ok":
            phi = Fraction(report.phi_exact)
            cluster = [index[v] for v in report.cluster]
            assert phi == conductance_direct(M_global, cluster).phi, config
            _record(phi)
            by_method[config.method].append(phi)
    for method, phis in by_method.items():
        assert phis, f"no defined conductance for method {method}"
        assert min(phis) <= Fraction(3, 4), f"{method}: best phi {min(phis)} > 0.75"
    slowest = max(wall for _, _, wall in runs)
    print(
        f"\nPASS criterion 5: {label}; 10 runs (5 seeds x core/bfs), slowest {slowest:.1f}s < 120s; "
        f"best phi core={float(min(by_method['core'])):.3f}, bfs={float(min(by_method['bfs'])):.3f} (<= 0.75)"
    )


def test_criterion_6_phi_range_and_refine_counters():
    """Every defined conductance recorded by criteria 1-5 lies in [0, 1] and
    fm_refine never increased a cut. A worse cut raises RefinementError out
    of every pipeline run in criteria 4-5; here refinement is also checked
    directly on the 100 contraction instances with every node movable."""
    assert _PHIS, "criteria 3-5 recorded no conductance values"
    assert all(0 <= phi <= 1 for phi in _PHIS)
    instances = _contraction_instances()
    for *_rest, aux, blocks in instances:
        after = fm_refine(aux, blocks, 1.0, movable=range(aux.num_nodes))
        assert cut_net(aux, after) <= cut_net(aux, blocks)
    print(
        f"\nPASS criterion 6: {len(_PHIS)} recorded phi values all in [0,1]; "
        f"no refine worsened a cut ({len(instances)} direct checks)"
    )


# sha256 of criterion 5's canonical reports on the synthetic stand-in, in run
# order (core then bfs, 5 seeds each), recorded with the exact scoring on
# global motif totals
SYNTHETIC_C5_DIGESTS = (
    "97e51be760666f6a8b59d75f95ea730023fb175db5d15b97392579b85610c8df",
    "f6fda5be9babe3c3549d8cefa785965d4c25a753d6ce151c2ec289a16d991a59",
    "3eaed496416ba4075355339df90758834a7662ca4d84397aa2cab5d536acf5b8",
    "a3a5fa1a49ccd0d48e02b69eb04c07ac43ed137bfb69c0757081316fa852953c",
    "28ac195d740568709dda530bd55b90608df3b19a0a7c1e7fa1ff6c542b5d5b05",
    "51876cda697d97773bb90b949345c8d19e9d9494e2664b4688331f4468d817ca",
    "ec83cfbe09eae3d9a8f69d5646be1fa6be40608aeb2a04398064e995a5ad16b8",
    "a7659268489b981f7f6e6ab480d3960e79ff1ef75e7c1ffde18f7743514605db",
    "bb911c2f074224c7494d7e4a70d1a236f8cff34c29f77b674dc5f30137505ef0",
    "e897411453bdb93306e8275451747a4f1240fdbc70b1565df20bbbbdc5d2a7fb",
)


def test_criterion_7_determinism_byte_identical_reports():
    """Repeating criterion 5 with the same master seed reproduces every report
    byte-for-byte in canonical form (wall-clock timings zeroed); on the
    synthetic stand-in the reports also match the pinned digests."""
    label, runs = _desk_scale_runs()
    for config, report, _wall in runs:
        again = run_local_clustering(config)
        assert again.canonical_json() == report.canonical_json(), config
    if label.startswith("synthetic"):
        digests = tuple(
            hashlib.sha256(report.canonical_json().encode()).hexdigest()
            for _config, report, _wall in runs
        )
        assert digests == SYNTHETIC_C5_DIGESTS
    print(
        f"\nPASS criterion 7: {len(runs)} reruns byte-identical to criterion 5's reports "
        f"({label}; canonical form, timings zeroed)"
    )
