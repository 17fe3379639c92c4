"""Local motif-based clustering of hypergraphs.

Given a hypergraph and a seed hyperedge, find a low-motif-conductance cluster
around the seed: select a ball (core- or BFS-based), enumerate order-3 motif
occurrences touching it, contract them into an auxiliary hypergraph, and
2-way partition it for the best motif conductance: exactly by min cut when
the ball holds at most half the motif volume, else by repeated FM
refinement under randomized imbalance.
"""

from .auxiliary import AuxHypergraph, build_aux
from .balls import Ball, CoreDecomposition, bfs_balls, core_ball, nbr_core_decomposition
from .conductance import (
    ConductanceResult,
    conductance_direct,
    motif_conductance,
    motif_cut,
)
from .core import Hyperedge, Hypergraph
from .errors import (
    BudgetExceededError,
    ConstraintError,
    InputError,
    InternalError,
    ParseError,
    RefinementError,
    UndefinedConductanceError,
)
from .io import ClusterReport, parse_arb_simplices, parse_edge_list, read_report, write_report
from .motifs import (
    MotifPattern,
    classify_triple,
    count_motifs,
    enumerate_motifs,
    motif_degrees,
)
from .partition import (
    cut_net,
    fm_refine,
    partition_search,
    random_feasible_partition,
)
from .pipeline import BenchmarkResult, RunConfig, run_benchmark, run_local_clustering

__version__ = "0.1.0"

__all__ = [
    "AuxHypergraph",
    "Ball",
    "BenchmarkResult",
    "BudgetExceededError",
    "ClusterReport",
    "ConductanceResult",
    "ConstraintError",
    "CoreDecomposition",
    "Hyperedge",
    "Hypergraph",
    "InputError",
    "InternalError",
    "MotifPattern",
    "ParseError",
    "RefinementError",
    "RunConfig",
    "UndefinedConductanceError",
    "bfs_balls",
    "build_aux",
    "classify_triple",
    "conductance_direct",
    "core_ball",
    "count_motifs",
    "cut_net",
    "enumerate_motifs",
    "fm_refine",
    "motif_conductance",
    "motif_cut",
    "motif_degrees",
    "nbr_core_decomposition",
    "parse_arb_simplices",
    "parse_edge_list",
    "partition_search",
    "random_feasible_partition",
    "read_report",
    "run_benchmark",
    "run_local_clustering",
    "write_report",
]
