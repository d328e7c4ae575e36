"""Relaxed metric dimension toolkit.

Exact, constructive dimension on trees; greedy set-cover approximation on
general graphs; asymptotic constants for critical branching trees; seeded
random-graph generators; and two-step sensor-placement evaluation.
"""

__version__ = "0.1.0"

from .graph import (
    UNREACHABLE,
    DistanceMatrix,
    EquivalencePartition,
    Graph,
    GraphStats,
    LoadResult,
    TooLargeError,
    all_pairs_distances,
    equivalence_partition,
    graph_stats,
    identification_vector,
    is_k_relaxed_resolving,
    largest_connected_component,
    load_edge_list,
)
from .greedy import GreedyTrace, greedy_k_resolving_set, greedy_resolve_within
from .gw import GWConstants, OffspringDistribution, gw_sequence, monte_carlo_cr, poisson_closed_form
from .generators import (
    ba_tree,
    configuration_model,
    gw_tree_conditioned,
    rgg,
    uniform_tree,
)
from .localization import SweepRecord, TwoStepResult, qstar_curve, sweep_metrics, two_step_qstar
from .trees import (
    IncompatibleMethodError,
    RootedTree,
    StemResult,
    TreeMDReport,
    TreeMetric,
    brute_force_md,
    count_sigma_ex,
    down_stem_vertices,
    exact_tree_md,
    is_path_graph,
    is_tree,
    stem,
    stem_r,
    subtree_property_counts,
    tree_diameter,
)

__all__ = [
    "__version__",
    "UNREACHABLE",
    "Graph",
    "DistanceMatrix",
    "EquivalencePartition",
    "GraphStats",
    "LoadResult",
    "load_edge_list",
    "largest_connected_component",
    "all_pairs_distances",
    "identification_vector",
    "equivalence_partition",
    "is_k_relaxed_resolving",
    "graph_stats",
    "RootedTree",
    "StemResult",
    "TreeMDReport",
    "TreeMetric",
    "TooLargeError",
    "IncompatibleMethodError",
    "stem",
    "stem_r",
    "down_stem_vertices",
    "count_sigma_ex",
    "exact_tree_md",
    "subtree_property_counts",
    "brute_force_md",
    "is_tree",
    "is_path_graph",
    "tree_diameter",
    "GreedyTrace",
    "greedy_k_resolving_set",
    "greedy_resolve_within",
    "OffspringDistribution",
    "GWConstants",
    "gw_sequence",
    "poisson_closed_form",
    "monte_carlo_cr",
    "ba_tree",
    "uniform_tree",
    "gw_tree_conditioned",
    "configuration_model",
    "rgg",
    "SweepRecord",
    "TwoStepResult",
    "sweep_metrics",
    "two_step_qstar",
    "qstar_curve",
]
