"""Test statistics for the planted dense subgraph problem.

Importing this package populates the detector registry; evaluate() runs any
registered statistic by name.
"""

from .base import (DETECTORS, DetectorResult, evaluate, evaluate_value,
                   witness_value)
from .clique import clique_number
from .degree import degree_variance_stat, max_degree_stat, total_degree_stat
from .densest import densest_at_least, densest_subgraph
from .scan import glr_objective, glr_stat, scan_stat
from .spectral import (relaxed_scan_stat, sdp_dual_bound, sparse_eig_lower,
                       sparse_eig_stat, squared_adjacency, support_eig)

__all__ = [
    "DETECTORS", "DetectorResult", "evaluate", "evaluate_value",
    "witness_value",
    "clique_number",
    "degree_variance_stat", "max_degree_stat", "total_degree_stat",
    "densest_at_least", "densest_subgraph",
    "glr_objective", "glr_stat", "scan_stat",
    "relaxed_scan_stat", "sdp_dual_bound", "sparse_eig_lower",
    "sparse_eig_stat", "squared_adjacency", "support_eig",
]
