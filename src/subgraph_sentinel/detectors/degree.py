"""Degree-based statistics: total edge count, maximum degree, and the
standardized excess degree variance.

These are the cheap end of the toolkit: total degree is the optimal simple
test when the planted block is large, and the degree variance removes the
unknown background rate by centering at the plug-in estimate.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateGraphError
from ..models import pair_count
from .base import DetectorResult, register

__all__ = ["total_degree_stat", "max_degree_stat", "degree_variance_stat"]


@register("total_degree")
def total_degree_stat(graph):
    """Total number of edges; the witness-free global count."""
    return DetectorResult("total_degree", float(graph.total_edges()), None, True)


@register("max_degree")
def max_degree_stat(graph):
    """Maximum vertex degree, witness = the smallest vertex attaining it."""
    if graph.n_nodes == 0:
        raise DegenerateGraphError("max degree needs at least one vertex")
    degs = graph.degrees()
    v = int(np.argmax(degs))
    return DetectorResult("max_degree", float(degs[v]), (v,), True)


@register("degree_variance")
def degree_variance_stat(graph):
    """Standardized excess variance of the degree sequence.

    With p0h = W / C(N,2), the raw excess V is the empirical degree variance
    (normalized by N-2) minus its null expectation under Bin(N-1, p0h); V has
    exact zero mean under the homogeneous null for any p0, and the returned
    value is V / (sqrt(N) p0h). A planted block inflates it because block
    vertices share an elevated mean degree. A graph without edges has V = 0
    exactly and p0h = 0, and scores 0.0 by convention.
    """
    v = degree_variance_raw(graph)
    N = graph.n_nodes
    p0h = graph.total_edges() / pair_count(N)
    if p0h == 0.0:
        return DetectorResult("degree_variance", 0.0, None, True)
    return DetectorResult("degree_variance", v / (math.sqrt(N) * p0h), None,
                          True)


def degree_variance_raw(graph):
    """The un-standardized excess variance V = V2 - V1 (exact null mean zero)."""
    N = graph.n_nodes
    if N < 3:
        raise DegenerateGraphError("degree variance needs N >= 3")
    N2 = pair_count(N)
    p0h = graph.total_edges() / N2
    degs = graph.degrees().astype(np.float64)
    v1 = (N - 1) * N2 / (N2 - 1) * p0h * (1.0 - p0h)
    v2 = float(((degs - (N - 1) * p0h) ** 2).sum()) / (N - 2)
    return v2 - v1
