"""Exact likelihood-ratio benchmark for tiny instances.

Averaging the per-subset likelihood ratio over every candidate subset
gives the optimal test for the uniformly-planted alternative.  This is
exponential in the subset count, so it is gated behind an enumeration
budget and serves purely as a ceiling against which the practical
detectors are measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors.subsets import check_budget, iter_subset_edge_counts
from .errors import DomainError
from .graph import Graph
from .kernels import log_mgf, tilt_parameter
from .models import ModelSpec, pair_count
from .risk import RiskReport, check_spec_pair, estimate_risk

LR_SUBSET_BUDGET = 10**6


def _check_lr_params(N: int, n: int, p0: float, p1: float) -> None:
    if not 2 <= n <= N:
        raise DomainError(f"need 2 <= n <= N, got n={n}, N={N}")
    if not 0.0 < p0 < 1.0:
        raise DomainError(f"p0 must be in (0,1), got {p0}")
    if not p0 <= p1 <= 1.0:
        raise DomainError(f"p1 must be in [p0, 1], got {p1}")
    check_budget(N, n, LR_SUBSET_BUDGET)


def lr_statistic(graph: Graph, n: int, p0: float, p1: float) -> float:
    """Average tilted likelihood over all size-n subsets.

    Returns (1/C(N,n)) * sum_S exp(theta*W_S - Lambda(theta)*C(n,2)) where
    theta reweights edge probability p0 to p1, computed in log-sum-exp
    arithmetic.  At p1 = p0 the ratio is identically 1.  At p1 = 1 the
    tilt is infinite and the statistic switches to the clique-count form:
    the number of size-n cliques divided by its null expectation.
    """
    N = graph.n_nodes
    _check_lr_params(N, n, p0, p1)
    n2 = pair_count(n)
    total = math.comb(N, n)

    if p1 == p0:
        return 1.0

    counts = (c for _, _, c in iter_subset_edge_counts(graph, n))
    if p1 == 1.0:
        cliques = sum(int(np.count_nonzero(c == n2)) for c in counts)
        if cliques == 0:
            return 0.0
        log_l = math.log(cliques) - math.log(total) - n2 * math.log(p0)
    else:
        from scipy.special import logsumexp
        theta = tilt_parameter(p1, p0)
        lam = log_mgf(theta, p0)
        partials = [logsumexp(theta * c.astype(np.float64)) for c in counts]
        log_l = float(np.logaddexp.reduce(partials)) - math.log(total) - n2 * lam
    try:
        return math.exp(log_l)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LikelihoodRatioTest:
    """The fixed rule: reject when the averaged likelihood ratio exceeds 1.

    No calibration is involved; this is the Bayes rule for the
    uniform-prior alternative at equal weights, optimal for the sum of the
    two error probabilities.
    """

    n: int
    p0: float
    p1: float

    def statistic(self, graph: Graph) -> float:
        return lr_statistic(graph, self.n, self.p0, self.p1)

    def rejects(self, graph: Graph) -> bool:
        return self.statistic(graph) > 1.0


def lr_oracle_risk(
    null_spec: ModelSpec,
    alt_spec: ModelSpec,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> RiskReport:
    """Monte Carlo risk of the exact likelihood-ratio rule.

    The rule is built from the pair's (p0, p1, n); every implemented
    calibrated test on the same pair should come out no better than this
    benchmark, up to Monte Carlo error.
    """
    check_spec_pair(null_spec, alt_spec)
    if alt_spec.variant != "planted":
        raise DomainError(
            "the exact likelihood ratio is defined for the uniform-prior "
            "planted alternative, not the fixed-degree variant"
        )
    _check_lr_params(null_spec.N, alt_spec.n, null_spec.p0, alt_spec.p1)
    test = LikelihoodRatioTest(n=alt_spec.n, p0=null_spec.p0, p1=alt_spec.p1)
    return estimate_risk(test, null_spec, alt_spec, replicates, seed, workers)
