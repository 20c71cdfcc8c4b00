"""Threshold calibration for detector statistics.

Three routes to a rejection threshold at nominal level alpha:

* Monte Carlo under a fully known null model.
* Parametric bootstrap: estimate the null edge density from the observed
  graph, then Monte Carlo at that estimate.
* Exact binomial quantile, available for the total degree statistic only.

All calibrated tests reject on strict inequality (statistic > threshold)
and use the conservative order-statistic rank ceil((1-alpha)(B+1)), which
keeps the type-I error at or below alpha for any replicate count B that
admits the rank at all.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from .detectors.base import evaluate_value, get_detector
from .errors import (
    DegenerateGraphError,
    InsufficientReplicatesError,
    InvalidSpecError,
    MismatchedNullSpecError,
)
from .graph import Graph
from .kernels import binom_quantile
from .models import ModelSpec, _real, pair_count
from .replicates import _replicate_count, map_replicates

METHOD_MONTE_CARLO = "monte_carlo_known_p0"
METHOD_BOOTSTRAP = "parametric_bootstrap"
METHOD_ANALYTIC = "analytic_binomial"


def check_level(alpha: float, replicates: int = 1) -> None:
    """Raise unless alpha is in (0,1) and replicates is a count in [1, 10**6]."""
    message = f"alpha must be in (0,1), got {alpha}"
    if not 0.0 < _real(alpha, message) < 1.0:
        raise InvalidSpecError(message)
    if _replicate_count(replicates) < 1:
        raise InsufficientReplicatesError("need at least one replicate")


def conservative_rank(alpha: float, replicates: int) -> int:
    """1-indexed order-statistic rank ceil((1-alpha)(B+1)).

    Raises InsufficientReplicatesError when the rank exceeds B, i.e. when
    B is too small to place a level-alpha threshold below the sample
    maximum.
    """
    check_level(alpha, replicates)
    rank = math.ceil((1.0 - alpha) * (replicates + 1))
    if rank > replicates:
        raise InsufficientReplicatesError(
            f"rank {rank} exceeds replicate count {replicates}; "
            f"raise replicates above {math.ceil((1.0 - alpha) / alpha)}"
        )
    return rank


@dataclass(frozen=True)
class CalibratedTest:
    """A detector plus a fixed rejection threshold.

    ``n`` duplicates params["n"] when the detector is size-parameterized,
    None otherwise.  ``rejects`` is strict: a statistic exactly at the
    threshold does not reject.
    """

    detector_id: str
    params: dict
    threshold: float
    level_alpha: float
    method: str
    calibration_seed: int | None
    replicates: int
    null_spec: ModelSpec
    n: int | None = field(default=None)

    def __post_init__(self):
        if self.n is None and "n" in self.params:
            object.__setattr__(self, "n", int(self.params["n"]))

    def statistic(self, graph: Graph) -> float:
        return evaluate_value(self.detector_id, graph, self.params)

    def rejects(self, graph: Graph) -> bool:
        return self.statistic(graph) > self.threshold

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CombinedTest:
    """Bonferroni combination: rejects iff any component rejects."""

    components: tuple
    level_alpha: float
    null_spec: ModelSpec

    def rejects(self, graph: Graph) -> bool:
        return any(t.rejects(graph) for t in self.components)


def simulate_null_statistics(
    detector_id: str,
    params: dict,
    null_spec: ModelSpec,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> list[float]:
    """Detector values on `replicates` independent null draws.

    Replicate i always consumes random stream (seed, i), so the result is
    independent of worker count and scheduling order.
    """
    get_detector(detector_id)
    return map_replicates(
        partial(evaluate_value, detector_id, params=params),
        [(null_spec, seed, i) for i in range(replicates)],
        workers,
    )


def calibrate(
    detector_id: str,
    params: dict,
    null_spec: ModelSpec,
    alpha: float,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> CalibratedTest:
    """Monte Carlo threshold under a known null model.

    Threshold = rank-ceil((1-alpha)(B+1)) order statistic of the simulated
    null values.  Replicate counts of a few hundred or more are advisable;
    smaller counts are accepted as long as the rank fits.
    """
    if null_spec.variant != "null":
        raise InvalidSpecError("calibration requires a null-variant ModelSpec")
    rank = conservative_rank(alpha, replicates)
    values = simulate_null_statistics(
        detector_id, params, null_spec, replicates, seed, workers
    )
    values.sort()
    return CalibratedTest(
        detector_id=detector_id,
        params=dict(params),
        threshold=float(values[rank - 1]),
        level_alpha=float(alpha),
        method=METHOD_MONTE_CARLO,
        calibration_seed=int(seed),
        replicates=int(replicates),
        null_spec=null_spec,
    )


def estimate_p0_hat(graph: Graph) -> float:
    """Maximum-likelihood null edge density W / (N choose 2)."""
    if graph.n_nodes < 2:
        raise DegenerateGraphError("need at least 2 nodes to estimate density")
    return graph.total_edges() / pair_count(graph.n_nodes)


def bootstrap_calibrate(
    detector_id: str,
    params: dict,
    observed: Graph,
    alpha: float,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> CalibratedTest:
    """Parametric bootstrap: calibrate at the plug-in density of `observed`."""
    p0_hat = estimate_p0_hat(observed)
    if p0_hat <= 0.0 or p0_hat >= 1.0:
        raise DegenerateGraphError(
            f"estimated density {p0_hat} admits no nondegenerate null model"
        )
    null_spec = ModelSpec.null(observed.n_nodes, p0_hat)
    test = calibrate(
        detector_id, params, null_spec, alpha, replicates, seed, workers
    )
    return replace(test, method=METHOD_BOOTSTRAP)


def analytic_calibrate(
    null_spec: ModelSpec, alpha: float
) -> CalibratedTest:
    """Exact binomial threshold for the total degree statistic.

    The total edge count is Binomial(N(N-1)/2, p0) under the null, so the
    (1-alpha)-quantile gives P(W > threshold) <= alpha exactly, no
    simulation involved.  Only total_degree has this closed-form null.
    """
    if null_spec.variant != "null":
        raise InvalidSpecError("analytic calibration requires a null spec")
    check_level(alpha)  # no replicates: the threshold is exact
    n2 = pair_count(null_spec.N)
    threshold = binom_quantile(n2, null_spec.p0, 1.0 - alpha)
    return CalibratedTest(
        detector_id="total_degree",
        params={},
        threshold=float(threshold),
        level_alpha=float(alpha),
        method=METHOD_ANALYTIC,
        calibration_seed=None,
        replicates=0,
        null_spec=null_spec,
    )


def bonferroni_combine(tests) -> CombinedTest:
    """Union rejection rule over component tests.

    Components must share one null model and hold equal levels alpha/k, so
    the combination has type-I at most alpha = sum of component levels.
    """
    tests = list(tests)
    if not tests:
        raise InvalidSpecError("need at least one component test")
    base = tests[0].null_spec
    for t in tests[1:]:
        if t.null_spec != base:
            raise MismatchedNullSpecError(
                "component tests calibrated against different null models"
            )
    levels = [t.level_alpha for t in tests]
    if max(levels) - min(levels) > 1e-12:
        raise InvalidSpecError(
            f"component levels must be equal (alpha/k each), got {levels}"
        )
    return CombinedTest(
        components=tuple(tests),
        level_alpha=float(sum(levels)),
        null_spec=base,
    )
