"""Worst-case risk estimation by paired Monte Carlo.

The risk of a test is its type-I error plus its worst type-II error over
all planted sets of a given size.  The null model and the exact statistics
(the results marked exact) are invariant under node relabeling, so for
them the type-II error is the same for every planted set, and a single
alternative (fixed prefix set or a uniformly drawn set, caller's choice
via the model spec) estimates the worst case.  The approximate ones, such
as densest_at_least, peeling and sparse_eig, break ties by vertex index,
so for them a relabeling can change the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpecPairError
from .models import ModelSpec
from .replicates import _replicate_count, map_replicates

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def proportion_half_width(successes: int, trials: int) -> float:
    """Half the length of the 95% Wilson score interval for a binomial
    proportion; unlike the normal approximation it stays positive at 0
    and at `trials` successes."""
    p = successes / trials
    z2 = _Z95 * _Z95
    return (_Z95 / (1.0 + z2 / trials)) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))


@dataclass(frozen=True)
class RiskReport:
    """Empirical type-I, type-II and total risk with 95% half-widths.

    gamma_half_width combines the two independent proportion half-widths
    in quadrature.  ci_method records that these are Wilson score
    intervals.
    """

    type1_hat: float
    type2_hat: float
    gamma_hat: float
    type1_half_width: float
    type2_half_width: float
    gamma_half_width: float
    replicates: int
    spec_null: ModelSpec
    spec_alt: ModelSpec
    ci_method: str = "wilson"


def check_spec_pair(null_spec: ModelSpec, alt_spec: ModelSpec) -> None:
    if null_spec.variant != "null":
        raise InvalidSpecPairError("null_spec must have the null variant")
    if alt_spec.variant == "null":
        raise InvalidSpecPairError("alt_spec must be a planted variant")
    if null_spec.N != alt_spec.N:
        raise InvalidSpecPairError(
            f"spec pair disagrees on N: {null_spec.N} vs {alt_spec.N}"
        )


def estimate_risk(
    test,
    null_spec: ModelSpec,
    alt_spec: ModelSpec,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> RiskReport:
    """Monte Carlo estimate of type-I + type-II for a fixed test.

    Null replicate i consumes random stream (seed, i); alternative
    replicate i consumes (seed, replicates + i).  Both error rates are
    estimated from `replicates` independent draws each.
    """
    check_spec_pair(null_spec, alt_spec)
    if _replicate_count(replicates) < 1:
        raise InvalidSpecPairError("need at least one replicate")
    draws = [(null_spec, seed, i) for i in range(replicates)]
    draws += [(alt_spec, seed, replicates + i) for i in range(replicates)]
    rejected = map_replicates(test.rejects, draws, workers)
    r1 = int(sum(rejected[:replicates]))
    a1 = int(sum(rejected[replicates:]))
    type1 = r1 / replicates
    type2 = (replicates - a1) / replicates
    hw1 = proportion_half_width(r1, replicates)
    hw2 = proportion_half_width(replicates - a1, replicates)
    return RiskReport(
        type1_hat=type1,
        type2_hat=type2,
        gamma_hat=type1 + type2,
        type1_half_width=hw1,
        type2_half_width=hw2,
        gamma_half_width=math.hypot(hw1, hw2),
        replicates=int(replicates),
        spec_null=null_spec,
        spec_alt=alt_spec,
    )
