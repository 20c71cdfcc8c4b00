"""Finite-size classifier for the detection boundary.

The theory splits the (N, n, p0, p1) parameter space into cells by subset
size (against N^{2/3}, N^{3/4} or sqrt(N)) and by sparsity (n*p0 against
log(N/n)), and inside each cell states an asymptotic condition of the
form "ratio -> infinity" or "liminf ratio > constant" under which a named
test succeeds.  This module evaluates every such condition as a raw
finite-sample ratio and labels the cell by comparing the decisive ratio
to its constant.  The ratios are always exposed so marginal cells are
visible; nothing here pretends a finite configuration is asymptotic.

All predicate values are continuous in (p0, p1) except at the sparsity
switch n*p0 = log(N/n), where the decisive scan boundary changes between
its moderate-deviation and large-deviation forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kernels import relative_entropy, signal_to_noise

KNOWLEDGE_KNOWN = "known"
KNOWLEDGE_UNKNOWN = "unknown"
_KNOWLEDGE_ALIASES = {
    "known": KNOWLEDGE_KNOWN,
    "known_p0": KNOWLEDGE_KNOWN,
    "knownp0": KNOWLEDGE_KNOWN,
    "unknown": KNOWLEDGE_UNKNOWN,
    "unknown_p0": KNOWLEDGE_UNKNOWN,
    "unknownp0": KNOWLEDGE_UNKNOWN,
}

LABEL_UNDETECTABLE = "Undetectable"
LABEL_SCAN = "ScanRegime"
LABEL_TOTAL_DEGREE = "TotalDegreeRegime"
LABEL_DEGREE_VARIANCE = "DegreeVarianceRegime"
LABEL_RELAXED_SCAN = "RelaxedScanRegime"
LABEL_NO_POLY = "NoPolyTest"

# constant each raw ratio is compared against; a condition "holds" when
# its ratio strictly exceeds the constant
THRESHOLDS = {
    "info_boundary": 1.0,
    "poly_boundary": 1.0,
    "scan_moderate": 1.0,
    "scan_sparse": 1.0,
    "scan_entropy": 1.0,
    "total_degree": 1.0,
    "degree_variance": 1.0,
    "relaxed_scan": 2.0,
    "max_degree": 2.0,
    "densest_subgraph": 1.0,
    "null_clique_count": 1.0,
}


@dataclass(frozen=True)
class RegimeReport:
    """Cell labels plus every raw predicate ratio behind them.

    label is the information-theoretic cell verdict; poly_label the
    polynomial-time cell verdict.  predicates maps ratio names to values
    (None where a form is undefined at these parameters), thresholds to
    the constants they are compared against.  side_values carries the
    finite surrogates for the standing assumptions (n large against
    log N, sparsity not too extreme); side_ok holds their boolean status
    when constraint checking was requested, None entries otherwise.
    """

    label: str
    poly_label: str
    knowledge: str
    snr: float
    predicates: dict
    thresholds: dict
    side_values: dict
    side_ok: dict
    constraints_ok: bool | None
    inputs: dict

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "poly_label": self.poly_label,
            "knowledge": self.knowledge,
            "snr": self.snr,
            "predicates": dict(self.predicates),
            "thresholds": dict(self.thresholds),
            "side_values": dict(self.side_values),
            "side_ok": dict(self.side_ok),
            "constraints_ok": self.constraints_ok,
            "inputs": dict(self.inputs),
        }


def _log_null_clique_count(N: int, n: int, p0: float) -> float:
    n2 = n * (n - 1) // 2
    log_c = (
        math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1)
    )
    return log_c + n2 * math.log(p0)


def classify_regime(
    N: int,
    n: int,
    p0: float,
    p1: float,
    knowledge: str = KNOWLEDGE_KNOWN,
    constraints_check: bool = True,
    side_threshold: float = 0.5,
) -> RegimeReport:
    """Label the parameter cell and report every boundary ratio.

    p0 is the null density when knowledge="known"; under "unknown" it
    plays the role of the off-block density of the fixed-degree model and
    the column split moves from N^{2/3} to N^{3/4}.  side_threshold is
    the (admittedly arbitrary) cutoff for the finite surrogates of the
    standing assumptions: each holds when its smallness ratio is at most
    this value.  Deterministic, no randomness anywhere.
    """
    if not (isinstance(N, int) and isinstance(n, int)):
        raise DomainError("N and n must be integers")
    if N < 3 or not 2 <= n <= N:
        raise DomainError(f"need N >= 3 and 2 <= n <= N, got N={N}, n={n}")
    if not 0.0 < p0 < 1.0:
        raise DomainError(f"p0 must be in (0,1), got {p0}")
    if not p0 <= p1 <= 1.0:
        raise DomainError(f"p1 must be in [p0, 1], got {p1}")
    know = _KNOWLEDGE_ALIASES.get(str(knowledge).lower())
    if know is None:
        raise DomainError(f"knowledge must be known or unknown, got {knowledge!r}")
    if side_threshold <= 0.0:
        raise DomainError("side_threshold must be positive")

    diff = p1 - p0
    snr = signal_to_noise(n, p0, p1)
    log_nn = math.log(N / n)
    np0 = n * p0
    log_n = math.log(N)

    # raw condition ratios; each "holds" when > its THRESHOLDS constant
    predicates: dict = {}
    predicates["total_degree"] = diff / math.sqrt(p0) * n * n / N
    predicates["degree_variance"] = diff * diff / p0 * n**3 / N**1.5
    predicates["relaxed_scan"] = (
        n / math.sqrt(N * log_n) * diff * diff / p0
    )
    predicates["max_degree"] = (
        n * n / (N * log_n) * diff * diff / (p0 * (1.0 - p0))
    )
    predicates["densest_subgraph"] = n * p1 / (N * p0)
    log_cliques = _log_null_clique_count(N, n, p0)
    predicates["null_clique_count"] = (
        math.exp(log_cliques) if log_cliques < 700 else math.inf
    )

    if log_nn > 0.0:
        predicates["scan_entropy"] = (
            n * relative_entropy(p1, p0) / (2.0 * log_nn)
        )
        predicates["scan_moderate"] = snr / (2.0 * math.sqrt(log_nn))
    else:
        predicates["scan_entropy"] = None
        predicates["scan_moderate"] = None
    if 0.0 < np0 < log_nn:
        boundary_sparse = (
            2.0 * log_nn / (math.sqrt(np0) * math.log(log_nn / np0))
        )
        predicates["scan_sparse"] = snr / boundary_sparse
    else:
        predicates["scan_sparse"] = None

    # information-theoretic cell: column by subset size, then the decisive
    # boundary ratio for that column
    dense_cut = N ** (2.0 / 3.0) if know == KNOWLEDGE_KNOWN else N**0.75
    if n >= dense_cut:
        if know == KNOWLEDGE_KNOWN:
            info_ratio = snr / (N / n**1.5)
            info_label = LABEL_TOTAL_DEGREE
        else:
            info_ratio = snr / (N**0.75 / n)
            info_label = LABEL_DEGREE_VARIANCE
    else:
        # the sparse column switches boundary form at n*p0 = log(N/n)
        if np0 >= log_nn:
            info_ratio = predicates["scan_moderate"]
        else:
            info_ratio = predicates["scan_sparse"]
        info_label = LABEL_SCAN
    predicates["info_boundary"] = info_ratio
    label = (
        info_label
        if info_ratio is not None and info_ratio > THRESHOLDS["info_boundary"]
        else LABEL_UNDETECTABLE
    )

    # polynomial-time cell: column split at sqrt(N)
    if n >= math.sqrt(N):
        if know == KNOWLEDGE_KNOWN:
            poly_ratio = snr / (N / n**1.5)
            poly_name = LABEL_TOTAL_DEGREE
        else:
            poly_ratio = snr / (N**0.75 / n)
            poly_name = LABEL_DEGREE_VARIANCE
    else:
        poly_ratio = snr / (2.0 * math.sqrt(N * log_n))
        poly_name = LABEL_RELAXED_SCAN
    predicates["poly_boundary"] = poly_ratio
    if poly_ratio is not None and poly_ratio > THRESHOLDS["poly_boundary"]:
        poly_label = poly_name
    elif label == LABEL_UNDETECTABLE:
        poly_label = LABEL_UNDETECTABLE
    else:
        # detectable in principle, but below every known poly boundary
        poly_label = LABEL_NO_POLY

    # standing assumptions as smallness ratios: each should be well below 1
    side_values: dict = {}
    side_values["size_ratio"] = log_n / n
    if log_nn > 0.0:
        side_values["sparsity_ratio"] = (
            math.log(max(1.0, 1.0 / np0)) / log_nn
        )
    else:
        side_values["sparsity_ratio"] = None
    if constraints_check:
        side_ok = {
            k: (None if v is None else bool(v <= side_threshold))
            for k, v in side_values.items()
        }
        checked = [v for v in side_ok.values() if v is not None]
        constraints_ok = bool(all(checked)) if checked else None
    else:
        side_ok = {k: None for k in side_values}
        constraints_ok = None

    return RegimeReport(
        label=label,
        poly_label=poly_label,
        knowledge=know,
        snr=snr,
        predicates=predicates,
        thresholds=dict(THRESHOLDS),
        side_values=side_values,
        side_ok=side_ok,
        constraints_ok=constraints_ok,
        inputs={"N": N, "n": n, "p0": p0, "p1": p1,
                "side_threshold": side_threshold},
    )
