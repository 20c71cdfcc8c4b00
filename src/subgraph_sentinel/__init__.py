"""Detection of a dense planted subgraph in a homogeneous random graph.

The package is organized as a small numpy/scipy library:

* :mod:`subgraph_sentinel.graph` — bit-packed immutable graphs and edge-list I/O
* :mod:`subgraph_sentinel.models` — null and planted samplers on seeded streams
* :mod:`subgraph_sentinel.kernels` — entropy, tilting, and exact binomial tails
* :mod:`subgraph_sentinel.detectors` — test statistics, exact and relaxed
* :mod:`subgraph_sentinel.replicates` — one map of a statistic over seeded streams
* :mod:`subgraph_sentinel.calibration` / :mod:`~subgraph_sentinel.risk` —
  Monte Carlo thresholds and worst-case risk experiments
* :mod:`subgraph_sentinel.oracle` — the exact likelihood-ratio benchmark
* :mod:`subgraph_sentinel.regimes` — finite-size readout of the theory's map
* :mod:`subgraph_sentinel.sweep` — checkpointed phase-diagram sweeps
* :mod:`subgraph_sentinel.cli` — the ``subgraph-sentinel`` command
"""

from .calibration import (
    CalibratedTest,
    analytic_calibrate,
    bonferroni_combine,
    bootstrap_calibrate,
    calibrate,
    estimate_p0_hat,
)
from .graph import Graph, format_graph, read_graph, write_graph
from .models import ModelSpec, effective_p0, pair_count, sample, \
    sample_with_witness, stream_rng
from .oracle import LikelihoodRatioTest, lr_oracle_risk, lr_statistic
from .regimes import RegimeReport, classify_regime
from .risk import RiskReport, estimate_risk
from .sweep import phase_sweep, risk_row, rows_to_csv, run_cell

__all__ = [
    "Graph", "format_graph", "read_graph", "write_graph",
    "ModelSpec", "effective_p0", "pair_count", "sample", "sample_with_witness",
    "stream_rng",
    "CalibratedTest", "calibrate", "bootstrap_calibrate", "analytic_calibrate",
    "bonferroni_combine", "estimate_p0_hat",
    "RiskReport", "estimate_risk",
    "LikelihoodRatioTest", "lr_statistic", "lr_oracle_risk",
    "RegimeReport", "classify_regime",
    "phase_sweep", "risk_row", "run_cell", "rows_to_csv",
]

__version__ = "0.1.0"
