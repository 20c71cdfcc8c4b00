"""Detector results, the detector registry, and witness re-evaluation."""
from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import InvalidSpecError

__all__ = ["DetectorResult", "DETECTORS", "evaluate", "evaluate_value",
           "get_detector", "witness_value", "register"]


@dataclass(frozen=True)
class DetectorResult:
    """Outcome of one statistic on one graph.

    value is the statistic; witness, when present, is a vertex subset (or a
    single vertex) that attains it and can be re-scored independently; exact
    says whether value is the true optimum or a one-sided bound. lower_bound
    is only set by relaxations that also carry a feasible lower bound.
    """

    detector_id: str
    value: float
    witness: tuple | None
    exact: bool
    lower_bound: float | None = None

    def to_dict(self):
        out = {
            "detector_id": self.detector_id,
            "value": self.value,
            "witness": None if self.witness is None else list(self.witness),
            "exact": self.exact,
        }
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        allowed = {"detector_id", "value", "witness", "exact", "lower_bound"}
        unknown = set(data) - allowed
        if unknown:
            raise InvalidSpecError(f"unknown result keys: {sorted(unknown)}")
        w = data.get("witness")
        return cls(data["detector_id"], float(data["value"]),
                   None if w is None else tuple(w), bool(data["exact"]),
                   data.get("lower_bound"))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


#: detector_id -> callable(graph, **params) -> DetectorResult
DETECTORS = {}
#: detector_id -> callable(graph, **params) -> float, the value alone, for the
#: detectors whose full result costs more than their value
VALUES = {}


def register(detector_id, value=None):
    """Add the decorated function to DETECTORS; value, when given, computes
    its result's value alone and goes into VALUES."""
    def wrap(fn):
        DETECTORS[detector_id] = fn
        if value is not None:
            VALUES[detector_id] = value
        return fn
    return wrap


def get_detector(detector_id):
    """The registered detector callable; InvalidSpecError if unknown."""
    try:
        return DETECTORS[detector_id]
    except KeyError:
        raise InvalidSpecError(
            f"unknown detector {detector_id!r}; known: {sorted(DETECTORS)}"
        ) from None


def evaluate(detector_id, graph, params=None):
    """Run a registered detector by name with keyword params."""
    return _call(detector_id, get_detector(detector_id), graph, params)


def evaluate_value(detector_id, graph, params=None):
    """evaluate(detector_id, graph, params).value, through the detector's
    value-only entry when it has one; for callers that read nothing else."""
    fn = VALUES.get(detector_id)
    if fn is None:
        return evaluate(detector_id, graph, params).value
    return _call(detector_id, fn, graph, params)


def _call(detector_id, fn, graph, params):
    try:
        return fn(graph, **(params or {}))
    except TypeError as exc:
        raise InvalidSpecError(f"bad params for {detector_id}: {exc}") from None


def _check_size(n, N, what):
    """Refuse a size n outside [1, N]; what names the size in the message."""
    if not 1 <= n <= N:
        raise InvalidSpecError(f"{what} {n} outside [1, {N}]")


def _check_mode(mode, modes):
    if mode not in modes:
        raise InvalidSpecError(f"mode must be one of {modes}, got {mode!r}")


def witness_value(graph, result):
    """Re-score a result's witness from scratch; must reproduce result.value.

    Used by tests and by anyone auditing a reported optimum. Results without a
    witness re-score to their own value.
    """
    from . import scan as _scan
    from .spectral import squared_adjacency, support_eig

    if result.witness is None:
        return result.value
    s = tuple(result.witness)
    did = result.detector_id
    if did == "scan":
        return float(graph.subgraph_edges(s))
    if did == "glr":
        return _scan.glr_objective(graph, len(s), graph.subgraph_edges(s))
    if did == "max_degree":
        return float(graph.degree(s[0]))
    if did == "clique_number":
        k = len(s)
        if graph.subgraph_edges(s) != k * (k - 1) // 2:
            raise AssertionError(f"witness {s} is not a clique")
        return float(k)
    if did in ("densest_subgraph", "densest_at_least"):
        return graph.subgraph_edges(s) / len(s)
    if did == "sparse_eig":
        return support_eig(squared_adjacency(graph), s)
    raise InvalidSpecError(f"no witness evaluator for {did!r}")
