"""Phase-diagram sweeps: calibrate and measure risk over a parameter grid.

Each grid cell is a parameter tuple (N, n, p0, p1, model); crossing the
cells with a detector list yields one risk row per pair.  Rows are
checkpointed as JSON lines keyed by (cell hash, detector, seed, alpha,
replicates), so an interrupted sweep resumes without redoing finished
work and the final table is identical to an uninterrupted run.
Replicate-level randomness is tied to stream indices, never to workers
or scheduling, so the numbers are reproducible at any parallelism; only
the seconds column reflects the wall clock of whichever run produced
the row.
"""

from __future__ import annotations

import hashlib
import json
import time

from .calibration import bonferroni_combine, calibrate
from .errors import InvalidSpecError, SentinelError
from .models import ModelSpec
from .regimes import classify_regime
from .risk import estimate_risk

CSV_HEADER = (
    "N,n,p0,p1,model,detector,alpha,replicates,"
    "type1,type2,gamma,ci_half,regime,seconds"
)

MODEL_PLANTED = "planted"
MODEL_FIXED_DEGREE = "fixed_degree"

# detectors whose statistic is parameterized by the subset size
_SIZED_PARAMS = {
    "scan": lambda n: {"n": n, "mode": "branch_bound"},
    "glr": lambda n: {"n": n},
    "relaxed_scan": lambda n: {"n": n},
    "sparse_eig": lambda n: {"n": n},
    "densest_at_least": lambda n: {"n": n},
}


def default_params(detector_id: str, n: int) -> dict:
    maker = _SIZED_PARAMS.get(detector_id)
    return maker(int(n)) if maker else {}


def normalize_cell(cell: dict) -> dict:
    """Canonical cell dict with validated fields and fixed key order."""
    required = {"N", "n", "p0", "p1"}
    allowed = required | {"model"}
    extra = set(cell) - allowed
    if extra:
        raise InvalidSpecError(f"unknown cell keys {sorted(extra)}")
    missing = required - set(cell)
    if missing:
        raise InvalidSpecError(f"cell is missing keys {sorted(missing)}")
    model = cell.get("model", MODEL_PLANTED)
    if model not in (MODEL_PLANTED, MODEL_FIXED_DEGREE):
        raise InvalidSpecError(f"unknown cell model {model!r}")
    return {
        "N": int(cell["N"]),
        "n": int(cell["n"]),
        "p0": float(cell["p0"]),
        "p1": float(cell["p1"]),
        "model": model,
    }


def cell_hash(cell: dict) -> str:
    blob = json.dumps(normalize_cell(cell), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.blake2s(blob.encode(), digest_size=8).hexdigest()


def _derive_seed(master_seed: int, *parts: str) -> int:
    blob = "|".join([str(int(master_seed)), *parts]).encode()
    return int.from_bytes(
        hashlib.blake2s(blob, digest_size=8).digest(), "big"
    ) >> 1


def cell_specs(cell: dict):
    """(null_spec, alt_spec) for a normalized cell.

    The planted model keeps the caller's p0 as the ambient density; the
    fixed-degree model reads p0 as the off-block density and tests
    against the matching-edge-count null.  The alternative uses the
    fixed prefix planted set, which by node exchangeability has the same
    rejection probability as any other set of that size.
    """
    witness = tuple(range(cell["n"]))
    if cell["model"] == MODEL_PLANTED:
        alt = ModelSpec.planted(cell["N"], cell["p0"], cell["p1"],
                                cell["n"], planted_set=witness)
    else:
        alt = ModelSpec.planted_fixed_degree(cell["N"], cell["p0"],
                                             cell["p1"], cell["n"],
                                             planted_set=witness)
    return alt.matched_null(), alt


def _row(cell, detector, alpha, replicates, seed, **fields) -> dict:
    """A row of a normalized cell; result fields left out stay None."""
    return {
        **cell, "detector": detector,
        "alpha": float(alpha), "replicates": int(replicates),
        "type1": None, "type2": None, "gamma": None, "ci_half": None,
        "regime": None, "seconds": None, "error": None,
        "cell_hash": cell_hash(cell), "seed": int(seed), **fields,
    }


def _regime(cell: dict) -> str:
    knowledge = "known" if cell["model"] == MODEL_PLANTED else "unknown"
    return classify_regime(cell["N"], cell["n"], cell["p0"], cell["p1"],
                           knowledge=knowledge).label


def risk_row(
    cell: dict,
    detector: str,
    alpha: float,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> dict:
    """One risk row: calibrate on the cell's null, then estimate risk.

    ``detector`` is one id, or k ids joined with "+" for a Bonferroni
    combination whose components are each calibrated at alpha/k.  Any
    failure raises; run_cell turns it into an error row instead.
    """
    start = time.perf_counter()
    cell = normalize_cell(cell)
    key = cell_hash(cell)
    null_spec, alt_spec = cell_specs(cell)
    ids = detector.split("+")
    tests = [
        calibrate(d, default_params(d, cell["n"]), null_spec,
                  alpha / len(ids), replicates,
                  _derive_seed(seed, key, d, "cal"), workers)
        for d in ids
    ]
    test = tests[0] if len(tests) == 1 else bonferroni_combine(tests)
    risk = estimate_risk(
        test, null_spec, alt_spec, replicates,
        _derive_seed(seed, key, detector, "risk"), workers,
    )
    return _row(
        cell, detector, alpha, replicates, seed,
        type1=risk.type1_hat, type2=risk.type2_hat, gamma=risk.gamma_hat,
        ci_half=risk.gamma_half_width, regime=_regime(cell),
        seconds=time.perf_counter() - start,
    )


def run_cell(
    cell: dict,
    detector_id: str,
    alpha: float,
    replicates: int,
    seed: int,
    workers: int | None = None,
) -> dict:
    """risk_row, with failures written to the row's error field.

    A sweep thus covers what it can and reports the rest.  The regime is
    classified first, so a row that fails later still carries it.
    """
    cell = normalize_cell(cell)
    row = _row(cell, detector_id, alpha, replicates, seed)
    start = time.perf_counter()
    try:
        row["regime"] = _regime(cell)
        row = risk_row(cell, detector_id, alpha, replicates, seed, workers)
    except SentinelError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["seconds"] = time.perf_counter() - start
    return row


def _load_checkpoint(path) -> dict:
    done = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a kill can truncate the final line
                try:
                    done[(row["cell_hash"], row["detector"], row["seed"],
                          row["alpha"], row["replicates"])] = row
                except (KeyError, TypeError):
                    continue
    except FileNotFoundError:
        pass
    return done


def phase_sweep(
    grid,
    detectors,
    alpha: float,
    replicates: int,
    seed: int,
    checkpoint_path=None,
    workers: int | None = None,
    progress=None,
) -> list[dict]:
    """Risk rows for every (cell, detector) pair of the grid.

    Rows come back in grid-by-detector order regardless of how they were
    produced.  With checkpoint_path set, finished rows are appended to
    that file as they complete and are reused verbatim on resume.
    """
    cells = [normalize_cell(c) for c in grid]
    if not cells:
        raise InvalidSpecError("grid must contain at least one cell")
    detectors = list(detectors)
    if not detectors:
        raise InvalidSpecError("need at least one detector")
    done = _load_checkpoint(checkpoint_path) if checkpoint_path else {}
    sink = None
    if checkpoint_path:
        sink = open(checkpoint_path, "a", encoding="utf-8")
    rows = []
    try:
        for cell in cells:
            key = cell_hash(cell)
            for det in detectors:
                found = done.get((key, det, int(seed), float(alpha),
                                  int(replicates)))
                if found is not None:
                    rows.append(found)
                    continue
                row = run_cell(cell, det, alpha, replicates, seed, workers)
                rows.append(row)
                if sink is not None:
                    sink.write(json.dumps(row, sort_keys=True) + "\n")
                    sink.flush()
                if progress is not None:
                    progress(row)
    finally:
        if sink is not None:
            sink.close()
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def rows_to_csv(rows) -> str:
    """Fixed-header CSV; error rows leave their unavailable fields empty."""
    names = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(name)) for name in names))
    return "\n".join(lines) + "\n"


def rows_to_json_lines(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
