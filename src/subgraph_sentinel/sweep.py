"""Phase-diagram sweeps: calibrate and measure risk over a parameter grid.

Each grid cell is a parameter tuple (N, n, p0, p1, model); crossing the
cells with a detector list yields one risk row per pair.  risk_row alone
turns a cell into a row, checking in one order (detector ids, cell
fields, models, regime) before it draws; run_cell records what it raises
as the row's error, so a sweep row fails as `risk` does on that cell.
Rows are checkpointed as JSON lines keyed by (cell hash, detector, seed,
alpha, replicates), so an interrupted sweep resumes without redoing
finished work and the final table is identical to an uninterrupted run;
an error row, or a line in another row format, is recomputed.
Replicate-level randomness is tied to stream indices, never to workers
or scheduling, so the numbers are reproducible at any parallelism; only
the seconds column reflects the wall clock of the run that made the row.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time

from .calibration import bonferroni_combine, calibrate, check_level
from .detectors.base import get_detector
from .errors import InvalidSpecError, SentinelError
from .models import ModelSpec, _count, _real
from .regimes import classify_regime
from .risk import estimate_risk

CSV_HEADER = (
    "N,n,p0,p1,model,detector,alpha,replicates,"
    "type1,type2,gamma,ci_half,regime,seconds"
)

# a cell's model: the constructor of its alternative, and the knowledge of
# the null density that its regime is classified under
MODELS = {
    "planted": (ModelSpec.planted, "known"),
    "fixed_degree": (ModelSpec.planted_fixed_degree, "unknown"),
}

# the detectors whose statistic takes the subset size n, with their other params
_SIZED_PARAMS = {"scan": {"mode": "branch_bound"}, "glr": {}, "relaxed_scan": {},
                 "sparse_eig": {}, "densest_at_least": {}}


def default_params(detector_id: str, n: int) -> dict:
    extra = _SIZED_PARAMS.get(detector_id)
    return {} if extra is None else {"n": int(n), **extra}


def normalize_cell(cell: dict) -> dict:
    """Canonical cell dict with validated fields and fixed key order."""
    if not isinstance(cell, dict):
        raise InvalidSpecError(f"a cell must be an object, got {cell!r}")
    required = {"N", "n", "p0", "p1"}
    allowed = required | {"model"}
    extra = set(cell) - allowed
    if extra:
        raise InvalidSpecError(f"unknown cell keys {sorted(extra)}")
    missing = required - set(cell)
    if missing:
        raise InvalidSpecError(f"cell is missing keys {sorted(missing)}")
    model = cell.get("model", "planted")
    if not (isinstance(model, str) and model in MODELS):
        raise InvalidSpecError(f"unknown cell model {model!r}")
    fields = {}  # N and n are counts that must also be reals
    for key in ("N", "n", "p0", "p1"):
        value = cell[key]
        fields[key] = _real(value, f"cell {key} must be a number, got {value!r}")
        if key in ("N", "n"):
            fields[key] = _count(value, f"cell {key} must be an integer, got {value!r}")
    return {**fields, "model": model}


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
    make_alt, _ = MODELS[cell["model"]]
    alt = make_alt(cell["N"], cell["p0"], cell["p1"], cell["n"],
                   planted_set=range(cell["n"]))  # lazy: n is checked first
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


# the fields every row has; a checkpoint row with any other set was written in
# another row format and is recomputed, not reused
_ROW_FIELDS = frozenset(_row(normalize_cell({"N": 1, "n": 1, "p0": 0.0,
                                             "p1": 0.0}), "", 0.0, 0, 0))


def _regime(cell: dict) -> str:
    _, knowledge = MODELS[cell["model"]]
    return classify_regime(cell["N"], cell["n"], cell["p0"], cell["p1"],
                           knowledge=knowledge).label


def _detector_ids(detector: str) -> list:
    """The ids of one detector or of a "+"-joined combination, each checked."""
    ids = detector.split("+")
    for d in ids:
        get_detector(d)
    return ids


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
    failure raises, in this order: an unknown id, a malformed cell, a
    cell its models refuse, a cell with no regime, and only then what
    calibration and the draws raise, so a refused cell starts no pool.
    """
    start = time.perf_counter()
    ids = _detector_ids(detector)
    cell = normalize_cell(cell)
    key = cell_hash(cell)
    null_spec, alt_spec = cell_specs(cell)
    regime = _regime(cell)
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
        ci_half=risk.gamma_half_width, regime=regime,
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
    """risk_row, with what it raises written to the row's error field.

    A sweep thus covers what it can and reports the rest, each failure
    with the error `risk` exits with on that cell.  A malformed cell
    still raises.  An error row carries the regime when the cell has one.
    """
    cell = normalize_cell(cell)
    start = time.perf_counter()
    try:
        return risk_row(cell, detector_id, alpha, replicates, seed, workers)
    except SentinelError as exc:
        error = f"{type(exc).__name__}: {exc}"
    try:
        regime = _regime(cell)
    except SentinelError:
        regime = None
    return _row(cell, detector_id, alpha, replicates, seed, regime=regime,
                error=error, seconds=time.perf_counter() - start)


def _load_checkpoint(path) -> dict:
    # finished rows by key, skipping a line torn by a kill, a row in another
    # format, an error row (to retry) and a row whose key fields do not hash
    done = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return done
    for line in lines:
        try:
            row = json.loads(line)
            if (isinstance(row, dict) and row.keys() == _ROW_FIELDS
                    and row["error"] is None):
                done[(row["cell_hash"], row["detector"], row["seed"],
                      row["alpha"], row["replicates"])] = row
        except (json.JSONDecodeError, TypeError):
            continue
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
    produced.  With checkpoint_path set, rows are appended to that file
    as they complete; on resume a finished row is reused verbatim and an
    error row is recomputed.  An unknown detector id, then a bad grid,
    alpha or replicate count, raises before the first cell; a failure
    inside a cell becomes that row's error field.
    """
    detectors = list(detectors)
    for det in detectors:
        _detector_ids(det)
    cells = [normalize_cell(c) for c in grid]
    if not cells:
        raise InvalidSpecError("grid must contain at least one cell")
    if not detectors:
        raise InvalidSpecError("need at least one detector")
    check_level(alpha, replicates)
    done = _load_checkpoint(checkpoint_path) if checkpoint_path else {}
    rows = []
    with (open(checkpoint_path, "a", encoding="utf-8") if checkpoint_path
          else contextlib.nullcontext()) as sink:
        for cell in cells:
            key = cell_hash(cell)
            for det in detectors:
                row = done.get((key, det, int(seed), float(alpha),
                                int(replicates)))
                if row is None:
                    row = run_cell(cell, det, alpha, replicates, seed,
                                   workers)
                    if sink is not None:
                        sink.write(rows_to_json_lines([row]))
                        sink.flush()
                    if progress is not None:
                        progress(row)
                rows.append(row)
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
    body = [",".join(_csv_cell(row.get(k)) for k in names) for row in rows]
    return "\n".join([CSV_HEADER, *body]) + "\n"


def rows_to_json_lines(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
