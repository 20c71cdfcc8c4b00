"""Command-line surface.

One binary, six subcommands: sample graphs, evaluate a detector on a
graph file, calibrate a test, estimate risk for a parameter cell, run a
phase sweep over a grid, and classify a parameter point against the
theoretical boundary.

Conventions shared by every subcommand:

* ``--config FILE`` loads a JSON object of option values; explicit flags
  override it.  The fully resolved configuration is logged next to the
  output (a ``<out>.config.json`` sidecar when writing files, a stderr
  line otherwise).
* All randomness flows from ``--seed``; reruns with the same resolved
  config are byte-identical except for runtime (seconds) fields.
* Results go to standard output or ``--out``; progress goes to stderr.
* Exit codes: 0 success, 2 config error, 3 I/O error, 4 detector or
  domain error, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .calibration import analytic_calibrate, bootstrap_calibrate, calibrate
from .detectors.base import DETECTORS, evaluate
from .errors import (
    BudgetExceededError,
    DegenerateGraphError,
    DomainError,
    GraphParseError,
    InvalidSpecError,
    SelfLoopError,
    SentinelError,
    TimeBudgetExceededError,
)
from .graph import format_graph, read_graph
from .models import ModelSpec, sample_with_witness
from .regimes import classify_regime
from .sweep import phase_sweep, risk_row, rows_to_csv, rows_to_json_lines

PROG = "subgraph-sentinel"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DETECTOR = 4
EXIT_BUDGET = 5


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (BudgetExceededError, TimeBudgetExceededError)):
        return EXIT_BUDGET
    if isinstance(
        exc,
        (DomainError, DegenerateGraphError, SelfLoopError),
    ):
        return EXIT_DETECTOR
    if isinstance(exc, GraphParseError):
        return EXIT_IO
    if isinstance(exc, SentinelError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_CONFIG


def resolve_workers(value):
    """--workers flag, then the environment, then available parallelism."""
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("SUBGRAPH_SENTINEL_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidSpecError(
                f"SUBGRAPH_SENTINEL_WORKERS={env!r} is not an integer"
            ) from exc
    return os.cpu_count() or 1


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError:
        raise
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidSpecError("config file must hold a JSON object")
    return cfg


def resolve_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    provided = {
        k: v for k, v in vars(args).items() if k not in ("command", "config")
    }
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        cfg = _load_config_file(config_path)
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise InvalidSpecError(
                f"config file has unknown keys {sorted(unknown)}"
            )
        resolved.update(cfg)
    resolved.update(provided)
    return resolved


def _require(resolved: dict, *names: str) -> None:
    missing = [n for n in names if resolved.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidSpecError(f"missing required option(s): {flags}")


def log_resolved(resolved: dict, out_path) -> None:
    body = json.dumps(resolved, sort_keys=True, indent=2, default=str)
    if out_path:
        with open(str(out_path) + ".config.json", "w",
                  encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(f"resolved config: {json.dumps(resolved, sort_keys=True, default=str)}",
              file=sys.stderr)


def emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    # JSON has no Infinity/NaN literals; fall back to strings for those
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- sample

_SAMPLE_DEFAULTS = {
    "model": "null", "N": None, "n": None, "p0": None, "p1": None,
    "seed": 0, "stream_index": 0, "out": None,
}


def cmd_sample(resolved: dict) -> int:
    _require(resolved, "N", "p0")
    model = resolved["model"]
    if model == "null":
        spec = ModelSpec.null(int(resolved["N"]), float(resolved["p0"]))
    elif model in ("planted", "fixed_degree"):
        _require(resolved, "n", "p1")
        maker = (ModelSpec.planted if model == "planted"
                 else ModelSpec.planted_fixed_degree)
        spec = maker(int(resolved["N"]), float(resolved["p0"]),
                     float(resolved["p1"]), int(resolved["n"]))
    else:
        raise InvalidSpecError(f"unknown model {model!r}")
    if model != "null" and not resolved["out"]:
        raise InvalidSpecError(
            "--out is required for planted models (the witness needs a "
            "sidecar file)"
        )
    graph, witness = sample_with_witness(
        spec, int(resolved["seed"]), int(resolved["stream_index"])
    )
    log_resolved(resolved, resolved["out"])
    emit(format_graph(graph), resolved["out"])
    if witness is not None:
        with open(str(resolved["out"]) + ".witness", "w",
                  encoding="ascii") as fh:
            fh.write("".join(f"{i}\n" for i in witness))
    return EXIT_OK


# ------------------------------------------------------------------ stat

_STAT_DEFAULTS = {
    "graph": None, "detector": None, "n": None, "mode": None,
    "time_budget": None, "out": None,
}


def cmd_stat(resolved: dict) -> int:
    _require(resolved, "graph", "detector")
    detector = resolved["detector"]
    if detector not in DETECTORS:
        raise InvalidSpecError(
            f"unknown detector {detector!r}; choose from "
            f"{sorted(DETECTORS)}"
        )
    graph = read_graph(resolved["graph"])
    params = {}
    if resolved["n"] is not None:
        params["n"] = int(resolved["n"])
    if resolved["mode"] is not None:
        params["mode"] = resolved["mode"]
    if resolved["time_budget"] is not None:
        params["time_budget"] = float(resolved["time_budget"])
    try:
        result = evaluate(detector, graph, params)
    except SentinelError as exc:
        emit(_json_text({"error": type(exc).__name__, "message": str(exc)}),
             resolved["out"])
        return exit_code_for(exc)
    log_resolved(resolved, resolved["out"])
    emit(_json_text(result.to_dict()), resolved["out"])
    return EXIT_OK


# ------------------------------------------------------------- calibrate

_CALIBRATE_DEFAULTS = {
    "detector": None, "n": None, "mode": None, "method": "monte_carlo",
    "N": None, "p0": None, "graph": None, "alpha": 0.05,
    "replicates": 999, "seed": 0, "workers": None, "out": None,
}


def _detector_params(resolved: dict) -> dict:
    params = {}
    if resolved.get("n") is not None:
        params["n"] = int(resolved["n"])
    if resolved.get("mode") is not None:
        params["mode"] = resolved["mode"]
    return params


def cmd_calibrate(resolved: dict) -> int:
    _require(resolved, "detector")
    method = resolved["method"]
    alpha = float(resolved["alpha"])
    params = _detector_params(resolved)
    if method == "monte_carlo":
        _require(resolved, "N", "p0")
        spec = ModelSpec.null(int(resolved["N"]), float(resolved["p0"]))
        test = calibrate(
            resolved["detector"], params, spec, alpha,
            int(resolved["replicates"]), int(resolved["seed"]),
            resolve_workers(resolved["workers"]),
        )
    elif method == "bootstrap":
        _require(resolved, "graph")
        observed = read_graph(resolved["graph"])
        test = bootstrap_calibrate(
            resolved["detector"], params, observed, alpha,
            int(resolved["replicates"]), int(resolved["seed"]),
            resolve_workers(resolved["workers"]),
        )
    elif method == "analytic":
        _require(resolved, "N", "p0")
        if resolved["detector"] != "total_degree":
            raise InvalidSpecError(
                "analytic calibration exists only for total_degree"
            )
        spec = ModelSpec.null(int(resolved["N"]), float(resolved["p0"]))
        test = analytic_calibrate(spec, alpha)
    else:
        raise InvalidSpecError(f"unknown method {method!r}")
    log_resolved(resolved, resolved["out"])
    emit(_json_text(test.to_dict()), resolved["out"])
    return EXIT_OK


# ------------------------------------------------------------------ risk

_RISK_DEFAULTS = {
    "detector": None, "model": "planted", "N": None, "n": None,
    "p0": None, "p1": None, "alpha": 0.05, "replicates": 200,
    "seed": 0, "workers": None, "out": None,
}


def cmd_risk(resolved: dict) -> int:
    _require(resolved, "detector", "N", "n", "p0", "p1")
    ids = [d.strip() for d in str(resolved["detector"]).split("+") if d.strip()]
    unknown = [d for d in ids if d not in DETECTORS]
    if unknown:
        raise InvalidSpecError(f"unknown detector(s) {unknown}")
    # unlike phase rows, failures here surface as exit codes, not error rows
    row = risk_row(
        {"N": int(resolved["N"]), "n": int(resolved["n"]),
         "p0": float(resolved["p0"]), "p1": float(resolved["p1"]),
         "model": resolved["model"]},
        "+".join(ids), float(resolved["alpha"]), int(resolved["replicates"]),
        int(resolved["seed"]), resolve_workers(resolved["workers"]),
    )
    log_resolved(resolved, resolved["out"])
    emit(rows_to_csv([row]), resolved["out"])
    return EXIT_OK


# ----------------------------------------------------------------- phase

_PHASE_DEFAULTS = {
    "cells": None, "detectors": None, "alpha": 0.05, "replicates": 200,
    "seed": 0, "workers": None, "out": None, "resume": None,
    "jsonl": None,
}


def cmd_phase(resolved: dict) -> int:
    _require(resolved, "cells", "detectors")
    cells = resolved["cells"]
    dets = resolved["detectors"]
    if isinstance(dets, str):
        dets = [d.strip() for d in dets.split(",") if d.strip()]
    if not isinstance(cells, list):
        raise InvalidSpecError(
            "cells must be a list of cell objects (use --config)"
        )
    unknown = [d for d in dets if d not in DETECTORS]
    if unknown:
        raise InvalidSpecError(f"unknown detector(s) {unknown}")
    checkpoint = None
    if resolved["resume"]:
        os.makedirs(resolved["resume"], exist_ok=True)
        checkpoint = os.path.join(resolved["resume"], "checkpoint.jsonl")

    def progress(row):
        tag = row["error"] or f"gamma={row['gamma']:.4f}"
        print(
            f"cell N={row['N']} n={row['n']} p0={row['p0']} p1={row['p1']} "
            f"{row['detector']}: {tag} ({row['seconds']:.2f}s)",
            file=sys.stderr,
        )

    rows = phase_sweep(
        cells, dets, float(resolved["alpha"]), int(resolved["replicates"]),
        int(resolved["seed"]), checkpoint_path=checkpoint,
        workers=resolve_workers(resolved["workers"]), progress=progress,
    )
    log_resolved(resolved, resolved["out"])
    emit(rows_to_csv(rows), resolved["out"])
    if resolved["jsonl"]:
        with open(resolved["jsonl"], "w", encoding="utf-8") as fh:
            fh.write(rows_to_json_lines(rows))
    return EXIT_OK


# -------------------------------------------------------------- classify

_CLASSIFY_DEFAULTS = {
    "N": None, "n": None, "p0": None, "p1": None, "knowledge": "known",
    "constraints_check": True, "side_threshold": 0.5, "out": None,
}


def cmd_classify(resolved: dict) -> int:
    _require(resolved, "N", "n", "p0", "p1")
    report = classify_regime(
        int(resolved["N"]), int(resolved["n"]), float(resolved["p0"]),
        float(resolved["p1"]), knowledge=resolved["knowledge"],
        constraints_check=bool(resolved["constraints_check"]),
        side_threshold=float(resolved["side_threshold"]),
    )
    log_resolved(resolved, resolved["out"])
    emit(_json_text(report.to_dict()), resolved["out"])
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_common(sp):
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file of option values; flags override it")
    sp.add_argument("--out", metavar="PATH",
                    help="write the primary output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Detect a planted dense subgraph in a random graph: sampling, "
            "test statistics, calibration, risk experiments, phase sweeps "
            "and boundary classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    detector_ids = ", ".join(sorted(DETECTORS))

    sp = sub.add_parser(
        "sample", help="draw a graph from a model and write its edge list",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--model", choices=["null", "planted", "fixed_degree"],
                    help="graph model (default null)")
    sp.add_argument("--N", type=int, help="number of nodes")
    sp.add_argument("--n", type=int, help="planted subset size")
    sp.add_argument("--p0", type=float, help="ambient edge probability")
    sp.add_argument("--p1", type=float, help="within-subset edge probability")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--stream-index", type=int, dest="stream_index",
                    help="replicate stream to draw (default 0)")

    sp = sub.add_parser(
        "stat", help="evaluate one detector statistic on a graph file",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--graph", metavar="FILE", help="edge-list file to read")
    sp.add_argument("--detector", help=f"one of: {detector_ids}")
    sp.add_argument("--n", type=int, help="subset size for sized detectors")
    sp.add_argument("--mode", help="algorithm mode where the detector has one"
                    " (e.g. exact, branch_bound, greedy, exact_flow, peel)")
    sp.add_argument("--time-budget", type=float, dest="time_budget",
                    help="time budget in seconds for clique_number")

    sp = sub.add_parser(
        "calibrate", help="compute a rejection threshold for a detector",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--detector", help=f"one of: {detector_ids}")
    sp.add_argument("--method", choices=["monte_carlo", "bootstrap",
                                         "analytic"],
                    help="calibration route (default monte_carlo)")
    sp.add_argument("--N", type=int, help="null model size (monte_carlo/analytic)")
    sp.add_argument("--p0", type=float, help="null edge probability")
    sp.add_argument("--graph", metavar="FILE",
                    help="observed graph for bootstrap calibration")
    sp.add_argument("--n", type=int, help="subset size for sized detectors")
    sp.add_argument("--mode", help="algorithm mode for the detector")
    sp.add_argument("--alpha", type=float, help="nominal level (default 0.05)")
    sp.add_argument("--replicates", type=int,
                    help="Monte Carlo replicates (default 999)")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--workers", type=int, help="parallel workers")

    sp = sub.add_parser(
        "risk", help="estimate worst-case risk for one parameter cell",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--detector",
                    help=f"detector id, or ids joined with + for a "
                         f"Bonferroni combination; ids: {detector_ids}")
    sp.add_argument("--model", choices=["planted", "fixed_degree"],
                    help="alternative model (default planted)")
    sp.add_argument("--N", type=int, help="number of nodes")
    sp.add_argument("--n", type=int, help="planted subset size")
    sp.add_argument("--p0", type=float, help="ambient edge probability")
    sp.add_argument("--p1", type=float, help="within-subset edge probability")
    sp.add_argument("--alpha", type=float, help="nominal level (default 0.05)")
    sp.add_argument("--replicates", type=int,
                    help="replicates per hypothesis (default 200)")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--workers", type=int, help="parallel workers")

    sp = sub.add_parser(
        "phase", help="sweep a grid of cells x detectors and emit a CSV table",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--detectors",
                    help="comma-separated detector ids (or set in --config)")
    sp.add_argument("--alpha", type=float, help="nominal level (default 0.05)")
    sp.add_argument("--replicates", type=int,
                    help="replicates per hypothesis (default 200)")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--workers", type=int, help="parallel workers")
    sp.add_argument("--resume", metavar="DIR",
                    help="checkpoint directory; finished rows are reused")
    sp.add_argument("--jsonl", metavar="FILE",
                    help="also write rows as JSON lines to this file")

    sp = sub.add_parser(
        "classify", help="label a parameter point against the theory tables",
        argument_default=argparse.SUPPRESS,
    )
    _add_common(sp)
    sp.add_argument("--N", type=int, help="number of nodes")
    sp.add_argument("--n", type=int, help="planted subset size")
    sp.add_argument("--p0", type=float,
                    help="null density (known) or off-block density (unknown)")
    sp.add_argument("--p1", type=float, help="within-subset edge probability")
    sp.add_argument("--knowledge", choices=["known", "unknown"],
                    help="whether the null density is known (default known)")
    sp.add_argument("--constraints-check", dest="constraints_check",
                    action=argparse.BooleanOptionalAction,
                    help="evaluate finite-size side conditions (default on)")
    sp.add_argument("--side-threshold", type=float, dest="side_threshold",
                    help="cutoff for side-condition ratios (default 0.5)")
    return parser


_COMMANDS = {
    "sample": (cmd_sample, _SAMPLE_DEFAULTS),
    "stat": (cmd_stat, _STAT_DEFAULTS),
    "calibrate": (cmd_calibrate, _CALIBRATE_DEFAULTS),
    "risk": (cmd_risk, _RISK_DEFAULTS),
    "phase": (cmd_phase, _PHASE_DEFAULTS),
    "classify": (cmd_classify, _CLASSIFY_DEFAULTS),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner, defaults = _COMMANDS[args.command]
    try:
        resolved = resolve_options(args, defaults)
        return runner(resolved)
    except BrokenPipeError:
        return EXIT_IO
    except (SentinelError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
