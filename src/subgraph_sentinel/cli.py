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
* Exit codes: 0 success, 2 config error (a run too large for memory
  included), 3 I/O error, 4 detector or domain error, 5 budget exceeded.

Every option is declared once, in the ``_COMMANDS`` table; the parser,
the help defaults, the resolved defaults and the config checks follow it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from .calibration import analytic_calibrate, bootstrap_calibrate, calibrate
from .detectors.base import DETECTORS, evaluate, get_detector
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
from .models import ModelSpec, _count, _real, sample_with_witness
from .regimes import classify_regime
from .sweep import (MODELS, phase_sweep, risk_row, rows_to_csv,
                    rows_to_json_lines)

PROG = "subgraph-sentinel"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DETECTOR = 4
EXIT_BUDGET = 5
_MAX_WORKERS = 8192  # Linux's largest CPU count (NR_CPUS): no core count is refused


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (BudgetExceededError, TimeBudgetExceededError)):
        return EXIT_BUDGET
    if isinstance(exc, (DomainError, DegenerateGraphError, SelfLoopError)):
        return EXIT_DETECTOR
    if isinstance(exc, GraphParseError):
        return EXIT_IO
    if isinstance(exc, SentinelError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_CONFIG


def resolve_workers(value):
    """--workers flag, then the environment, then available parallelism.
    A count below 1 or above 8192 is refused, wherever it comes from."""
    source = "workers"
    if value is None:
        source = "SUBGRAPH_SENTINEL_WORKERS"
        env = os.environ.get(source)
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError as exc:
            raise InvalidSpecError(f"{source}={env!r} is not an integer") from exc
    return _count(value, f"{source} must be at least 1, got {value}", 1, _MAX_WORKERS,
                  above=f"{source} must be at most {_MAX_WORKERS}, got {value}")


# --------------------------------------------------------------- options

CONFIG_ONLY = "config file only"


class Option(NamedTuple):
    """One command option.

    ``kind`` is int, float or bool; a list of the allowed strings; a
    metavar string for a free-form string; or CONFIG_ONLY for a value
    that only a config file can set.  A default other than None is shown
    in the help text.
    """

    name: str
    kind: object
    default: object = None
    help: str = ""


_CONFIG = Option("config", "FILE", None,
                 "JSON file of option values; flags override it")
_OUT = Option("out", "PATH", None, "write the primary output here instead of stdout")
_NODES = Option("N", int, None, "number of nodes")
_SIZE = Option("n", int, None, "planted subset size")
_P0 = Option("p0", float, None, "ambient edge probability")
_P1 = Option("p1", float, None, "within-subset edge probability")
_ALPHA = Option("alpha", float, 0.05, "nominal level")
_REPLICATES = Option("replicates", int, 200, "replicates per hypothesis")
_SEED = Option("seed", int, 0, "master seed")
_WORKERS = Option("workers", int, None, "parallel workers")
_DETECTOR_IDS = ", ".join(sorted(DETECTORS))
_DETECTOR = Option("detector", "DETECTOR", None, f"one of: {_DETECTOR_IDS}")
_DETECTOR_SIZE = _SIZE._replace(help="subset size for sized detectors")


def _help(opt: Option) -> str:
    if opt.default is None:
        return opt.help
    shown = "on" if opt.default is True else opt.default
    return f"{opt.help} (default {shown})"


def _argparse_kind(kind) -> dict:
    if kind is bool:
        return {"action": argparse.BooleanOptionalAction}
    if kind is int or kind is float:
        return {"type": kind}
    if isinstance(kind, list):
        return {"choices": kind}
    return {"metavar": kind}


def _config_value(opt: Option, value):
    """A config-file value as the option's kind (an integer option takes 40.0
    as 40, a real one 1 as 1.0); refused, naming the key, if it has another."""
    message = (f"config key {opt.name!r} must be {_kind_text(opt.kind)}, "
               f"got {json.dumps(value)}")
    if value is None and opt.default is None:
        return None
    if opt.kind is int or opt.kind is float:
        return (_count if opt.kind is int else _real)(value, message)
    if opt.kind is bool or isinstance(value, bool):
        fits = opt.kind is bool and isinstance(value, bool)
    elif isinstance(opt.kind, list):
        fits = value in opt.kind
    elif opt.kind is CONFIG_ONLY:
        fits = isinstance(value, list)
    elif opt.name == "detectors" and isinstance(value, list):  # phase's id list
        fits = all(isinstance(d, str) for d in value)
    else:
        fits = isinstance(value, str)
    if not fits:
        raise InvalidSpecError(message)
    return value


def _kind_text(kind) -> str:
    if isinstance(kind, list):
        return "one of " + ", ".join(kind)
    return {int: "an integer", float: "a number", bool: "true or false",
            CONFIG_ONLY: "a list"}.get(kind, "a string")


def _load_config_file(path, options) -> tuple[dict, dict]:
    """The file's option values, as written and as typed."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InvalidSpecError(f"config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidSpecError("config file must hold a JSON object")
    by_name = {opt.name: opt for opt in options}
    unknown = set(cfg) - set(by_name)
    if unknown:
        raise InvalidSpecError(f"config file has unknown keys {sorted(unknown)}")
    return cfg, {key: _config_value(by_name[key], value)
                 for key, value in cfg.items()}


def resolve_options(args: argparse.Namespace, options) -> tuple[dict, dict]:
    """defaults < config file < explicit flags, both as given (what gets
    logged) and typed (a config file's numbers as the option's kind, and
    workers as a count, resolved by resolve_workers)."""
    defaults = {opt.name: opt.default for opt in options}
    given, values = (_load_config_file(args.config, options)
                     if getattr(args, "config", None) else ({}, {}))
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    resolved, typed = {**defaults, **given, **flags}, {**defaults, **values, **flags}
    # checked here so that every command refuses a bad seed or worker count
    # before drawing anything or starting a pool
    if "seed" in typed:
        _count(typed["seed"], f"seed must be nonnegative, got {typed['seed']}", 0)
    if "workers" in typed:
        typed["workers"] = resolve_workers(typed["workers"])
    return resolved, typed


def _require(opts: dict, *names: str) -> None:
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidSpecError(f"missing required option(s): {flags}")


def _given(opts: dict, *names: str) -> dict:
    return {n: opts[n] for n in names if opts[n] is not None}


def log_resolved(resolved: dict, out_path) -> None:
    body = json.dumps(resolved, sort_keys=True, indent=2, default=str)
    if out_path:
        with open(str(out_path) + ".config.json", "w", encoding="utf-8") as fh:
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


# -------------------------------------------------------------- commands
# A command takes its typed options and returns its exit code, its primary
# output and its sidecars (file suffix -> text, written beside --out). main
# writes the output, then the sidecars, then on success the resolved config.

def cmd_sample(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "N", "p0")
    model = opts["model"]
    if model == "null":
        spec = ModelSpec.null(opts["N"], opts["p0"])
    else:
        _require(opts, "n", "p1")
        make_alt, _ = MODELS[model]
        spec = make_alt(opts["N"], opts["p0"], opts["p1"], opts["n"])
        if not opts["out"]:
            raise InvalidSpecError("--out is required for planted models "
                                   "(the witness needs a sidecar file)")
    graph, witness = sample_with_witness(spec, opts["seed"],
                                         opts["stream_index"])
    sidecars = ({} if witness is None else
                {".witness": "".join(f"{i}\n" for i in witness)})
    return EXIT_OK, format_graph(graph), sidecars


def cmd_stat(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "graph", "detector")
    get_detector(opts["detector"])
    graph = read_graph(opts["graph"])
    try:
        result = evaluate(opts["detector"], graph,
                          _given(opts, "n", "mode", "time_budget"))
    except SentinelError as exc:
        return exit_code_for(exc), _json_text(
            {"error": type(exc).__name__, "message": str(exc)}), {}
    return EXIT_OK, _json_text(result.to_dict()), {}


def cmd_calibrate(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "detector")
    method = opts["method"]
    params = _given(opts, "n", "mode")
    if method == "bootstrap":
        _require(opts, "graph")
        test = bootstrap_calibrate(
            opts["detector"], params, read_graph(opts["graph"]),
            opts["alpha"], opts["replicates"], opts["seed"],
            opts["workers"],
        )
    else:
        _require(opts, "N", "p0")
        if method == "analytic" and opts["detector"] != "total_degree":
            raise InvalidSpecError("analytic calibration exists only for total_degree")
        spec = ModelSpec.null(opts["N"], opts["p0"])
        if method == "analytic":
            test = analytic_calibrate(spec, opts["alpha"])
        else:
            test = calibrate(opts["detector"], params, spec, opts["alpha"],
                             opts["replicates"], opts["seed"],
                             opts["workers"])
    return EXIT_OK, _json_text(test.to_dict()), {}


def cmd_risk(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "detector", "N", "n", "p0", "p1")
    # unlike phase rows, failures here surface as exit codes, not error rows
    row = risk_row(
        {k: opts[k] for k in ("N", "n", "p0", "p1", "model")},
        opts["detector"], opts["alpha"], opts["replicates"], opts["seed"],
        opts["workers"],
    )
    return EXIT_OK, rows_to_csv([row]), {}


def cmd_phase(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "cells", "detectors")
    dets = opts["detectors"]
    if isinstance(dets, str):
        dets = [d.strip() for d in dets.split(",") if d.strip()]
    checkpoint = None
    if opts["resume"]:
        os.makedirs(opts["resume"], exist_ok=True)
        checkpoint = os.path.join(opts["resume"], "checkpoint.jsonl")

    def progress(row):
        tag = row["error"] or f"gamma={row['gamma']:.4f}"
        print(
            f"cell N={row['N']} n={row['n']} p0={row['p0']} p1={row['p1']} "
            f"{row['detector']}: {tag} ({row['seconds']:.2f}s)",
            file=sys.stderr,
        )

    rows = phase_sweep(
        opts["cells"], dets, opts["alpha"], opts["replicates"], opts["seed"],
        checkpoint_path=checkpoint, workers=opts["workers"],
        progress=progress,
    )
    if opts["jsonl"]:
        with open(opts["jsonl"], "w", encoding="utf-8") as fh:
            fh.write(rows_to_json_lines(rows))
    return EXIT_OK, rows_to_csv(rows), {}


def cmd_classify(opts: dict) -> tuple[int, str, dict]:
    _require(opts, "N", "n", "p0", "p1")
    report = classify_regime(
        opts["N"], opts["n"], opts["p0"], opts["p1"],
        knowledge=opts["knowledge"],
        constraints_check=opts["constraints_check"],
        side_threshold=opts["side_threshold"],
    )
    return EXIT_OK, _json_text(report.to_dict()), {}


# ----------------------------------------------------------------- table

_COMMANDS = {
    "sample": (cmd_sample, "draw a graph from a model and write its edge list", [
        _OUT,
        Option("model", ["null", *MODELS], "null", "graph model"),
        _NODES, _SIZE, _P0, _P1, _SEED,
        Option("stream_index", int, 0, "replicate stream to draw"),
    ]),
    "stat": (cmd_stat, "evaluate one detector statistic on a graph file", [
        _OUT,
        Option("graph", "FILE", None, "edge-list file to read"),
        _DETECTOR, _DETECTOR_SIZE,
        Option("mode", "MODE", None, "algorithm mode where the detector has one"
               " (e.g. exact, branch_bound, greedy, exact_flow, peel)"),
        Option("time_budget", float, None, "time budget in seconds for clique_number"),
    ]),
    "calibrate": (cmd_calibrate, "compute a rejection threshold for a detector", [
        _OUT, _DETECTOR,
        Option("method", ["monte_carlo", "bootstrap", "analytic"], "monte_carlo",
               "calibration route"),
        _NODES._replace(help="null model size (monte_carlo/analytic)"),
        _P0._replace(help="null edge probability"),
        Option("graph", "FILE", None, "observed graph for bootstrap calibration"),
        _DETECTOR_SIZE,
        Option("mode", "MODE", None, "algorithm mode for the detector"),
        _ALPHA, _REPLICATES._replace(default=999, help="Monte Carlo replicates"),
        _SEED, _WORKERS,
    ]),
    "risk": (cmd_risk, "estimate worst-case risk for one parameter cell", [
        _OUT,
        _DETECTOR._replace(help="detector id, or ids joined with + for a "
                           f"Bonferroni combination; ids: {_DETECTOR_IDS}"),
        Option("model", list(MODELS), "planted", "alternative model"),
        _NODES, _SIZE, _P0, _P1, _ALPHA, _REPLICATES, _SEED, _WORKERS,
    ]),
    "phase": (cmd_phase, "sweep a grid of cells x detectors and emit a CSV table", [
        _OUT,
        Option("cells", CONFIG_ONLY),
        Option("detectors", "DETECTORS", None,
               "comma-separated detector ids (or set in --config)"),
        _ALPHA, _REPLICATES, _SEED, _WORKERS,
        Option("resume", "DIR", None, "checkpoint directory; finished rows are reused"),
        Option("jsonl", "FILE", None, "also write rows as JSON lines to this file"),
    ]),
    "classify": (cmd_classify, "label a parameter point against the theory tables", [
        _OUT, _NODES, _SIZE,
        _P0._replace(help="null density (known) or off-block density (unknown)"),
        _P1,
        Option("knowledge", ["known", "unknown"], "known",
               "whether the null density is known"),
        Option("constraints_check", bool, True, "evaluate finite-size side conditions"),
        Option("side_threshold", float, 0.5, "cutoff for side-condition ratios"),
    ]),
}


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
    for command, (_, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary,
                            argument_default=argparse.SUPPRESS)
        for opt in (_CONFIG, *options):
            if opt.kind is not CONFIG_ONLY:
                sp.add_argument("--" + opt.name.replace("_", "-"),
                                dest=opt.name, help=_help(opt),
                                **_argparse_kind(opt.kind))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, _, options = _COMMANDS[args.command]
    try:
        resolved, opts = resolve_options(args, options)
        code, text, sidecars = runner(opts)
        out = opts["out"]
        # the primary output before any sidecar, so a failed write leaves
        # none behind; without --out the config line still precedes stdout
        if code == EXIT_OK and not out:
            log_resolved(resolved, out)
        emit(text, out)
        if out:
            for suffix, body in sidecars.items():
                emit(body, f"{out}{suffix}")
            if code == EXIT_OK:
                log_resolved(resolved, out)
        return code
    except BrokenPipeError:
        return EXIT_IO
    except (SentinelError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except MemoryError as exc:
        # numpy's allocation failures name the size; a bare MemoryError is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"{PROG}: error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
