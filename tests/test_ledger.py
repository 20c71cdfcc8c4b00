"""Golden ledger: sha256 digests of end-to-end outputs for fixed seeds.

Each entry names one output and holds the digest of its text:
``cli.main`` runs in-process (the exit code, then stdout, then any file
the command wrote), ``repr`` of the likelihood-ratio oracle, and the exact
binomial kernels on a fixed grid. The covered surfaces:

* ``sample`` edge lists and witness files of the graphs the ``stat``
  entries read;
* a sparse planted graph on N=1000 (16 words per row), its ``stat
  max_degree`` read-back, and two reads of its file respelled: once with
  CRLF ends, tabs and one line given twice, and once more with one
  ``+``-signed endpoint, which only the per-line reader parses;
* ``stat`` JSON, witnesses included, for every detector except
  ``relaxed_scan`` and ``sparse_eig``, in every mode;
* ``calibrate`` JSON for ``monte_carlo``, ``bootstrap`` and ``analytic``;
* ``risk`` CSV, with a ``+`` combination and ``--model fixed_degree``;
* ``phase`` CSV and JSONL on ``demos/sweep_small.json`` at reduced
  replicates, with ``seconds`` masked;
* a ``classify`` grid that spans every regime label;
* ``lr_statistic`` and ``lr_oracle_risk`` on the six ``small-cells``
  pairs of the benchmark, at p1 = 1 and p1 = p0 too;
* ``binom_tail``, ``binom_cdf`` and ``binom_quantile`` with their edge
  cases (k <= 0, k > n, p in {0, 1}).

Values computed by LAPACK (``relaxed_scan``, ``sparse_eig``) can differ
across BLAS builds and CPUs, so they form their own group,
``tests/golden/lapack.json``, which holds the ``stat`` results themselves
rather than digests: ``sparse_eig`` on both of its routes (the exhaustive
one, C(N, n) <= 10^4, with n = 1 and n = N, and the power iteration
beyond), and ``relaxed_scan``, whose upper bound is a dense ``eigvalsh``
on these graphs (N <= 160, so no ARPACK). Its comparison rule, fixed when
the group was added and never to be widened: ``detector_id``, ``witness``
and ``exact`` are equal, and ``value`` and ``lower_bound`` lie within
``LAPACK_ULPS`` ulps of the stored floats. On these graphs the best block
of each exhaustive case stands apart from the next best by far more than
that, or ties it at n = 1, where a 1 x 1 block's eigenvalue is its integer
entry on every build; so a rounding move alone cannot change a witness.

The refusal group, ``tests/golden/refusals.json``, pins how each input
surface refuses a bad number, file or id, as values rather than digests.
Each command runs in-process on a small valid base with one value
replaced, given by flag, by config file and, for workers, by the
environment; each record holds the exit code and the ``error:`` lines of
stderr (and, for ``stat``, the JSON error it writes to stdout). Nothing is
drawn and no pool starts: the stream generator, the process pool and the
null simulation are replaced by a stub, and a run that reaches one records
``work started`` instead. A run that raises records the exception. The
group also holds what ``ModelSpec`` and ``normalize_cell`` make of numpy
scalars and other edge values: the canonical result, or the exception.

A change that moves an output rewrites the ledger and logs each moved
digest, old -> new, each moved LAPACK-group value with its distance in
ulps, and each moved refusal record:

    PYTHONPATH=src python tests/test_ledger.py
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

from subgraph_sentinel import calibration, models, replicates
from subgraph_sentinel.cli import main
from subgraph_sentinel.graph import format_graph, read_graph
from subgraph_sentinel.kernels import binom_cdf, binom_quantile, binom_tail
from subgraph_sentinel.models import ModelSpec, sample
from subgraph_sentinel.oracle import lr_oracle_risk, lr_statistic
from subgraph_sentinel.regimes import (LABEL_DEGREE_VARIANCE, LABEL_NO_POLY,
                                       LABEL_RELAXED_SCAN, LABEL_SCAN,
                                       LABEL_TOTAL_DEGREE, LABEL_UNDETECTABLE)
from subgraph_sentinel.sweep import normalize_cell

from test_graph import tiny_blocks

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "ledger.json"
LAPACK = ROOT / "tests" / "golden" / "lapack.json"
REFUSALS = ROOT / "tests" / "golden" / "refusals.json"
LAPACK_ULPS = 8

# (N, n, p0, p1) of the benchmark's small-cells workload
SMALL_PAIRS = ((12, 2, 0.30, 0.58), (20, 2, 0.50, 0.975),
               (14, 3, 0.20, 0.68), (20, 3, 0.10, 0.865),
               (16, 4, 0.40, 0.70), (20, 4, 0.25, 0.775))

# name -> sample arguments; the planted draws also write a witness file
GRAPHS = {
    "null30": ["--model", "null", "--N", "30", "--p0", "0.2", "--seed", "11"],
    "planted40": ["--model", "planted", "--N", "40", "--n", "8", "--p0", "0.1",
                  "--p1", "0.9", "--seed", "12"],
    "fixed24": ["--model", "fixed_degree", "--N", "24", "--n", "6",
                "--p0", "0.3", "--p1", "0.8", "--seed", "13"],
    "null70": ["--model", "null", "--N", "70", "--p0", "0.15", "--seed", "14"],
}

# a graph too large for the stat entries: only max_degree reads it back
PLANTED1000 = ["--model", "planted", "--N", "1000", "--n", "30", "--p0", "0.01",
               "--p1", "0.3", "--seed", "15"]

# stat arguments beyond --graph: every detector but the LAPACK/ARPACK ones,
# in every mode
STATS = {
    "total_degree": [[]],
    "max_degree": [[]],
    "degree_variance": [[]],
    "scan": [["--n", "4", "--mode", m] for m in ("exact", "branch_bound", "greedy")],
    "glr": [["--n", "4"]],
    "clique_number": [[]],
    "densest_subgraph": [["--mode", m] for m in ("exact_flow", "peel")],
    "densest_at_least": [["--n", "5"]],
}

# LAPACK group: graph -> detector -> the sizes n given to stat; sparse_eig's
# exhaustive route runs where C(N, n) <= 10^4, its power route beyond
# (planted40 at n = 8, null70 at n = 4)
LAPACK_STATS = {
    "null30": {"sparse_eig": (1, 2, 3), "relaxed_scan": (3,)},
    "planted40": {"sparse_eig": (3, 8), "relaxed_scan": (3, 8)},
    "fixed24": {"sparse_eig": (3, 24), "relaxed_scan": (3,)},
    "null70": {"sparse_eig": (2, 4), "relaxed_scan": (2,)},
}

_RUN = ["--workers", "1"]
CALIBRATIONS = {
    "monte_carlo-total_degree": ["--detector", "total_degree", "--N", "30",
                                 "--p0", "0.1", "--replicates", "99",
                                 "--seed", "3", *_RUN],
    "monte_carlo-scan": ["--detector", "scan", "--n", "3", "--mode", "branch_bound",
                         "--N", "20", "--p0", "0.2", "--replicates", "49",
                         "--seed", "4", *_RUN],
    "monte_carlo-densest_subgraph": ["--detector", "densest_subgraph", "--N", "16",
                                     "--p0", "0.3", "--alpha", "0.1",
                                     "--replicates", "39", "--seed", "5", *_RUN],
    "bootstrap-max_degree": ["--method", "bootstrap", "--detector", "max_degree",
                             "--graph", "{null30}", "--replicates", "49",
                             "--seed", "6", *_RUN],
    "bootstrap-glr": ["--method", "bootstrap", "--detector", "glr", "--n", "3",
                      "--graph", "{fixed24}", "--replicates", "29", "--seed", "7",
                      *_RUN],
    "analytic-N50": ["--method", "analytic", "--detector", "total_degree",
                     "--N", "50", "--p0", "0.1"],
    "analytic-N200": ["--method", "analytic", "--detector", "total_degree",
                      "--N", "200", "--p0", "0.3", "--alpha", "0.01"],
}

_CELL = ["--N", "20", "--n", "6", "--p0", "0.2", "--p1", "0.9", "--alpha", "0.1",
         "--replicates", "60", "--seed", "5", *_RUN]
RISKS = {
    "scan": ["--detector", "scan", *_CELL],
    "scan+total_degree": ["--detector", "scan+total_degree", *_CELL],
    "clique_number+glr+max_degree": ["--detector", "clique_number+glr+max_degree",
                                     *_CELL],
    "fixed_degree-degree_variance": ["--model", "fixed_degree",
                                     "--detector", "degree_variance", *_CELL],
    "fixed_degree-densest_at_least": ["--model", "fixed_degree",
                                      "--detector", "densest_at_least", *_CELL],
}

# classify grid: (N, n) pairs on both sides of the N^(2/3), N^(3/4) and
# sqrt(N) column splits, sparse and dense p0, and p1 from p0 up to 1
CLASSIFY_SIZES = ((100, 3), (100, 6), (100, 25), (10000, 40), (10000, 631),
                  (10000, 2000))

# refusal group: the values every surface is tried with, as JSON text; a flag
# takes the same text, a string without its quotes. 10**30 lies within the
# float range and 10**400 beyond it; 10**20 and 10**23 are large worker and
# replicate counts.
_POWERS = {f"1{'0' * k}": f"10**{k}" for k in (20, 23, 30, 400)}
COUNTS = ("0", "-1", "1", "40.0", "20.7", "true", "NaN", "1e400", "1" + "0" * 30,
          "1" + "0" * 400)
REALS = ("0", "-0.5", "1", "1.5", "true", "NaN", "Infinity", "-Infinity",
         "1e400", "1" + "0" * 400)
WORKERS = (*COUNTS, "1" + "0" * 20)
REPLICATES = (*COUNTS, "1" + "0" * 23)
_FILES = ('"{tmp}/empty.txt"', '"{tmp}/bad.txt"', '"{tmp}/missing.txt"')

# run -> (command and fixed flags, base options, {option: values}); the base
# is a config file, and each value replaces one option by flag or by config
_RUN_BASE = {"replicates": "19", "seed": "1", "workers": "1"}
REFUSAL_RUNS = {
    "sample": (["sample"], {"N": "10", "p0": "0.3", "seed": "1"},
               {"N": COUNTS, "p0": REALS, "seed": COUNTS,
                "stream_index": COUNTS}),
    "sample-planted": (["sample", "--model", "planted", "--out", "{tmp}/s.txt"],
                       {"N": "10", "n": "3", "p0": "0.3", "p1": "0.9"},
                       {"n": COUNTS, "p1": REALS}),
    "stat": (["stat"], {"graph": '"{tmp}/g.txt"', "detector": '"scan"', "n": "3"},
             {"n": COUNTS, "graph": _FILES, "detector": ('"nope"', '"scan+glr"')}),
    "stat-clique": (["stat"], {"graph": '"{tmp}/g.txt"',
                               "detector": '"clique_number"'},
                    {"time_budget": REALS}),
    "calibrate": (["calibrate"], {"detector": '"total_degree"', "N": "10",
                                  "p0": "0.3", **_RUN_BASE},
                  {"N": COUNTS, "p0": REALS, "alpha": REALS,
                   "replicates": REPLICATES, "seed": COUNTS, "workers": WORKERS,
                   "detector": ('"nope"',)}),
    "calibrate-analytic": (["calibrate", "--method", "analytic"],
                           {"detector": '"total_degree"', "N": "10", "p0": "0.3"},
                           {"N": COUNTS, "p0": REALS, "alpha": REALS}),
    "calibrate-bootstrap": (["calibrate", "--method", "bootstrap"],
                            {"detector": '"total_degree"',
                             "graph": '"{tmp}/g.txt"', **_RUN_BASE},
                            {"graph": _FILES}),
    "risk": (["risk"], {"detector": '"total_degree"', "N": "10", "n": "3",
                        "p0": "0.3", "p1": "0.9", **_RUN_BASE},
             {"N": COUNTS, "n": COUNTS, "p0": REALS, "p1": REALS, "alpha": REALS,
              "replicates": REPLICATES, "seed": COUNTS, "workers": WORKERS,
              "detector": ('"nope"', '"scan+nope"')}),
    "phase": (["phase"], {"cells": '[{"N": 10, "n": 3, "p0": 0.3, "p1": 0.9}]',
                          "detectors": '"total_degree"', **_RUN_BASE},
              {"alpha": REALS, "replicates": REPLICATES, "seed": COUNTS,
               "workers": WORKERS, "detectors": ('"nope"',)}),
    "classify": (["classify"], {"N": "100", "n": "10", "p0": "0.1", "p1": "0.5"},
                 {"N": COUNTS, "n": COUNTS, "p0": REALS, "p1": REALS,
                  "side_threshold": REALS}),
}
# phase's cells come from the config file alone: one field of the base cell
# replaced
PHASE_CELL = {"N": COUNTS, "n": COUNTS, "p0": REALS, "p1": REALS}

# the Python surfaces: each field of a valid ModelSpec or cell replaced by a
# numpy scalar or another edge value
_NAN, _INF = float("nan"), float("inf")
SPEC_COUNTS = (np.int64(10), np.int32(3), np.uint8(3), np.float64(10.0),
               np.float32(3.0), 10.0, 3.0, 20.7, np.float64(20.7), np.int64(0),
               np.int64(-1), np.float64(_NAN), np.float32(_INF), np.bool_(True),
               True, 10**30, 10**400, "10", None)
SPEC_REALS = (np.float32(0.3), np.float64(0.3), np.float16(0.5), np.int64(1),
              np.int64(0), np.float32(1.5), np.float64(_NAN), np.float32(_INF),
              np.float64(-_INF), np.bool_(True), True, 1, 10**400, "0.3", None)
SPEC_BUILDS = {
    "null": (ModelSpec.null, {"N": 10, "p0": 0.3}),
    "planted": (ModelSpec.planted, {"N": 10, "p0": 0.3, "p1": 0.9, "n": 3}),
    "planted_fixed_degree": (ModelSpec.planted_fixed_degree,
                             {"N": 10, "p0_prime": 0.3, "p1": 0.9, "n": 3}),
    "cell": (lambda **cell: normalize_cell(cell),
             {"N": 10, "n": 3, "p0": 0.3, "p1": 0.9}),
}


def _cli(*argv, files=()):
    """Exit code, stdout, then each named file, of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    text = f"exit {code}\n{out.getvalue()}"
    for path in files:
        text += f"--- {pathlib.Path(path).name}\n{pathlib.Path(path).read_text()}"
    return text


def _mask_seconds_csv(text):
    exit_line, header, *rows = list(csv.reader(io.StringIO(text)))
    col = header.index("seconds")
    return "\n".join([*exit_line, ",".join(header)]
                     + [",".join(r[:col] + ["-"] + r[col + 1:]) for r in rows]) + "\n"


def _mask_seconds_jsonl(text):
    rows = [json.loads(line) for line in text.splitlines()]
    return "".join(json.dumps({**r, "seconds": None}, sort_keys=True) + "\n"
                   for r in rows)


def _respelled_read(path, signed):
    """Edge list and warnings of a read of the file at path respelled: CRLF
    ends, a tab between the tokens and the first edge line given twice, and
    if signed a ``+`` before the first endpoint of the last line."""
    head, *lines = path.read_text().splitlines()
    n, m = head.split()
    lines = [line.replace(" ", "\t") for line in (lines[0], *lines)]
    if signed:
        lines[-1] = "+" + lines[-1]
    respelled = path.with_name("respelled.txt")
    respelled.write_bytes("\r\n".join([f"{n} {int(m) + 1}", *lines, ""])
                          .encode("ascii"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = read_graph(respelled)
    notes = "".join(f"warning: {w.message}\n" for w in caught)
    return format_graph(graph) + notes.replace(str(path.parent), "{tmp}")


def _oracle_texts():
    texts = {}
    for N, n, p0, p1 in SMALL_PAIRS:
        null, alt = ModelSpec.null(N, p0), ModelSpec.planted(N, p0, p1, n)
        graphs = ([sample(null, 41, i) for i in range(4)]
                  + [sample(alt, 42, i) for i in range(4)])
        lines = [repr(lr_statistic(g, n, p0, q))
                 for q in (p1, 1.0, p0) for g in graphs]
        lines.append(repr(lr_oracle_risk(null, alt, 20, 43, workers=1)))
        texts[f"oracle/N{N}-n{n}"] = "\n".join(lines) + "\n"
    return texts


def _binom_text():
    lines = []
    for n in (0, 1, 2, 5, 10, 37, 200, 1000, 19900):
        for p in (0.0, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0):
            mode = math.floor((n + 1) * p)
            ks = sorted({-1, 0, 1, mode - 1, mode, mode + 1, n // 3, n - 1, n,
                         n + 1})
            for k in ks:
                lines.append(f"{n} {p!r} {k} {binom_tail(n, p, k)!r} "
                             f"{binom_cdf(n, p, k)!r}")
            if n:
                lines.append(f"{n} {p!r} q " + " ".join(
                    repr(binom_quantile(n, p, lvl))
                    for lvl in (1e-9, 0.01, 0.05, 0.5, 0.95, 0.99)))
    return "\n".join(lines) + "\n"


class _WorkStarted(BaseException):
    """Raised by the stubs of the refusal group: the run passed every check."""


def _started(*args, **kwargs):
    raise _WorkStarted


_STREAM_RNG = models.stream_rng


def _checked_stream(master_seed, stream_index):
    # the generator keeps its own argument check, then draws nothing
    _STREAM_RNG(master_seed, stream_index)
    raise _WorkStarted

# where work starts: a graph's stream, a process pool, and the list of null
# draws that calibration builds with range(replicates) before it draws any
_WORK = ((models, "stream_rng", _checked_stream),
         (replicates, "ProcessPoolExecutor", _started),
         (calibration, "range", _started))


def _refusal_record(argv, env):
    """Exit code and error lines of one in-process run, or what stopped it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for module, name, stub in _WORK:
            stack.enter_context(mock.patch.object(module, name, stub,
                                                  create=True))
        stack.enter_context(mock.patch.object(replicates, "_pool", None))
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("SUBGRAPH_SENTINEL_WORKERS", None)
        os.environ.update(env)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except _WorkStarted:
            return "work started"
        except SystemExit as exc:  # argparse refuses a flag's text
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback, recorded
            return f"raised {type(exc).__name__}: {exc}"
    lines = [f"exit {code}"]
    lines += [line for line in err.getvalue().splitlines() if ": error: " in line]
    if code and out.getvalue():  # stat writes its errors as JSON to stdout
        lines.append(" ".join(out.getvalue().split()))
    return "\n".join(lines)


def _shown(token):
    """A value token as it appears in a record name."""
    return _POWERS.get(token, token).strip('"').replace("{tmp}/", "")


def _refusal_cases(tmp):
    """name -> (argv, environment) of each CLI run of the refusal group."""
    cases = {}

    def add(name, head, cfg, flags=(), env=None):
        path = tmp / f"c{len(cases)}.json"
        path.write_text(("{" + ", ".join(f'"{k}": {v}' for k, v in cfg.items())
                         + "}").replace("{tmp}", str(tmp)))
        argv = [a.replace("{tmp}", str(tmp)) for a in [*head, "--config",
                                                        str(path), *flags]]
        cases[name] = (argv, env or {})

    for run, (head, base, tries) in REFUSAL_RUNS.items():
        for opt, values in tries.items():
            flag = "--" + opt.replace("_", "-")
            for tok in values:
                name = f"{run}/{opt}={_shown(tok)}"
                text = tok.strip('"')
                add(f"{name}/flag", head, base, [flag, text])
                add(f"{name}/config", head, {**base, opt: tok})
                if opt == "workers":
                    cfg = {k: v for k, v in base.items() if k != "workers"}
                    add(f"{name}/env", head, cfg,
                        env={"SUBGRAPH_SENTINEL_WORKERS": text})
    head, base, _ = REFUSAL_RUNS["phase"]
    cell = {"N": "10", "n": "3", "p0": "0.3", "p1": "0.9"}
    for field, values in PHASE_CELL.items():
        for tok in values:
            fields = ", ".join(f'"{k}": {tok if k == field else v}'
                               for k, v in cell.items())
            add(f"phase/cells.{field}={_shown(tok)}/config", head,
                {**base, "cells": "[{" + fields + "}]"})
    return cases


def _spec_record(build, kwargs):
    try:
        return f"ok {build(**kwargs)!r}"
    except Exception as exc:  # noqa: BLE001 - the class is part of the record
        return f"{type(exc).__name__}: {exc}"


def compute_refusals():
    """Refusal-group name -> record."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "g.txt").write_text("6 3\n0 1\n1 2\n3 5\n")
        (tmp / "empty.txt").write_text("")
        (tmp / "bad.txt").write_text("6 2\n0 1\n1 x\n")
        for name, (argv, env) in _refusal_cases(tmp).items():
            records[name] = _refusal_record(argv, env).replace(str(tmp), "{tmp}")
    for surface, (build, base) in SPEC_BUILDS.items():
        for key in base:
            values = SPEC_COUNTS if key in ("N", "n") else SPEC_REALS
            for value in values:
                name = f"{surface}/{key}={value!r}"
                if isinstance(value, int) and abs(value) > 10**100:
                    name = f"{surface}/{key}=10**400"
                records[name] = _spec_record(build, {**base, key: value})
    return records


def _stat_result(text, name):
    exit_line, out = text.split("\n", 1)
    assert exit_line == "exit 0", f"{name}: {text!r}"
    return json.loads(out)


def _io_texts(tmp):
    """The sample/ and read/ entries, written under tmp, and the path of each
    graph of GRAPHS, which the stat entries read."""
    texts = {}
    paths = {}
    for name, args in GRAPHS.items():
        path = paths[name] = tmp / f"{name}.txt"
        witness = [] if "null" in args else [f"{path}.witness"]
        texts[f"sample/{name}"] = _cli("sample", *args, "--out", path,
                                       files=[*witness, path])
    path = tmp / "planted1000.txt"
    texts["sample/planted1000"] = _cli("sample", *PLANTED1000, "--out", path,
                                       files=[f"{path}.witness", path])
    texts["read/planted1000-crlf-tabs-duplicate"] = _respelled_read(path, False)
    texts["read/planted1000-signed"] = _respelled_read(path, True)
    return texts, paths


def compute_outputs():
    """(texts, results): ledger name -> the text whose sha256 the ledger
    holds, and LAPACK-group name -> the stat result the group holds."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        texts, paths = _io_texts(tmp)
        for name, path in paths.items():
            for det, variants in STATS.items():
                for extra in variants:
                    key = "-".join([name, det, *extra[1::2]])
                    texts[f"stat/{key}"] = _cli("stat", "--graph", path,
                                                "--detector", det, *extra)
        texts["stat/planted1000-max_degree"] = _cli(
            "stat", "--graph", tmp / "planted1000.txt", "--detector", "max_degree")
        for name, sizes in LAPACK_STATS.items():
            for det, ns in sizes.items():
                for n in ns:
                    key = f"stat/{name}-{det}-{n}"
                    results[key] = _stat_result(_cli(
                        "stat", "--graph", paths[name], "--detector", det,
                        "--n", n), key)
        for name, args in CALIBRATIONS.items():
            args = [a.format(**paths) for a in args]
            texts[f"calibrate/{name}"] = _cli("calibrate", *args)
        for name, args in RISKS.items():
            texts[f"risk/{name}"] = _mask_seconds_csv(_cli("risk", *args))
        jsonl = tmp / "sweep.jsonl"
        csv_text = _cli("phase", "--config", ROOT / "demos" / "sweep_small.json",
                        "--replicates", "40", *_RUN, "--jsonl", jsonl)
        texts["phase/csv"] = _mask_seconds_csv(csv_text)
        texts["phase/jsonl"] = _mask_seconds_jsonl(jsonl.read_text())
    grid = []
    for N, n in CLASSIFY_SIZES:
        for p0 in (0.001, 0.1):
            for p1 in (p0, 3 * p0, p0 + 0.3, 1.0):
                for knowledge in ("known", "unknown"):
                    grid.append(_cli("classify", "--N", N, "--n", n, "--p0", p0,
                                     "--p1", p1, "--knowledge", knowledge))
    texts["classify/grid"] = "".join(grid)
    texts.update(_oracle_texts())
    texts["kernels/binom"] = _binom_text()
    return texts, results


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_ledger():
    return json.loads(LEDGER.read_text())


def read_lapack():
    return json.loads(LAPACK.read_text())


def read_refusals():
    return json.loads(REFUSALS.read_text())


def ulps(got, want):
    """|got - want| in units of the last place of want."""
    return abs(got - want) / math.ulp(want)


@functools.lru_cache(maxsize=1)
def _outputs():
    return compute_outputs()


def _texts():
    return _outputs()[0]


@functools.lru_cache(maxsize=1)
def _refusals():
    return compute_refusals()


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    # calibrate --method analytic takes no --workers but still resolves them
    monkeypatch.delenv("SUBGRAPH_SENTINEL_WORKERS", raising=False)


def test_ledger_names():
    assert sorted(_texts()) == sorted(read_ledger())


@pytest.mark.parametrize("name,want", sorted(read_ledger().items()))
def test_ledger_digest(name, want):
    assert digest(_texts()[name]) == want


def test_io_entries_in_one_row_blocks(tmp_path):
    # every draw, write and read crosses row-block and chunk boundaries
    with tiny_blocks():
        texts, _ = _io_texts(tmp_path)
    ledger = read_ledger()
    assert {name: digest(text) for name, text in texts.items()} == {
        name: ledger[name] for name in texts}


def test_lapack_names():
    assert sorted(_outputs()[1]) == sorted(read_lapack())


@pytest.mark.parametrize("name", sorted(read_lapack()))
def test_lapack_result(name):
    got, want = _outputs()[1][name], read_lapack()[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if key in ("value", "lower_bound"):
            assert ulps(got[key], value) <= LAPACK_ULPS, (key, got[key], value)
        else:
            assert got[key] == value, key


def test_refusal_names():
    assert sorted(_refusals()) == sorted(read_refusals())


def test_refusal_records():
    got, want = _refusals(), read_refusals()
    moved = {name: (want[name], got[name]) for name in want
             if name in got and got[name] != want[name]}
    assert moved == {}


def test_refusals_report_one_error():
    # a run that exits nonzero says why in exactly one line; none raises
    for name, record in _refusals().items():
        head, *lines = record.split("\n")
        assert not head.startswith("raised"), (name, record)
        if head.startswith("exit ") and head != "exit 0":
            assert len(lines) == 1, name


def test_classify_grid_spans_every_label():
    reports = [json.loads(part) for part in
               _texts()["classify/grid"].split("exit 0\n")[1:]]
    labels = {r["label"] for r in reports} | {r["poly_label"] for r in reports}
    assert labels == {LABEL_UNDETECTABLE, LABEL_SCAN, LABEL_TOTAL_DEGREE,
                      LABEL_DEGREE_VARIANCE, LABEL_RELAXED_SCAN, LABEL_NO_POLY}


def test_entries_ran_without_error():
    for name, text in _texts().items():
        if not name.startswith(("oracle/", "kernels/", "phase/jsonl", "read/")):
            assert text.startswith("exit 0\n"), name


def rewrite():
    """Recompute every group, print each digest, LAPACK-group value and
    refusal record that moved, and write them."""
    texts, results = compute_outputs()
    old = read_ledger() if LEDGER.exists() else {}
    new = {name: digest(text) for name, text in sorted(texts.items())}
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name)} -> {new.get(name)}")
    LEDGER.write_text(json.dumps(new, indent=1) + "\n")
    old = read_lapack() if LAPACK.exists() else {}
    for name in sorted(set(old) | set(results)):
        was, now = old.get(name, {}), results.get(name, {})
        for key in sorted(set(was) | set(now)):
            a, b = was.get(key), now.get(key)
            if a != b:
                far = (f" ({ulps(b, a):g} ulps)" if key in ("value", "lower_bound")
                       and None not in (a, b) else "")
                print(f"{name} {key}: {a!r} -> {b!r}{far}")
    LAPACK.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(results[name], sort_keys=True)}"
        for name in sorted(results)) + "\n}\n")
    old, new = (read_refusals() if REFUSALS.exists() else {}), compute_refusals()
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name)!r} -> {new.get(name)!r}")
    REFUSALS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(rewrite())
