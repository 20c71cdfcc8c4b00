"""Golden ledger: sha256 digests of end-to-end outputs for fixed seeds.

Each entry names one output and holds the digest of its text:
``cli.main`` runs in-process (the exit code, then stdout, then any file
the command wrote), ``repr`` of the likelihood-ratio oracle, and the exact
binomial kernels on a fixed grid. The covered surfaces:

* ``sample`` edge lists and witness files of the graphs the ``stat``
  entries read;
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

A change that moves an output rewrites the ledger and logs each moved
digest, old -> new, and each moved LAPACK-group value with its distance in
ulps:

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
import pathlib
import sys
import tempfile

import pytest

from subgraph_sentinel.cli import main
from subgraph_sentinel.kernels import binom_cdf, binom_quantile, binom_tail
from subgraph_sentinel.models import ModelSpec, sample
from subgraph_sentinel.oracle import lr_oracle_risk, lr_statistic
from subgraph_sentinel.regimes import (LABEL_DEGREE_VARIANCE, LABEL_NO_POLY,
                                       LABEL_RELAXED_SCAN, LABEL_SCAN,
                                       LABEL_TOTAL_DEGREE, LABEL_UNDETECTABLE)

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "ledger.json"
LAPACK = ROOT / "tests" / "golden" / "lapack.json"
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


def _stat_result(text, name):
    exit_line, out = text.split("\n", 1)
    assert exit_line == "exit 0", f"{name}: {text!r}"
    return json.loads(out)


def compute_outputs():
    """(texts, results): ledger name -> the text whose sha256 the ledger
    holds, and LAPACK-group name -> the stat result the group holds."""
    texts = {}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        paths = {}
        for name, args in GRAPHS.items():
            path = paths[name] = tmp / f"{name}.txt"
            witness = [] if "null" in args else [f"{path}.witness"]
            texts[f"sample/{name}"] = _cli("sample", *args, "--out", path,
                                           files=[*witness, path])
        for name, path in paths.items():
            for det, variants in STATS.items():
                for extra in variants:
                    key = "-".join([name, det, *extra[1::2]])
                    texts[f"stat/{key}"] = _cli("stat", "--graph", path,
                                                "--detector", det, *extra)
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


def ulps(got, want):
    """|got - want| in units of the last place of want."""
    return abs(got - want) / math.ulp(want)


@functools.lru_cache(maxsize=1)
def _outputs():
    return compute_outputs()


def _texts():
    return _outputs()[0]


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    # calibrate --method analytic takes no --workers but still resolves them
    monkeypatch.delenv("SUBGRAPH_SENTINEL_WORKERS", raising=False)


def test_ledger_names():
    assert sorted(_texts()) == sorted(read_ledger())


@pytest.mark.parametrize("name,want", sorted(read_ledger().items()))
def test_ledger_digest(name, want):
    assert digest(_texts()[name]) == want


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


def test_classify_grid_spans_every_label():
    reports = [json.loads(part) for part in
               _texts()["classify/grid"].split("exit 0\n")[1:]]
    labels = {r["label"] for r in reports} | {r["poly_label"] for r in reports}
    assert labels == {LABEL_UNDETECTABLE, LABEL_SCAN, LABEL_TOTAL_DEGREE,
                      LABEL_DEGREE_VARIANCE, LABEL_RELAXED_SCAN, LABEL_NO_POLY}


def test_entries_ran_without_error():
    for name, text in _texts().items():
        if not name.startswith(("oracle/", "kernels/", "phase/jsonl")):
            assert text.startswith("exit 0\n"), name


def rewrite():
    """Recompute both groups, print each digest and LAPACK-group value that
    moved, and write them."""
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
    return 0


if __name__ == "__main__":
    sys.exit(rewrite())
