"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs whole rounds of
the same operations, and checks the outputs of a round against references
computed in checks.py.  A round is one closed loop driven from this
process: the next operation starts when the previous one has returned.

    sweep-small     CLI ``phase`` on the grid of demos/sweep_small.json,
                    2 worker processes
    detector-panel  ``calibrate`` for every detector at Tier-1's level-check
                    sizes, plus the N=500 relaxed scan and N=200 densest
                    subgraph entries
    small-cells     ``lr_oracle_risk`` and ``calibrate`` + ``estimate_risk``
                    for all ten detectors on tiny (N 12-20) parameter pairs
    large-graph     CLI ``sample``/``stat``/``calibrate --method bootstrap``
                    on a dense N=2000 and a sparse N=4000 planted graph

``quick`` shrinks every size so that all four run in well under a minute
with every check still switched on.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback

import numpy as np

import checks

ALPHA = 0.05
CLI_CODE = "import sys; from subgraph_sentinel.cli import main; sys.exit(main())"
CLI_TIMEOUT = 170.0


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class Workload:
    """Runs rounds of one workload; subclasses set the operations."""

    name = ""
    dominant = ""        # layer expected to hold the largest self time
    uses_cli = False     # rounds start CLI processes when not traced
    pool_round = False   # the traced run also counts worker pools

    def __init__(self, seed, work, src):
        self.seed = int(seed)
        self.work = work
        self.src = src
        self.ops = 0         # operations per round
        self.replicates = 0  # graphs the program draws per round

    def run_cli(self, argv, in_process):
        """Exit code of one CLI command, in this process or a fresh one."""
        if in_process:
            from subgraph_sentinel import cli
            try:
                return cli.main([str(a) for a in argv])
            except SystemExit as exc:        # argparse rejected argv
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:                # a crash fails the operation
                traceback.print_exc()
                return 1
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, *map(str, argv)],
            env=child_env(self.src), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT)
        if proc.returncode:
            print(f"{self.name}: {argv[0]} exited {proc.returncode}: "
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
        return proc.returncode

    def path(self, name):
        return os.path.join(self.work, name)

    def run_round(self, in_process=False, workers=None):
        """Run one round; a list with one failure flag per operation."""
        raise NotImplementedError

    def collect(self):
        """Plain-data outputs of the last round, without timing fields."""
        raise NotImplementedError

    def check(self, outputs):
        """(problems per operation, problems of the round as a whole)."""
        raise NotImplementedError


# ------------------------------------------------------------ sweep-small

class SweepSmall(Workload):
    name = "sweep-small"
    dominant = "detectors"
    uses_cli = True
    pool_round = True

    def __init__(self, seed, work, src, quick):
        super().__init__(seed, work, src)
        N, n = (16, 4) if quick else (40, 6)
        self.n = n
        self.reps = 20
        # the grid of demos/sweep_small.json, kept here so that the
        # benchmark does not move when the demo does
        self.cells = [{"N": N, "n": n, "p0": 0.2, "p1": p1}
                      for p1 in (0.2, 0.5, 0.8, 0.95)]
        self.detectors = ["total_degree", "scan"]
        config = {"cells": self.cells, "detectors": ",".join(self.detectors),
                  "alpha": ALPHA, "replicates": self.reps}
        with open(self.path("sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.ops = len(self.cells) * len(self.detectors)
        self.replicates = self.ops * 3 * self.reps
        self.rows = []

    def run_round(self, in_process=False, workers=2):
        jsonl = self.path("sweep.jsonl")
        if os.path.exists(jsonl):
            os.remove(jsonl)
        rc = self.run_cli(
            ["phase", "--config", self.path("sweep.json"),
             "--seed", self.seed, "--workers", workers,
             "--out", self.path("sweep.csv"), "--jsonl", jsonl], in_process)
        self.rows = []
        if rc == 0:
            with open(jsonl, encoding="utf-8") as fh:
                self.rows = [json.loads(line) for line in fh if line.strip()]
        if len(self.rows) != self.ops:
            return [True] * self.ops
        return [bool(r.get("error")) for r in self.rows]

    def collect(self):
        return [{k: v for k, v in r.items() if k != "seconds"}
                for r in self.rows]

    def check(self, rows):
        from subgraph_sentinel import models, sweep
        from subgraph_sentinel.detectors import DETECTORS

        per_op = [checks.check_sweep_row(r, self.reps) for r in rows]
        for i, row in enumerate(rows):
            if row["detector"] != "total_degree" or row.get("error"):
                continue
            cell = {k: row[k] for k in ("N", "n", "p0", "p1", "model")}
            ref = sweep.run_cell(cell, "total_degree", ALPHA, self.reps,
                                 self.seed, workers=1)
            per_op[i] += checks.check_rows_equal(
                f"total_degree row p1={row['p1']} vs run_cell(workers=1)",
                row, ref)
        whole = []
        N = self.cells[0]["N"]
        for spec in (models.ModelSpec.null(N, 0.2),
                     models.ModelSpec.planted(N, 0.2, 0.95, self.n)):
            g = models.sample(spec, self.seed, 0)
            value = DETECTORS["scan"](g, n=self.n, mode="branch_bound").value
            whole += checks.check_scan(f"{spec.variant} graph", int(value),
                                       N, g.edges(), self.n)
        return per_op, whole


# --------------------------------------------------------- detector-panel

# Tier-1 criterion 2's parameters: every statistic tractable at N=100
LEVEL_PARAMS = {
    "total_degree": {},
    "max_degree": {},
    "degree_variance": {},
    "clique_number": {},
    "densest_subgraph": {},
    "densest_at_least": {"n": 10},
    "sparse_eig": {"n": 10},
    "relaxed_scan": {"n": 10},
    "scan": {"n": 3, "mode": "branch_bound"},
    "glr": {"n": 5},
}


class DetectorPanel(Workload):
    name = "detector-panel"
    dominant = "detectors"

    def __init__(self, seed, work, src, quick):
        super().__init__(seed, work, src)
        from subgraph_sentinel.models import ModelSpec

        small, large, mid = (30, 60, 40) if quick else (100, 500, 200)
        self.B = 19
        self.entries = [(d, p, ModelSpec.null(small, 0.1))
                        for d, p in LEVEL_PARAMS.items()]
        self.entries += [
            ("relaxed_scan", {"n": 6 if quick else 20},
             ModelSpec.null(large, 0.05)),    # Tier-1 criterion 7's null
            ("densest_subgraph", {}, ModelSpec.null(mid, 0.05)),  # crit. 9
        ]
        self.seeds = [self.seed * 1000 + i for i in range(len(self.entries))]
        self.ops = len(self.entries)
        self.replicates = self.ops * self.B
        self.thresholds = []

    def run_round(self, in_process=True, workers=1):
        from subgraph_sentinel import calibration

        self.thresholds = []
        failed = []
        for (det, params, spec), seed in zip(self.entries, self.seeds):
            try:
                test = calibration.calibrate(det, params, spec, ALPHA, self.B,
                                             seed, workers=workers)
            except Exception:                # a crash fails the operation
                traceback.print_exc()
                self.thresholds.append(None)
                failed.append(True)
                continue
            self.thresholds.append(test.threshold)
            failed.append(False)
        return failed

    def collect(self):
        return list(self.thresholds)

    def check(self, thresholds):
        from subgraph_sentinel import models
        from subgraph_sentinel.detectors import DETECTORS

        per_op = []
        for (det, params, spec), seed, thr in zip(self.entries, self.seeds,
                                                  thresholds):
            label = f"{det} N={spec.N}"
            if thr is None:
                per_op.append([f"{label}: calibrate failed"])
                continue
            graphs = [models.sample(spec, seed, j) for j in range(self.B)]
            N = spec.N
            edges = [g.edges() for g in graphs]
            problems = []
            if det in ("total_degree", "max_degree", "degree_variance"):
                values = [checks.degree_statistics(N, e)[det] for e in edges]
            elif det == "clique_number":
                values = [checks.clique_number(N, e) for e in edges]
            elif det == "densest_subgraph":
                values = [checks.densest_lp(N, e) for e in edges]
            elif det == "scan":
                values = [checks.max_subset_edges(checks.adjacency(N, e),
                                                  params["n"]) for e in edges]
            else:
                values = None
            if values is not None:
                problems += checks.check_order_statistic(label, thr, values,
                                                         ALPHA)
            # witness and bound properties on the first two replicates
            for g, e in list(zip(graphs, edges))[:2]:
                r = DETECTORS[det](g, **params)
                if det == "sparse_eig":
                    problems += checks.check_block_eig(label, r.value,
                                                       r.witness, N, e)
                elif det == "relaxed_scan":
                    problems += checks.check_relaxed(label, r.value,
                                                     r.lower_bound, N, e)
                elif det == "glr":
                    problems += checks.check_glr(label, r.value, r.witness,
                                                 N, e, params["n"])
                elif det == "densest_at_least":
                    problems += checks.check_density_witness(
                        label, r.value, r.witness, N, e, params["n"])
            per_op.append(problems)
        return per_op, []


# ------------------------------------------------------------ small-cells

DETECTOR_IDS = ("scan", "glr", "densest_at_least", "sparse_eig",
                "relaxed_scan", "total_degree", "max_degree",
                "degree_variance", "clique_number", "densest_subgraph")


# Tier-1 criterion 10's pairs: N 12-20, n 2-4, C(N, n) <= 10^4, p0 in
# [0.1, 0.5], p1 = p0 + (1 - p0) u with u in [0.4, 0.95].  The cost of a
# pair grows with C(N, n) and with the densities, so the six pairs are
# fixed to span that range evenly and the seed drives every graph drawn;
# drawing the pairs too made one seed cost nearly twice another.
# The low densities go to the larger graphs: an edgeless null draw makes
# calibrate raise (see CHANGES.md), and at N=12, p0=0.1 one in a thousand
# draws is edgeless.
SMALL_PAIRS = ((12, 2, 0.30, 0.58), (20, 2, 0.50, 0.975),
               (14, 3, 0.20, 0.68), (20, 3, 0.10, 0.865),
               (16, 4, 0.40, 0.70), (20, 4, 0.25, 0.775))


def sized_params(det, n):
    if det == "scan":
        return {"n": n, "mode": "branch_bound"}
    if det in ("glr", "densest_at_least", "sparse_eig", "relaxed_scan"):
        return {"n": n}
    return {}


class SmallCells(Workload):
    name = "small-cells"
    dominant = "detectors"

    def __init__(self, seed, work, src, quick):
        super().__init__(seed, work, src)
        self.pairs = SMALL_PAIRS[::3] if quick else SMALL_PAIRS
        self.B = 19
        self.R = 10
        per_pair = 2 * self.R + len(DETECTOR_IDS) * (self.B + 2 * self.R)
        self.ops = len(self.pairs) * (1 + len(DETECTOR_IDS))
        self.replicates = len(self.pairs) * per_pair
        self.counts = []

    def _seed(self, k, j, part):
        """Seed of part (1 oracle, 2 calibration, 3 risk, 4 check) of test
        j (0 the oracle, 1.. the detectors) on pair k.  Each detector draws
        its own graphs, so a few costly draws cannot set a seed's cost."""
        return (self.seed * 100 + k) * 1000 + 10 * j + part

    def run_round(self, in_process=True, workers=1):
        from subgraph_sentinel import calibration, oracle, risk
        from subgraph_sentinel.models import ModelSpec

        self.counts = []
        failed = []

        def record(report):
            R = report.replicates
            self.counts.append([round(report.type1_hat * R),
                                round(report.type2_hat * R),
                                report.gamma_hat])
            failed.append(False)

        for k, (N, n, p0, p1) in enumerate(self.pairs):
            null = ModelSpec.null(N, p0)
            alt = ModelSpec.planted(N, p0, p1, n)
            try:
                record(oracle.lr_oracle_risk(null, alt, self.R,
                                             self._seed(k, 0, 1), workers))
            except Exception:                # a crash fails the operation
                traceback.print_exc()
                self.counts.append(None)
                failed.append(True)
            for j, det in enumerate(DETECTOR_IDS, start=1):
                try:
                    test = calibration.calibrate(
                        det, sized_params(det, n), null, ALPHA, self.B,
                        self._seed(k, j, 2), workers)
                    record(risk.estimate_risk(test, null, alt, self.R,
                                              self._seed(k, j, 3), workers))
                except Exception:            # a crash fails the operation
                    traceback.print_exc()
                    self.counts.append(None)
                    failed.append(True)
        return failed

    def collect(self):
        return [list(c) if c else None for c in self.counts]

    def check(self, counts):
        from subgraph_sentinel import models, oracle

        per_op = []
        width = 1 + len(DETECTOR_IDS)
        pooled = np.zeros((width, 2), dtype=np.int64)
        for k, (N, n, p0, p1) in enumerate(self.pairs):
            for j, c in enumerate(counts[k * width:(k + 1) * width]):
                name = "oracle" if j == 0 else DETECTOR_IDS[j - 1]
                label = f"pair {(N, n, p0, p1)} {name}"
                if c is None:
                    per_op.append([f"{label}: no report"])
                    continue
                pooled[j] += c[:2]
                problems = []
                if abs(c[2] - (c[0] + c[1]) / self.R) > 1e-12:
                    problems.append(f"{label}: gamma != type1 + type2")
                if j == 0 and k < 2:
                    null = models.ModelSpec.null(N, p0)
                    alt = models.ModelSpec.planted(N, p0, p1, n)
                    for spec in (null, alt):
                        g = models.sample(spec, self._seed(k, 0, 4), 0)
                        problems += checks.check_lr_statistic(
                            label, oracle.lr_statistic(g, n, p0, p1), N,
                            g.edges(), n, p0, p1)
                per_op.append(problems)
        whole = []
        if not any(c is None for c in counts):
            for j, det in enumerate(DETECTOR_IDS, start=1):
                whole += checks.check_dominance(
                    f"{det} over {len(self.pairs)} pairs", pooled[0],
                    pooled[j], len(self.pairs) * self.R)
        return per_op, whole


# ------------------------------------------------------------ large-graph

class LargeGraph(Workload):
    name = "large-graph"
    dominant = "graph"
    uses_cli = True

    def __init__(self, seed, work, src, quick):
        super().__init__(seed, work, src)
        scale = 8 if quick else 1
        # (file, N, p0, n, p1): the dense graph takes the per-pair draw in
        # models, the sparse one (p0 below 0.05) the geometric skips
        self.graphs = [("dense.txt", 2000 // scale, 0.3, 60 // scale, 0.6),
                       ("sparse.txt", 4000 // scale, 0.01, 80 // scale, 0.1)]
        self.B = 19
        self.commands = []
        for i, (name, N, p0, n, p1) in enumerate(self.graphs):
            g = self.path(name)
            self.commands += [
                ["sample", "--model", "planted", "--N", N, "--n", n,
                 "--p0", p0, "--p1", p1, "--seed", self.seed + i, "--out", g],
                ["stat", "--graph", g, "--detector", "max_degree",
                 "--out", g + ".max_degree.json"],
                ["stat", "--graph", g, "--detector", "degree_variance",
                 "--out", g + ".degree_variance.json"],
                ["calibrate", "--method", "bootstrap", "--detector",
                 "degree_variance", "--graph", g, "--replicates", self.B,
                 "--seed", self.seed + i, "--workers", 1,
                 "--out", g + ".calibrate.json"],
            ]
        self.ops = len(self.commands)
        self.replicates = len(self.graphs) * (1 + self.B)
        self.codes = []

    def run_round(self, in_process=False, workers=1):
        self.codes = [self.run_cli(argv, in_process) for argv in self.commands]
        return [code != 0 for code in self.codes]

    def collect(self):
        out = []
        for argv, code in zip(self.commands, self.codes):
            target = argv[argv.index("--out") + 1]
            try:
                with open(target, encoding="ascii") as fh:
                    text = fh.read()
            except OSError:
                text = None
            if argv[0] == "sample":
                out.append([code, text])
            else:
                out.append([code, json.loads(text) if text else None])
        return out

    def check(self, outputs):
        per_op = []
        for k, (name, N, p0, n, p1) in enumerate(self.graphs):
            (c0, text), *rest = outputs[4 * k: 4 * k + 4]
            if c0 or text is None:
                per_op += [[f"{name}: sample failed"]] * 4
                continue
            n_file, edges, problems = checks.parse_edge_file(text)
            if n_file != N:
                problems.append(f"{name}: header N={n_file}, asked {N}")
            with open(self.path(name) + ".witness", encoding="ascii") as fh:
                block = [int(t) for t in fh.read().split()]
            problems += checks.check_densities(name, N, edges, block, p0, p1)
            per_op.append(problems)
            for code, result in rest:
                if code or result is None:
                    per_op.append([f"{name}: command exited {code}"])
                elif "threshold" in result:
                    per_op.append(checks.check_bootstrap_p0(
                        name, result["null_spec"]["p0"], N, edges))
                else:
                    per_op.append(checks.check_stat(name, result, N, edges))
        return per_op, []


WORKLOADS = {w.name: w for w in (SweepSmall, DetectorPanel, SmallCells,
                                 LargeGraph)}
