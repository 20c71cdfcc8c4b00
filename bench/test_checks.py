"""Self-test of the benchmark: every output check accepts a right value and
rejects a deliberately wrong one, and the quick mode runs all four
workloads with every check on.

    python -m pytest bench/test_checks.py
"""
from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from spans import Tracer  # noqa: E402


def random_edges(N, p, seed):
    rng = np.random.default_rng(seed)
    return np.array([(i, j) for i, j in itertools.combinations(range(N), 2)
                     if rng.random() < p], dtype=np.int64).reshape(-1, 2)


# K4 on {0,1,2,3} plus the path 3-4-5
K4_PATH = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4),
                    (4, 5)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_max_subset_edges_is_the_enumerated_maximum(n):
    edges = random_edges(11, 0.4, n)
    adj = checks.adjacency(11, edges)
    naive = max(checks.subset_edges(adj, s)
                for s in itertools.combinations(range(11), n))
    assert checks.max_subset_edges(adj, n) == naive


def test_order_statistic():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0]   # B = 9
    assert checks.check_order_statistic("t", 9.0, values, 0.1) == []
    assert checks.check_order_statistic("t", 8.0, values, 0.1)


def test_sweep_row():
    row = {"N": 40, "p1": 0.5, "detector": "scan", "alpha": 0.05,
           "replicates": 150, "type1": 0.04, "type2": 0.3, "gamma": 0.34,
           "error": None}
    assert checks.check_sweep_row(row, 150) == []
    assert checks.check_sweep_row({**row, "gamma": 0.35}, 150)
    assert checks.check_sweep_row({**row, "type1": 0.3, "gamma": 0.6}, 150)
    assert checks.check_sweep_row({**row, "error": "DomainError: x"}, 150)


def test_type1_ceiling_is_a_rare_count():
    ceiling = checks.type1_ceiling(0.05, 150, 150)
    assert 7 < ceiling < 40


def test_rows_equal_ignores_only_seconds():
    row = {"gamma": 0.5, "seconds": 1.0}
    assert checks.check_rows_equal("t", row, {"gamma": 0.5, "seconds": 2.0}) \
        == []
    assert checks.check_rows_equal("t", row, {"gamma": 0.4, "seconds": 1.0})


def test_scan():
    edges = random_edges(12, 0.3, 7)
    adj = checks.adjacency(12, edges)
    best = checks.max_subset_edges(adj, 4)
    assert checks.check_scan("t", best, 12, edges, 4) == []
    assert checks.check_scan("t", best - 1, 12, edges, 4)


def test_clique():
    assert checks.check_clique("t", 4, 6, K4_PATH) == []
    assert checks.check_clique("t", 3, 6, K4_PATH)


def test_densest():
    assert checks.check_densest("t", 1.5, 6, K4_PATH) == []   # K4: 6/4
    assert checks.check_densest("t", 8 / 6, 6, K4_PATH)


def test_block_eig():
    adj = checks.adjacency(6, K4_PATH).astype(float)
    top = float(np.linalg.eigvalsh((adj @ adj)[:4, :4])[-1])
    assert checks.check_block_eig("t", top, (0, 1, 2, 3), 6, K4_PATH) == []
    assert checks.check_block_eig("t", top + 0.5, (0, 1, 2, 3), 6, K4_PATH)


def test_relaxed():
    adj = checks.adjacency(6, K4_PATH).astype(float)
    top = float(np.linalg.eigvalsh(adj)[-1]) ** 2
    assert checks.check_relaxed("t", top, top - 1, 6, K4_PATH) == []
    assert checks.check_relaxed("t", top - 1, top, 6, K4_PATH)
    assert checks.check_relaxed("t", top * 1.01, 1.0, 6, K4_PATH)


def test_glr_matches_program_and_rejects_a_wrong_value():
    from subgraph_sentinel.detectors import DETECTORS
    from subgraph_sentinel.graph import Graph

    edges = random_edges(14, 0.3, 3)
    r = DETECTORS["glr"](Graph(14, edges), n=4)
    assert checks.check_glr("t", r.value, r.witness, 14, edges, 4) == []
    assert checks.check_glr("t", r.value * 1.001, r.witness, 14, edges, 4)


def test_density_witness():
    assert checks.check_density_witness("t", 1.5, (0, 1, 2, 3), 6, K4_PATH,
                                        4) == []
    assert checks.check_density_witness("t", 1.4, (0, 1, 2, 3), 6, K4_PATH,
                                        1)
    assert checks.check_density_witness("t", 1.5, (0, 1, 2, 3), 6, K4_PATH,
                                        5)


def test_dominance():
    assert checks.check_dominance("t", (1, 2), (3, 4), 20) == []
    assert checks.check_dominance("t", (1, 2), (1, 2), 20) == []
    assert checks.check_dominance("t", (50, 50), (5, 5), 60)


def test_clopper_pearson_brackets_the_rate():
    lo, hi = checks.clopper_pearson(30, 100)
    assert 0.0 < lo < 0.3 < hi < 1.0
    assert checks.clopper_pearson(0, 100)[0] == 0.0
    assert checks.clopper_pearson(100, 100)[1] == 1.0


def test_lr_statistic_matches_program_and_rejects_a_wrong_value():
    from subgraph_sentinel.graph import Graph
    from subgraph_sentinel.oracle import lr_statistic

    edges = random_edges(10, 0.3, 5)
    value = lr_statistic(Graph(10, edges), 3, 0.3, 0.8)
    assert checks.check_lr_statistic("t", value, 10, edges, 3, 0.3, 0.8) \
        == []
    assert checks.check_lr_statistic("t", value * 1.0001, 10, edges, 3, 0.3,
                                     0.8)


def test_parse_edge_file():
    good = "4 3\n0 1\n0 2\n2 3\n"
    N, edges, problems = checks.parse_edge_file(good)
    assert (N, len(edges), problems) == (4, 3, [])
    for bad in ("4 4\n0 1\n0 2\n2 3\n",      # header count
                "4 3\n0 1\n2 0\n2 3\n",      # i > j
                "4 3\n0 1\n0 4\n2 3\n",      # endpoint out of range
                "4 3\n0 1\n0 1\n2 3\n",      # duplicate
                "4 3\n0 1\n0 2 3\n2 3\n"):   # three tokens
        assert checks.parse_edge_file(bad)[2], bad


def test_stat():
    from subgraph_sentinel.detectors import DETECTORS
    from subgraph_sentinel.graph import Graph

    edges = random_edges(30, 0.2, 9)
    for det in ("max_degree", "degree_variance"):
        result = DETECTORS[det](Graph(30, edges)).to_dict()
        assert checks.check_stat("t", result, 30, edges) == []
        assert checks.check_stat("t", {**result, "value": result["value"] + 1},
                                 30, edges)
    result = DETECTORS["max_degree"](Graph(30, edges)).to_dict()
    assert checks.check_stat("t", {**result, "witness": [29]}, 30, edges) \
        or result["witness"] == [29]


def test_densities():
    from subgraph_sentinel.models import ModelSpec, sample_with_witness

    g, block = sample_with_witness(ModelSpec.planted(300, 0.05, 0.6, 40), 4)
    edges = g.edges()
    assert checks.check_densities("t", 300, edges, block, 0.05, 0.6) == []
    assert checks.check_densities("t", 300, edges, block, 0.05, 0.3)
    assert checks.check_densities("t", 300, edges, block, 0.1, 0.6)


def test_bootstrap_p0():
    assert checks.check_bootstrap_p0("t", 8 / 15, 6, K4_PATH) == []
    assert checks.check_bootstrap_p0("t", 8 / 15 + 1e-9, 6, K4_PATH)


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    tracer.begin("bench.round", "bench")
    tracer.begin("risk", "risk")
    tracer.begin("models.sample", "models")
    tracer.end()
    tracer.begin("risk", "risk")          # nested in its own layer
    tracer.end()
    tracer.end()
    tracer.end()
    selfs = tracer.self_times()
    root = tracer.spans[0]
    assert math.isclose(sum(selfs.values()), root[3] - root[2],
                        rel_tol=1e-9)
    total, calls, _ = tracer.by_name()["risk"]
    assert calls == 2 and math.isclose(total, tracer.spans[1][3]
                                       - tracer.spans[1][2])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload_clean(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick",
                           "--trace", trace],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert [x["workload"] for x in lines] == ["sweep-small", "detector-panel",
                                              "small-cells", "large-graph"]
    for x in lines:
        assert x["correct"] and x["failed"] == 0 and x["attempted"] > 0
