"""Command-line surface: golden help text, pinned examples, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import subgraph_sentinel
from subgraph_sentinel import cli, models, replicates
from subgraph_sentinel.cli import main, resolve_workers
from subgraph_sentinel.detectors import DETECTORS
from subgraph_sentinel.errors import InvalidSpecError
from subgraph_sentinel.graph import Graph, read_graph, write_graph

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def fixed_terminal(monkeypatch):
    # argparse wraps help text at the terminal width; pin it
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SUBGRAPH_SENTINEL_WORKERS", raising=False)


@pytest.fixture
def graphs(tmp_path):
    write_graph(Graph.complete(4), tmp_path / "k4.txt")
    write_graph(Graph.empty(10), tmp_path / "empty10.txt")
    write_graph(Graph.complete(2), tmp_path / "k2.txt")
    rng = np.random.default_rng(b := 77)
    dense = Graph(60, [(i, j) for i in range(60) for j in range(i + 1, 60)
                       if rng.random() < 0.9])
    write_graph(dense, tmp_path / "dense60.txt")
    (tmp_path / "bad.txt").write_text("3 1\n0 0\n")
    return tmp_path


# the detectors that take the block size n
_SIZED_DETECTORS = {"densest_at_least", "glr", "relaxed_scan", "scan",
                    "sparse_eig"}


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGoldenHelp:
    @pytest.mark.parametrize(
        "fname,argv",
        [
            ("help_main.txt", ["--help"]),
            ("help_sample.txt", ["sample", "--help"]),
            ("help_stat.txt", ["stat", "--help"]),
            ("help_calibrate.txt", ["calibrate", "--help"]),
            ("help_risk.txt", ["risk", "--help"]),
            ("help_phase.txt", ["phase", "--help"]),
            ("help_classify.txt", ["classify", "--help"]),
        ],
    )
    def test_help_text_pinned(self, fname, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / fname).read_text()


class TestSample:
    def test_null_to_stdout_pinned(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--model", "null", "--N", "100", "--p0", "0.1",
             "--seed", "7"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "100 478"

    def test_byte_identical_reruns(self, capsys):
        argv = ["sample", "--model", "null", "--N", "40", "--p0", "0.3",
                "--seed", "11"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_planted_writes_witness_sidecar(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(
            ["sample", "--model", "planted", "--N", "50", "--n", "10",
             "--p0", "0.1", "--p1", "0.9", "--seed", "1",
             "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[0] == "50 157"
        witness = (tmp_path / "g.txt.witness").read_text().split()
        assert len(witness) == 10
        assert all(0 <= int(v) < 50 for v in witness)
        sidecar = json.loads((tmp_path / "g.txt.config.json").read_text())
        assert sidecar["N"] == 50 and sidecar["p1"] == 0.9

    def test_planted_needs_out(self, capsys):
        code, _, err = run_cli(
            ["sample", "--model", "planted", "--N", "20", "--n", "4",
             "--p0", "0.1", "--p1", "0.9"], capsys)
        assert code == 2
        assert "--out" in err

    def test_negative_seed_exit2(self, capsys):
        code, out, err = run_cli(
            ["sample", "--N", "5", "--p0", "0.5", "--seed", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("subgraph-sentinel: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["risk", "--detector", "total_degree",
         "--N", "1000000000000000000000000000000", "--n", "5", "--p0", "0.1",
         "--p1", "0.9", "--replicates", "19", "--workers", "1"],
        ["sample", "--N", "100000000000000000000", "--p0", "0.01",
         "--out", "{tmp}/g.txt"],
    ])
    def test_N_beyond_the_pair_index_exit2(self, argv, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("subgraph-sentinel: error: N must be at most 2**32")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_required(self, capsys):
        code, _, err = run_cli(["sample", "--N", "10"], capsys)
        assert code == 2
        assert "--p0" in err

    @pytest.mark.parametrize("exc", [
        MemoryError(),
        MemoryError("Unable to allocate 37.3 GiB for an array with shape "
                    "(4999950000,) and data type float64"),
    ])
    def test_out_of_memory_exit2(self, exc, monkeypatch, capsys):
        # stands in for the draw of sample --N 100000 --p0 0.5, which would
        # ask for tens of GiB; nothing is allocated here
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "sample_with_witness", out_of_memory)
        code, out, err = run_cli(
            ["sample", "--N", "100000", "--p0", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("subgraph-sentinel: error: out of memory")
        assert str(exc) in err

    def test_graph_header_beyond_numpy_arrays_exit2(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("99999999999999999999 0\n")
        code, out, err = run_cli(["stat", "--detector", "max_degree",
                                  "--graph", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("subgraph-sentinel: error: out of memory: the "
                              "packed rows of 99999999999999999999 vertices")


class TestStat:
    def test_total_degree_k4(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "total_degree",
             "--graph", str(graphs / "k4.txt")], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 6.0
        assert data["exact"] is True

    def test_scan_k4_lex_witness(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "scan", "--n", "3", "--mode", "exact",
             "--graph", str(graphs / "k4.txt")], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 3.0
        assert data["witness"] == [0, 1, 2]

    def test_clique_empty10(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "clique_number",
             "--graph", str(graphs / "empty10.txt")], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_missing_graph_file_is_io_error(self, graphs, capsys):
        code, _, err = run_cli(
            ["stat", "--detector", "total_degree",
             "--graph", str(graphs / "nope.txt")], capsys)
        assert code == 3

    def test_malformed_graph_is_io_error(self, graphs, capsys):
        code, _, err = run_cli(
            ["stat", "--detector", "total_degree",
             "--graph", str(graphs / "bad.txt")], capsys)
        assert code == 3
        assert "line 2" in err

    def test_undecodable_graph_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"3 1\n0 \xc3\xa9\n")
        code, _, err = run_cli(
            ["stat", "--detector", "max_degree", "--graph", str(path)], capsys)
        assert code == 3
        assert "line 2" in err and "not ASCII" in err

    def test_detector_error_json_and_exit4(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "degree_variance",
             "--graph", str(graphs / "k2.txt")], capsys)
        assert code == 4
        data = json.loads(out)
        assert data["error"] == "DegenerateGraphError"

    def test_time_budget_exit5(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "clique_number", "--time-budget", "0",
             "--graph", str(graphs / "dense60.txt")], capsys)
        assert code == 5
        assert json.loads(out)["error"] == "TimeBudgetExceededError"

    @pytest.mark.parametrize("budget,code,error", [
        ("nan", 2, "InvalidSpecError"),
        ("-1", 5, "TimeBudgetExceededError"),
    ])
    def test_time_budget_nan_exit2_negative_exit5(self, graphs, capsys,
                                                  budget, code, error):
        got, out, _ = run_cli(
            ["stat", "--detector", "clique_number", "--time-budget", budget,
             "--graph", str(graphs / "dense60.txt")], capsys)
        assert got == code
        assert json.loads(out)["error"] == error

    def test_exact_densest_at_n1000(self, tmp_path, capsys):
        path = str(tmp_path / "g1000.txt")
        code, _, _ = run_cli(
            ["sample", "--model", "null", "--N", "1000", "--p0", "0.05",
             "--seed", "0", "--out", path], capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["stat", "--detector", "densest_subgraph", "--graph", path], capsys)
        assert code == 0
        exact = json.loads(out)
        assert exact["exact"] is True
        witness = exact["witness"]
        assert exact["value"] == (read_graph(path).subgraph_edges(witness)
                                  / len(witness))
        code, out, _ = run_cli(
            ["stat", "--detector", "densest_subgraph", "--mode", "peel",
             "--graph", path], capsys)
        assert code == 0
        assert exact["value"] >= json.loads(out)["value"]

    @pytest.mark.parametrize("N", [0, 1, 2, 8])
    @pytest.mark.parametrize("kind", ["empty", "complete"])
    def test_edge_inputs_exit_codes(self, N, kind, tmp_path, capsys):
        # documented: 0 success, 2 a size n outside [1, N], 4 a statistic
        # undefined on the graph; never a traceback
        path = str(tmp_path / "g.txt")
        write_graph(getattr(Graph, kind)(N), path)
        for detector in sorted(DETECTORS):
            argv = ["stat", "--detector", detector, "--graph", path]
            sized = detector in _SIZED_DETECTORS
            if sized:
                argv += ["--n", str(max(1, min(3, N)))]
            if N == 0:
                want = 0 if detector == "total_degree" else 2 if sized else 4
            else:
                want = 4 if detector == "degree_variance" and N < 3 else 0
            code, out, _ = run_cli(argv, capsys)
            data = json.loads(out)
            assert code == want, (detector, data)
            if want:
                assert set(data) == {"error", "message"}
            else:
                assert data["detector_id"] == detector

    @pytest.mark.parametrize("graph,argv,want,error,message", [
        # C(60, 10) is about 7.5e10, over the default budget of 1e8 subsets
        pytest.param(Graph.empty(60),
                     ["--detector", "scan", "--mode", "exact", "--n", "10"],
                     5, "BudgetExceededError", "subsets",
                     id="subset-budget"),
        # 2 N M = 2 * 1300 * 844350 is just over 2^31
        pytest.param(Graph.complete(1300), ["--detector", "densest_subgraph"],
                     2, "InvalidSpecError",
                     "graph too large for the int32 exact-flow construction",
                     id="flow-limit"),
    ])
    def test_limit_inputs_exit_codes(self, graph, argv, want, error, message,
                                     tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        write_graph(graph, path)
        code, out, err = run_cli(["stat", *argv, "--graph", path], capsys)
        data = json.loads(out)
        assert code == want
        assert data["error"] == error
        assert message in data["message"]
        assert "Traceback" not in err

    def test_unknown_detector(self, graphs, capsys):
        code, _, err = run_cli(
            ["stat", "--detector", "psychic",
             "--graph", str(graphs / "k4.txt")], capsys)
        assert code == 2
        assert "unknown detector" in err


class TestCalibrate:
    def test_analytic_pinned_threshold(self, capsys):
        code, out, _ = run_cli(
            ["calibrate", "--method", "analytic", "--detector",
             "total_degree", "--N", "50", "--p0", "0.2",
             "--alpha", "0.05"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["threshold"] == 268.0
        assert data["method"] == "analytic_binomial"
        assert data["replicates"] == 0

    def test_monte_carlo_near_analytic(self, capsys):
        code, out, _ = run_cli(
            ["calibrate", "--detector", "total_degree", "--N", "50",
             "--p0", "0.2", "--alpha", "0.05", "--replicates", "999",
             "--seed", "13"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "monte_carlo_known_p0"
        assert abs(data["threshold"] - 268.0) <= 6

    def test_analytic_refuses_other_detectors(self, capsys):
        code, _, err = run_cli(
            ["calibrate", "--method", "analytic", "--detector", "scan",
             "--n", "3", "--N", "20", "--p0", "0.2"], capsys)
        assert code == 2

    def test_bootstrap_from_graph(self, graphs, capsys):
        write_graph(Graph(20, [(i, (i + 1) % 20) for i in range(20)]),
                    graphs / "cycle.txt")
        code, out, _ = run_cli(
            ["calibrate", "--method", "bootstrap", "--detector",
             "total_degree", "--graph", str(graphs / "cycle.txt"),
             "--alpha", "0.1", "--replicates", "99", "--seed", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "parametric_bootstrap"
        assert data["null_spec"]["p0"] == pytest.approx(20 / 190)

    def test_insufficient_replicates_exit2(self, capsys):
        code, _, err = run_cli(
            ["calibrate", "--detector", "total_degree", "--N", "20",
             "--p0", "0.2", "--alpha", "0.01", "--replicates", "50"], capsys)
        assert code == 2
        assert "replicate" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_negative_seed_exit2(self, workers, capsys):
        code, out, err = run_cli(
            ["calibrate", "--detector", "total_degree", "--N", "10",
             "--p0", "0.5", "--replicates", "19", "--seed", "-3",
             "--workers", workers], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("subgraph-sentinel: error: ")
        assert err.count("\n") == 1


class TestRisk:
    def test_degenerate_pair_gamma_near_one(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--detector", "scan", "--N", "12", "--n", "3",
             "--p0", "0.3", "--p1", "0.3", "--alpha", "0.1",
             "--replicates", "100", "--seed", "5"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert abs(float(rows[0]["gamma"]) - 1.0) <= 0.15
        assert rows[0]["regime"] == "Undetectable"

    def test_combined_detectors(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--detector", "scan+total_degree", "--N", "12",
             "--n", "4", "--p0", "0.2", "--p1", "0.95", "--alpha", "0.1",
             "--replicates", "80", "--seed", "5"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["detector"] == "scan+total_degree"
        assert float(row["gamma"]) < 0.7

    def test_unknown_component(self, capsys):
        code, _, err = run_cli(
            ["risk", "--detector", "scan+psychic", "--N", "12", "--n", "3",
             "--p0", "0.3", "--p1", "0.8"], capsys)
        assert code == 2

    def test_domain_error_exit4(self, capsys):
        # p1 below p0 violates the model ordering
        code, _, err = run_cli(
            ["risk", "--detector", "scan", "--N", "12", "--n", "3",
             "--p0", "0.8", "--p1", "0.3", "--replicates", "40"], capsys)
        assert code in (2, 4)  # surfaced as a spec error before sampling
        assert code == 2


class TestPhase:
    def _config(self, tmp_path, cells):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "cells": cells,
            "detectors": "total_degree,scan",
            "alpha": 0.1, "replicates": 30, "seed": 5,
        }))
        return cfg

    def test_sweep_and_resume_identity(self, tmp_path, capsys):
        cells = [{"N": 12, "n": 3, "p0": 0.3, "p1": 0.9},
                 {"N": 14, "n": 4, "p0": 0.2, "p1": 0.8}]
        cfg = self._config(tmp_path, cells)
        out1 = tmp_path / "a.csv"
        code, _, err = run_cli(
            ["phase", "--config", str(cfg), "--resume",
             str(tmp_path / "ck"), "--out", str(out1)], capsys)
        assert code == 0
        assert "gamma=" in err  # progress lines on stderr
        # drop the checkpoint to one finished row and resume to a new file
        ck = tmp_path / "ck" / "checkpoint.jsonl"
        lines = ck.read_text().splitlines()
        assert len(lines) == 4
        ck.write_text(lines[0] + "\n")
        out2 = tmp_path / "b.csv"
        code, _, _ = run_cli(
            ["phase", "--config", str(cfg), "--resume",
             str(tmp_path / "ck"), "--out", str(out2)], capsys)
        assert code == 0

        def rows_no_seconds(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for r in rows:
                r.pop("seconds")
            return rows

        assert rows_no_seconds(out1) == rows_no_seconds(out2)

    def test_jsonl_output(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [{"N": 12, "n": 3, "p0": 0.3, "p1": 0.9}])
        jl = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(
            ["phase", "--config", str(cfg), "--jsonl", str(jl)], capsys)
        assert code == 0
        rows = [json.loads(line) for line in jl.read_text().splitlines()]
        assert len(rows) == 2
        assert {r["detector"] for r in rows} == {"total_degree", "scan"}

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [{"N": 12, "n": 3, "p0": 0.3, "p1": 0.9}])
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["phase", "--config", str(cfg), "--detectors", "total_degree",
             "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["detector"] for r in rows] == ["total_degree"]
        sidecar = json.loads((tmp_path / "c.csv.config.json").read_text())
        assert sidecar["detectors"] == "total_degree"

    def test_combination_row_matches_risk(self, tmp_path, capsys):
        cfg = tmp_path / "combo.json"
        cfg.write_text(json.dumps({
            "cells": [{"N": 12, "n": 3, "p0": 0.2, "p1": 0.8}],
            "detectors": "scan+total_degree",
            "alpha": 0.1, "replicates": 40, "seed": 5, "workers": 1,
        }))
        code, phase_out, _ = run_cli(["phase", "--config", str(cfg)], capsys)
        assert code == 0
        code, risk_out, _ = run_cli(
            ["risk", "--detector", "scan+total_degree", "--N", "12",
             "--n", "3", "--p0", "0.2", "--p1", "0.8", "--alpha", "0.1",
             "--replicates", "40", "--seed", "5", "--workers", "1"], capsys)
        assert code == 0

        def rows(text):
            found = list(csv.DictReader(io.StringIO(text)))
            for r in found:
                r.pop("seconds")
            return found

        assert rows(phase_out) == rows(risk_out)
        assert rows(phase_out)[0]["detector"] == "scan+total_degree"

    def test_unknown_combination_component(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [{"N": 12, "n": 3, "p0": 0.3, "p1": 0.9}])
        code, _, err = run_cli(
            ["phase", "--config", str(cfg), "--detectors", "scan+psychic"],
            capsys)
        assert code == 2
        assert "unknown detector 'psychic'" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", "2", "alpha must be in (0,1), got 2.0"),
        ("--replicates", "0", "need at least one replicate"),
    ])
    def test_bad_run_level_value_exit2(self, flag, value, message, tmp_path,
                                       capsys):
        # checked once before the first cell, as risk does, instead of
        # becoming an error row for every cell
        cfg = self._config(tmp_path, [{"N": 12, "n": 3, "p0": 0.3, "p1": 0.9}])
        code, out, err = run_cli(
            ["phase", "--config", str(cfg), flag, value], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("cell,message", [
        ({"N": "abc", "n": 3, "p0": 0.3, "p1": 0.9}, "cell N must be a number"),
        ([5], "a cell must be an object"),
        ({"N": 12, "n": 3, "p0": None, "p1": 0.9}, "cell p0 must be a number"),
        ({"N": 20.7, "n": 3, "p0": 0.3, "p1": 0.9}, "cell N must be an integer"),
        ({"N": True, "n": 3, "p0": 0.3, "p1": 0.9}, "cell N must be a number"),
    ])
    def test_bad_cell_exit2(self, cell, message, tmp_path, capsys):
        cfg = self._config(tmp_path, [cell])
        code, out, err = run_cli(["phase", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_cells_must_come_from_config(self, capsys):
        code, _, err = run_cli(
            ["phase", "--detectors", "total_degree"], capsys)
        assert code == 2
        assert "--cells" in err or "cells" in err


class TestClassify:
    def test_pinned_example(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--N", "10000", "--n", "500", "--p0", "0.01",
             "--p1", "0.1", "--knowledge", "known"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "TotalDegreeRegime"
        assert "total_degree" in data["predicates"]
        assert data["thresholds"]["relaxed_scan"] == 2.0

    def test_constraints_toggle(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--N", "100", "--n", "30", "--p0", "0.1",
             "--p1", "0.5", "--no-constraints-check"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["constraints_ok"] is None

    def test_domain_error_exit4(self, capsys):
        code, _, _ = run_cli(
            ["classify", "--N", "100", "--n", "30", "--p0", "0.5",
             "--p1", "0.4"], capsys)
        assert code == 4

    @pytest.mark.parametrize("value,want", [
        pytest.param("0", 4, id="0"), pytest.param("-1", 4, id="-1"),
        # nan is no number: an input error, as in every other command
        pytest.param("nan", 2, id="nan"),
    ])
    def test_side_threshold_must_be_positive(self, value, want, capsys):
        code, _, err = run_cli(
            ["classify", "--N", "100", "--n", "30", "--p0", "0.1",
             "--p1", "0.5", "--side-threshold", value], capsys)
        assert code == want
        assert err == "subgraph-sentinel: error: side_threshold must be positive\n"

    def test_non_finite_json_fallback(self):
        # JSON lacks Infinity/NaN literals; the writer downgrades to repr
        from subgraph_sentinel.cli import _jsonable
        out = _jsonable({"a": float("inf"), "b": [float("nan"), 1.5]})
        assert out == {"a": "inf", "b": ["nan", 1.5]}
        json.dumps(out)


class TestConfigMerge:
    def test_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 30, "p0": 0.2, "seed": 3}))
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(
            ["sample", "--config", str(cfg), "--p0", "0.5",
             "--out", str(out)], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "g.txt.config.json").read_text())
        assert sidecar["N"] == 30        # from config
        assert sidecar["p0"] == 0.5      # flag wins
        assert sidecar["seed"] == 3
        assert sidecar["model"] == "null"  # default survives

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 30, "p0": 0.2, "zzz": 1}))
        code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 2
        assert "zzz" in err

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{broken")
        code, _, _ = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,cfg", [
        (["sample", "--p0", "0.2"], {"N": "abc"}),
        (["sample", "--p0", "0.2"], {"N": 30.7}),
        (["sample", "--N", "30", "--p0", "0.2"], {"seed": [1]}),
        (["sample", "--N", "30", "--p0", "0.2"], {"N": True}),
        (["calibrate", "--detector", "total_degree", "--method", "analytic",
          "--N", "30", "--p0", "0.2"], {"alpha": "x"}),
        (["calibrate", "--detector", "total_degree", "--method", "analytic",
          "--N", "30", "--p0", "0.2"], {"alpha": 10**400}),
        (["sample", "--N", "30", "--p0", "0.2"], {"model": "weird"}),
        (["classify", "--N", "100", "--n", "30", "--p0", "0.1", "--p1", "0.5"],
         {"constraints_check": "yes"}),
        (["sample", "--N", "30", "--p0", "0.2"], {"seed": None}),
        (["stat", "--detector", "max_degree"], {"graph": 5}),
        (["phase", "--detectors", "total_degree"], {"cells": "x"}),
        (["phase"], {"detectors": ["scan", 3], "cells": []}),
    ])
    def test_config_value_of_wrong_kind_exit2(self, argv, cfg, tmp_path,
                                             capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(argv + ["--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        key = next(iter(cfg))
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("argv,cfg", [
        (["sample", "--N", "5", "--p0", "0.5"], {}),
        (["calibrate", "--detector", "total_degree", "--N", "10", "--p0",
          "0.5", "--replicates", "19"], {}),
        (["risk", "--detector", "total_degree", "--N", "30", "--n", "5",
          "--p0", "0.1", "--p1", "0.6", "--replicates", "19"], {}),
        (["phase", "--detectors", "total_degree", "--replicates", "19"],
         {"cells": [{"N": 30, "n": 5, "p0": 0.1, "p1": 0.6}]}),
    ], ids=["sample", "calibrate", "risk", "phase"])
    def test_negative_seed_exit2(self, argv, cfg, via, tmp_path, monkeypatch,
                                 capsys):
        def no_draw(*args):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(models, "stream_rng", no_draw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "seed": -3} if via == "config"
                                   else cfg))
        argv = argv + ["--config", str(path)]
        if via == "flag":
            argv += ["--seed", "-3"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "subgraph-sentinel: error: seed must be nonnegative, got -3\n"

    def test_whole_float_for_integer_option(self, tmp_path, capsys):
        # JSON's 40.0 is the count 40: the same graph, logged as written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 40.0, "p0": 0.3, "seed": 5.0}))
        code, out, err = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 0
        assert '"N": 40.0' in err and '"seed": 5.0' in err
        assert (code, out) == run_cli(["sample", "--N", "40", "--p0", "0.3",
                                       "--seed", "5"], capsys)[:2]

    def test_config_numbers_logged_as_written(self, tmp_path, capsys):
        # an integer given to a float option is accepted and logged as is
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 100, "n": 30, "p0": 0.1, "p1": 1,
                                   "side_threshold": 1}))
        code, out, err = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert '"p1": 1, "side_threshold": 1}' in err
        assert json.loads(out)["inputs"]["p1"] == 1.0

    def test_undecodable_config_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"N": "\xff"}')
        code, _, err = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 2
        assert "utf-8" in err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sample", "--config", str(tmp_path / "none.json")], capsys)
        assert code == 3


class TestResolvedDefaults:
    """Each command's resolved config with only its required options."""

    @pytest.mark.parametrize("argv,expected", [
        (["sample", "--N", "10", "--p0", "0.1"],
         '{"N": 10, "model": "null", "n": null, "out": null, "p0": 0.1, '
         '"p1": null, "seed": 0, "stream_index": 0}'),
        (["stat", "--graph", "g.txt", "--detector", "total_degree"],
         '{"detector": "total_degree", "graph": "g.txt", "mode": null, '
         '"n": null, "out": null, "time_budget": null}'),
        (["calibrate", "--detector", "total_degree", "--N", "20",
          "--p0", "0.2"],
         '{"N": 20, "alpha": 0.05, "detector": "total_degree", '
         '"graph": null, "method": "monte_carlo", "mode": null, "n": null, '
         '"out": null, "p0": 0.2, "replicates": 999, "seed": 0, '
         '"workers": null}'),
        (["risk", "--detector", "total_degree", "--N", "12", "--n", "3",
          "--p0", "0.2", "--p1", "0.8"],
         '{"N": 12, "alpha": 0.05, "detector": "total_degree", '
         '"model": "planted", "n": 3, "out": null, "p0": 0.2, "p1": 0.8, '
         '"replicates": 200, "seed": 0, "workers": null}'),
        (["phase", "--config", "min.json"],
         '{"alpha": 0.05, "cells": [{"N": 12, "n": 3, "p0": 0.2, '
         '"p1": 0.8}], "detectors": "total_degree", "jsonl": null, '
         '"out": null, "replicates": 200, "resume": null, "seed": 0, '
         '"workers": null}'),
        (["classify", "--N", "100", "--n", "30", "--p0", "0.1",
          "--p1", "0.5"],
         '{"N": 100, "constraints_check": true, "knowledge": "known", '
         '"n": 30, "out": null, "p0": 0.1, "p1": 0.5, '
         '"side_threshold": 0.5}'),
    ])
    def test_resolved_config_line(self, argv, expected, tmp_path,
                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_graph(Graph.complete(4), "g.txt")
        pathlib.Path("min.json").write_text(json.dumps({
            "cells": [{"N": 12, "n": 3, "p0": 0.2, "p1": 0.8}],
            "detectors": "total_degree"}))
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        lines = [ln for ln in err.splitlines()
                 if ln.startswith("resolved config: ")]
        assert lines == ["resolved config: " + expected]


class TestWorkers:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", "7")
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == 7

    def test_env_fallback_validation(self, monkeypatch):
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", "abc")
        with pytest.raises(InvalidSpecError):
            resolve_workers(None)

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_refused(self, count, monkeypatch):
        with pytest.raises(InvalidSpecError,
                           match=f"^workers must be at least 1, got {count}$"):
            resolve_workers(count)
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", str(count))
        with pytest.raises(InvalidSpecError,
                           match="^SUBGRAPH_SENTINEL_WORKERS must be at least "
                                 f"1, got {count}$"):
            resolve_workers(None)

    @pytest.mark.parametrize("count", [0, -5])
    @pytest.mark.parametrize("via", ["flag", "config", "env"])
    @pytest.mark.parametrize("argv,cfg", [
        (["calibrate", "--detector", "total_degree", "--N", "10", "--p0",
          "0.5", "--replicates", "19"], {}),
        (["risk", "--detector", "total_degree", "--N", "30", "--n", "5",
          "--p0", "0.1", "--p1", "0.6", "--replicates", "19"], {}),
        (["phase", "--detectors", "total_degree", "--replicates", "19"],
         {"cells": [{"N": 30, "n": 5, "p0": 0.1, "p1": 0.6}]}),
    ], ids=["calibrate", "risk", "phase"])
    def test_count_below_one_exit2(self, argv, cfg, via, count, tmp_path,
                                   monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(replicates, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(models, "stream_rng", refused)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "workers": count} if via == "config"
                                   else cfg))
        argv = argv + ["--config", str(path)]
        if via == "flag":
            argv += ["--workers", str(count)]
        if via == "env":
            monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", str(count))
        name = "SUBGRAPH_SENTINEL_WORKERS" if via == "env" else "workers"
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"subgraph-sentinel: error: {name} must be at least 1, "
                       f"got {count}\n")

    def test_count_above_cap_refused(self, monkeypatch):
        # only resolve_workers is called: a pool of this size is never tried
        assert resolve_workers(8192) == 8192
        assert resolve_workers(np.int64(3)) == 3
        with pytest.raises(InvalidSpecError,
                           match="^workers must be at most 8192, got 8193$"):
            resolve_workers(8193)
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", str(10**20))
        with pytest.raises(InvalidSpecError,
                           match="^SUBGRAPH_SENTINEL_WORKERS must be at most "
                                 f"8192, got {10**20}$"):
            resolve_workers(None)

    @pytest.mark.parametrize("flag,value,message", [
        ("--workers", str(10**20), f"workers must be at most 8192, got {10**20}"),
        ("--replicates", str(10**23), "replicates must be an integer no larger "
                                      f"than 1000000, got {10**23}"),
    ], ids=["workers", "replicates"])
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--detector", "total_degree", "--N", "10", "--p0", "0.5"],
        ["risk", "--detector", "total_degree", "--N", "30", "--n", "5",
         "--p0", "0.1", "--p1", "0.6"],
        ["phase", "--detectors", "total_degree"],
    ], ids=["calibrate", "risk", "phase"])
    def test_count_above_cap_exit2(self, argv, flag, value, message, tmp_path,
                                   monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(replicates, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(models, "stream_rng", refused)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"cells": [{"N": 30, "n": 5, "p0": 0.1, "p1": 0.6}]}
            if argv[0] == "phase" else {}))
        code, out, err = run_cli(argv + ["--config", str(path), flag, value],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"subgraph-sentinel: error: {message}\n"

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("SUBGRAPH_SENTINEL_WORKERS", raising=False)
        assert resolve_workers(None) >= 1

    def test_env_reaches_commands(self, monkeypatch, capsys):
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", "1")
        code, out, _ = run_cli(
            ["calibrate", "--detector", "total_degree", "--N", "20",
             "--p0", "0.2", "--alpha", "0.1", "--replicates", "40",
             "--seed", "2"], capsys)
        assert code == 0


def run_fresh(code):
    """stdout of `python -c code` in a new interpreter that imports this
    checkout of the package."""
    src = str(pathlib.Path(subgraph_sentinel.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    return proc.stdout.strip()


class TestStartup:
    def test_parser_loads_no_scipy(self):
        # scipy is loaded by the statistics that need it, not by start-up
        code = ("import sys; from subgraph_sentinel import cli; cli.build_parser(); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert run_fresh(code) == "[]"

    def test_parser_loads_no_blas_symbol(self):
        # the BLAS thread controls are looked up by the first eigensolve loop
        code = (
            "import ctypes, sys\n"
            "opened = []\n"
            "class Spy(ctypes.CDLL):\n"
            "    def __init__(self, name, *args, **kwargs):\n"
            "        opened.append(name)\n"
            "        super().__init__(name, *args, **kwargs)\n"
            "ctypes.CDLL = Spy\n"
            "from subgraph_sentinel import cli\n"
            "cli.build_parser()\n"
            "from subgraph_sentinel.detectors import spectral\n"
            "print(sorted(str(n) for n in opened if 'openblas' in str(n)),\n"
            "      sorted(n for n, m in sys.modules.items()\n"
            "             if n.startswith('subgraph_sentinel')\n"
            "             and 'ctypes' in vars(m)),\n"
            "      spectral._openblas_thread_controls.cache_info().currsize)\n")
        assert run_fresh(code) == "[] [] 0"
