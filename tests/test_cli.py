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
from subgraph_sentinel.cli import main, resolve_workers
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
    rng = np.random.default_rng(b := 77)
    dense = Graph(60, [(i, j) for i in range(60) for j in range(i + 1, 60)
                       if rng.random() < 0.9])
    write_graph(dense, tmp_path / "dense60.txt")
    (tmp_path / "bad.txt").write_text("3 1\n0 0\n")
    return tmp_path


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

    def test_missing_required(self, capsys):
        code, _, err = run_cli(["sample", "--N", "10"], capsys)
        assert code == 2
        assert "--p0" in err


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
             "--graph", str(graphs / "empty10.txt")], capsys)
        assert code == 4
        data = json.loads(out)
        assert data["error"] == "DegenerateGraphError"

    def test_time_budget_exit5(self, graphs, capsys):
        code, out, _ = run_cli(
            ["stat", "--detector", "clique_number", "--time-budget", "0",
             "--graph", str(graphs / "dense60.txt")], capsys)
        assert code == 5
        assert json.loads(out)["error"] == "TimeBudgetExceededError"

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

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sample", "--config", str(tmp_path / "none.json")], capsys)
        assert code == 3


class TestWorkers:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", "7")
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == 7

    def test_env_fallback_validation(self, monkeypatch):
        monkeypatch.setenv("SUBGRAPH_SENTINEL_WORKERS", "abc")
        with pytest.raises(InvalidSpecError):
            resolve_workers(None)

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


class TestStartup:
    def test_parser_loads_no_scipy(self):
        # scipy is loaded by the statistics that need it, not by start-up
        code = ("import sys; from subgraph_sentinel import cli; cli.build_parser(); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(pathlib.Path(subgraph_sentinel.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        assert proc.stdout.strip() == "[]"
