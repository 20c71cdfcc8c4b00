"""Phase sweeps: cells, checkpoints, resume identity, and CSV shape."""

import json
import tracemalloc

import pytest

from subgraph_sentinel import calibration, errors, risk, sweep
from subgraph_sentinel import replicates as engine
from subgraph_sentinel.cli import exit_code_for, main
from subgraph_sentinel.errors import InvalidSpecError
from subgraph_sentinel.models import ModelSpec, effective_p0
from subgraph_sentinel.sweep import (
    CSV_HEADER,
    cell_hash,
    cell_specs,
    default_params,
    normalize_cell,
    phase_sweep,
    risk_row,
    rows_to_csv,
    rows_to_json_lines,
    run_cell,
)

CELL = {"N": 14, "n": 4, "p0": 0.2, "p1": 0.9}
CELL_B = {"N": 12, "n": 3, "p0": 0.3, "p1": 0.8}


def stripped(row):
    return {k: v for k, v in row.items() if k != "seconds"}


class TestCellPlumbing:
    def test_normalize_defaults_model(self):
        c = normalize_cell(CELL)
        assert c["model"] == "planted"
        assert c["N"] == 14 and isinstance(c["N"], int)

    def test_normalize_rejects_bad_cells(self):
        with pytest.raises(InvalidSpecError):
            normalize_cell({"N": 10, "n": 3, "p0": 0.1})
        with pytest.raises(InvalidSpecError):
            normalize_cell({**CELL, "zzz": 1})
        with pytest.raises(InvalidSpecError):
            normalize_cell({**CELL, "model": "mystery"})

    @pytest.mark.parametrize("cell", [
        [5],
        "N=14",
        None,
        {**CELL, "N": "abc"},
        {**CELL, "N": "14"},
        {**CELL, "N": True},
        {**CELL, "n": False},
        {**CELL, "p0": None},
        {**CELL, "p1": "0.9"},
        {**CELL, "N": 20.7},
        {**CELL, "n": 3.5},
        {**CELL, "N": float("inf")},
        {**CELL, "n": float("nan")},
        {**CELL, "p0": 10**400},
        {**CELL, "N": 10**400},
        {**CELL, "model": ["planted"]},
    ])
    def test_normalize_refuses_instead_of_coercing(self, cell):
        with pytest.raises(InvalidSpecError):
            normalize_cell(cell)

    def test_normalize_keeps_integral_floats_and_integer_probabilities(self):
        c = normalize_cell({"N": 14.0, "n": 4.0, "p0": 1, "p1": 1})
        assert c == {"N": 14, "n": 4, "p0": 1.0, "p1": 1.0, "model": "planted"}
        assert isinstance(c["N"], int) and isinstance(c["n"], int)
        assert isinstance(c["p0"], float) and isinstance(c["p1"], float)
        assert cell_hash({**CELL, "N": 14.0}) == cell_hash(CELL)

    def test_cell_hash_is_canonical(self):
        assert cell_hash(CELL) == cell_hash({**CELL, "model": "planted"})
        assert cell_hash(CELL) != cell_hash(CELL_B)
        reordered = {"p1": 0.9, "p0": 0.2, "n": 4, "N": 14}
        assert cell_hash(CELL) == cell_hash(reordered)

    def test_cell_specs_planted(self):
        null, alt = cell_specs(normalize_cell(CELL))
        assert null == ModelSpec.null(14, 0.2)
        assert alt.planted_set == (0, 1, 2, 3)
        assert alt.variant == "planted"

    def test_cell_specs_fixed_degree(self):
        null, alt = cell_specs(normalize_cell({**CELL, "model": "fixed_degree"}))
        assert alt.variant == "planted_fixed_degree"
        assert null.p0 == pytest.approx(effective_p0(0.2, 0.9, 4, 14))

    def test_default_params(self):
        assert default_params("scan", 5) == {"n": 5, "mode": "branch_bound"}
        assert default_params("glr", 5) == {"n": 5}
        assert default_params("total_degree", 5) == {}
        assert default_params("clique_number", 5) == {}


class TestRunCell:
    def test_row_shape_and_determinism(self):
        r1 = run_cell(CELL, "total_degree", 0.1, 60, 5)
        r2 = run_cell(CELL, "total_degree", 0.1, 60, 5)
        assert stripped(r1) == stripped(r2)
        assert r1["gamma"] == pytest.approx(r1["type1"] + r1["type2"])
        assert r1["regime"] is not None
        assert r1["error"] is None
        assert r1["seconds"] > 0
        assert r1["cell_hash"] == cell_hash(CELL)

    def test_error_row_keeps_regime(self):
        # insufficient replicates for the rank at this alpha
        row = run_cell(CELL, "total_degree", 0.01, 50, 5)
        assert row["error"] is not None
        assert row["error"].startswith("InsufficientReplicatesError")
        assert row["regime"] is not None
        assert row["gamma"] is None

    def test_N_beyond_the_pair_index_is_an_error_row(self):
        row = run_cell({**CELL, "N": 10**30}, "total_degree", 0.1, 19, 5)
        assert row["error"].startswith("InvalidSpecError: N must be at most 2**32")
        assert row["gamma"] is None

    def test_unknown_detector_is_an_error_row(self):
        row = run_cell(CELL, "psychic", 0.1, 30, 5)
        assert row["error"].startswith("InvalidSpecError")

    def test_detector_ids_checked_before_any_replicate(self, monkeypatch,
                                                       capsys):
        maps = []

        def counting(fn, draws, workers=None):
            maps.append(len(draws))
            return engine.map_replicates(fn, draws, workers)

        monkeypatch.setattr(calibration, "map_replicates", counting)
        monkeypatch.setattr(risk, "map_replicates", counting)
        row = run_cell(CELL, "scan+psychic", 0.1, 30, 5)
        assert row["error"].startswith(
            "InvalidSpecError: unknown detector 'psychic'")
        assert row["regime"] is not None
        code = main(["risk", "--detector", "+", "--N", "14", "--n", "3",
                     "--p0", "0.2", "--p1", "0.3", "--replicates", "40"])
        assert code == 2
        assert "unknown detector ''" in capsys.readouterr().err
        assert maps == []

    def test_p1_below_p0_is_an_invalid_spec_error_row(self):
        row = run_cell({"N": 14, "n": 3, "p0": 0.8, "p1": 0.3},
                       "total_degree", 0.05, 40, 3)
        assert row["error"] == "InvalidSpecError: planted variant needs p1 >= p0"
        assert row["regime"] is None and row["gamma"] is None

    def test_large_n_refused_before_the_planted_set_is_built(self):
        # the prefix planted set is a lazy range until ModelSpec has checked
        # n <= N; a tuple of n entries (about 36 MB here) once came first
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpecError,
                               match=r"n must be an integer in \[1, N\]"):
                risk_row({**CELL, "n": 10**6}, "total_degree", 0.05, 40, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("model", ["planted", "fixed_degree"])
    @pytest.mark.parametrize("cell,detector", [
        ({"p0": 0.8, "p1": 0.3}, "total_degree"),
        ({"p1": 1.5}, "total_degree"),
        ({"p0": 0}, "total_degree"),
        ({"p0": 1, "p1": 1}, "total_degree"),
        ({"p0": float("nan")}, "total_degree"),
        ({"n": 0}, "total_degree"),
        ({"n": 1}, "total_degree"),
        ({"n": 15}, "total_degree"),
        ({"N": 2, "n": 2}, "total_degree"),
        ({}, "psychic"),
        ({}, "scan+psychic"),
    ], ids=["p1<p0", "p1>1", "p0=0", "p0=1", "p0=nan", "n=0", "n=1",
            "n>N", "N=2", "unknown", "unknown-in-combination"])
    def test_risk_exits_with_the_error_of_the_run_cell_row(
            self, cell, detector, model, monkeypatch, capsys):
        maps = []
        monkeypatch.setattr(calibration, "map_replicates",
                            lambda *args, **kwargs: maps.append(args))
        monkeypatch.setattr(risk, "map_replicates",
                            lambda *args, **kwargs: maps.append(args))
        cell = {"N": 14, "n": 3, "p0": 0.2, "p1": 0.9, **cell, "model": model}
        row = run_cell(cell, detector, 0.05, 200, 0, workers=1)
        name, message = row["error"].split(": ", 1)
        argv = ["risk", "--detector", detector, "--workers", "1"]
        for key, value in cell.items():
            argv += ["--" + key, str(value)]
        code = main(argv)
        assert code == exit_code_for(getattr(errors, name)(message))
        err = capsys.readouterr().err
        assert err.count("subgraph-sentinel: error:") == 1
        assert f"subgraph-sentinel: error: {message}\n" in err
        assert maps == []

    def test_unclassifiable_cell_fails_before_calibration(self, monkeypatch,
                                                          capsys):
        # n = 1 has no regime: risk and run_cell refuse it before drawing,
        # whatever the replicate count
        calls = []
        monkeypatch.setattr(sweep, "calibrate",
                            lambda *args, **kwargs: calls.append(args))
        cell = {"N": 200, "n": 1, "p0": 0.1, "p1": 0.5}
        for replicates in (4, 400):
            row = run_cell(cell, "total_degree", 0.05, replicates, 0, workers=1)
            assert row["error"] == ("DomainError: need N >= 3 and "
                                    "2 <= n <= N, got N=200, n=1")
            code = main(["risk", "--detector", "total_degree", "--N", "200",
                         "--n", "1", "--p0", "0.1", "--p1", "0.5",
                         "--replicates", str(replicates), "--workers", "1"])
            assert code == 4
            err = capsys.readouterr().err
            assert err == ("subgraph-sentinel: error: "
                           + row["error"].split(": ", 1)[1] + "\n")
        assert calls == []

    def test_cli_risk_prints_the_run_cell_row(self, capsys):
        code = main(["risk", "--detector", "scan+total_degree", "--N", "14",
                     "--n", "3", "--p0", "0.2", "--p1", "0.9",
                     "--replicates", "40", "--seed", "3", "--workers", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        row = run_cell({"N": 14, "n": 3, "p0": 0.2, "p1": 0.9},
                       "scan+total_degree", 0.05, 40, 3, workers=1)
        assert row["error"] is None

        def cells(csv_text):
            names = csv_text.splitlines()[0].split(",")
            values = csv_text.splitlines()[1].split(",")
            return {k: v for k, v in zip(names, values) if k != "seconds"}

        assert cells(printed) == cells(rows_to_csv([row]))

    def test_fixed_degree_uses_unknown_knowledge(self):
        planted = run_cell(CELL, "total_degree", 0.1, 30, 5)
        fixed = run_cell({**CELL, "model": "fixed_degree"}, "total_degree",
                         0.1, 30, 5)
        assert planted["model"] == "planted" and fixed["model"] == "fixed_degree"
        # same geometry, different column convention may change the label;
        # both must carry one
        assert planted["regime"] and fixed["regime"]


class TestPhaseSweep:
    def test_row_order_is_grid_by_detector(self):
        rows = phase_sweep([CELL, CELL_B], ["total_degree", "scan"],
                           0.1, 30, 5)
        key = [(r["cell_hash"], r["detector"]) for r in rows]
        assert key == [
            (cell_hash(CELL), "total_degree"), (cell_hash(CELL), "scan"),
            (cell_hash(CELL_B), "total_degree"), (cell_hash(CELL_B), "scan"),
        ]

    def test_empty_inputs_rejected(self):
        with pytest.raises(InvalidSpecError):
            phase_sweep([], ["scan"], 0.1, 30, 5)
        with pytest.raises(InvalidSpecError):
            phase_sweep([CELL], [], 0.1, 30, 5)

    def test_unknown_id_refused_before_the_grid(self):
        with pytest.raises(InvalidSpecError,
                           match="unknown detector 'psychic'"):
            phase_sweep([{"N": "abc"}], ["total_degree", "scan+psychic"],
                        0.1, 30, 5)

    def test_checkpoint_resume_identity(self, tmp_path):
        ck = tmp_path / "checkpoint.jsonl"
        full = phase_sweep([CELL, CELL_B], ["total_degree", "scan"],
                           0.1, 30, 5, checkpoint_path=ck)
        # simulate a kill after two rows: keep only the first two lines
        lines = ck.read_text().splitlines()
        assert len(lines) == 4
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = phase_sweep([CELL, CELL_B], ["total_degree", "scan"],
                              0.1, 30, 5, checkpoint_path=ck)
        # reused rows are verbatim (seconds included); fresh rows new
        assert resumed[0] == json.loads(lines[0])
        assert resumed[1] == json.loads(lines[1])
        assert [stripped(r) for r in resumed] == [stripped(r) for r in full]

    def test_checkpointed_error_row_recomputed(self, tmp_path):
        # an error row is retried on resume, so one whose error text an
        # older version wrote does not outlive it
        ck = tmp_path / "checkpoint.jsonl"
        bad = {"N": 14, "n": 3, "p0": 0.8, "p1": 0.3}
        fresh = phase_sweep([bad, CELL], ["total_degree"], 0.1, 30, 5,
                            checkpoint_path=ck)
        lines = [json.loads(line) for line in ck.read_text().splitlines()]
        lines[0]["error"] = "DomainError: p1 must be in [p0, 1], got 0.3"
        ck.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                              for r in lines))
        resumed = phase_sweep([bad, CELL], ["total_degree"], 0.1, 30, 5,
                              checkpoint_path=ck)
        assert resumed[0]["error"] == fresh[0]["error"]
        assert stripped(resumed[0]) == stripped(fresh[0])
        assert resumed[1] == lines[1]  # the finished row is reused verbatim
        assert len(ck.read_text().splitlines()) == 3

    def test_truncated_checkpoint_line_skipped(self, tmp_path):
        ck = tmp_path / "checkpoint.jsonl"
        phase_sweep([CELL], ["total_degree"], 0.1, 30, 5, checkpoint_path=ck)
        text = ck.read_text()
        ck.write_text(text + text[: len(text) // 2])  # torn final line
        rows = phase_sweep([CELL], ["total_degree"], 0.1, 30, 5,
                           checkpoint_path=ck)
        assert len(rows) == 1
        assert rows[0]["gamma"] is not None

    def test_checkpoint_keyed_by_seed(self, tmp_path):
        ck = tmp_path / "checkpoint.jsonl"
        phase_sweep([CELL], ["total_degree"], 0.1, 30, 5, checkpoint_path=ck)
        rows7 = phase_sweep([CELL], ["total_degree"], 0.1, 30, 7,
                            checkpoint_path=ck)
        assert rows7[0]["seed"] == 7  # not reused from the seed-5 row
        assert len(ck.read_text().splitlines()) == 2

    def test_checkpoint_keyed_by_alpha_and_replicates(self, tmp_path):
        ck = tmp_path / "checkpoint.jsonl"
        phase_sweep([CELL], ["total_degree"], 0.05, 40, 5, checkpoint_path=ck)
        resumed = phase_sweep([CELL], ["total_degree"], 0.2, 80, 5,
                              checkpoint_path=ck)
        fresh = phase_sweep([CELL], ["total_degree"], 0.2, 80, 5)
        assert resumed[0]["alpha"] == 0.2 and resumed[0]["replicates"] == 80
        assert stripped(resumed[0]) == stripped(fresh[0])
        assert len(ck.read_text().splitlines()) == 2

    @pytest.mark.parametrize("edit", [
        lambda row: row.pop("ci_half"),
        lambda row: row.update(work=0),
    ], ids=["field-missing", "field-extra"])
    def test_checkpoint_row_in_another_format_recomputed(self, tmp_path,
                                                          edit):
        ck = tmp_path / "checkpoint.jsonl"
        fresh = phase_sweep([CELL], ["total_degree"], 0.1, 30, 5,
                            checkpoint_path=ck)
        row = json.loads(ck.read_text())
        edit(row)
        ck.write_text(json.dumps(row, sort_keys=True) + "\n")
        resumed = phase_sweep([CELL], ["total_degree"], 0.1, 30, 5,
                              checkpoint_path=ck)
        assert resumed[0].keys() == fresh[0].keys()
        assert stripped(resumed[0]) == stripped(fresh[0])
        assert len(ck.read_text().splitlines()) == 2

    def test_workers_share_one_pool_and_change_no_row(self, monkeypatch):
        made = []

        class CountingPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(engine, "_pool", None)
        grid, dets = [CELL, CELL_B], ["total_degree", "scan"]
        try:
            pooled = phase_sweep(grid, dets, 0.1, 30, 5, workers=2)
        finally:
            for pool in made:
                pool.shutdown()
        serial = phase_sweep(grid, dets, 0.1, 30, 5, workers=1)
        assert len(made) == 1
        assert [stripped(r) for r in pooled] == [stripped(r) for r in serial]

    def test_progress_callback(self):
        seen = []
        phase_sweep([CELL], ["total_degree"], 0.1, 30, 5,
                    progress=seen.append)
        assert len(seen) == 1 and seen[0]["detector"] == "total_degree"

    def test_results_independent_of_checkpointing(self, tmp_path):
        plain = phase_sweep([CELL], ["scan"], 0.1, 30, 5)
        ck = phase_sweep([CELL], ["scan"], 0.1, 30, 5,
                         checkpoint_path=tmp_path / "c.jsonl")
        assert stripped(plain[0]) == stripped(ck[0])


class TestTableFormats:
    def test_csv_shape(self):
        rows = phase_sweep([CELL], ["total_degree"], 0.1, 30, 5)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "14" and fields[5] == "total_degree"

    def test_csv_error_row_blanks_numeric_fields(self):
        row = run_cell(CELL, "psychic", 0.1, 30, 5)
        lines = rows_to_csv([row]).splitlines()
        fields = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert fields["gamma"] == "" and fields["type1"] == ""
        assert fields["regime"] != ""

    def test_json_lines_round_trip(self):
        rows = phase_sweep([CELL], ["total_degree"], 0.1, 30, 5)
        text = rows_to_json_lines(rows)
        back = [json.loads(line) for line in text.splitlines()]
        assert back == rows
        assert "error" in back[0]  # full row dict, not the CSV subset
