"""Property searches over the input surfaces.

* run_cell records exactly what risk_row raises;
* a ModelSpec built from a cell's raw values and one built from the
  normalized cell agree: both refuse, or both hold the same numbers;
* classify and risk, run from a config file, end in a documented exit code
  with exactly one error line when they refuse.

Values are drawn from the value classes of the input contract: integers,
floats with nan and inf, numpy integers and float32s, numpy's nan, bools,
None and strings. Each search is derandomized, keeps no example database
and runs a fixed number of examples, so it tries the same values on every
run; the three take about 5 s together on a 2-core machine, within a
budget of 10 s.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest

from subgraph_sentinel.cli import main
from subgraph_sentinel.errors import InvalidSpecError, SentinelError
from subgraph_sentinel.sweep import MODELS, normalize_cell, risk_row, run_cell

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_OTHER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True,
                                    False, None, np.float64(math.nan)]),
                   st.text(max_size=3))


def _numpy(max_value=None):
    """numpy int64s and float32s, none above max_value."""
    return st.one_of(st.integers(-2**63, 2**63 - 1 if max_value is None
                                 else max_value).map(np.int64),
                     st.floats(max_value=max_value, width=32).map(np.float32))


def _cells(sizes, counts, probabilities):
    return st.fixed_dictionaries({
        "N": sizes, "n": counts, "p0": probabilities, "p1": probabilities,
        "model": st.sampled_from(list(MODELS)),
    })


# Half the cells mix every value class; the other half stay near the
# domain, where the model and regime checks and the draws are reached.
# N stays at most 30 so that every cell that passes its checks draws small
# graphs.
CELLS = st.one_of(
    _cells(st.one_of(st.integers(max_value=30), st.floats(max_value=30),
                     _numpy(30), _OTHER),
           st.one_of(st.integers(), st.floats(), _numpy(), _OTHER),
           st.one_of(st.integers(), st.floats(), _numpy(), _OTHER)),
    _cells(st.integers(1, 30), st.integers(0, 31), st.floats(0, 1)),
)

# A ModelSpec draws nothing, so its N need not be small. Half the cells mix
# every value class; in the other half each number is near the domain, in any
# of the classes that can hold it.
def _whole(low, high):
    return st.integers(low, high).flatmap(lambda v: st.sampled_from(
        [v, float(v), np.int64(v), np.float32(v)]))


SPEC_CELLS = st.one_of(
    _cells(*[st.one_of(st.integers(), st.floats(), _numpy(), _OTHER)] * 3),
    _cells(st.one_of(_whole(0, 30), st.floats(0, 31)), _whole(0, 31),
           st.one_of(st.floats(0, 1), st.floats(0, 1, width=32).map(np.float32),
                     _whole(0, 1))),
)

# what a JSON config file can hold, with N at most 30
_JSON_OTHER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True,
                                         False, None]), st.text(max_size=3))
CONFIG_CELLS = st.one_of(
    _cells(st.one_of(st.integers(max_value=30), st.floats(max_value=30),
                     _JSON_OTHER),
           st.one_of(st.integers(), st.floats(), _JSON_OTHER),
           st.one_of(st.integers(), st.floats(), _JSON_OTHER)),
    _cells(st.integers(1, 30), st.integers(0, 31), st.floats(0, 1)),
)

_SETTINGS = {"derandomize": True, "database": None, "deadline": None}


def _without_seconds(row):
    return {k: v for k, v in row.items() if k != "seconds"}


@hypothesis.settings(max_examples=300, **_SETTINGS)
@hypothesis.given(cell=CELLS)
def test_run_cell_records_what_risk_row_raises(cell):
    try:
        normalize_cell(cell)
    except InvalidSpecError:
        return
    args = (cell, "total_degree", 0.5, 1, 0)
    row = run_cell(*args, workers=1)
    try:
        expected = risk_row(*args, workers=1)
    except SentinelError as exc:
        assert row["error"] == f"{type(exc).__name__}: {exc}"
        assert row["gamma"] is None
    else:
        assert row["error"] is None
        assert _without_seconds(row) == _without_seconds(expected)


def _spec(cell):
    """The cell's alternative, or None where it is refused."""
    make_alt, _ = MODELS[cell["model"]]
    try:
        return make_alt(cell["N"], cell["p0"], cell["p1"], cell["n"])
    except InvalidSpecError:
        return None


def _normalized_spec(cell):
    try:
        return _spec(normalize_cell(cell))
    except InvalidSpecError:
        return None


@hypothesis.settings(max_examples=300, **_SETTINGS)
@hypothesis.given(cell=SPEC_CELLS)
def test_model_spec_and_cell_agree(cell):
    spec = _spec(cell)
    assert spec == _normalized_spec(cell)
    if spec is not None:
        numbers = normalize_cell(cell)
        assert (spec.N, spec.n, spec.off_block_p, spec.p1) == tuple(
            numbers[k] for k in ("N", "n", "p0", "p1"))


def _run(argv, cfg):
    """Exit code and stderr of one in-process run from a config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
    return code, err.getvalue()


@hypothesis.settings(max_examples=100, **_SETTINGS)
@hypothesis.given(cell=CONFIG_CELLS,
                  replicates=st.one_of(st.integers(-1, 9), _JSON_OTHER))
def test_commands_exit_with_one_error_line(cell, replicates):
    model = cell.pop("model")
    runs = (
        (["classify"], {**cell, "knowledge": "known" if model == "planted"
                        else "unknown"}),
        (["risk", "--detector", "total_degree"],
         {**cell, "model": model, "alpha": 0.5, "replicates": replicates,
          "seed": 3, "workers": 1}),
    )
    for argv, cfg in runs:
        code, err = _run(argv, cfg)
        assert code in (0, 2, 3, 4, 5), (argv, cfg, code, err)
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == (code != 0), (argv, cfg, err)
