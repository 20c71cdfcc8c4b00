"""Property search: run_cell records exactly what risk_row raises.

Cells are drawn from the value classes of the input contract: integers,
floats with nan and inf, bools, None, strings, and both models.  The
search is derandomized, keeps no example database and runs a fixed
number of examples, so it tries the same cells on every run; its budget
is 5 s (it takes about 2 s on a 2-core machine).
"""

import math

import pytest

from subgraph_sentinel.errors import InvalidSpecError, SentinelError
from subgraph_sentinel.sweep import normalize_cell, risk_row, run_cell

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_OTHER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True,
                                    False, None]), st.text(max_size=3))


def _cells(sizes, counts, probabilities):
    return st.fixed_dictionaries({
        "N": sizes, "n": counts, "p0": probabilities, "p1": probabilities,
        "model": st.sampled_from(["planted", "fixed_degree"]),
    })


# Half the cells mix every value class; the other half stay near the
# domain, where the model and regime checks and the draws are reached.
# N stays at most 30 so that every cell that passes its checks draws small
# graphs.
CELLS = st.one_of(
    _cells(st.one_of(st.integers(max_value=30), st.floats(max_value=30),
                     _OTHER),
           st.one_of(st.integers(), st.floats(), _OTHER),
           st.one_of(st.integers(), st.floats(), _OTHER)),
    _cells(st.integers(1, 30), st.integers(0, 31), st.floats(0, 1)),
)


def _without_seconds(row):
    return {k: v for k, v in row.items() if k != "seconds"}


@hypothesis.settings(derandomize=True, database=None, max_examples=300,
                     deadline=None)
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
