"""Regime classifier: frozen boundary ratios, labels, and side conditions.

The numeric constants were frozen from hand-checked evaluations of the
documented ratio formulas at the experiment configurations used elsewhere
in the suite.
"""

import math

import numpy as np
import pytest

from subgraph_sentinel.errors import DomainError, InvalidSpecError
from subgraph_sentinel.regimes import (
    LABEL_DEGREE_VARIANCE,
    LABEL_NO_POLY,
    LABEL_RELAXED_SCAN,
    LABEL_SCAN,
    LABEL_TOTAL_DEGREE,
    LABEL_UNDETECTABLE,
    THRESHOLDS,
    classify_regime,
)


class TestFrozenRatios:
    def test_total_degree_config(self):
        r = classify_regime(100, 30, 0.1, 0.5)
        assert r.predicates["total_degree"] == pytest.approx(
            11.384199576606166, rel=1e-12)
        assert r.snr == pytest.approx(7.302967433402214, rel=1e-12)
        assert r.label == LABEL_TOTAL_DEGREE
        assert r.poly_label == LABEL_TOTAL_DEGREE

    def test_degree_variance_config(self):
        r = classify_regime(400, 80, 0.1, 0.5, knowledge="unknown")
        assert r.predicates["degree_variance"] == pytest.approx(102.4, rel=1e-12)
        # n = 80 sits under the N^{3/4} = 89.4 column split, so the
        # information cell is the scan one; the poly cell is degree variance
        assert r.label == LABEL_SCAN
        assert r.poly_label == LABEL_DEGREE_VARIANCE
        assert r.predicates["poly_boundary"] == pytest.approx(
            10.666666666666666, rel=1e-12)

    def test_scan_entropy_config(self):
        r = classify_regime(30, 5, 0.1, 0.9)
        assert r.predicates["scan_entropy"] == pytest.approx(
            2.4525887710618344, rel=1e-12)
        assert r.predicates["scan_sparse"] == pytest.approx(
            1.5017484864916575, rel=1e-12)
        assert r.label == LABEL_SCAN
        assert r.poly_label == LABEL_NO_POLY

    def test_relaxed_scan_config(self):
        r = classify_regime(500, 20, 0.05, 0.9)
        assert r.predicates["relaxed_scan"] == pytest.approx(
            5.184489118185431, rel=1e-12)
        assert r.predicates["relaxed_scan"] > THRESHOLDS["relaxed_scan"] == 2.0

    def test_max_degree_config(self):
        r = classify_regime(200, 60, 0.2, 0.6)
        assert r.predicates["max_degree"] == pytest.approx(
            3.397304984719586, rel=1e-12)
        assert r.predicates["max_degree"] > THRESHOLDS["max_degree"] == 2.0

    def test_densest_subgraph_config(self):
        r = classify_regime(200, 50, 0.05, 0.3)
        assert r.predicates["densest_subgraph"] == pytest.approx(1.5, rel=1e-12)

    def test_null_clique_count(self):
        r = classify_regime(30, 3, 0.5, 0.9)
        # C(30,3) * 0.5^3 = 507.5 cliques expected under the null
        assert r.predicates["null_clique_count"] == pytest.approx(507.5, rel=1e-12)
        assert r.label == LABEL_UNDETECTABLE


class TestLabels:
    def test_dense_known_column(self):
        N = 10_000
        n = math.ceil(N ** 0.8)
        r = classify_regime(N, n, 0.01, 0.1)
        assert n >= N ** (2 / 3)
        assert r.label == LABEL_TOTAL_DEGREE
        assert r.predicates["info_boundary"] == pytest.approx(
            r.snr / (N / n ** 1.5), rel=1e-12)

    def test_dense_unknown_column(self):
        N = 10_000
        n = math.ceil(N ** 0.85)
        r = classify_regime(N, n, 0.01, 0.1, knowledge="unknown")
        assert r.label == LABEL_DEGREE_VARIANCE
        assert r.predicates["info_boundary"] == pytest.approx(
            r.snr / (N ** 0.75 / n), rel=1e-12)

    def test_equal_probabilities_undetectable(self):
        for know in ("known", "unknown"):
            r = classify_regime(500, 30, 0.2, 0.2, knowledge=know)
            assert r.label == LABEL_UNDETECTABLE
            assert r.poly_label == LABEL_UNDETECTABLE
            assert r.snr == 0.0

    def test_relaxed_scan_label(self):
        # small block, strong signal: detectable, and the sqrt(N log N)
        # relaxation still works
        r = classify_regime(100, 9, 0.001, 1.0)
        assert r.label == LABEL_SCAN
        assert r.poly_label == LABEL_RELAXED_SCAN

    def test_no_poly_gap(self):
        # detectable by scan yet below the poly boundary
        r = classify_regime(500, 20, 0.05, 0.9)
        assert r.label == LABEL_SCAN
        assert r.poly_label == LABEL_NO_POLY
        assert r.predicates["poly_boundary"] < 1.0 < r.predicates["info_boundary"]

    def test_knowledge_aliases(self):
        # exactly the two spellings the CLI offers; no aliases
        for alias in ("KnownP0", "known_p0", "KNOWN", "unknown_p0"):
            with pytest.raises(DomainError, match="knowledge"):
                classify_regime(100, 30, 0.1, 0.5, knowledge=alias)


class TestSparsitySwitch:
    def test_boundary_form_switches_at_np0_eq_lognn(self):
        # N=1000, n=10: log(N/n) = log(100); the decisive sparse-column
        # ratio switches form as n*p0 crosses it
        N, n = 1000, 10
        log_nn = math.log(100)
        below = classify_regime(N, n, (log_nn - 0.01) / n, 0.6)
        above = classify_regime(N, n, (log_nn + 0.01) / n, 0.6)
        assert below.predicates["scan_sparse"] is not None
        assert above.predicates["scan_sparse"] is None
        assert below.predicates["info_boundary"] == pytest.approx(
            below.predicates["scan_sparse"], rel=1e-12)
        assert above.predicates["info_boundary"] == pytest.approx(
            above.predicates["scan_moderate"], rel=1e-12)

    def test_scan_sparse_defined_only_below(self):
        r = classify_regime(30, 5, 0.5, 0.9)  # np0 = 2.5 >= log(6) = 1.79
        assert r.predicates["scan_sparse"] is None

    @pytest.mark.parametrize("p0", [1e-160, 1e-310, 5e-324])
    def test_subnormal_p0_is_classified(self, p0):
        # log(N/n) / (n p0) overflows for a subnormal n p0; the sparse ratio
        # is still finite: n (p1 - p0) log(log(N/n) / (n p0)) / (2 log(N/n))
        for p1 in (p0, 1.0):
            r = classify_regime(3, 2, p0, p1)
            assert math.isfinite(r.predicates["scan_sparse"])
            assert r.predicates["scan_entropy"] >= 0.0
        log_nn = math.log(1.5)
        expected = 2 * (math.log(log_nn) - math.log(2 * p0)) / (2 * log_nn)
        assert classify_regime(3, 2, p0, 1.0).predicates["scan_sparse"] \
            == pytest.approx(expected, rel=1e-6)


class TestSideConditions:
    def test_values_match_formulas(self):
        r = classify_regime(100, 30, 0.1, 0.5)
        assert r.side_values["size_ratio"] == pytest.approx(
            math.log(100) / 30, rel=1e-12)
        assert r.side_values["sparsity_ratio"] == pytest.approx(
            math.log(max(1.0, 1 / 3.0)) / math.log(100 / 30), rel=1e-12)
        assert r.constraints_ok is True

    def test_small_n_flags(self):
        r = classify_regime(30, 3, 0.5, 0.9)
        assert r.side_ok["size_ratio"] is False
        assert r.constraints_ok is False

    def test_check_off_never_changes_labels(self):
        on = classify_regime(30, 5, 0.1, 0.9, constraints_check=True)
        off = classify_regime(30, 5, 0.1, 0.9, constraints_check=False)
        assert off.label == on.label and off.poly_label == on.poly_label
        assert off.side_values == on.side_values
        assert all(v is None for v in off.side_ok.values())
        assert off.constraints_ok is None

    def test_side_threshold_moves_verdicts(self):
        strict = classify_regime(100, 30, 0.1, 0.5, side_threshold=0.01)
        assert strict.side_ok["size_ratio"] is False
        assert strict.label == LABEL_TOTAL_DEGREE  # label unaffected


class TestPurity:
    def test_deterministic(self):
        a = classify_regime(200, 60, 0.2, 0.6)
        b = classify_regime(200, 60, 0.2, 0.6)
        assert a == b

    def test_to_dict_keys(self):
        d = classify_regime(100, 30, 0.1, 0.5).to_dict()
        assert set(d) == {"label", "poly_label", "knowledge", "snr",
                          "predicates", "thresholds", "side_values",
                          "side_ok", "constraints_ok", "inputs"}
        assert d["thresholds"] == THRESHOLDS
        assert d["inputs"]["N"] == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=np.int64(2), n=2, p0=0.1, p1=0.5),
            dict(N=2, n=2, p0=0.1, p1=0.5),
            dict(N=100, n=1, p0=0.1, p1=0.5),
            dict(N=100, n=101, p0=0.1, p1=0.5),
            dict(N=100, n=30, p0=0.0, p1=0.5),
            dict(N=100, n=30, p0=1.0, p1=1.0),
            dict(N=100, n=30, p0=0.5, p1=0.4),
            dict(N=100, n=30, p0=0.1, p1=1.0001),
            dict(N=100, n=30, p0=0.1, p1=0.5, knowledge="psychic"),
            dict(N=100, n=30, p0=0.1, p1=0.5, side_threshold=0.0),
            # beyond 10**100, n**3 or N**1.5 would overflow a float
            dict(N=10**100 + 1, n=30, p0=0.1, p1=0.5),
            dict(N=10**400, n=30, p0=0.1, p1=0.5),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            classify_regime(**kwargs)

    def test_whole_and_numpy_numbers_classify_alike(self):
        # a count is any whole number, as in a ModelSpec or a sweep cell
        want = classify_regime(N=100, n=30, p0=0.1, p1=0.5)
        assert classify_regime(N=100.0, n=30, p0=0.1, p1=0.5) == want
        assert classify_regime(N=np.int64(100), n=np.float32(30.0),
                               p0=np.float64(0.1), p1=0.5) == want
        assert type(classify_regime(N=100.0, n=30, p0=0.1, p1=0.5)
                    .inputs["N"]) is int

    @pytest.mark.parametrize("n", [2, 10**50, 10**100])
    def test_largest_N_classifies(self, n):
        # the bound of 10**100 keeps every ratio a float, for any n <= N
        report = classify_regime(10**100, n, 1e-300, 1.0, knowledge="unknown")
        assert report.inputs["N"] == 10**100

    @pytest.mark.parametrize("kwargs", [
        dict(p0=math.nan), dict(p0=math.inf), dict(p1=-math.inf),
        dict(p1=math.nan), dict(side_threshold=math.nan),
        dict(side_threshold=-math.inf), dict(N=True),
        dict(p0="0.1"),
    ])
    def test_non_numbers_are_input_errors(self, kwargs):
        # no finite number where the domain needs one: InvalidSpecError, as
        # every input surface gives, not the domain's DomainError
        with pytest.raises(InvalidSpecError):
            classify_regime(**{**dict(N=100, n=30, p0=0.1, p1=0.5), **kwargs})
