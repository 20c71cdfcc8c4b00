"""Threshold calibration: ranks, determinism, level control, combination."""

import math
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from subgraph_sentinel.calibration import (
    METHOD_ANALYTIC,
    METHOD_BOOTSTRAP,
    METHOD_MONTE_CARLO,
    CalibratedTest,
    analytic_calibrate,
    bonferroni_combine,
    bootstrap_calibrate,
    calibrate,
    conservative_rank,
    estimate_p0_hat,
    simulate_null_statistics,
)
from subgraph_sentinel.errors import (
    DegenerateGraphError,
    InsufficientReplicatesError,
    InvalidSpecError,
    MismatchedNullSpecError,
)
from subgraph_sentinel.graph import Graph
from subgraph_sentinel.kernels import binom_quantile
from subgraph_sentinel.models import ModelSpec, pair_count, sample
from subgraph_sentinel.replicates import map_replicates


def _exit_worker(graph):
    os._exit(1)  # a worker dying mid-map, as under the OOM killer


class TestConservativeRank:
    def test_pinned_values(self):
        assert conservative_rank(0.05, 199) == 190
        assert conservative_rank(0.5, 1) == 1
        assert conservative_rank(0.05, 19) == 19

    def test_insufficient_replicates(self):
        with pytest.raises(InsufficientReplicatesError):
            conservative_rank(0.01, 50)
        with pytest.raises(InsufficientReplicatesError):
            conservative_rank(0.05, 18)
        with pytest.raises(InsufficientReplicatesError):
            conservative_rank(0.1, 0)

    def test_alpha_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidSpecError):
                conservative_rank(bad, 100)


class TestCalibrate:
    def test_threshold_is_rank_order_statistic(self):
        null = ModelSpec.null(30, 0.2)
        values = simulate_null_statistics("total_degree", {}, null, 99, 7)
        test = calibrate("total_degree", {}, null, 0.1, 99, 7)
        rank = conservative_rank(0.1, 99)  # 90
        assert test.threshold == sorted(values)[rank - 1]
        assert test.method == METHOD_MONTE_CARLO
        assert test.calibration_seed == 7 and test.replicates == 99

    def test_deterministic(self):
        null = ModelSpec.null(30, 0.2)
        t1 = calibrate("total_degree", {}, null, 0.1, 50, 11)
        t2 = calibrate("total_degree", {}, null, 0.1, 50, 11)
        assert t1 == t2

    def test_strict_rejection_boundary(self):
        null = ModelSpec.null(20, 0.3)
        test = calibrate("total_degree", {}, null, 0.1, 99, 3)
        k = int(test.threshold)
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        at = Graph(20, pairs[:k])
        above = Graph(20, pairs[: k + 1])
        assert not test.rejects(at)
        assert test.rejects(above)

    def test_rejects_non_null_spec(self):
        alt = ModelSpec.planted(20, 0.3, 0.8, 4)
        with pytest.raises(InvalidSpecError):
            calibrate("total_degree", {}, alt, 0.1, 50, 1)

    def test_insufficient_replicates_surface(self):
        null = ModelSpec.null(20, 0.3)
        with pytest.raises(InsufficientReplicatesError):
            calibrate("total_degree", {}, null, 0.01, 50, 1)

    def test_n_field_mirrors_params(self):
        null = ModelSpec.null(12, 0.3)
        test = calibrate("scan", {"n": 3}, null, 0.1, 60, 5)
        assert test.n == 3
        plain = calibrate("total_degree", {}, null, 0.1, 60, 5)
        assert plain.n is None

    def test_level_holds_on_fresh_nulls(self):
        # type-I <= alpha + 2 sqrt(alpha / B) at B = 199, alpha = 0.1
        null = ModelSpec.null(12, 0.3)
        alpha, B = 0.1, 199
        test = calibrate("scan", {"n": 3}, null, alpha, B, 21)
        hits = sum(test.rejects(sample(null, 900, i)) for i in range(500))
        assert hits / 500 <= alpha + 2 * math.sqrt(alpha / B)

    def test_worker_invariance(self):
        null = ModelSpec.null(25, 0.2)
        serial = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=1)
        pooled = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=2)
        assert serial == pooled

    def test_dead_worker_does_not_break_later_maps(self):
        null = ModelSpec.null(25, 0.2)
        with pytest.raises(BrokenProcessPool):
            map_replicates(_exit_worker, [(null, 4, i) for i in range(16)], 2)
        serial = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=1)
        pooled = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=2)
        assert serial == pooled


class TestAnalytic:
    def test_matches_binomial_quantile(self):
        null = ModelSpec.null(50, 0.2)
        test = analytic_calibrate(null, 0.05)
        assert test.threshold == binom_quantile(pair_count(50), 0.2, 0.95)
        assert test.detector_id == "total_degree"
        assert test.method == METHOD_ANALYTIC
        assert test.calibration_seed is None and test.replicates == 0

    def test_close_to_monte_carlo(self):
        null = ModelSpec.null(50, 0.2)
        exact = analytic_calibrate(null, 0.05).threshold
        mc = calibrate("total_degree", {}, null, 0.05, 999, 13).threshold
        # Bin(1225, .2) has sd ~ 14; the B=999 quantile sits within a few
        assert abs(mc - exact) <= 6

    def test_exact_level(self):
        # P(W > threshold) <= alpha holds exactly for the binomial null
        from subgraph_sentinel.kernels import binom_tail
        null = ModelSpec.null(40, 0.15)
        for alpha in (0.01, 0.05, 0.2):
            thr = analytic_calibrate(null, alpha).threshold
            assert binom_tail(pair_count(40), 0.15, int(thr) + 1) <= alpha

    def test_input_checks(self):
        with pytest.raises(InvalidSpecError):
            analytic_calibrate(ModelSpec.planted(20, 0.3, 0.8, 4), 0.05)
        with pytest.raises(InvalidSpecError):
            analytic_calibrate(ModelSpec.null(20, 0.3), 1.0)


class TestBootstrap:
    def test_consistent_with_plugin_null(self):
        g = sample(ModelSpec.null(40, 0.3), 17, 0)
        boot = bootstrap_calibrate("total_degree", {}, g, 0.1, 99, 23)
        ph = estimate_p0_hat(g)
        known = calibrate("total_degree", {}, ModelSpec.null(40, ph), 0.1, 99, 23)
        assert boot.threshold == known.threshold
        assert boot.method == METHOD_BOOTSTRAP
        assert boot.null_spec.p0 == pytest.approx(ph)

    def test_near_known_threshold(self):
        g = sample(ModelSpec.null(40, 0.3), 29, 0)
        boot = bootstrap_calibrate("total_degree", {}, g, 0.1, 199, 31).threshold
        known = calibrate("total_degree", {},
                          ModelSpec.null(40, 0.3), 0.1, 199, 31).threshold
        # plug-in density error shifts the Bin(780, .3) quantile modestly
        assert abs(boot - known) <= 40

    def test_degenerate_graphs(self):
        with pytest.raises(DegenerateGraphError):
            bootstrap_calibrate("total_degree", {}, Graph.empty(10), 0.1, 50, 1)
        with pytest.raises(DegenerateGraphError):
            bootstrap_calibrate("total_degree", {}, Graph.complete(6), 0.1, 50, 1)

    def test_estimate_p0_hat(self):
        g = Graph(5, [(0, 1), (2, 3), (0, 4)])
        assert estimate_p0_hat(g) == 0.3
        with pytest.raises(DegenerateGraphError):
            estimate_p0_hat(Graph(1))


class TestBonferroni:
    def _pair(self, alpha_each=0.05):
        null = ModelSpec.null(12, 0.3)
        a = calibrate("total_degree", {}, null, alpha_each, 99, 41)
        b = calibrate("scan", {"n": 3}, null, alpha_each, 99, 43)
        return null, a, b

    def test_combined_level_is_sum(self):
        _, a, b = self._pair()
        combo = bonferroni_combine([a, b])
        assert combo.level_alpha == pytest.approx(0.1)
        assert combo.components == (a, b)

    def test_rejects_is_union(self):
        null, a, b = self._pair()
        combo = bonferroni_combine([a, b])
        for i in range(40):
            g = sample(null, 600, i)
            assert combo.rejects(g) == (a.rejects(g) or b.rejects(g))

    def test_single_component(self):
        null, a, _ = self._pair()
        combo = bonferroni_combine([a])
        assert combo.level_alpha == a.level_alpha
        g = sample(null, 601, 0)
        assert combo.rejects(g) == a.rejects(g)

    def test_mismatched_null_rejected(self):
        null_a = ModelSpec.null(12, 0.3)
        null_b = ModelSpec.null(12, 0.31)
        a = calibrate("total_degree", {}, null_a, 0.05, 50, 1)
        b = calibrate("total_degree", {}, null_b, 0.05, 50, 1)
        with pytest.raises(MismatchedNullSpecError):
            bonferroni_combine([a, b])

    def test_unequal_levels_rejected(self):
        null = ModelSpec.null(12, 0.3)
        a = calibrate("total_degree", {}, null, 0.05, 99, 1)
        b = calibrate("scan", {"n": 3}, null, 0.1, 99, 1)
        with pytest.raises(InvalidSpecError):
            bonferroni_combine([a, b])

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError):
            bonferroni_combine([])

    def test_union_level_holds(self):
        null = ModelSpec.null(12, 0.3)
        alpha, B = 0.1, 199
        a = calibrate("total_degree", {}, null, alpha / 2, B, 51)
        b = calibrate("scan", {"n": 3}, null, alpha / 2, B, 53)
        combo = bonferroni_combine([a, b])
        hits = sum(combo.rejects(sample(null, 901, i)) for i in range(400))
        assert hits / 400 <= alpha + 2 * math.sqrt(alpha / B)


class TestCalibratedTestPlumbing:
    def test_to_dict(self):
        null = ModelSpec.null(12, 0.3)
        test = CalibratedTest("scan", {"n": 3}, 5.0, 0.05,
                              METHOD_MONTE_CARLO, 9, 99, null)
        d = test.to_dict()
        assert d["n"] == 3
        assert d["null_spec"] == null.to_dict()
        assert d["threshold"] == 5.0

    def test_statistic_delegates(self, k4):
        null = ModelSpec.null(4, 0.5)
        test = CalibratedTest("total_degree", {}, 5.5, 0.05,
                              METHOD_MONTE_CARLO, 0, 1, null)
        assert test.statistic(k4) == 6.0
        assert test.rejects(k4)
