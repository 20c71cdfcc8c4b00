"""Threshold calibration: ranks, determinism, level control, combination."""

import dataclasses
import math
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from subgraph_sentinel import calibration, models, replicates
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
from subgraph_sentinel.cli import main
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
from subgraph_sentinel.risk import estimate_risk


# parameters for all ten detectors on graphs of N <= 20
EVERY_DETECTOR = {
    "scan": {"n": 3, "mode": "branch_bound"}, "glr": {"n": 3},
    "densest_at_least": {"n": 3}, "sparse_eig": {"n": 3},
    "relaxed_scan": {"n": 3}, "total_degree": {}, "max_degree": {},
    "degree_variance": {}, "clique_number": {}, "densest_subgraph": {},
}


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

    def test_replicates_above_cap_refused_before_drawing(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(models, "stream_rng", refused)
        null, alt = ModelSpec.null(10, 0.3), ModelSpec.planted(10, 0.3, 0.9, 3)
        too_many = replicates._MAX_REPLICATES + 1
        message = ("^replicates must be an integer no larger than 1000000, "
                   f"got {too_many}$")
        with pytest.raises(InvalidSpecError, match=message):
            calibrate("total_degree", {}, null, 0.05, too_many, 0)
        test = analytic_calibrate(null, 0.05)
        with pytest.raises(InvalidSpecError, match=message):
            estimate_risk(test, null, alt, too_many, 0)


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

    def test_unknown_detector_refused_before_any_draw(self, monkeypatch,
                                                      capsys):
        maps, pools = [], []
        real_map, real_executor = calibration.map_replicates, replicates._executor

        def counting_map(fn, draws, workers=None):
            maps.append(len(draws))
            return real_map(fn, draws, workers)

        def counting_executor(workers):
            pools.append(workers)
            return real_executor(workers)

        monkeypatch.setattr(calibration, "map_replicates", counting_map)
        monkeypatch.setattr(replicates, "_executor", counting_executor)
        null = ModelSpec.null(10, 0.5)
        for workers in (1, 2):
            with pytest.raises(InvalidSpecError,
                               match="unknown detector 'psychic'"):
                calibrate("psychic", {}, null, 0.05, 19, 0, workers=workers)
        assert maps == [] and pools == []
        code = main(["calibrate", "--detector", "psychic", "--N", "10",
                     "--p0", "0.5", "--replicates", "19", "--workers", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "unknown detector" in err

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

    @pytest.mark.parametrize("detector_id,params,N,p0,p1", [
        *(pytest.param(d, EVERY_DETECTOR[d], 16, 0.3, 0.85, id=d)
          for d in sorted(EVERY_DETECTOR)),
        # above _DENSE_EIG_N, so pool workers run the one-thread ARPACK loop
        pytest.param("relaxed_scan", {"n": 10}, 200, 0.05, 0.5,
                     id="relaxed_scan-N200"),
    ])
    def test_equal_at_every_worker_count(self, detector_id, params, N, p0,
                                         p1):
        # each replicate owns its stream, so the pool can move no result;
        # workers=2 also sends each detector's statistic through pickling
        null = ModelSpec.null(N, p0)
        alt = ModelSpec.planted(N, p0, p1, params.get("n", 3))
        results = []
        for workers in (1, 2):
            test = calibrate(detector_id, params, null,
                             0.1, 19, 8, workers=workers)
            report = estimate_risk(test, null, alt, 10, 9, workers=workers)
            results.append((test, report))
        assert results[0] == results[1]

    @pytest.mark.parametrize("detector_id,params", [
        ("densest_subgraph", {}),
        ("densest_subgraph", {"mode": "peel"}),
        ("densest_at_least", {"n": 2}),
        ("degree_variance", {}),
    ])
    def test_edgeless_replicates_score_zero(self, detector_id, params):
        # about half of the null(12, 0.01) draws have no edge at all
        null = ModelSpec.null(12, 0.01)
        values = simulate_null_statistics(detector_id, params, null, 99, 5)
        edgeless = [sample(null, 5, i).total_edges() == 0 for i in range(99)]
        assert any(edgeless) and not all(edgeless)
        assert all(v == 0.0 for v, e in zip(values, edgeless) if e)
        test = calibrate(detector_id, params, null, 0.05, 99, 5)
        assert test.threshold == sorted(values)[conservative_rank(0.05, 99) - 1]

    def test_dead_worker_does_not_break_later_maps(self):
        null = ModelSpec.null(25, 0.2)
        with pytest.raises(BrokenProcessPool):
            map_replicates(_exit_worker, [(null, 4, i) for i in range(16)], 2)
        serial = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=1)
        pooled = simulate_null_statistics("total_degree", {}, null, 16, 4, workers=2)
        assert serial == pooled

    def test_pool_replaced_only_on_worker_count_change(self, monkeypatch):
        made = []

        class FakePool:
            """Runs maps in this process, so no worker process starts."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.shutdowns = 0
                made.append(self)

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

            def shutdown(self):
                self.shutdowns += 1

        monkeypatch.setattr(replicates, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(replicates, "_pool", None)
        null = ModelSpec.null(25, 0.2)
        serial = simulate_null_statistics("total_degree", {}, null, 16, 4,
                                          workers=1)
        for workers in (2, 2, 3, 3):
            assert simulate_null_statistics("total_degree", {}, null, 16, 4,
                                            workers=workers) == serial
        assert [p.max_workers for p in made] == [2, 3]
        assert [p.shutdowns for p in made] == [1, 0]


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
        assert d["null_spec"] == dataclasses.asdict(null)
        assert d["threshold"] == 5.0

    def test_statistic_delegates(self, k4):
        null = ModelSpec.null(4, 0.5)
        test = CalibratedTest("total_degree", {}, 5.5, 0.05,
                              METHOD_MONTE_CARLO, 0, 1, null)
        assert test.statistic(k4) == 6.0
        assert test.rejects(k4)
