"""Numeric kernels against high-precision frozen oracles.

The *_CASES constants were computed once with 60-digit mpmath arithmetic
and frozen here, so the suite does not depend on mpmath at runtime.
scipy.stats provides an independent second opinion where it has the same
quantity.
"""

import math

import numpy as np
import pytest
from scipy import stats

from subgraph_sentinel.errors import DomainError
from subgraph_sentinel.kernels import (
    bernstein_tail,
    binom_cdf,
    binom_quantile,
    binom_tail,
    chernoff_tail,
    log_mgf,
    neg_entropy,
    relative_entropy,
    second_moment_gap,
    signal_to_noise,
    tilt_parameter,
)

# (q, p, H_p(q)) at 60-digit precision
H_CASES = [
    (0.3, 0.1, 0.15366358680379865304),
    (0.9, 0.1, 1.7577796618689755062),
    (0.5, 0.5, 0.0),
    (0.10001, 0.1, 5.5553909548463222403e-10),
    (0.0999999, 0.1, 5.5555572016469250119e-14),
    (1e-8, 0.2, 0.22314337097034597744),
    (0.999999, 0.3, 1.2039571415180176413),
    (0.0, 0.25, 0.28768207245178092744),
    (1.0, 0.25, 1.3862943611198906188),
    (0.7, 0.2, 0.58268530204323972592),
    (0.05, 0.049999999, 1.052631592243767513e-17),
]

# (q, p, theta_q, Lambda(theta_q))
TILT_CASES = [
    (0.3, 0.1, 1.3499267169490157691, 0.25131442828090607769),
    (0.9, 0.1, 4.3944491546724387656, 2.1972245773362193828),
    (0.7, 0.2, 2.2335922215070942325, 0.98082925301172623686),
    (0.51, 0.5, 0.040005334613699161434, 0.020202707317519448408),
]

# (n, p, k, P(X >= k)) upper tails
TAIL_CASES = [
    (20, 0.3, 10, 0.04796189733134347578),
    (435, 0.1, 60, 0.0070203392694375238712),
    (1225, 0.2, 280, 0.0075390273158634129095),
    (10000, 0.05, 560, 0.0035950253817394159519),
    (100000, 0.001, 130, 0.0022712638657808188843),
    (60, 0.5, 45, 0.000067257040464247658251),
]


class TestRelativeEntropy:
    @pytest.mark.parametrize("q,p,expect", H_CASES)
    def test_frozen_oracle(self, q, p, expect):
        got = relative_entropy(q, p)
        assert got == pytest.approx(expect, rel=1e-13, abs=1e-16)

    def test_taylor_branch_continuity(self):
        # values just inside and outside the series cutoff must agree
        for p in (0.1, 0.5, 0.037):
            eps = 1e-4 * min(p, 1 - p)
            for sign in (+1, -1):
                qin = p + sign * eps * 0.99
                qout = p + sign * eps * 1.01
                hin = relative_entropy(qin, p)
                hout = relative_entropy(qout, p)
                # both are ~eps^2/(2 p (1-p)); compare against that scale
                scale = eps * eps / (2 * p * (1 - p))
                assert abs(hin - hout) < 0.1 * scale

    def test_zero_at_equal(self):
        for p in (0.01, 0.3, 0.97):
            assert relative_entropy(p, p) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            relative_entropy(0.5, 0.0)
        with pytest.raises(DomainError):
            relative_entropy(-0.1, 0.5)
        with pytest.raises(DomainError):
            relative_entropy(1.1, 0.5)


class TestTilt:
    @pytest.mark.parametrize("q,p,theta,lam", TILT_CASES)
    def test_frozen_oracle(self, q, p, theta, lam):
        t = tilt_parameter(q, p)
        assert t == pytest.approx(theta, rel=1e-14)
        assert log_mgf(t, p) == pytest.approx(lam, rel=1e-14)

    def test_mgf_at_zero(self):
        for p in (0.05, 0.5, 0.9):
            assert log_mgf(0.0, p) == 0.0

    def test_fenchel_duality_dense_grid(self):
        # H_p(q) == q*theta_q - Lambda(theta_q) away from the series branch
        qs = np.linspace(0.01, 0.99, 197)
        for p in (0.05, 0.2, 0.5, 0.8):
            for q in qs:
                t = tilt_parameter(q, p)
                lhs = relative_entropy(q, p)
                rhs = q * t - log_mgf(t, p)
                assert abs(lhs - rhs) < 1e-10

    def test_tilted_mean_matches_q(self):
        # d/dtheta Lambda(theta) at theta_q equals q
        for q, p in ((0.3, 0.1), (0.7, 0.2), (0.52, 0.5)):
            t = tilt_parameter(q, p)
            h = 1e-6
            deriv = (log_mgf(t + h, p) - log_mgf(t - h, p)) / (2 * h)
            assert deriv == pytest.approx(q, rel=1e-8)


class TestSecondMomentGap:
    def test_equals_cumulant_form(self):
        # log(1 + d^2/(p0(1-p0))) == Lambda(2 theta) - 2 Lambda(theta)
        for p0 in (0.05, 0.2, 0.5):
            for p1 in np.linspace(p0, 0.99, 41):
                direct = second_moment_gap(p1, p0)
                if p1 == p0:
                    assert direct == 0.0
                    continue
                t = tilt_parameter(p1, p0)
                viat = log_mgf(2 * t, p0) - 2 * log_mgf(t, p0)
                assert direct == pytest.approx(viat, rel=1e-12, abs=1e-15)

    def test_frozen_value(self):
        assert second_moment_gap(0.9, 0.1) == pytest.approx(
            math.log(1 + 0.64 / 0.09), rel=1e-15
        )


class TestBinomialTails:
    @pytest.mark.parametrize("n,p,k,expect", TAIL_CASES)
    def test_frozen_oracle(self, n, p, k, expect):
        rel = 1e-12 if n <= 10**4 else 1e-8
        assert binom_tail(n, p, k) == pytest.approx(expect, rel=rel)

    @pytest.mark.parametrize("n,p,k,expect", TAIL_CASES)
    def test_scipy_agrees(self, n, p, k, expect):
        sp = float(stats.binom.sf(k - 1, n, p))
        rel = 1e-10 if n <= 10**4 else 1e-7
        assert binom_tail(n, p, k) == pytest.approx(sp, rel=rel)

    def test_cdf_tail_complement(self):
        for n, p in ((17, 0.3), (230, 0.07), (60, 0.5)):
            for k in (0, 1, n // 3, n // 2, n):
                s = binom_cdf(n, p, k) + binom_tail(n, p, k + 1)
                assert s == pytest.approx(1.0, abs=1e-13)

    def test_edges(self):
        assert binom_tail(10, 0.3, 0) == 1.0
        assert binom_cdf(10, 0.3, 10) == 1.0
        assert binom_tail(10, 0.3, 11) == 0.0


class TestBinomQuantile:
    def test_inverse_property(self):
        for n, p in ((30, 0.2), (435, 0.1), (1225, 0.2)):
            for level in (0.5, 0.9, 0.95, 0.99):
                k = binom_quantile(n, p, level)
                assert binom_cdf(n, p, k) >= level
                if k > 0:
                    assert binom_cdf(n, p, k - 1) < level

    def test_scipy_agrees(self):
        for n, p, level in ((1225, 0.2, 0.95), (435, 0.1, 0.99),
                            (50, 0.5, 0.9)):
            assert binom_quantile(n, p, level) == int(
                stats.binom.ppf(level, n, p)
            )


class TestTailBounds:
    def test_chernoff_dominates_exact(self):
        # exp(-n H_p(k/n)) >= P(X >= k) for k/n >= p, all n <= 60
        for n in range(2, 61):
            for p in (0.1, 0.3, 0.5):
                lo = math.ceil(n * p)
                for k in range(max(1, lo), n + 1):
                    bound = chernoff_tail(n, p, k / n)
                    exact = binom_tail(n, p, k)
                    assert bound >= exact * (1 - 1e-12)

    def test_bernstein_dominates_exact(self):
        for n in range(2, 61):
            for p in (0.1, 0.3, 0.5):
                for k in range(math.ceil(n * p) + 1, n + 1):
                    t = k - n * p
                    bound = bernstein_tail(n, p, t)
                    exact = binom_tail(n, p, k)
                    assert bound >= exact * (1 - 1e-12)


class TestSmallHelpers:
    def test_neg_entropy_vectorized(self):
        # signed convention: q log q + (1-q) log(1-q), so <= 0 everywhere
        x = np.array([0.0, 0.25, 0.5, 1.0])
        h = neg_entropy(x)
        assert h[0] == 0.0 and h[3] == 0.0
        assert h[2] == pytest.approx(math.log(0.5))
        assert np.all(h <= 0)

    def test_signal_to_noise(self):
        got = signal_to_noise(30, 0.1, 0.5)
        assert got == pytest.approx(math.sqrt(30) * 0.4 / 0.3, rel=1e-14)
