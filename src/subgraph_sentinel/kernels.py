"""Scalar analytic kernels: Bernoulli relative entropy, exponential tilting,
tail bounds, and self-contained exact binomial tails.

The binomial tail routines deliberately avoid incomplete-beta library calls;
they sum the probability mass recursively away from the mode, so they can serve
as an independent oracle for everything else.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "relative_entropy", "tilt_parameter", "log_mgf", "second_moment_gap",
    "chernoff_tail", "bernstein_tail", "signal_to_noise", "neg_entropy",
    "binom_tail", "binom_cdf", "binom_quantile",
]


def _check_prob_open(p, name):
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {p}")


def relative_entropy(q, p):
    """KL divergence between Bernoulli(q) and Bernoulli(p).

    Conventions at the boundary: q = 0 gives -log(1-p), q = 1 gives -log(p).
    Near q = p a Taylor branch avoids the cancellation in the direct formula;
    the leading behaviour there is (q-p)^2 / (2 p (1-p)).
    """
    p = float(p)
    q = float(q)
    _check_prob_open(p, "p")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return -math.log1p(-p)
    if q == 1.0:
        return -math.log(p)
    d = q - p
    if abs(d) <= 1e-4 * min(p, 1.0 - p):
        # Taylor branch: terms through d^5 keep the relative error below 1e-13
        om = 1.0 - p
        t2 = d * d / (2.0 * p * om)
        t3 = d ** 3 / 6.0 * (1.0 / om ** 2 - 1.0 / p ** 2)
        t4 = d ** 4 / 12.0 * (1.0 / p ** 3 + 1.0 / om ** 3)
        t5 = d ** 5 / 20.0 * (1.0 / om ** 4 - 1.0 / p ** 4)
        return t2 + t3 + t4 + t5
    return q * math.log(q / p) + (1.0 - q) * math.log1p((p - q) / (1.0 - p))


def tilt_parameter(q, p):
    """Natural parameter of the exponential tilt moving Bernoulli(p) to mean q."""
    p = float(p)
    q = float(q)
    _check_prob_open(p, "p")
    _check_prob_open(q, "q")
    return math.log(q * (1.0 - p) / (p * (1.0 - q)))


def log_mgf(theta, p):
    """log E exp(theta X) for X ~ Bernoulli(p), stable for any theta."""
    p = float(p)
    _check_prob_open(p, "p")
    if theta == 0.0:
        return 0.0
    return float(np.logaddexp(math.log1p(-p), math.log(p) + theta))


def second_moment_gap(p1, p0):
    """log(1 + (p1-p0)^2 / (p0 (1-p0))).

    Equals the tilted cumulant difference log_mgf(2 t) - 2 log_mgf(t) at the
    tilt t carrying p0 to p1; the closed form is the stable one.
    """
    p0 = float(p0)
    p1 = float(p1)
    _check_prob_open(p0, "p0")
    if not 0.0 < p1 < 1.0:
        raise DomainError(f"p1 must lie strictly inside (0, 1), got {p1}")
    d = p1 - p0
    return math.log1p(d * d / (p0 * (1.0 - p0)))


def chernoff_tail(n, p, q):
    """Chernoff upper bound exp(-n H) on P(Bin(n, p) >= q n), for q >= p."""
    if q < p:
        raise DomainError("Chernoff bound needs q >= p")
    return math.exp(-n * relative_entropy(q, p))


def bernstein_tail(n, p, x):
    """Bernstein upper bound on P(Bin(n, p) - n p >= x), for x >= 0."""
    if x < 0:
        raise DomainError("Bernstein bound needs x >= 0")
    p = float(p)
    _check_prob_open(p, "p")
    if x == 0.0:
        return 1.0
    return math.exp(-x * x / (2.0 * (n * p * (1.0 - p) + x / 3.0)))


def signal_to_noise(n, p0, p1):
    """sqrt(n) (p1 - p0) / sqrt(p0 (1-p0)): the planted-block signal scale."""
    p0 = float(p0)
    _check_prob_open(p0, "p0")
    return math.sqrt(n) * (p1 - p0) / math.sqrt(p0 * (1.0 - p0))


def neg_entropy(p):
    """p log p + (1-p) log(1-p), elementwise, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = q * np.log(q) + (1.0 - q) * np.log1p(-q)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# exact binomial tails, summed recursively away from the mode

def _binom_logpmf(n, p, k):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _upper_sum(n, p, k):
    # sum pmf(i) for i = k..n; terms are nonincreasing when k >= mode
    term = math.exp(_binom_logpmf(n, p, k))
    first = term
    terms = [term]
    for i in range(k, n):
        term *= (n - i) * p / ((i + 1) * (1.0 - p))
        terms.append(term)
        if term <= first * 1e-18:
            break
    return math.fsum(terms)


def _lower_sum(n, p, k):
    # sum pmf(i) for i = 0..k; terms are nonincreasing when k <= mode
    term = math.exp(_binom_logpmf(n, p, k))
    first = term
    terms = [term]
    for i in range(k, 0, -1):
        term *= i * (1.0 - p) / ((n - i + 1) * p)
        terms.append(term)
        if term <= first * 1e-18:
            break
    return math.fsum(terms)


def binom_tail(n, p, k):
    """P(Bin(n, p) >= k), exact to double precision."""
    n = int(n)
    if n < 0:
        raise DomainError("n must be nonnegative")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    mode = math.floor((n + 1) * p)
    if k > mode:
        return min(1.0, _upper_sum(n, p, k))
    return max(0.0, 1.0 - _lower_sum(n, p, k - 1))


def binom_cdf(n, p, k):
    """P(Bin(n, p) <= k), exact to double precision."""
    n = int(n)
    if n < 0:
        raise DomainError("n must be nonnegative")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    mode = math.floor((n + 1) * p)
    if k < mode:
        return min(1.0, _lower_sum(n, p, k))
    return max(0.0, 1.0 - _upper_sum(n, p, k + 1))


def binom_quantile(n, p, level):
    """Smallest t with P(Bin(n, p) <= t) >= level."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly inside (0, 1)")
    lo, hi = 0, int(n)
    if binom_cdf(n, p, 0) >= level:
        return 0
    # invariant: cdf(lo) < level <= cdf(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(n, p, mid) >= level:
            hi = mid
        else:
            lo = mid
    return hi
