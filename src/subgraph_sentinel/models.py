"""Random graph models: the homogeneous null and the planted dense block.

Three variants:

* ``null``: every pair is an edge with probability p0.
* ``planted``: pairs inside a distinguished n-subset appear with probability
  p1 >= p0, all other pairs with p0.
* ``planted_fixed_degree``: off-block pairs appear with probability p0_prime,
  in-block pairs with p1; the matched null uses the effective edge probability
  that equates the expected total edge count.

Replicates are seeded as (master_seed, stream_index) pairs mapped onto
independent Philox streams, so any replicate can be regenerated in isolation
and results do not depend on how replicates are distributed over workers.

The C(N,2) unordered pairs (i, j), i < j, are numbered in row-major order:
pair (i, j) has index i(2N - i - 1)/2 + (j - i - 1), as index_from_pair
computes. pair_from_index inverts it in integers alone: index k lies in the
last row i whose first pair (i, i + 1) has index at most k, found by binary
search over those N row starts.

Coins are drawn in one of two regimes, switched at _SPARSE_CUTOVER, and each
regime has one coin routine. The background takes the regime of the off-block
probability and a planted block that of p1. A dense draw (_upper_bernoulli)
takes one uniform per pair in row-major pair order, which is also the order in
which boolean-mask assignment fills the strict upper triangle of an m x m
array; so the coins go straight into that triangle, and on a dense background
graph_from_upper mirrors it and packs it into rows, with no pair indices in
between. A sparse draw (_pair_bernoulli) walks the pair axis with geometric
skips and returns the struck pairs as index arrays, O(edges) in memory. A
sparse background ends in one Graph(N, edges), which packs its own pairs and
the block's, whichever regime drew those.
"""
from __future__ import annotations

import functools
import sys
from numbers import Integral, Real
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .graph import Graph, _whole, as_subset, graph_from_upper

__all__ = [
    "ModelSpec", "pair_count", "effective_p0", "stream_rng",
    "sample", "sample_with_witness", "pair_from_index", "index_from_pair",
]

_VARIANTS = ("null", "planted", "planted_fixed_degree")
_SPARSE_CUTOVER = 0.05
_MAX_N = 1 << 32  # the largest N whose C(N, 2) pair indices fit in int64


def pair_count(m):
    """Number of unordered pairs on m vertices."""
    m = int(m)
    return m * (m - 1) // 2


def effective_p0(p0_prime, p1, n, N):
    """Edge probability of the null matching the planted model's expected total.

    p0_prime + (p1 - p0_prime) * C(n,2) / C(N,2); with this value, C(N,2) * p0
    equals (C(N,2) - C(n,2)) * p0_prime + C(n,2) * p1 exactly.  A graph
    with no pair (N = 1) has nothing to match and keeps p0_prime.
    """
    return p0_prime + (p1 - p0_prime) * pair_count(n) / max(pair_count(N), 1)


def stream_rng(master_seed, stream_index):
    """Independent counter-based generator for one replicate stream."""
    if master_seed < 0 or stream_index < 0:
        raise InvalidSpecError(
            "master_seed and stream_index must be nonnegative")
    seq = np.random.SeedSequence([int(master_seed), int(stream_index)])
    return np.random.Generator(np.random.Philox(seq))


def _real(value, message):
    """value as a float: a real number, numpy's too, but no bool nor integer beyond
    the float range, else InvalidSpecError(message); the caller checks the range."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or isinstance(value, Integral) and abs(int(value)) > sys.float_info.max):
        raise InvalidSpecError(message)
    return float(value)


def _count(value, message, low=None, high=None, above=None):
    """value as an int in [low, high] (None: no bound): an integral number of any
    size or a whole finite real (40.0, not 20.7), no bool, as graph._whole
    takes a vertex count; else InvalidSpecError."""
    count = _whole(value)
    if count is None or low is not None and count < low:
        raise InvalidSpecError(message)
    if high is not None and count > high:  # with the message above, if given
        raise InvalidSpecError(above or message)
    return count


@dataclass(frozen=True)
class ModelSpec:
    """Validated description of one sampling model.

    planted_set of None means the block location is drawn uniformly afresh for
    every sample; a fixed tuple pins it (the usual choice for risk experiments,
    where exchangeability makes any fixed location worst-case).
    """

    variant: str
    N: int
    p0: float | None = None
    p0_prime: float | None = None
    p1: float | None = None
    n: int | None = None
    planted_set: tuple | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidSpecError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "N", _count(
            self.N, f"N must be a positive integer, got {self.N}", 1, _MAX_N,
            above=f"N must be at most 2**32, so that pair indices fit in "
                  f"int64, got {self.N}"))
        for name in ("p0", "p0_prime", "p1"):  # edge probabilities, as floats
            value = getattr(self, name)
            if value is not None:
                p = _real(value, f"{name} must be a number")
                if not 0.0 < p <= 1.0:
                    raise InvalidSpecError(f"{name} must lie in (0, 1], got {value}")
                object.__setattr__(self, name, p)
        if self.variant == "null":
            if self.p0 is None:
                raise InvalidSpecError("null variant needs p0")
            for name in ("p0_prime", "p1", "n", "planted_set"):
                if getattr(self, name) is not None:
                    raise InvalidSpecError(f"null variant must not set {name}")
            return
        object.__setattr__(self, "n", _count(
            self.n, f"n must be an integer in [1, N], got {self.n}", 1, self.N))
        if self.p1 is None:
            raise InvalidSpecError(f"{self.variant} variant needs p1")
        if self.variant == "planted":
            if self.p0 is None or self.p0_prime is not None:
                raise InvalidSpecError("planted variant needs p0 and no p0_prime")
            if self.p1 < self.p0:
                raise InvalidSpecError("planted variant needs p1 >= p0")
        else:
            if self.p0_prime is None or self.p0 is not None:
                raise InvalidSpecError(
                    "planted_fixed_degree variant needs p0_prime and no p0")
            if self.p1 < self.p0_prime:
                raise InvalidSpecError("planted_fixed_degree needs p1 >= p0_prime")
        if self.planted_set is not None:
            try:
                s = as_subset(self.planted_set, self.N)
            except (IndexError, TypeError, ValueError) as exc:
                raise InvalidSpecError(str(exc)) from exc
            if s.size != self.n:
                raise InvalidSpecError("planted_set must have exactly n vertices")
            object.__setattr__(self, "planted_set", tuple(int(v) for v in s))

    # -- constructors -------------------------------------------------------

    @classmethod
    def null(cls, N, p0):
        return cls("null", N, p0=p0)

    @classmethod
    def planted(cls, N, p0, p1, n, planted_set=None):
        return cls("planted", N, p0=p0, p1=p1, n=n, planted_set=planted_set)

    @classmethod
    def planted_fixed_degree(cls, N, p0_prime, p1, n, planted_set=None):
        return cls("planted_fixed_degree", N, p0_prime=p0_prime, p1=p1, n=n,
                   planted_set=planted_set)

    # -- derived ------------------------------------------------------------

    @property
    def off_block_p(self):
        return self.p0 if self.variant != "planted_fixed_degree" else self.p0_prime

    def matched_null(self):
        """The null model this alternative is tested against."""
        if self.variant == "null":
            return self
        if self.variant == "planted":
            return ModelSpec.null(self.N, self.p0)
        return ModelSpec.null(self.N,
                              effective_p0(self.p0_prime, self.p1, self.n, self.N))


# ---------------------------------------------------------------------------
# pair indexing: unordered pairs (i, j), i < j, in row-major order

def index_from_pair(i, j, N):
    """Linear index of pair (i, j) with i < j among all C(N,2) pairs."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * (2 * N - i - 1) // 2 + (j - i - 1)


def pair_from_index(k, N):
    """Inverse of index_from_pair, vectorized and exact in integers."""
    k = np.asarray(k, dtype=np.int64)
    rows = np.arange(N, dtype=np.int64)
    starts = index_from_pair(rows, rows + 1, N)
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _pair_bernoulli(rng, m, p):
    """Sparse-regime coins for the pairs of m vertices, as row and column
    arrays of the struck pairs (i, j), i < j, in row-major order.

    Walks the pair axis with geometric skips, touching only the struck pairs;
    draws nothing when there is no pair.
    """
    n_pairs = pair_count(m)
    expected = n_pairs * p
    batch = max(32, int(expected + 10.0 * np.sqrt(expected + 1.0)))
    picks = [np.empty(0, dtype=np.int64)]
    pos = -1
    while n_pairs:
        # capped one past the last pair: a tiny p cannot wrap the cumsum
        steps = np.minimum(rng.geometric(p, size=batch), n_pairs + 1)
        cand = pos + np.cumsum(steps)
        inside = cand[cand < n_pairs]
        picks.append(inside)
        if inside.size < cand.size:
            break
        pos = int(cand[-1])
    return pair_from_index(np.concatenate(picks), m)


@functools.lru_cache(maxsize=4)
def _strict_upper(m):
    """Read-only m x m mask of the pairs (i, j), i < j."""
    mask = np.arange(m)[:, None] < np.arange(m)
    mask.setflags(write=False)
    return mask


def _upper_bernoulli(rng, m, p):
    """Dense-regime coins for the pairs of m vertices, as an m x m bool array
    that is True exactly at the struck pairs (i, j), i < j.

    Draws nothing when there is no pair or p >= 1, else one uniform per pair
    in row-major pair order.
    """
    mask = _strict_upper(m)
    if p >= 1.0:
        return mask.copy()
    upper = np.zeros((m, m), dtype=bool)
    if m > 1:
        upper[mask] = rng.random(pair_count(m)) < p
    return upper


def sample_with_witness(spec, master_seed, stream_index=0):
    """Draw one graph; returns (graph, planted_subset or None)."""
    rng = stream_rng(master_seed, stream_index)
    N = spec.N
    block = None
    if spec.variant != "null":
        if spec.planted_set is not None:
            block = np.asarray(spec.planted_set, dtype=np.int64)
        else:
            block = np.sort(rng.choice(N, size=spec.n, replace=False)
                            .astype(np.int64))
    p = spec.off_block_p
    if p >= _SPARSE_CUTOVER:
        # p1 >= p, so the in-block coins are dense too; the block is sorted,
        # so its own upper triangle lands in the graph's upper triangle
        upper = _upper_bernoulli(rng, N, p)
        if block is not None:
            upper[np.ix_(block, block)] = _upper_bernoulli(rng, spec.n, spec.p1)
        return graph_from_upper(upper), block
    i, j = _pair_bernoulli(rng, N, p)
    if block is not None:
        # off-block pairs at the background probability, in-block pairs at p1
        # in p1's regime
        in_block = np.zeros(N, dtype=bool)
        in_block[block] = True
        keep = ~(in_block[i] & in_block[j])
        if spec.p1 >= _SPARSE_CUTOVER:
            a, b = np.nonzero(_upper_bernoulli(rng, spec.n, spec.p1))
        else:
            a, b = _pair_bernoulli(rng, spec.n, spec.p1)
        i = np.concatenate([i[keep], block[a]])
        j = np.concatenate([j[keep], block[b]])
    return Graph(N, np.stack([i, j], axis=1)), block


def sample(spec, master_seed, stream_index=0):
    """Draw one graph from the model; see sample_with_witness for the block."""
    return sample_with_witness(spec, master_seed, stream_index)[0]
