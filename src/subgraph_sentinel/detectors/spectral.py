"""Polynomial-time relaxation of the scan: spectral bounds on the squared
adjacency matrix.

The scan maximum has a convex surrogate: the largest eigenvalue of any
principal n-by-n block of B = A^2 is sandwiched between a feasible truncated
eigenvector (lower bound) and a thresholding dual bound lambda_max of
(B with small entries zeroed) + n z (upper bound), minimized over a grid of
thresholds z. Both sides are polynomial; no general-purpose semidefinite
solver is involved.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, InvalidSpecError
from .base import DetectorResult, register
from .subsets import _combinations_array, subset_count

__all__ = ["squared_adjacency", "support_eig", "sparse_eig_lower",
           "sdp_dual_bound", "relaxed_scan_stat", "sparse_eig_stat"]

_DENSE_EIG_N = 160
_POWER_SEED = 412731551


def squared_adjacency(graph):
    """B = A @ A as int64: diagonal = degrees, off-diagonal = common neighbors."""
    a = graph.adjacency(np.float64)
    b = a @ a
    return np.rint(b).astype(np.int64)


def support_eig(B, subset):
    """Largest eigenvalue of the principal block B[subset, subset]."""
    s = np.asarray(sorted(subset), dtype=np.int64)
    block = np.asarray(B, dtype=np.float64)[np.ix_(s, s)]
    return float(np.linalg.eigvalsh(block)[-1])


def _sym_lmax(M):
    """Largest eigenvalue of a symmetric nonnegative matrix, deterministic."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    N = M.shape[0]
    if N == 0:
        return 0.0
    if N == 1:
        return float(M[0, 0])
    if sp.issparse(M):
        nnz = M.nnz
    else:
        nnz = int(np.count_nonzero(M))
    if nnz == 0:
        return 0.0
    if N <= _DENSE_EIG_N:
        dense = M.toarray() if sp.issparse(M) else M
        return float(np.linalg.eigvalsh(np.asarray(dense, dtype=np.float64))[-1])
    v0 = 1.0 + np.arange(N) / N  # fixed start keeps ARPACK deterministic
    mat = M if sp.issparse(M) else sp.csr_matrix(M)
    try:
        val = eigsh(mat.astype(np.float64), k=1, which="LA", v0=v0,
                    maxiter=20 * N, tol=0)[0][0]
        return float(val)
    except (ArpackNoConvergence, ArpackError):
        dense = mat.toarray().astype(np.float64)
        return float(np.linalg.eigvalsh(dense)[-1])


def sparse_eig_lower(B, n, enum_budget=10 ** 4, restarts=10, max_iter=60):
    """Best lambda_max over size-n principal blocks found by direct search.

    Exhaustive (and exact) while C(N, n) fits the enumeration budget; beyond
    that, truncated power iteration from the top-degree support plus seeded
    random supports. Either way the value is attained by the witness block, so
    it is always a valid lower bound on the relaxed statistic.
    """
    B = np.asarray(B)
    N = B.shape[0]
    if not 1 <= n <= N:
        raise InvalidSpecError(f"block size {n} outside [1, {N}]")
    Bf = B.astype(np.float64)
    if subset_count(N, n) <= enum_budget:
        combs = _combinations_array(N, n).astype(np.int64)
        blocks = Bf[combs[:, :, None], combs[:, None, :]]
        vals = np.linalg.eigvalsh(blocks)[:, -1]
        i = int(np.argmax(vals))  # first occurrence = lexicographically first
        return DetectorResult("sparse_eig", float(vals[i]),
                              tuple(int(v) for v in combs[i]), True)
    idx = np.arange(N)
    starts = [np.sort(np.lexsort((idx, -Bf.diagonal()))[:n])]
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([_POWER_SEED])))
    for _ in range(restarts):
        starts.append(np.sort(rng.choice(N, size=n, replace=False)))
    best_val = -math.inf
    best_wit = None
    for support in starts:
        x = np.zeros(N)
        x[support] = 1.0 / math.sqrt(n)
        prev = support
        for _ in range(max_iter):
            y = Bf @ x
            order = np.lexsort((idx, -np.abs(y)))[:n]
            support = np.sort(order)
            z = np.zeros(N)
            z[support] = y[support]
            norm = np.linalg.norm(z)
            if norm == 0.0:
                support = prev
                break
            x = z / norm
            if np.array_equal(support, prev):
                break
            prev = support
        val = support_eig(Bf, support)
        wit = tuple(int(v) for v in support)
        if val > best_val or (val == best_val and wit < best_wit):
            best_val, best_wit = val, wit
    return DetectorResult("sparse_eig", best_val, best_wit, False)


def sdp_dual_bound(B, n, z):
    """Dual upper bound lambda_max(threshold_z(B)) + n z on the block maximum.

    threshold_z zeroes every entry of magnitude <= z, diagonal included. Any
    principal n-block's top eigenvalue is bounded by this for every z >= 0,
    so the minimum over a z-grid is still an upper bound.
    """
    if z < 0:
        raise DomainError("threshold z must be nonnegative")
    B = np.asarray(B)
    T = np.where(np.abs(B) > z, B, 0).astype(np.float64)
    return _sym_lmax(T) + n * float(z)


def _threshold_grid(B, cap=256):
    vals = np.unique(np.abs(np.asarray(B)))
    if vals.size > cap:
        take = np.unique(np.round(np.linspace(0, vals.size - 1, cap)).astype(int))
        vals = vals[take]
    return vals.astype(np.float64)


@register("relaxed_scan")
def relaxed_scan_stat(graph, n, grid_cap=256):
    """Thresholding upper bound on the block-eigenvalue scan, with its
    feasible lower bound attached (lower_bound <= true optimum <= value)."""
    B = squared_adjacency(graph)
    if not 1 <= n <= graph.n_nodes:
        raise InvalidSpecError(f"block size {n} outside [1, {graph.n_nodes}]")
    best = math.inf
    for z in _threshold_grid(B, cap=grid_cap):
        if n * z >= best:
            break  # bounds only grow from here: lambda_max >= 0
        best = min(best, sdp_dual_bound(B, n, z))
    lower = sparse_eig_lower(B, n)
    return DetectorResult("relaxed_scan", float(best), None, False,
                          lower_bound=lower.value)


@register("sparse_eig")
def sparse_eig_stat(graph, n, enum_budget=10 ** 4):
    """Graph-level entry point for the feasible block-eigenvalue lower bound."""
    return sparse_eig_lower(squared_adjacency(graph), n, enum_budget=enum_budget)
