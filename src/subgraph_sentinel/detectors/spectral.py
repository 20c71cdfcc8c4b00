"""Polynomial-time relaxation of the scan: spectral bounds on the squared
adjacency matrix.

The scan maximum has a convex surrogate: the largest eigenvalue of any
principal n-by-n block of B = A^2 is sandwiched between a feasible truncated
eigenvector (lower bound) and a thresholding dual bound lambda_max of
(B with small entries zeroed) + n z (upper bound), minimized over a grid of
thresholds z. Both sides are polynomial; no general-purpose semidefinite
solver is involved.

The lower bound is exact on small inputs, where it enumerates every block.
Each block's eigenvalue lies between two bounds read off its integer row sums
over B: the mean row sum 1'B1/n (the Rayleigh quotient of the all-ones vector)
and the largest row sum (Perron-Frobenius, since B >= 0). The row sums need
one gather of B per pair of block positions and no block; only the blocks
whose largest row sum reaches the best mean row sum are built and solved.

The upper bound prepares each graph once and then runs one eigensolve per
threshold:

* B comes from a float32 GEMM, which is exact: every partial sum of the 0/1
  products is an integer of at most N < 2^24;
* the threshold grid is read off np.bincount(B), since B is a nonnegative
  integer matrix, and so is a floor on each threshold's lambda_max that needs
  no eigensolve: the larger of 1'T_z 1/N (the all-ones Rayleigh quotient,
  from one suffix sum of v * count(v)) and the largest diagonal entry above z;
* thresholds are solved in ascending order of floor + n z, the least each
  can return, and the loop stops at the first whose key reaches the best
  bound times 1 + 1e-9, a margin for eigensolver rounding. Every threshold
  skipped would return at least the best, so the minimum is the full grid's,
  bit for bit, and the dense low thresholds, whose floors are large, are
  mostly never solved;
* above _DENSE_EIG_N vertices, B's nonzero entries become one CSR matrix, and
  each threshold keeps the entries above it in place, which gives the same
  arrays, and so the same ARPACK run, as converting the dense thresholded
  matrix.

The eigensolve loops (the thresholds here, the power iteration of the lower
bound) run many short BLAS calls with Python work in between, so they run on
one BLAS thread and hand the caller's thread counts back on exit.
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np

from ..errors import DomainError
from .base import DetectorResult, _check_size, register
from .subsets import _combinations_array, _pair_entries

__all__ = ["squared_adjacency", "support_eig", "sparse_eig_lower",
           "sdp_dual_bound", "relaxed_scan_stat", "sparse_eig_stat"]

_DENSE_EIG_N = 160
_POWER_SEED = 412731551
_POWER_RESTARTS = 10   # seeded random supports tried after the top-degree one
_POWER_ITERATIONS = 60
_GRID_CAP = 256        # most thresholds z tried by relaxed_scan_stat
_ENUM_BUDGET = 10 ** 4  # most blocks sparse_eig_lower enumerates exactly


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of each bundled OpenBLAS that loads:
    numpy's 64-bit-integer copy and scipy's. Empty under any other BLAS."""
    import ctypes
    import glob
    import importlib.util
    import os

    controls = []
    for package, lib, suffix in (("numpy", "libscipy_openblas64_-*.so", "64_"),
                                 ("scipy", "libscipy_openblas-*.so", "")):
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        libs = os.path.dirname(spec.submodule_search_locations[0])
        for path in sorted(glob.glob(os.path.join(libs, package + ".libs", lib))):
            try:
                dll = ctypes.CDLL(path)
                get = getattr(dll, "scipy_openblas_get_num_threads" + suffix)
                set_ = getattr(dll, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


class _OneBlasThread:
    """Context manager: inside the block every bundled OpenBLAS runs on one
    thread; on exit, exception or not, each gets back the count it had.

    Entries are counted under a lock, so with nested blocks or concurrent
    threads the first entry saves the counts and the last exit restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_, get()) for get, set_
                                    in _openblas_thread_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


# the loops below run many short BLAS calls, which a second thread slows; the
# single A @ A GEMM keeps its threads, since at N=500 two already beat one
_one_blas_thread = _OneBlasThread()


def squared_adjacency(graph):
    """B = A @ A as int64: diagonal = degrees, off-diagonal = common neighbors."""
    # each partial sum of the 0/1 products is an integer <= N, which float32
    # holds exactly below 2^24; float64 holds it for any N a dense A fits
    dtype = np.float32 if graph.n_nodes < 1 << 24 else np.float64
    a = graph.adjacency(dtype)
    return (a @ a).astype(np.int64)


def support_eig(B, subset):
    """Largest eigenvalue of the principal block B[subset, subset]."""
    s = np.asarray(sorted(subset), dtype=np.int64)
    block = np.asarray(B, dtype=np.float64)[np.ix_(s, s)]
    return float(np.linalg.eigvalsh(block)[-1])


def _sym_lmax(M):
    """Largest eigenvalue of a symmetric nonnegative matrix, dense or CSR,
    deterministic."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    N = M.shape[0]
    if sp.issparse(M) and N <= _DENSE_EIG_N:
        M = M.toarray()  # small matrices take the dense solve either way
    if not sp.issparse(M):
        if N == 0:
            return 0.0
        if N == 1:
            return float(M[0, 0])
        if not np.any(M):
            return 0.0
        if N <= _DENSE_EIG_N:
            return float(np.linalg.eigvalsh(M)[-1])
        M = sp.csr_matrix(M, dtype=np.float64)
    if M.nnz == 0:
        return 0.0
    v0 = 1.0 + np.arange(N) / N  # fixed start keeps ARPACK deterministic
    try:
        val = eigsh(M, k=1, which="LA", v0=v0, maxiter=20 * N, tol=0)[0][0]
        return float(val)
    except (ArpackNoConvergence, ArpackError):
        return float(np.linalg.eigvalsh(M.toarray())[-1])


def sparse_eig_lower(B, n):
    """Best lambda_max over size-n principal blocks of the nonnegative
    symmetric B found by direct search.

    Exhaustive (and exact) while C(N, n) fits _ENUM_BUDGET; beyond
    that, truncated power iteration from the top-degree support plus seeded
    random supports. Either way the value is attained by the witness block, so
    it is always a valid lower bound on the relaxed statistic.

    The exhaustive route solves only the blocks that can be the argmax: a
    block whose largest row sum falls below the best mean row sum, less a
    relative margin of 1e-9 for eigvalsh's rounding, cannot attain it (see
    the module notes). Row t of a block sums B's diagonal entry and the pair
    entries that hold t. The kept blocks stay in lexicographic order, so the
    first maximum is the lexicographically first witness, as without the cut.
    """
    B = np.asarray(B)
    N = B.shape[0]
    _check_size(n, N, "block size")
    if math.comb(N, n) <= _ENUM_BUDGET:
        combs = _combinations_array(N, n)
        # row t of every block, in np.sum's dtype: int64 for a narrower int B
        rows = B.diagonal()[combs.T].astype(np.sum(B[:0]).dtype)
        for t, u, entry in _pair_entries(B, combs):
            rows[t] += entry
            rows[u] += entry
        # 1'B1/n <= lambda_max <= largest row sum, block by block
        floor = rows.sum(axis=0).max() / n
        keep = rows.max(axis=0) >= floor * (1 - 1e-9)
        combs = combs[keep].astype(np.int64)  # still lexicographic
        blocks = B[combs[:, :, None], combs[:, None, :]].astype(np.float64)
        vals = np.linalg.eigvalsh(blocks)[:, -1]
        i = int(np.argmax(vals))  # first occurrence = lexicographically first
        return DetectorResult("sparse_eig", float(vals[i]),
                              tuple(int(v) for v in combs[i]), True)
    Bf = B.astype(np.float64)
    idx = np.arange(N)
    starts = [np.sort(np.lexsort((idx, -Bf.diagonal()))[:n])]
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([_POWER_SEED])))
    for _ in range(_POWER_RESTARTS):
        starts.append(np.sort(rng.choice(N, size=n, replace=False)))
    best_val = -math.inf
    best_wit = None
    with _one_blas_thread:
        for support in starts:
            x = np.zeros(N)
            x[support] = 1.0 / math.sqrt(n)
            prev = support
            for _ in range(_POWER_ITERATIONS):
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

    B is a dense array or a canonical CSR matrix (sorted indices, no
    duplicates), such as _nonzero_csr builds. From CSR, the entries above z
    are kept in place, which gives the arrays scipy builds from the dense
    thresholded matrix.
    """
    import scipy.sparse as sp

    if z < 0:
        raise DomainError("threshold z must be nonnegative")
    if sp.issparse(B):
        at = np.flatnonzero(np.abs(B.data) > z)  # ascending, so rows stay in order
        # the kept entries before row i's first are those at positions < indptr[i]
        T = sp.csr_matrix((B.data[at].astype(np.float64, copy=False),
                           B.indices[at], np.searchsorted(at, B.indptr)),
                          shape=B.shape)
    else:
        B = np.asarray(B)
        T = np.where(np.abs(B) > z, B, 0).astype(np.float64)
    return _sym_lmax(T) + n * float(z)


def _threshold_grid(B):
    """(grid, floors): the distinct entries of the nonnegative integer matrix
    B, ascending, thinned to _GRID_CAP evenly spaced ones, and at each
    threshold z a lower bound on lambda_max(threshold_z(B)) that needs no
    eigensolve.

    The floor is the larger of the all-ones Rayleigh quotient 1'T1/N and the
    largest diagonal entry of B above z (e_i'Te_i for the top-degree i).
    """
    counts = np.bincount(B.ravel())
    vals = np.flatnonzero(counts)
    if vals.size > _GRID_CAP:
        take = np.unique(np.round(
            np.linspace(0, vals.size - 1, _GRID_CAP)).astype(int))
        vals = vals[take]
    # the sum of B's entries above each v, exact in int64: the suffix sums
    # of v * count(v), read as the total less a prefix sum
    mass = np.cumsum(np.arange(counts.size) * counts)
    above = mass[-1] - mass[vals]
    top = int(B.diagonal().max())
    floors = np.maximum(above / B.shape[0], np.where(vals < top, top, 0))
    return vals.astype(np.float64), floors


def _nonzero_csr(B):
    """B's nonzero entries as a canonical float64 CSR matrix, read in
    row-major order: the arrays csr_matrix(B, dtype=float64) holds."""
    import scipy.sparse as sp

    N = B.shape[0]
    flat = B.ravel()
    at = np.flatnonzero(flat)
    return sp.csr_matrix((flat[at].astype(np.float64), at % N,
                          np.searchsorted(at, np.arange(N + 1) * N)),
                         shape=B.shape)


def _relaxed_upper(B, n):
    """Minimum of sdp_dual_bound(B, n, z) over the threshold grid."""
    grid, floors = _threshold_grid(B)
    keys = floors + n * grid  # each threshold's bound is at least its key
    order = np.argsort(keys, kind="stable")
    if B.shape[0] > _DENSE_EIG_N:
        B = _nonzero_csr(B)  # one sparse pattern, sliced at each threshold
    best = math.inf
    with _one_blas_thread:
        for z, key in zip(grid[order], keys[order]):
            if key >= best * (1 + 1e-9):
                break  # no threshold left can beat best, even after rounding
            best = min(best, sdp_dual_bound(B, n, z))
    return float(best)


def relaxed_scan_value(graph, n):
    """relaxed_scan_stat(graph, n).value, without the lower bound."""
    _check_size(n, graph.n_nodes, "block size")
    return _relaxed_upper(squared_adjacency(graph), n)


@register("relaxed_scan", value=relaxed_scan_value)
def relaxed_scan_stat(graph, n):
    """Thresholding upper bound on the block-eigenvalue scan, with its
    feasible lower bound attached (lower_bound <= true optimum <= value)."""
    _check_size(n, graph.n_nodes, "block size")
    B = squared_adjacency(graph)
    return DetectorResult("relaxed_scan", _relaxed_upper(B, n), None, False,
                          lower_bound=sparse_eig_lower(B, n).value)


@register("sparse_eig")
def sparse_eig_stat(graph, n):
    """Graph-level entry point for the feasible block-eigenvalue lower bound."""
    return sparse_eig_lower(squared_adjacency(graph), n)
