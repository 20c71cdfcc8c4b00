"""Scan statistics: the densest n-subset edge count and the generalized
likelihood ratio over a block of known size.

Three routes to the scan maximum W*_n = max_{|S|=n} W_S:

* exact enumeration (lexicographic, chunked, budget-guarded);
* branch-and-bound, exact, with the admissible completion bound
  W_P + (top n-m candidate degrees into P) + C(n-m, 2);
* greedy growth, a cheap lower bound.

Ties always resolve to the lexicographically smallest witness; enumeration and
branch-and-bound both visit subsets in lexicographic order and update only on
strict improvement, which makes that automatic.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidSpecError
from ..kernels import neg_entropy
from ..models import pair_count
from .base import DetectorResult, register
from .subsets import check_budget, iter_subset_edge_counts, subset_count

__all__ = ["scan_stat", "glr_stat", "glr_objective"]

_MODES = ("exact", "branch_bound", "greedy")
_ENUM_CAP = 1 << 21


def _check_size(graph, n):
    if not 1 <= n <= graph.n_nodes:
        raise InvalidSpecError(f"subset size {n} outside [1, {graph.n_nodes}]")


def _scan_exact(graph, n, budget):
    check_budget(graph.n_nodes, n, budget)
    best = -1
    best_wit = None
    for _off, combs, counts in iter_subset_edge_counts(graph, n):
        i = int(np.argmax(counts))
        if counts[i] > best:
            best = int(counts[i])
            best_wit = tuple(int(v) for v in combs[i])
    return best, best_wit


def _scan_branch_bound(graph, n):
    N = graph.n_nodes
    adj = graph.adjacency(np.int64)
    n_pairs = n * (n - 1) // 2
    best = -1
    best_wit = None
    chosen = []
    d_in = np.zeros(N, dtype=np.int64)  # neighbors inside the partial subset

    def dfs(start, w):
        nonlocal best, best_wit
        r = n - len(chosen)
        if r == 0:
            if w > best:
                best = w
                best_wit = tuple(chosen)
            return
        for v in range(start, N - r + 1):
            window = d_in[v:]
            if window.size > r:
                top = int(np.partition(window, window.size - r)[window.size - r:].sum())
            else:
                top = int(window.sum())
            # admissible: any completion from {v..N-1} gains at most top + C(r,2)
            if w + top + r * (r - 1) // 2 <= best:
                return
            chosen.append(v)
            d_in_v = int(d_in[v])
            d_in[:] += adj[v]
            dfs(v + 1, w + d_in_v)
            d_in[:] -= adj[v]
            chosen.pop()

    dfs(0, 0)
    return best, best_wit


def _scan_greedy(graph, n):
    N = graph.n_nodes
    adj = graph.adjacency(np.int64)
    degs = graph.degrees()
    taken = np.zeros(N, dtype=bool)
    v = int(np.argmax(degs))  # first occurrence = smallest index on ties
    chosen = [v]
    taken[v] = True
    d_in = adj[v].astype(np.int64)
    while len(chosen) < n:
        v = int(np.argmax(np.where(taken, -1, d_in)))
        chosen.append(v)
        taken[v] = True
        d_in += adj[v]
    wit = tuple(sorted(chosen))
    return graph.subgraph_edges(wit), wit


@register("scan")
def scan_stat(graph, n, mode="exact", budget=10 ** 8):
    """Largest edge count over vertex subsets of size n.

    mode 'exact' enumerates (refusing beyond the subset budget), 'branch_bound'
    is exact via search, 'greedy' returns a lower bound.
    """
    _check_size(graph, n)
    if mode not in _MODES:
        raise InvalidSpecError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "exact":
        value, wit = _scan_exact(graph, n, budget)
        return DetectorResult("scan", float(value), wit, True)
    if mode == "branch_bound":
        value, wit = _scan_branch_bound(graph, n)
        return DetectorResult("scan", float(value), wit, True)
    value, wit = _scan_greedy(graph, n)
    return DetectorResult("scan", float(value), wit, False)


def glr_objective(graph, n, w_s):
    """Generalized log-likelihood-ratio value for a size-n subset with w_s edges."""
    N2 = pair_count(graph.n_nodes)
    n2 = pair_count(n)
    W = graph.total_edges()
    base = N2 * neg_entropy(W / N2) if N2 else 0.0
    t_in = n2 * neg_entropy(w_s / n2) if n2 else 0.0
    rest = N2 - n2
    t_out = rest * neg_entropy((W - w_s) / rest) if rest else 0.0
    return float(t_in + t_out - base)


def _glr_table(graph, n):
    """glr_objective as a vector over every possible w_s in [0, C(n,2)]."""
    N2 = pair_count(graph.n_nodes)
    n2 = pair_count(n)
    W = graph.total_edges()
    w = np.arange(min(n2, W) + 1, dtype=np.float64)
    # w_s can also not leave more edges outside than there are outside pairs
    lo = max(0, W - (N2 - n2))
    w = w[w >= lo]
    base = N2 * neg_entropy(W / N2) if N2 else 0.0
    t_in = n2 * neg_entropy(w / n2) if n2 else np.zeros_like(w)
    rest = N2 - n2
    t_out = rest * neg_entropy((W - w) / rest) if rest else np.zeros_like(w)
    return w.astype(np.int64), t_in + t_out - base


@register("glr")
def glr_stat(graph, n, budget=10 ** 8):
    """Maximum of the generalized likelihood ratio over size-n subsets.

    The objective depends on a subset only through its edge count and is convex
    in it, so beyond the enumeration cap the maximum is found exactly from the
    two extreme subset edge counts (branch-and-bound max on the graph and on
    its complement); enumeration is used when feasible to make the witness the
    lexicographically first argmax.
    """
    _check_size(graph, n)
    total = subset_count(graph.n_nodes, n)
    if total <= min(budget, _ENUM_CAP):
        w_vals, f_vals = _glr_table(graph, n)
        best_f = -math.inf
        best_wit = None
        for _off, combs, counts in iter_subset_edge_counts(graph, n):
            fv = f_vals[np.searchsorted(w_vals, counts)]
            i = int(np.argmax(fv))
            if fv[i] > best_f:
                best_f = float(fv[i])
                best_wit = tuple(int(v) for v in combs[i])
        return DetectorResult("glr", best_f, best_wit, True)
    # convexity route: evaluate at the extreme achievable counts
    hi_val, hi_wit = _scan_branch_bound(graph, n)
    comp_val, comp_wit = _scan_branch_bound(graph.complement(), n)
    lo_val = pair_count(n) - comp_val
    f_hi = glr_objective(graph, n, hi_val)
    f_lo = glr_objective(graph, n, lo_val)
    if f_hi > f_lo or (f_hi == f_lo and hi_wit <= comp_wit):
        return DetectorResult("glr", f_hi, hi_wit, True)
    return DetectorResult("glr", f_lo, comp_wit, True)
