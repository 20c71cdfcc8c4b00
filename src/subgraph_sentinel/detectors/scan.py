"""Scan statistics: the densest n-subset edge count and the generalized
likelihood ratio over a block of known size.

The scan maximum W*_n = max_{|S|=n} W_S comes from one exact search, a
branch-and-bound with the admissible completion bound
W_P + (top n-m candidate degrees into P) + C(n-m, 2). Mode 'exact' runs it
after refusing more than _SUBSET_BUDGET subsets, 'branch_bound' runs it with
no refusal, and 'greedy' grows a subset greedily, a cheap lower bound.

The GLR objective depends on a subset only through its edge count W_S and is
strictly convex in it, so its maximum is at the largest or the smallest
achievable W_S. glr takes both from the branch-and-bound, run on the graph and
on its complement.

The branch-and-bound keeps the degrees d_in(u) into the partial subset P as
threshold bitsets in Python ints: L_k = {u : d_in(u) >= k} for k = 1..|P|,
nested, with L_0 every vertex. Adding v to P replaces each L_k with
L_k | (L_{k-1} & row(v)), both read before the addition. The top-r degree
sum over the candidates C is sum_k min(r, |L_k & C|), and d_in(v) is the
number of levels that hold v.

Equal values always resolve to the lexicographically smallest witness: the
branch-and-bound visits subsets in lexicographic order and updates only on
strict improvement, and glr gives equal values at its two extremes to the
smaller witness.
"""
from __future__ import annotations

import numpy as np

from ..kernels import neg_entropy
from ..models import pair_count
from .base import DetectorResult, _check_mode, _check_size, register
from .subsets import check_budget

__all__ = ["scan_stat", "glr_stat", "glr_objective"]

_MODES = ("exact", "branch_bound", "greedy")
_SUBSET_BUDGET = 10 ** 8  # most subsets mode 'exact' admits


def _scan_branch_bound(rows, n):
    """Exact scan maximum and its witness over the graph whose adjacency
    rows, as Python int bitsets, are rows."""
    N = len(rows)
    best = -1
    best_wit = None
    chosen = []

    def dfs(start, w, levels):
        # levels[k-1] = L_k, the bitset of vertices with at least k
        # neighbours in the partial subset, for k = 1..max d_in; the levels
        # are nested, and a list is never changed once built
        nonlocal best, best_wit
        r = n - len(chosen)
        if r == 0:
            if w > best:
                best = w
                best_wit = tuple(chosen)
            return
        pairs = r * (r - 1) // 2
        for v in range(start, N - r + 1):
            # the r largest d_in(u) over u >= v sum to the sum over levels
            # of min(r, |L_k & {v..N-1}|), and d_in(v) is the number of
            # levels that hold v; the first level empty there ends both
            top = 0
            d_in_v = 0
            for level in levels:
                rest = level >> v
                if not rest:
                    break
                count = rest.bit_count()
                top += count if count < r else r
                d_in_v += rest & 1
            # admissible: any completion from {v..N-1} gains at most top + C(r,2)
            if w + top + pairs <= best:
                return
            # adding v moves its neighbours up one level: L_k |= L_{k-1} & row
            row = rows[v]
            grown = []
            below = -1  # L_0 holds every vertex
            for level in levels:
                grown.append(level | (below & row))
                below = level
            if below & row:
                grown.append(below & row)
            chosen.append(v)
            dfs(v + 1, w + d_in_v, grown)
            chosen.pop()

    dfs(0, 0, [])
    return best, best_wit


def _scan_greedy(graph, n):
    """Greedy growth from the first top-degree vertex: each step adds the
    free vertex with the most neighbours in the subset, the smallest index
    on ties. That vertex is the lowest free one in the highest level holding
    a free vertex, and its level number is the edges it adds."""
    v = int(np.argmax(graph.degrees()))  # first occurrence on ties
    chosen = [v]
    free = ((1 << graph.n_nodes) - 1) ^ (1 << v)
    levels = [graph.row_bits(v)]  # levels[k-1] = L_k, as in the branch-and-bound
    w = 0
    while len(chosen) < n:
        k = len(levels)
        while k and not levels[k - 1] & free:
            k -= 1
        pick = (levels[k - 1] if k else -1) & free
        v = (pick & -pick).bit_length() - 1
        chosen.append(v)
        free ^= 1 << v
        w += k
        row = graph.row_bits(v)  # L_k |= L_{k-1} & row, with L_0 every vertex
        levels = [level | (below & row)
                  for below, level in zip([-1] + levels, levels + [0])]
        if not levels[-1]:
            levels.pop()
    return w, tuple(sorted(chosen))


@register("scan")
def scan_stat(graph, n, mode="exact"):
    """Largest edge count over vertex subsets of size n.

    mode 'exact' is the branch-and-bound search, refused beyond the subset
    budget; 'branch_bound' is the same search without that refusal; 'greedy'
    returns a lower bound.
    """
    _check_size(n, graph.n_nodes, "subset size")
    _check_mode(mode, _MODES)
    if mode == "greedy":
        value, wit = _scan_greedy(graph, n)
        return DetectorResult("scan", float(value), wit, False)
    if mode == "exact":
        check_budget(graph.n_nodes, n, _SUBSET_BUDGET)
    rows = [graph.row_bits(v) for v in range(graph.n_nodes)]
    value, wit = _scan_branch_bound(rows, n)
    return DetectorResult("scan", float(value), wit, True)


def glr_objective(graph, n, w_s):
    """Generalized log-likelihood-ratio value for a size-n subset with w_s
    edges; an array of edge counts gives the array of values."""
    N2 = pair_count(graph.n_nodes)
    n2 = pair_count(n)
    W = graph.total_edges()
    w = np.asarray(w_s, dtype=np.float64)
    base = N2 * neg_entropy(W / N2) if N2 else 0.0
    t_in = n2 * neg_entropy(w / n2) if n2 else np.zeros_like(w)
    rest = N2 - n2
    t_out = rest * neg_entropy((W - w) / rest) if rest else np.zeros_like(w)
    value = t_in + t_out - base
    return float(value) if np.ndim(value) == 0 else value


@register("glr")
def glr_stat(graph, n):
    """Maximum of the generalized likelihood ratio over size-n subsets.

    The objective depends on a subset only through its edge count and is
    strictly convex in it, so the maximum sits at one of the two extreme
    subset edge counts: the branch-and-bound maximum on the graph, and
    C(n, 2) minus the one on its complement. Equal values go to the
    lexicographically smaller witness.
    """
    _check_size(n, graph.n_nodes, "subset size")
    rows = [graph.row_bits(v) for v in range(graph.n_nodes)]
    full = (1 << len(rows)) - 1
    hi_val, hi_wit = _scan_branch_bound(rows, n)
    # the complement's row of v: every vertex but v that row v lacks
    comp_rows = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]
    comp_val, comp_wit = _scan_branch_bound(comp_rows, n)
    lo_val = pair_count(n) - comp_val
    f_hi, f_lo = glr_objective(graph, n, np.array([hi_val, lo_val])).tolist()
    if f_hi > f_lo or (f_hi == f_lo and hi_wit <= comp_wit):
        return DetectorResult("glr", f_hi, hi_wit, True)
    return DetectorResult("glr", f_lo, comp_wit, True)
