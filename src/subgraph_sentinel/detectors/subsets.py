"""Enumeration of all n-subsets with their internal edge counts.

The likelihood-ratio oracle averages over W_S for every subset S of a fixed
size, after refusing more subsets than its budget. Subsets come in
lexicographic order, in chunks of one cached table, as index arrays. A sum of
a matrix over every subset reads it one pair t < u of table columns at a time,
one gather each: W_S adds the adjacency's entries, sparse_eig's row sums those
of B = A^2. The tables are cached because calibration loops revisit the same
(N, n) thousands of times.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..errors import BudgetExceededError

__all__ = ["check_budget", "iter_subset_edge_counts"]

_CHUNK = 1 << 16


def check_budget(N, n, budget):
    total = math.comb(N, n)
    if total > budget:
        raise BudgetExceededError(
            f"C({N},{n}) = {total} subsets exceeds the budget of {budget}")
    return total


@functools.lru_cache(maxsize=4)
def _combinations_array(N, n):
    """All n-subsets of range(N), lexicographic, as a read-only int16 (C, n)
    array; the cache hands the same array to every caller."""
    combs = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(N), n)), dtype=np.int16,
        count=math.comb(N, n) * n).reshape(-1, n)
    combs.setflags(write=False)
    return combs


def _pair_entries(M, combs):
    """Yield (t, u, M[c_t, c_u]) over the subset rows c of combs, for each
    column pair t < u: one gather from M.ravel() per pair."""
    flat = M.ravel()
    cols = combs.T.astype(np.int64)
    for t, u in itertools.combinations(range(len(cols)), 2):
        yield t, u, flat[cols[t] * M.shape[1] + cols[u]]


def iter_subset_edge_counts(graph, n):
    """Yield (offset, combs_chunk, counts_chunk) over all n-subsets, lex order."""
    a = graph.adjacency(np.int8)
    combs = _combinations_array(graph.n_nodes, n)
    for off in range(0, len(combs), _CHUNK):
        part = combs[off: off + _CHUNK]
        edges = (entry for _, _, entry in _pair_entries(a, part))
        yield off, part, sum(edges, np.zeros(len(part), dtype=np.int64))
