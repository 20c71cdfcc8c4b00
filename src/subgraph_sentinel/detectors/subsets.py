"""Enumeration of all n-subsets with their internal edge counts.

The likelihood-ratio oracle averages over W_S for every subset S of a fixed
size, after refusing more subsets than its budget. Subsets come in
lexicographic order, in chunks of one cached table, as index arrays; edge
counts come from masked popcounts on the packed adjacency rows, whatever their
width in words. The tables are cached because calibration loops revisit the
same (N, n) thousands of times, and sparse_eig's block enumeration reads them.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..errors import BudgetExceededError

__all__ = ["check_budget", "iter_subset_edge_counts"]

_ONE = np.uint64(1)
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


def _chunk_edge_counts(graph, combs):
    """Internal edge count of every subset row of combs, from each member's
    packed row masked to the subset; every edge is counted from both ends."""
    rows = graph.packed_rows
    c, n = combs.shape
    masks = np.zeros((c, rows.shape[1]), dtype=np.uint64)
    r = np.arange(c)
    for t in range(n):
        col = combs[:, t].astype(np.int64)
        masks[r, col >> 6] |= _ONE << (col.astype(np.uint64) & np.uint64(63))
    w = np.zeros(c, dtype=np.int64)
    for t in range(n):
        sel = rows[combs[:, t].astype(np.int64)] & masks
        w += np.bitwise_count(sel).sum(axis=1).astype(np.int64)
    return w // 2


def iter_subset_edge_counts(graph, n):
    """Yield (offset, combs_chunk, counts_chunk) over all n-subsets, lex order."""
    combs = _combinations_array(graph.n_nodes, n)
    for off in range(0, len(combs), _CHUNK):
        part = combs[off: off + _CHUNK]
        yield off, part, _chunk_edge_counts(graph, part)
