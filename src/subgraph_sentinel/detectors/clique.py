"""Exact maximum clique.

One branch-and-bound on Python integer bitsets (Carraghan & Pardalos 1990,
with the greedy colouring bound of Tomita & Seki 2003). A node branches on its
candidates in increasing index order; it is pruned when its size plus the
colour count of its candidates cannot beat the best clique found, and its loop
stops once its size plus the candidates left cannot. The best clique is
replaced only on strict improvement, so the first maximum clique the search
meets, the lexicographically first one, is the witness.
"""
from __future__ import annotations

import math
import time

from ..errors import (
    DegenerateGraphError,
    InvalidSpecError,
    TimeBudgetExceededError,
)
from .base import DetectorResult, register

__all__ = ["clique_number"]


def _color_count(rows, cand):
    """Number of classes in a greedy colouring of the candidate set.

    Classes are independent sets, so the count bounds any clique inside cand.
    """
    colors = 0
    while cand:
        colors += 1
        avail = cand
        while avail:
            v = (avail & -avail).bit_length() - 1
            cand &= ~(1 << v)
            avail &= ~rows[v] & cand
    return colors


@register("clique_number")
def clique_number(graph, time_budget=None):
    """Size of the largest clique, witness = its lexicographically first copy.

    time_budget (seconds) turns a long search into TimeBudgetExceededError
    carrying the best (lower, upper) bound pair found so far.
    """
    N = graph.n_nodes
    if N == 0:
        raise DegenerateGraphError("clique number needs at least one vertex")
    if time_budget is not None and math.isnan(time_budget):
        # no clock time exceeds nan, so it would never stop the search
        raise InvalidSpecError("time_budget must be seconds, not nan")
    deadline = None if time_budget is None else time.monotonic() + float(time_budget)
    rows = [graph.row_bits(i) for i in range(N)]
    full = (1 << N) - 1
    root_bound = _color_count(rows, full)
    best = 0
    best_wit = ()
    chosen = []

    def expand(cand):
        nonlocal best, best_wit
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceededError("clique search ran out of time",
                                          lower=best, upper=root_bound)
        size = len(chosen)
        if not cand:
            if size > best:
                best = size
                best_wit = tuple(chosen)
            return
        if size + _color_count(rows, cand) <= best:
            return
        rem = cand
        while size + rem.bit_count() > best:
            v = (rem & -rem).bit_length() - 1
            rem &= ~(1 << v)
            chosen.append(v)
            expand(rem & rows[v])
            chosen.pop()

    expand(full)
    return DetectorResult("clique_number", float(best), best_wit, True)
