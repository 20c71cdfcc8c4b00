"""Exact maximum clique.

Branch-and-bound on Python integer bitsets with a greedy coloring bound,
searching in degeneracy order for speed; a second lexicographic pass then
recovers the smallest witness of the optimal size, so the reported clique does
not depend on the search ordering.
"""
from __future__ import annotations

import time

import numpy as np

from ..errors import DegenerateGraphError, TimeBudgetExceededError
from .base import DetectorResult, register

__all__ = ["clique_number"]


def _degeneracy_order(graph):
    N = graph.n_nodes
    deg = graph.degrees().astype(np.int64).copy()
    rows = [graph.row_bits(i) for i in range(N)]
    alive = (1 << N) - 1
    order = []
    for _ in range(N):
        best_v, best_d = -1, None
        rem = alive
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if best_d is None or deg[v] < best_d:
                best_v, best_d = v, deg[v]
        order.append(best_v)
        alive &= ~(1 << best_v)
        nb = rows[best_v] & alive
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            deg[u] -= 1
    return order


def _greedy_color_order(rows, cand):
    """Greedy coloring of the candidate set; returns (vertex, color) pairs.

    Classes are independent sets, so the class count bounds any clique inside
    cand. Vertices come back ordered by color; the caller scans them reversed.
    """
    order = []
    rem = cand
    color = 0
    while rem:
        color += 1
        avail = rem
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, color))
            rem &= ~(1 << v)
            avail &= ~rows[v] & rem
    return order


def _max_clique_size(rows, full, deadline):
    best = 0
    root_bound = _greedy_color_order(rows, full)[-1][1]

    def expand(cand, size):
        nonlocal best
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceededError("clique search ran out of time",
                                          lower=best, upper=root_bound)
        if cand == 0:
            if size > best:
                best = size
            return
        order = _greedy_color_order(rows, cand)
        sub = cand
        for v, color in reversed(order):
            if size + color <= best:
                return
            expand(sub & rows[v], size + 1)
            sub &= ~(1 << v)

    expand(full, 0)
    return best, root_bound


def _lex_min_clique(rows, full, omega, deadline):
    """First clique of size omega in lexicographic depth-first order."""
    chosen = []

    def search(cand, size):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceededError("clique witness search ran out of time",
                                          lower=omega, upper=omega)
        if size == omega:
            return True
        order = _greedy_color_order(rows, cand)
        if size + (order[-1][1] if order else 0) < omega:
            return False
        rem = cand
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= ~(1 << v)
            chosen.append(v)
            if search(rem & rows[v], size + 1):
                return True
            chosen.pop()
        return False

    found = search(full, 0)
    assert found, "witness pass must rediscover the optimum"
    return tuple(chosen)


@register("clique_number")
def clique_number(graph, time_budget=None):
    """Size of the largest clique, witness = its lexicographically first copy.

    time_budget (seconds) turns a long search into TimeBudgetExceededError
    carrying the best (lower, upper) bound pair found so far.
    """
    N = graph.n_nodes
    if N == 0:
        raise DegenerateGraphError("clique number needs at least one vertex")
    deadline = None if time_budget is None else time.monotonic() + float(time_budget)
    rows = [graph.row_bits(i) for i in range(N)]
    # search in reverse degeneracy order: relabel so dense cores come first
    perm = _degeneracy_order(graph)[::-1]
    inv = {v: i for i, v in enumerate(perm)}
    rows_p = [0] * N
    for v in range(N):
        bits = rows[v]
        acc = 0
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            acc |= 1 << inv[u]
        rows_p[inv[v]] = acc
    full = (1 << N) - 1
    omega, _bound = _max_clique_size(rows_p, full, deadline)
    witness = _lex_min_clique(rows, full, omega, deadline)
    return DetectorResult("clique_number", float(omega), witness, True)
