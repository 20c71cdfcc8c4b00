"""Densest subgraph: exact via parametric minimum cut, approximate via peeling.

Density of a subset is (edges inside) / (vertices), so a k-clique scores
(k-1)/2. The exact mode runs Dinkelbach's iteration on the exact rational
density a/b over Goldberg's cut network: one maximum-flow solve per step
either certifies a/b optimal or returns a denser subset as the next guess.
Starting from the whole graph it takes a handful of solves (one to four on
random graphs up to N = 400). All capacities and flows are int32, which
limits it to 2 * N * M < 2**31 for N vertices and M edges. Peeling is the
classic remove-the-minimum-degree-vertex sweep with a one-half guarantee.
"""
from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from ..errors import DegenerateGraphError, InvalidSpecError
from .base import DetectorResult, register

__all__ = ["densest_subgraph", "densest_at_least"]

_MODES = ("exact_flow", "peel")


def _peel_suffixes(graph):
    """Vertex removal order (min degree first, ties to the smallest index)
    plus the edge count of every suffix. Returns (order, suffix_edges)."""
    N = graph.n_nodes
    deg = graph.degrees().astype(np.int64).copy()
    nbrs = [graph.neighbors(i).tolist() for i in range(N)]
    heap = [(int(deg[v]), v) for v in range(N)]
    heapq.heapify(heap)
    removed = np.zeros(N, dtype=bool)
    order = []
    m_left = graph.total_edges()
    suffix_edges = [m_left]
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue  # stale entry
        removed[v] = True
        order.append(v)
        m_left -= int(deg[v])
        suffix_edges.append(m_left)
        for u in nbrs[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (int(deg[u]), u))
    return order, suffix_edges


def _peel_best(graph, min_size):
    order, suffix_edges = _peel_suffixes(graph)
    N = graph.n_nodes
    best_t = None
    best = (-1.0, 0)
    for t in range(N):
        size = N - t
        if size < min_size:
            break
        h = suffix_edges[t] / size
        if h > best[0]:
            best = (h, size)
            best_t = t
    witness = tuple(sorted(order[best_t:]))
    return best[0], witness


def _exact_flow(graph):
    N = graph.n_nodes
    m = graph.total_edges()
    if m == 0:
        raise DegenerateGraphError("densest subgraph needs at least one edge")
    # capacities are at most max(b * dmax, 2a) and the flow at most 2bm,
    # with b <= N and a <= m; maximum_flow silently returns wrong flows once
    # a value leaves int32
    if 2 * N * m >= 2 ** 31:
        raise InvalidSpecError(
            "graph too large for the int32 exact-flow construction; use peel")
    degs = graph.degrees()
    edges = graph.edges()
    # nodes: 0 = source, 1..N = vertices, N+1 = sink
    src = np.concatenate([
        np.zeros(N, dtype=np.int64),            # s -> i
        edges[:, 0] + 1, edges[:, 1] + 1,       # both arc directions per edge
        np.arange(1, N + 1),                    # i -> t
    ])
    dst = np.concatenate([
        np.arange(1, N + 1),
        edges[:, 1] + 1, edges[:, 0] + 1,
        np.full(N, N + 1, dtype=np.int64),
    ])
    # For the guess a/b the arcs are s -> i with capacity b deg(i), i -> t
    # with 2a and b on each edge arc, so the cut of S + {s} is
    # 2bm - 2(b e(S) - a|S|): a flow short of 2bm exposes a set S denser
    # than a/b, which becomes the next guess
    a, b = m, N
    while True:
        cap = np.concatenate([
            b * degs, np.full(2 * m, b, dtype=np.int64),
            np.full(N, 2 * a, dtype=np.int64),
        ]).astype(np.int32)
        g = csr_matrix((cap, (src, dst)), shape=(N + 2, N + 2))
        res = maximum_flow(g, 0, N + 1)
        # maximal source side: every vertex that cannot reach t in the
        # residual graph; at the optimum it is the union of all densest sets
        resid = (g - res.flow) > 0
        sink_side = breadth_first_order(resid.T, N + 1, directed=True,
                                        return_predecessors=False)
        source_side = np.ones(N + 2, dtype=bool)
        source_side[sink_side] = False
        witness = tuple(np.flatnonzero(source_side[1: N + 1]).tolist())
        if res.flow_value == 2 * b * m:
            break
        a, b = graph.subgraph_edges(witness), len(witness)
    value = graph.subgraph_edges(witness) / len(witness)
    return value, witness


@register("densest_subgraph")
def densest_subgraph(graph, mode="exact_flow"):
    """Maximum of (edges inside S) / |S| over nonempty vertex subsets.

    exact_flow delivers the optimum in a few maximum-flow solves; its
    witness is the (unique) largest optimal subset, the union of all optimal
    subsets, read off the maximal source side of the final minimum cut. It
    raises InvalidSpecError when 2 * N * M >= 2**31 (N vertices, M edges),
    where the int32 flow network would overflow. peel is the greedy sweep:
    always a feasible density, never less than half the optimum.
    """
    if mode not in _MODES:
        raise InvalidSpecError(f"mode must be one of {_MODES}, got {mode!r}")
    if graph.n_nodes == 0:
        raise DegenerateGraphError("densest subgraph needs vertices")
    if mode == "exact_flow":
        value, witness = _exact_flow(graph)
        return DetectorResult("densest_subgraph", value, witness, True)
    if graph.total_edges() == 0:
        raise DegenerateGraphError("densest subgraph needs at least one edge")
    value, witness = _peel_best(graph, 1)
    return DetectorResult("densest_subgraph", value, witness, False)


@register("densest_at_least")
def densest_at_least(graph, n):
    """Best density among peel suffixes of size >= n: a lower bound on the
    size-constrained optimum (exact when n = N, where only V qualifies)."""
    N = graph.n_nodes
    if not 1 <= n <= N:
        raise InvalidSpecError(f"minimum size {n} outside [1, {N}]")
    if graph.total_edges() == 0:
        raise DegenerateGraphError("density profile needs at least one edge")
    value, witness = _peel_best(graph, n)
    return DetectorResult("densest_at_least", value, witness, n == N)
