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

import numpy as np

from ..errors import DegenerateGraphError, InvalidSpecError
from .base import DetectorResult, register

__all__ = ["densest_subgraph", "densest_at_least"]

_MODES = ("exact_flow", "peel")


def min_degree_peel(rows, degrees):
    """Minimum-degree peel (Matula & Beck 1983) on Python-int adjacency rows.

    Each step removes the smallest-index vertex of least remaining degree.
    Vertices wait in one bitset per degree, and a removal moves the
    neighbours of each degree level down one level as a block. Returns
    (order, suffix_edges): the removal order, and for t = 0..N the edge
    count of what is left after the first t removals.
    """
    buckets = [0] * (max(degrees, default=0) + 1)
    for v, d in enumerate(degrees):
        buckets[d] |= 1 << v
    alive = (1 << len(rows)) - 1
    m_left = sum(degrees) // 2
    order = []
    suffix_edges = [m_left]
    d = 0
    while alive:
        # a removal lowers a degree by at most one, so the minimum drops
        # by at most one per step
        d = max(d - 1, 0)
        while not buckets[d]:
            d += 1
        bit = buckets[d] & -buckets[d]
        buckets[d] ^= bit
        alive ^= bit
        order.append(bit.bit_length() - 1)
        m_left -= d
        suffix_edges.append(m_left)
        nb = rows[order[-1]] & alive
        k = d  # no neighbour has a degree below the minimum
        while nb:
            moved = buckets[k] & nb
            if moved:
                buckets[k] ^= moved
                buckets[k - 1] |= moved
                nb ^= moved
            k += 1
    return order, suffix_edges


def _peel_best(graph, min_size):
    N = graph.n_nodes
    rows = [graph.row_bits(i) for i in range(N)]
    order, suffix_edges = min_degree_peel(rows, graph.degrees().tolist())
    best, best_t = -1.0, None
    for t in range(N - min_size + 1):
        h = suffix_edges[t] / (N - t)
        if h > best:
            best, best_t = h, t
    return best, tuple(sorted(order[best_t:]))


def maximum_flow(graph, source, sink):
    """scipy's maximum flow, imported on first use so that loading the
    package does not load scipy."""
    from scipy.sparse.csgraph import maximum_flow as solve

    return solve(graph, source, sink)


def _exact_flow(graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    N = graph.n_nodes
    m = graph.total_edges()
    if m == 0:
        # every subset has density 0, so the union of the optima is V
        return 0.0, tuple(range(N))
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
    always a feasible density, never less than half the optimum. On a graph
    with vertices but no edges both modes return density 0.0 with every
    vertex as the witness.
    """
    if mode not in _MODES:
        raise InvalidSpecError(f"mode must be one of {_MODES}, got {mode!r}")
    if graph.n_nodes == 0:
        raise DegenerateGraphError("densest subgraph needs vertices")
    if mode == "exact_flow":
        value, witness = _exact_flow(graph)
        return DetectorResult("densest_subgraph", value, witness, True)
    value, witness = _peel_best(graph, 1)
    return DetectorResult("densest_subgraph", value, witness, False)


@register("densest_at_least")
def densest_at_least(graph, n):
    """Best density among peel suffixes of size >= n: a lower bound on the
    size-constrained optimum (exact when n = N, where only V qualifies).
    Ties go to the earliest suffix, so a graph without edges scores 0.0
    with every vertex as the witness."""
    N = graph.n_nodes
    if not 1 <= n <= N:
        raise InvalidSpecError(f"minimum size {n} outside [1, {N}]")
    value, witness = _peel_best(graph, n)
    return DetectorResult("densest_at_least", value, witness, n == N)
