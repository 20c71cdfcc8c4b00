"""Densest subgraph: exact via parametric minimum cut, approximate via peeling.

Density of a subset is (edges inside) / (vertices), so a k-clique scores
(k-1)/2. The exact mode runs Dinkelbach's iteration on the exact rational
density a/b over Goldberg's cut network: one maximum-flow solve per step
either certifies a/b optimal or returns a denser subset as the next guess.
It starts from the best peel suffix, which is often already optimal, so most
calls take one solve and few take more than two. The network is built once
per call, with every arc stored beside its reverse, the layout the solver
returns its flow in; each step rewrites only the capacities, and the residual
is read on the same arrays. All capacities and flows are int32, which limits
it to 2 * N * M < 2**31 for N vertices and M edges. Peeling is the classic
remove-the-minimum-degree-vertex sweep with a one-half guarantee.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateGraphError, InvalidSpecError
from .base import DetectorResult, _check_mode, _check_size, register

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
    """(edges, size, witness) of the densest peel suffix with at least
    min_size vertices; ties go to the earliest, so the largest, suffix."""
    N = graph.n_nodes
    rows = [graph.row_bits(i) for i in range(N)]
    order, suffix_edges = min_degree_peel(rows, graph.degrees().tolist())
    best, best_t = -1.0, None
    for t in range(N - min_size + 1):
        h = suffix_edges[t] / (N - t)
        if h > best:
            best, best_t = h, t
    return suffix_edges[best_t], N - best_t, tuple(sorted(order[best_t:]))


def maximum_flow(graph, source, sink):
    """scipy's maximum flow, imported on first use so that loading the
    package does not load scipy."""
    from scipy.sparse.csgraph import maximum_flow as solve

    return solve(graph, source, sink)


def _exact_flow(graph):
    from scipy.sparse import csr_matrix

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
    # nodes: 0 = source, 1..N = vertices, t = N+1 = sink. The arcs are
    # s -> i, i -> t and both directions of each edge, each stored beside its
    # reverse (s <- i and t -> i at capacity 0): the layout maximum_flow
    # solves on and returns its flow in, so one CSR pattern serves every
    # step and only its capacities change
    t = N + 1
    pattern = np.zeros((N + 2, N + 2), dtype=bool)
    pattern[1:t, 1:t] = graph.adjacency(bool)
    pattern[0, 1:t] = pattern[1:t, 0] = pattern[1:t, t] = pattern[t, 1:t] = True
    tail, head = np.nonzero(pattern)  # row-major, the order CSR holds
    key = tail * (N + 2) + head
    rev = np.searchsorted(key, head * (N + 2) + tail)  # each arc's reverse
    net = csr_matrix((np.zeros(key.size, np.int32), head,
                      np.searchsorted(tail, np.arange(N + 3))),
                     shape=(N + 2, N + 2))
    # For the guess a/b the arcs are s -> i with capacity b deg(i), i -> t
    # with 2a and b on each edge arc, so the cut of S + {s} is
    # 2bm - 2(b e(S) - a|S|): a flow short of 2bm exposes a set S denser
    # than a/b, which becomes the next guess
    deg = np.zeros(N + 2, dtype=np.int64)
    deg[1:t] = graph.degrees()
    on_edge = (tail != 0) & (tail != t) & (head != 0) & (head != t)
    per_b = np.where(tail == 0, deg[head], on_edge)
    to_sink = head == t
    # Start at the best peel suffix: a feasible density, so at most the
    # optimum, and at the optimum every representation a/b scales the same
    # cuts, so the final witness does not depend on the start
    a, b, _ = _peel_best(graph, 1)
    while True:
        cap = b * per_b + 2 * a * to_sink
        net.data[:] = cap
        res = maximum_flow(net, 0, t)
        flow = res.flow
        if not (np.array_equal(flow.indptr, net.indptr)
                and np.array_equal(flow.indices, net.indices)):
            raise RuntimeError("maximum_flow returned its flow on an arc "
                               "layout other than the network's")
        # maximal source side: every vertex that cannot reach t in the
        # residual graph; at the optimum it is the union of all densest sets.
        # Grow the set that reaches t backwards from t: arc p is tail -> head,
        # and head -> tail is open when its reverse rev[p] has residual left
        opens = (cap - flow.data)[rev] > 0
        reach = np.zeros(N + 2, dtype=bool)
        reach[t] = True
        while True:
            grown = opens & reach[tail] & ~reach[head]
            if not grown.any():
                break
            reach[head[grown]] = True
        witness = tuple(np.flatnonzero(~reach[1:t]).tolist())
        if res.flow_value == 2 * b * m:
            break
        a_new, b_new = graph.subgraph_edges(witness), len(witness)
        # a cut short of 2bm must expose a strictly denser set; anything
        # else would repeat this guess forever
        if a_new * b <= a * b_new:
            raise RuntimeError(
                f"a flow of {res.flow_value} below {2 * b * m} gave no set "
                f"denser than {a}/{b}")
        a, b = a_new, b_new
    value = graph.subgraph_edges(witness) / len(witness)
    return value, witness


@register("densest_subgraph")
def densest_subgraph(graph, mode="exact_flow"):
    """Maximum of (edges inside S) / |S| over nonempty vertex subsets.

    exact_flow delivers the optimum by Dinkelbach's iteration started at the
    best peel suffix: one maximum-flow solve when the peel is already
    optimal, one more per denser set found. Its witness is the (unique)
    largest optimal subset, the union of all optimal subsets, read off the
    maximal source side of the final minimum cut, whatever the start. It
    raises InvalidSpecError when 2 * N * M >= 2**31 (N vertices, M edges),
    where the int32 flow network would overflow. peel is the greedy sweep:
    always a feasible density, never less than half the optimum. On a graph
    with vertices but no edges both modes return density 0.0 with every
    vertex as the witness.
    """
    _check_mode(mode, _MODES)
    if graph.n_nodes == 0:
        raise DegenerateGraphError("densest subgraph needs vertices")
    if mode == "exact_flow":
        value, witness = _exact_flow(graph)
        return DetectorResult("densest_subgraph", value, witness, True)
    edges, size, witness = _peel_best(graph, 1)
    return DetectorResult("densest_subgraph", edges / size, witness, False)


@register("densest_at_least")
def densest_at_least(graph, n):
    """Best density among peel suffixes of size >= n: a lower bound on the
    size-constrained optimum (exact when n = N, where only V qualifies).
    Ties go to the earliest suffix, so a graph without edges scores 0.0
    with every vertex as the witness."""
    N = graph.n_nodes
    _check_size(n, N, "minimum size")
    edges, size, witness = _peel_best(graph, n)
    return DetectorResult("densest_at_least", edges / size, witness, n == N)
