"""Every detector against a brute-force oracle on small random graphs.

The oracles below enumerate subsets directly with itertools and count edges
through Graph.has_edge only, so they share no code path with the detectors
they check.
"""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from subgraph_sentinel.detectors import (
    DETECTORS,
    DetectorResult,
    clique_number,
    degree_variance_stat,
    densest_at_least,
    densest_subgraph,
    evaluate,
    evaluate_value,
    glr_objective,
    glr_stat,
    max_degree_stat,
    relaxed_scan_stat,
    scan_stat,
    sdp_dual_bound,
    sparse_eig_stat,
    support_eig,
    squared_adjacency,
    total_degree_stat,
    witness_value,
)
from subgraph_sentinel.detectors import densest, scan, spectral, subsets
from subgraph_sentinel.detectors.degree import degree_variance_raw
from subgraph_sentinel.errors import (
    BudgetExceededError,
    DegenerateGraphError,
    InvalidSpecError,
    TimeBudgetExceededError,
)
from subgraph_sentinel.graph import Graph
from subgraph_sentinel.models import ModelSpec, pair_count, sample
from subgraph_sentinel.oracle import lr_statistic


# -- oracles ----------------------------------------------------------------

def edges_inside(g, s):
    return sum(1 for a, b in itertools.combinations(s, 2) if g.has_edge(a, b))


def brute_scan(g, n):
    best, wit = -1, None
    for s in itertools.combinations(range(g.n_nodes), n):
        w = edges_inside(g, s)
        if w > best:
            best, wit = w, s
    return best, wit


def brute_glr(g, n):
    # profile binomial log-likelihood difference, written independently
    def ll(k, m):
        if m == 0:
            return 0.0
        out = 0.0
        if k > 0:
            out += k * math.log(k / m)
        if m - k > 0:
            out += (m - k) * math.log((m - k) / m)
        return out

    N2, n2 = pair_count(g.n_nodes), pair_count(n)
    W = g.total_edges()
    best, wit = -math.inf, None
    for s in itertools.combinations(range(g.n_nodes), n):
        w = edges_inside(g, s)
        f = ll(w, n2) + ll(W - w, N2 - n2) - ll(W, N2)
        if f > best:
            best, wit = f, s
    return best, wit


def first_glr_argmax(g, n):
    """First subset in lexicographic order that maximises glr_objective.

    The objective can tie exactly at two edge counts (at W = C(N, 2) / 2 it
    is symmetric under w -> C(n, 2) - w); there the float values decide, so
    this witness oracle scores with the detector's objective, and brute_glr
    checks that objective's value.
    """
    score = {}
    best, wit = -math.inf, None
    for s in itertools.combinations(range(g.n_nodes), n):
        w = edges_inside(g, s)
        if w not in score:
            score[w] = glr_objective(g, n, w)
        if score[w] > best:
            best, wit = score[w], s
    return wit


def brute_clique(g):
    N = g.n_nodes
    omega, wit = 1, (0,)
    for k in range(2, N + 1):
        found = None
        for s in itertools.combinations(range(N), k):
            if edges_inside(g, s) == k * (k - 1) // 2:
                found = s
                break  # lex order: first hit is the smallest witness
        if found is None:
            break
        omega, wit = k, found
    return omega, wit


def two_pass_clique(g):
    """Reference maximum clique by two searches: a colouring branch-and-bound
    in reverse degeneracy order finds the size, then a lexicographic search
    finds the first clique of that size."""
    N = g.n_nodes
    rows = [g.row_bits(i) for i in range(N)]

    def color_order(rows, cand):
        # greedy colouring as (vertex, colour) pairs, ordered by colour
        order, rem, color = [], cand, 0
        while rem:
            color += 1
            avail = rem
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                rem &= ~(1 << v)
                avail &= ~rows[v] & rem
        return order

    peel, _ = densest.min_degree_peel(rows, g.degrees().tolist())
    perm = peel[::-1]
    inv = {v: i for i, v in enumerate(perm)}
    rows_p = [sum(1 << inv[u] for u in range(N) if rows[v] >> u & 1)
              for v in perm]
    omega = 0

    def expand(cand, size):
        nonlocal omega
        if cand == 0:
            omega = max(omega, size)
            return
        sub = cand
        for v, color in reversed(color_order(rows_p, cand)):
            if size + color <= omega:
                return
            expand(sub & rows_p[v], size + 1)
            sub &= ~(1 << v)

    expand((1 << N) - 1, 0)
    chosen = []

    def search(cand):
        if len(chosen) == omega:
            return True
        order = color_order(rows, cand)
        if len(chosen) + (order[-1][1] if order else 0) < omega:
            return False
        rem = cand
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= ~(1 << v)
            chosen.append(v)
            if search(rem & rows[v]):
                return True
            chosen.pop()
        return False

    assert search((1 << N) - 1)
    return omega, tuple(chosen)


def brute_densest(g):
    """Optimal density and the union of every subset that attains it."""
    best, union = Fraction(-1), set()
    for k in range(1, g.n_nodes + 1):
        for s in itertools.combinations(range(g.n_nodes), k):
            d = Fraction(edges_inside(g, s), k)
            if d > best:
                best, union = d, set(s)
            elif d == best:
                union.update(s)
    return best, tuple(sorted(union))


def scan_degeneracy_order(g):
    """Reference min-degree removal order, ties to the smallest index, found
    by scanning every live vertex at each step."""
    deg = g.degrees().astype(np.int64).copy()
    rows = [g.row_bits(i) for i in range(g.n_nodes)]
    alive = (1 << g.n_nodes) - 1
    order = []
    for _ in range(g.n_nodes):
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


def heap_peel_suffixes(g):
    """Reference removal order from a heap with stale entries, plus the
    edge count of every suffix."""
    deg = g.degrees().astype(np.int64).copy()
    adj = g.adjacency()
    heap = [(int(deg[v]), v) for v in range(g.n_nodes)]
    heapq.heapify(heap)
    removed = np.zeros(g.n_nodes, dtype=bool)
    order = []
    m_left = g.total_edges()
    suffix_edges = [m_left]
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        m_left -= int(deg[v])
        suffix_edges.append(m_left)
        for u in np.flatnonzero(adj[v]).tolist():
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (int(deg[u]), u))
    return order, suffix_edges


def dense_scan_greedy(g, n):
    """Reference greedy growth on the dense int64 adjacency: start at the
    first vertex of largest degree, then add the first untaken vertex with
    the most neighbours in the set."""
    adj = g.adjacency(np.int64)
    taken = np.zeros(g.n_nodes, dtype=bool)
    v = int(np.argmax(g.degrees()))
    chosen = [v]
    taken[v] = True
    d_in = adj[v].copy()
    while len(chosen) < n:
        v = int(np.argmax(np.where(taken, -1, d_in)))
        chosen.append(v)
        taken[v] = True
        d_in += adj[v]
    wit = tuple(sorted(chosen))
    return g.subgraph_edges(wit), wit


def numpy_scan_branch_bound(g, n):
    """Reference scan branch-and-bound: the same search and bound, with the
    degrees into the partial subset held in an int64 array and the top-r sum
    taken with np.partition."""
    N = g.n_nodes
    adj = g.adjacency(np.int64)
    best, best_wit = -1, None
    chosen = []
    d_in = np.zeros(N, dtype=np.int64)

    def dfs(start, w):
        nonlocal best, best_wit
        r = n - len(chosen)
        if r == 0:
            if w > best:
                best, best_wit = w, tuple(chosen)
            return
        for v in range(start, N - r + 1):
            window = d_in[v:]
            if window.size > r:
                top = int(np.partition(window, window.size - r)[window.size - r:].sum())
            else:
                top = int(window.sum())
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


def brute_block_eig(g, n):
    B = squared_adjacency(g).astype(np.float64)
    best, wit = -math.inf, None
    for s in itertools.combinations(range(g.n_nodes), n):
        lam = float(np.linalg.eigvalsh(B[np.ix_(s, s)])[-1])
        if lam > best:
            best, wit = lam, s
    return best, wit


def dinkelbach_from_whole_graph(g):
    """densest_subgraph's exact_flow as it was before the peel start: the
    iteration starts at m/N, and every step builds its network from a fresh
    COO matrix and reads the sink side with breadth_first_order."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    N = g.n_nodes
    m = g.total_edges()
    if m == 0:
        return 0.0, tuple(range(N))
    degs = g.degrees()
    edges = g.edges()
    src = np.concatenate([np.zeros(N, dtype=np.int64), edges[:, 0] + 1,
                          edges[:, 1] + 1, np.arange(1, N + 1)])
    dst = np.concatenate([np.arange(1, N + 1), edges[:, 1] + 1,
                          edges[:, 0] + 1, np.full(N, N + 1, dtype=np.int64)])
    a, b = m, N
    while True:
        cap = np.concatenate([
            b * degs, np.full(2 * m, b, dtype=np.int64),
            np.full(N, 2 * a, dtype=np.int64),
        ]).astype(np.int32)
        net = csr_matrix((cap, (src, dst)), shape=(N + 2, N + 2))
        res = maximum_flow(net, 0, N + 1)
        resid = (net - res.flow) > 0
        sink_side = breadth_first_order(resid.T, N + 1, directed=True,
                                        return_predecessors=False)
        source_side = np.ones(N + 2, dtype=bool)
        source_side[sink_side] = False
        witness = tuple(np.flatnonzero(source_side[1: N + 1]).tolist())
        if res.flow_value == 2 * b * m:
            break
        a, b = g.subgraph_edges(witness), len(witness)
    return g.subgraph_edges(witness) / len(witness), witness


def every_block_eig(B, n):
    """sparse_eig_lower's enumeration before the row-sum cut: eigvalsh on
    every n-block of B at once, the first maximum winning."""
    combs = np.array(list(itertools.combinations(range(B.shape[0]), n)),
                     dtype=np.int64)
    blocks = B.astype(np.float64)[combs[:, :, None], combs[:, None, :]]
    vals = np.linalg.eigvalsh(blocks)[:, -1]
    i = int(np.argmax(vals))
    return float(vals[i]), tuple(int(v) for v in combs[i])


def sizes_for(g):
    return sorted({2, 3, min(5, g.n_nodes), g.n_nodes})


# -- scan -------------------------------------------------------------------

class TestScan:
    def test_exact_matches_oracle(self, graph_battery):
        cases = [(g, n) for g in graph_battery + tie_heavy_graphs()
                 for n in sizes_for(g)] + exact_solver_cases(graph_battery)
        for g, n in cases:
            want_v, want_w = brute_scan(g, n)
            res = scan_stat(g, n, mode="exact")
            assert res.value == want_v
            assert res.witness == want_w
            assert res.exact

    def test_greedy_is_lower_bound(self, graph_battery):
        for g in graph_battery:
            for n in sizes_for(g):
                ex = scan_stat(g, n, mode="exact")
                gr = scan_stat(g, n, mode="greedy")
                assert gr.value <= ex.value
                assert not gr.exact
                assert len(gr.witness) == n
                assert witness_value(g, gr) == gr.value

    def test_greedy_matches_dense_greedy(self, graph_battery):
        graphs = graph_battery + tie_heavy_graphs() + [
            Graph.empty(8), Graph.complete(8),
            sample(ModelSpec.planted(100, 0.1, 0.6, 8), 32, 1)]
        for g in graphs:
            for n in sizes_for(g):
                res = scan_stat(g, n, mode="greedy")
                assert (int(res.value), res.witness) == dense_scan_greedy(g, n)

    def test_witness_rescores(self, graph_battery):
        for g in graph_battery:
            res = scan_stat(g, min(4, g.n_nodes), mode="exact")
            assert witness_value(g, res) == res.value

    def test_trivial_sizes(self, k4):
        assert scan_stat(k4, 1).value == 0.0
        assert scan_stat(k4, 4).value == 6.0

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(scan, "_SUBSET_BUDGET", 100)
        g = Graph(20, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            scan_stat(g, 10, mode="exact")

    def test_bad_args(self, k4):
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 0)
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 5)
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 2, mode="psychic")


# (graph, n, value, witness) of scan_stat(g, n, mode="exact") as computed by
# enumerating every n-subset in lexicographic order, before the exact mode
# became the branch-and-bound search
_SCAN_GOLDEN = [
    (sample(ModelSpec.null(20, 0.3), 19, 0), 4, 6, (0, 4, 7, 19)),
    (sample(ModelSpec.null(100, 0.1), 19, 1), 3, 3, (0, 5, 90)),
    (sample(ModelSpec.null(200, 0.05), 19, 2), 3, 3, (0, 5, 124)),
    (sample(ModelSpec.null(40, 0.2), 19, 3), 6, 12, (5, 14, 16, 19, 25, 26)),
    (sample(ModelSpec.null(60, 0.5), 19, 4), 5, 10, (0, 2, 4, 6, 8)),
    (sample(ModelSpec.null(28, 0.5), 19, 5), 9, 31,
     (0, 3, 8, 9, 11, 13, 14, 17, 27)),
    (Graph(60, [(i, (i + 1) % 60) for i in range(60)]), 6, 5,
     (0, 1, 2, 3, 4, 5)),
    (Graph.empty(40), 6, 0, (0, 1, 2, 3, 4, 5)),
    (Graph(40, [(i, j) for i in range(20) for j in range(20, 40)]), 6, 9,
     (0, 1, 2, 20, 21, 22)),
]


@pytest.mark.parametrize("mode", ["exact", "branch_bound"])
@pytest.mark.parametrize(
    "g,n,value,witness", _SCAN_GOLDEN,
    ids=["null20", "null100", "null200", "null40", "null60", "null28",
         "cycle60", "empty40", "k20_20"])
def test_scan_golden(g, n, value, witness, mode):
    res = scan_stat(g, n, mode=mode)
    assert (res.value, res.witness, res.exact) == (value, witness, True)


def tie_heavy_graphs():
    """Regular and symmetric graphs where many subsets tie for the best."""
    cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    bipartite = Graph(10, [(i, j) for i in range(5) for j in range(5, 10)])
    cliques = Graph(12, [(b + i, b + j) for b in (0, 4, 8)
                         for i, j in itertools.combinations(range(4), 2)])
    matching = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    star = Graph(9, [(0, i) for i in range(1, 9)])
    return [cycle, bipartite, cliques, matching, star]


def exact_solver_cases(graph_battery):
    """(graph, n) pairs for the exact small-graph solvers: seeded null and
    planted draws at N = 12 to 20, then tie-heavy graphs at several n."""
    cases = []
    for N, n in ((12, 2), (15, 3), (18, 4), (20, 3), (20, 4)):
        for p0 in (0.15, 0.4):
            cases += [(sample(ModelSpec.null(N, p0), 53, 2 * N), n),
                      (sample(ModelSpec.planted(N, p0, 0.9, n), 53, 2 * N + 1),
                       n)]
    cycles = [Graph(k, [(i, (i + 1) % k) for i in range(k)]) for k in (5, 8)]
    triangles = Graph(9, [(b + i, b + j) for b in (0, 3, 6)
                          for i, j in itertools.combinations(range(3), 2)])
    ties = (list(graph_battery) + tie_heavy_graphs() + cycles
            + [triangles, Graph.empty(6), Graph.complete(7)])
    for g in ties:
        cases += [(g, n) for n in (1, 2, 3, 4, g.n_nodes) if n <= g.n_nodes]
    return cases


def scan_bb_cases():
    """(graph, n) pairs for the branch-and-bound differential test."""
    cases = []
    for N, n, p0, p1, draws in ((15, 4, 0.3, 0.9, 4), (30, 5, 0.1, 0.9, 3),
                                (40, 6, 0.2, 0.8, 3), (100, 5, 0.1, 0.6, 1)):
        for spec in (ModelSpec.null(N, p0), ModelSpec.planted(N, p0, p1, n)):
            for i in range(draws):
                g = sample(spec, 31, i)
                cases += [(g, n), (g.complement(), n)]
    for g in tie_heavy_graphs() + [Graph.empty(8), Graph.complete(8)]:
        cases += [(g, n) for n in range(1, g.n_nodes + 1)]
    for g in (sample(ModelSpec.null(30, 0.3), 32, 0),
              sample(ModelSpec.planted(100, 0.1, 0.6, 8), 32, 1)):
        cases += [(g, 1), (g, g.n_nodes)]
    return cases


class TestScanBranchBound:
    """The bitset branch-and-bound against the numpy one it replaced."""

    def test_matches_numpy_search(self):
        for g, n in scan_bb_cases():
            res = scan_stat(g, n, mode="branch_bound")
            assert (int(res.value), res.witness) == numpy_scan_branch_bound(g, n)

    def test_builds_no_dense_adjacency(self, monkeypatch):
        g = sample(ModelSpec.planted(40, 0.2, 0.8, 6), 33, 0)

        def results():
            return (scan_stat(g, 6, mode="branch_bound"),
                    scan_stat(g, 6, mode="greedy"), glr_stat(g, 6))

        want = results()

        def no_dense(*args, **kwargs):
            raise AssertionError("dense adjacency built")

        monkeypatch.setattr(Graph, "adjacency", no_dense)
        assert results() == want


def multi_word_graphs():
    """Seeded draws whose packed rows span two and three 64-bit words; the
    sparse ones hold their densest triple in a block past vertex 64."""
    return [sample(spec, 35, i) for i, spec in enumerate((
        ModelSpec.null(70, 0.3),
        ModelSpec.planted(100, 0.01, 1.0, 5, planted_set=range(95, 100)),
        ModelSpec.planted(130, 0.005, 0.9, 6, planted_set=range(124, 130))))]


def enumerated(g, n):
    """(offsets, subsets, counts) of one pass of iter_subset_edge_counts."""
    offs, parts, counts = zip(*subsets.iter_subset_edge_counts(g, n))
    return list(offs), np.concatenate(parts), np.concatenate(counts)


class TestSubsetEnumeration:
    """The chunked subset pass: its pair-gather edge counts, checked against
    Graph.subgraph_edges (a masked popcount on the packed rows, of one word
    or several), and the cached tables it reads."""

    def test_multi_word_counts(self):
        # the pair gathers read the dense adjacency, so the reference that
        # shares nothing with them is subgraph_edges: on every row of the
        # one-word graphs, and every 97th row of the multi-word ones
        graphs = multi_word_graphs()
        assert all(g.packed_rows.shape[1] > 1 for g in graphs)
        one_word = [sample(spec, 36, i) for i, spec in enumerate((
            ModelSpec.null(12, 0.4), ModelSpec.null(64, 0.3),
            ModelSpec.planted(40, 0.05, 1.0, 5, planted_set=range(35, 40))))]
        assert all(g.packed_rows.shape[1] == 1 for g in one_word)
        for g in graphs + one_word:
            _, combs, counts = enumerated(g, 3)
            want = np.array(list(itertools.combinations(range(g.n_nodes), 3)))
            assert np.array_equal(combs, want)
            a = g.adjacency(np.int64)
            dense = sum(a[combs[:, s], combs[:, t]]
                        for s, t in itertools.combinations(range(3), 2))
            assert np.array_equal(counts, dense)
            stride = 1 if g.packed_rows.shape[1] == 1 else 97
            for row in range(0, len(combs), stride):
                assert counts[row] == g.subgraph_edges(combs[row])

    def test_multi_word_scan_matches_branch_bound(self):
        for g in multi_word_graphs():
            want = numpy_scan_branch_bound(g, 3)
            for mode in ("exact", "branch_bound"):
                res = scan_stat(g, 3, mode=mode)
                assert (int(res.value), res.witness) == want

    def test_cached_table_is_read_only(self):
        g = sample(ModelSpec.null(12, 0.4), 5, 0)
        a = g.adjacency(np.int64)

        def results():
            return (lr_statistic(g, 3, 0.4, 0.8),
                    spectral.sparse_eig_lower(a @ a, 3))

        want = results()
        for _, part, _ in subsets.iter_subset_edge_counts(g, 3):
            with pytest.raises(ValueError, match="read-only"):
                part[:] = 0
        assert results() == want


class TestGlr:
    def test_matches_oracle(self, graph_battery):
        graphs = graph_battery + tie_heavy_graphs() + [Graph.empty(8),
                                                       Graph.complete(8)]
        for g in graphs:
            for n in (2, 3, 4):
                want_v, _ = brute_glr(g, n)
                res = glr_stat(g, n)
                assert res.value == pytest.approx(want_v, abs=1e-10)
                assert res.witness == first_glr_argmax(g, n)
                assert res.exact

    def test_complement_rows_in_place_match_oracle(self, graph_battery):
        for g, n in exact_solver_cases(graph_battery):
            res = glr_stat(g, n)
            assert res.value == pytest.approx(brute_glr(g, n)[0], abs=1e-10)
            assert res.witness == first_glr_argmax(g, n)

    def test_empty_graph_scores_zero(self, empty10):
        assert glr_stat(empty10, 3).value == pytest.approx(0.0, abs=1e-12)

    def test_objective_on_array_equals_scalar_calls(self, graph_battery):
        for g in list(graph_battery) + [Graph(1), Graph.complete(6)]:
            for n in range(1, g.n_nodes + 1):
                w = np.arange(pair_count(n) + 1)
                many = glr_objective(g, n, w)
                one = np.array([glr_objective(g, n, int(x)) for x in w])
                assert many.tobytes() == one.tobytes()


def relabeled(g, rng):
    perm = rng.permutation(g.n_nodes)
    return Graph(g.n_nodes, [(perm[a], perm[b]) for a, b in g.edges()])


@pytest.mark.parametrize("name,params", [
    ("clique_number", {}),
    ("scan", {"n": 3, "mode": "exact"}),
    ("scan", {"n": 4, "mode": "branch_bound"}),
    ("glr", {"n": 3}),
])
def test_exact_values_relabel_invariant(name, params, graph_battery):
    rng = np.random.default_rng(11)
    graphs = [g for g in graph_battery if g.n_nodes >= params.get("n", 1)]
    graphs += [sample(ModelSpec.planted(40, 0.2, 0.8, 6), 23, i) for i in range(3)]
    for g in graphs:
        want = evaluate(name, g, params).value
        for _ in range(3):
            assert evaluate(name, relabeled(g, rng), params).value == want


def metamorphic_graphs(N, n, draws):
    """Seeded null and planted draws for the metamorphic identities."""
    return [sample(spec, 41, i) for spec in (ModelSpec.null(N, 0.3),
                                             ModelSpec.planted(N, 0.3, 0.9, n))
            for i in range(draws)]


@pytest.mark.parametrize("name,params,N", [
    ("scan", {"n": 4, "mode": "exact"}, 12),
    ("scan", {"n": 5, "mode": "branch_bound"}, 30),
    ("clique_number", {}, 30),
])
def test_exact_values_monotone_under_edge_addition(name, params, N):
    rng = np.random.default_rng(13)
    for g in metamorphic_graphs(N, 5, 3):
        want = evaluate(name, g, params).value
        edges = [tuple(e) for e in g.edges()]
        missing = [(a, b) for a, b in itertools.combinations(range(N), 2)
                   if not g.has_edge(a, b)]
        for k in rng.choice(len(missing), size=8, replace=False):
            bigger = Graph(N, edges + [missing[k]])
            assert evaluate(name, bigger, params).value >= want


def test_glr_complement_symmetric():
    # the objective is unchanged under w -> C(n,2) - w and W -> C(N,2) - W
    graphs = metamorphic_graphs(14, 4, 3) + metamorphic_graphs(30, 5, 2)
    for g in graphs + [Graph.empty(9), Graph.complete(9)]:
        for n in (2, 4, 5):
            want = glr_stat(g, n).value
            got = glr_stat(g.complement(), n).value
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- degrees ----------------------------------------------------------------

class TestDegreeStats:
    def test_total_degree(self, graph_battery):
        for g in graph_battery:
            res = total_degree_stat(g)
            assert res.value == g.total_edges()
            assert res.witness is None and res.exact

    def test_max_degree(self, graph_battery):
        for g in graph_battery:
            res = max_degree_stat(g)
            degs = [g.degree(i) for i in range(g.n_nodes)]
            assert res.value == max(degs)
            assert res.witness == (degs.index(max(degs)),)
            assert witness_value(g, res) == res.value

    def test_max_degree_tie_takes_smallest(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert max_degree_stat(g).witness == (1,)

    def test_degree_variance_formula(self, graph_battery):
        for g in graph_battery:
            N = g.n_nodes
            W = g.total_edges()
            if W == 0:
                continue
            N2 = pair_count(N)
            ph = W / N2
            degs = np.array([g.degree(i) for i in range(N)], dtype=float)
            v2 = float(((degs - (N - 1) * ph) ** 2).sum()) / (N - 2)
            v1 = (N - 1) * N2 / (N2 - 1) * ph * (1 - ph)
            want = (v2 - v1) / (math.sqrt(N) * ph)
            assert degree_variance_stat(g).value == pytest.approx(want, rel=1e-12)
            assert degree_variance_raw(g) == pytest.approx(v2 - v1, rel=1e-12)

    def test_degree_variance_null_mean_zero(self):
        # raw excess variance is exactly centered under the null
        spec = ModelSpec.null(40, 0.3)
        vals = [degree_variance_raw(sample(spec, 1234, i)) for i in range(400)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals)) < 4 * se

    def test_degenerate_inputs(self, empty10):
        with pytest.raises(DegenerateGraphError):
            max_degree_stat(Graph(0))
        with pytest.raises(DegenerateGraphError):
            degree_variance_stat(Graph(2, [(0, 1)]))
        # no edges: V = 0 exactly, and the standardized value is 0 by convention
        assert degree_variance_raw(empty10) == 0.0
        assert degree_variance_stat(empty10).value == 0.0


# -- clique -----------------------------------------------------------------

class TestClique:
    def test_matches_oracle(self, graph_battery):
        for g in graph_battery:
            want_v, want_w = brute_clique(g)
            res = clique_number(g)
            assert res.value == want_v
            assert res.witness == want_w
            assert witness_value(g, res) == res.value

    def test_matches_two_pass_search(self):
        three_k4 = Graph(12, [(b + i, b + j) for b in (0, 4, 8)
                              for i, j in itertools.combinations(range(4), 2)])
        graphs = [three_k4, Graph.empty(1), Graph.empty(10), Graph.complete(12)]
        for N, p0 in ((12, 0.5), (30, 0.4), (60, 0.3), (100, 0.1), (100, 0.2)):
            for i in range(3):
                graphs.append(sample(ModelSpec.null(N, p0), 53, i))
                graphs.append(sample(ModelSpec.planted(N, p0, 1.0, 10), 53, 3 + i))
        for g in graphs:
            res = clique_number(g)
            assert (int(res.value), res.witness) == two_pass_clique(g)

    def test_edge_cases(self, empty10, k4):
        assert clique_number(empty10).value == 1.0
        assert clique_number(k4).value == 4.0
        assert clique_number(k4).witness == (0, 1, 2, 3)
        with pytest.raises(DegenerateGraphError):
            clique_number(Graph(0))

    def test_time_budget(self):
        rng = np.random.default_rng(42)
        g = Graph(60, [(i, j) for i in range(60) for j in range(i + 1, 60)
                       if rng.random() < 0.9])
        with pytest.raises(TimeBudgetExceededError) as err:
            clique_number(g, time_budget=0.0)
        assert err.value.lower <= err.value.upper

    def test_nan_time_budget_refused(self, k4):
        # no clock time exceeds nan, so it could never stop a search
        with pytest.raises(InvalidSpecError):
            clique_number(k4, time_budget=math.nan)
        with pytest.raises(TimeBudgetExceededError):
            clique_number(k4, time_budget=-1.0)

    def test_witness_must_be_clique(self, k4):
        fake = DetectorResult("clique_number", 3.0, (0, 1, 2), True)
        assert witness_value(k4, fake) == 3.0
        sparse = Graph(4, [(0, 1)])
        with pytest.raises(AssertionError):
            witness_value(sparse, fake)


# -- min-degree peel --------------------------------------------------------

def peel_graphs():
    """Seeded null and planted draws from N = 12 to 500, plus the edge cases."""
    out = [Graph(0), Graph(1), Graph.empty(7), Graph.complete(9)]
    for N, p0, p1, n in ((12, 0.3, 0.9, 4), (60, 0.1, 0.8, 10),
                         (150, 0.05, 0.6, 20), (150, 0.5, 0.95, 20),
                         (500, 0.05, 0.5, 40), (500, 0.9, 1.0, 60)):
        for i in range(2):
            out.append(sample(ModelSpec.null(N, p0), 17, i))
            out.append(sample(ModelSpec.planted(N, p0, p1, n), 17, 2 + i))
    return out


class TestMinDegreePeel:
    """The bucket-queue peel against two independent peels."""

    def test_matches_replaced_orders(self):
        for g in peel_graphs():
            rows = [g.row_bits(i) for i in range(g.n_nodes)]
            order, suffix_edges = densest.min_degree_peel(
                rows, g.degrees().tolist())
            assert order == scan_degeneracy_order(g)
            assert (order, suffix_edges) == heap_peel_suffixes(g)

    def test_detectors_unchanged(self, monkeypatch):
        for g in peel_graphs():
            if g.n_nodes == 0 or g.total_edges() == 0:
                continue
            sizes = sorted({1, max(1, g.n_nodes // 10), g.n_nodes})
            results = [densest_subgraph(g, mode="peel")]
            results += [densest_at_least(g, n) for n in sizes]
            with monkeypatch.context() as m:
                old = heap_peel_suffixes(g)
                m.setattr(densest, "min_degree_peel", lambda rows, degs: old)
                before = [densest_subgraph(g, mode="peel")]
                before += [densest_at_least(g, n) for n in sizes]
            assert results == before


# -- densest subgraph -------------------------------------------------------

class TestDensest:
    def test_flow_matches_oracle(self, graph_battery):
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            res = densest_subgraph(g, mode="exact_flow")
            want, union = brute_densest(g)
            assert res.value == pytest.approx(float(want), abs=1e-12)
            s = res.witness
            assert Fraction(edges_inside(g, s), len(s)) == want
            # the largest optimum is the union of all optimal subsets
            assert s == union

    def test_flow_witness_is_largest_optimum(self):
        two_triangles = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        res = densest_subgraph(two_triangles)
        assert res.value == pytest.approx(1.0)
        assert res.witness == (0, 1, 2, 3, 4, 5)

    def test_flow_needs_few_solves(self, graph_battery, monkeypatch):
        solves = []
        real = densest.maximum_flow

        def counting(*args, **kwargs):
            solves[-1] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(densest, "maximum_flow", counting)
        draws = [sample(spec, 41, i) for i in range(4)
                 for spec in (ModelSpec.null(100, 0.1),
                              ModelSpec.planted(100, 0.1, 0.9, 10))]
        for g in list(graph_battery) + draws:
            if g.total_edges() == 0:
                continue
            solves.append(0)
            densest_subgraph(g)
            assert 1 <= solves[-1] <= 4

    def test_flow_solver_stays_patchable(self, k4, monkeypatch):
        # the solver is imported on first use; the module attribute that
        # wraps it must stay the one callers patch
        wrapper = densest.maximum_flow
        evaluate("densest_subgraph", k4)
        assert densest.maximum_flow is wrapper
        calls = []

        def counting(*args):
            calls.append(1)
            return wrapper(*args)

        monkeypatch.setattr(densest, "maximum_flow", counting)
        assert evaluate("densest_subgraph", k4).value == pytest.approx(1.5)
        assert len(calls) == 1

    def test_flow_matches_iteration_from_whole_graph(self, graph_battery):
        graphs = [g for g, _ in exact_solver_cases(graph_battery)]
        graphs += [sample(ModelSpec.null(N, 0.1), 54, i)
                   for N in (100, 200) for i in range(3)]
        for g in graphs:
            res = densest_subgraph(g)
            assert (res.value, res.witness) == dinkelbach_from_whole_graph(g)

    def test_flow_one_solve_when_peel_is_optimal(self, monkeypatch):
        solves = []
        real = densest.maximum_flow

        def counting(*args):
            solves.append(1)
            return real(*args)

        monkeypatch.setattr(densest, "maximum_flow", counting)
        k4s = Graph(12, [(b + i, b + j) for b in (0, 4, 8)
                         for i, j in itertools.combinations(range(4), 2)])
        two_triangles = Graph(7, [(0, 1), (0, 2), (1, 2),
                                  (3, 4), (3, 5), (4, 5)])
        for g in (Graph.complete(4), Graph.complete(8), k4s, two_triangles):
            solves.clear()
            densest_subgraph(g)
            assert len(solves) == 1

    def test_flow_comes_back_on_network_layout(self, graph_battery,
                                               monkeypatch):
        # the residual is read position by position on the network's arrays
        pairs = []
        real = densest.maximum_flow

        def spy(net, s, t):
            res = real(net, s, t)
            pairs.append((net, res.flow))
            return res

        monkeypatch.setattr(densest, "maximum_flow", spy)
        for g in list(graph_battery) + tie_heavy_graphs():
            densest_subgraph(g)
        assert pairs
        for net, flow in pairs:
            assert np.array_equal(flow.indptr, net.indptr)
            assert np.array_equal(flow.indices, net.indices)

    def test_flow_refuses_other_layout(self, monkeypatch):
        real = densest.maximum_flow

        def dropped_zeros(*args):
            res = real(*args)
            res.flow.eliminate_zeros()
            return res

        monkeypatch.setattr(densest, "maximum_flow", dropped_zeros)
        # the isolated vertex's source arc has capacity 0 and carries no flow
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(RuntimeError, match="layout"):
            densest_subgraph(g)

    def test_flow_refuses_a_guess_that_is_not_denser(self, monkeypatch):
        # a flow one short of 2bm at the optimum yields the same density
        # again; the iteration must stop with an error, not repeat it
        real = densest.maximum_flow
        calls = []

        def one_short(*args):
            calls.append(1)
            if len(calls) > 20:
                raise AssertionError("the flow iteration did not stop")
            res = real(*args)
            res.flow_value -= 1
            return res

        monkeypatch.setattr(densest, "maximum_flow", one_short)
        with pytest.raises(RuntimeError, match="denser"):
            densest_subgraph(Graph.complete(4))
        assert len(calls) == 1

    def test_flow_relabel_invariant(self, graph_battery):
        rng = np.random.default_rng(5)
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            perm = rng.permutation(g.n_nodes)
            h = Graph(g.n_nodes, [(perm[a], perm[b]) for a, b in g.edges()])
            res, moved = densest_subgraph(g), densest_subgraph(h)
            assert moved.value == res.value
            assert moved.witness == tuple(sorted(int(perm[v]) for v in res.witness))

    def test_flow_monotone_under_edge_addition(self, graph_battery):
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            base = densest_subgraph(g).value
            edges = [tuple(e) for e in g.edges()]
            for a, b in itertools.combinations(range(g.n_nodes), 2):
                if not g.has_edge(a, b):
                    bigger = Graph(g.n_nodes, edges + [(a, b)])
                    assert densest_subgraph(bigger).value >= base

    def test_flow_refuses_int32_overflow_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("maximum_flow called")

        monkeypatch.setattr(densest, "maximum_flow", no_solve)
        g = Graph.complete(1300)  # 2 N M = 2.19e9 >= 2**31
        with pytest.raises(InvalidSpecError, match="int32"):
            densest_subgraph(g)

    def test_peel_half_guarantee(self, graph_battery):
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            res = densest_subgraph(g, mode="peel")
            opt = float(brute_densest(g)[0])
            assert res.value >= 0.5 * opt - 1e-12
            assert res.value <= opt + 1e-12
            assert not res.exact
            s = res.witness
            assert edges_inside(g, s) / len(s) == pytest.approx(res.value)

    def test_at_least_size_floor(self, graph_battery):
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            n = min(4, g.n_nodes)
            res = densest_at_least(g, n)
            assert len(res.witness) >= n
            assert edges_inside(g, res.witness) / len(res.witness) == pytest.approx(
                res.value)

    def test_at_least_full_size_is_exact(self, graph_battery):
        for g in graph_battery:
            if g.total_edges() == 0:
                continue
            res = densest_at_least(g, g.n_nodes)
            assert res.exact
            assert res.value == pytest.approx(g.total_edges() / g.n_nodes)

    def test_degenerate(self, empty10):
        # no edges: density 0, and every vertex is an optimum and a suffix
        for res in (densest_subgraph(empty10),
                    densest_subgraph(empty10, mode="peel"),
                    densest_at_least(empty10, 2)):
            assert res.value == 0.0
            assert res.witness == tuple(range(10))
        with pytest.raises(DegenerateGraphError):
            densest_subgraph(Graph(0))
        with pytest.raises(InvalidSpecError):
            densest_subgraph(empty10, mode="magic")
        with pytest.raises(InvalidSpecError):
            densest_at_least(empty10, 11)


# -- spectral relaxation ----------------------------------------------------

class TestSpectral:
    def test_enumerated_matches_oracle(self, graph_battery):
        for g in graph_battery:
            n = min(3, g.n_nodes)
            want_v, want_w = brute_block_eig(g, n)
            res = sparse_eig_stat(g, n)
            assert res.exact
            assert res.value == pytest.approx(want_v, rel=1e-12, abs=1e-12)
            assert res.witness == want_w
            assert witness_value(g, res) == pytest.approx(res.value, abs=1e-12)

    def test_enumeration_matches_every_block_solve(self, graph_battery):
        for g, n in exact_solver_cases(graph_battery):
            B = squared_adjacency(g)
            res = spectral.sparse_eig_lower(B, n)
            assert res.exact
            assert (res.value, res.witness) == every_block_eig(B, n)
        # narrow integer B, whose block row sums pass the dtype's range
        rng = np.random.default_rng(11)
        for N, n in ((6, 3), (9, 4), (12, 2), (12, 5)):
            M = np.triu(rng.integers(0, 120, size=(N, N)))
            for dtype in (np.int8, np.uint8):
                B = (M + np.triu(M, 1).T).astype(dtype)
                res = spectral.sparse_eig_lower(B, n)
                assert (res.value, res.witness) == every_block_eig(B, n)

    def test_power_iteration_is_feasible_lower_bound(self, graph_battery,
                                                      monkeypatch):
        monkeypatch.setattr(spectral, "_ENUM_BUDGET", 1)
        for g in graph_battery:
            n = min(3, g.n_nodes)
            want_v, _ = brute_block_eig(g, n)
            res = sparse_eig_stat(g, n)
            assert not res.exact
            assert res.value <= want_v + 1e-9
            B = squared_adjacency(g)
            assert support_eig(B, res.witness) == pytest.approx(res.value, abs=1e-9)

    def test_power_iteration_deterministic(self, graph_battery, monkeypatch):
        monkeypatch.setattr(spectral, "_ENUM_BUDGET", 1)
        g = graph_battery[3]
        n = min(4, g.n_nodes)
        r1 = sparse_eig_stat(g, n)
        r2 = sparse_eig_stat(g, n)
        assert r1 == r2

    def test_dual_bound_at_zero_is_full_lmax(self, graph_battery):
        for g in graph_battery:
            B = squared_adjacency(g)
            lam = float(np.linalg.eigvalsh(B.astype(np.float64))[-1])
            n = min(3, g.n_nodes)
            assert sdp_dual_bound(B, n, 0) == pytest.approx(lam, rel=1e-10)

    def test_dual_bound_rejects_negative_threshold(self, k4):
        from subgraph_sentinel.errors import DomainError
        with pytest.raises(DomainError):
            sdp_dual_bound(squared_adjacency(k4), 2, -0.5)

    def test_sandwich(self, graph_battery):
        for g in graph_battery:
            n = min(3, g.n_nodes)
            want_v, _ = brute_block_eig(g, n)
            res = relaxed_scan_stat(g, n)
            assert res.lower_bound is not None
            assert res.lower_bound <= want_v + 1e-9
            assert want_v <= res.value + 1e-9
            assert res.lower_bound <= res.value + 1e-9

    def test_lmax_falls_back_only_when_arpack_fails(self, monkeypatch):
        import scipy.sparse.linalg as sla

        # above _DENSE_EIG_N vertices, so the sparse solver runs first
        B = squared_adjacency(sample(ModelSpec.null(200, 0.1), 5)).astype(np.float64)
        want = float(np.linalg.eigvalsh(B)[-1])
        assert spectral._sym_lmax(B) == pytest.approx(want, rel=1e-9)

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        assert spectral._sym_lmax(B) == pytest.approx(want, rel=1e-12)

        def broken(*args, **kwargs):
            raise ValueError("not an ARPACK failure")

        monkeypatch.setattr(sla, "eigsh", broken)
        with pytest.raises(ValueError, match="not an ARPACK failure"):
            spectral._sym_lmax(B)

    def test_squared_adjacency_semantics(self, k4):
        B = squared_adjacency(k4)
        assert np.array_equal(np.diag(B), [3, 3, 3, 3])
        assert B[0, 1] == 2  # common neighbors of 0 and 1 in K4

    def test_bad_sizes(self, k4):
        with pytest.raises(InvalidSpecError):
            sparse_eig_stat(k4, 0)
        with pytest.raises(InvalidSpecError):
            relaxed_scan_stat(k4, 5)


def reference_squared_adjacency(g):
    a = g.adjacency(np.float64)
    return np.rint(a @ a).astype(np.int64)


def reference_grid(B):
    """np.unique(B), thinned to _GRID_CAP evenly spaced values, as floats."""
    vals = np.unique(B)
    if vals.size > spectral._GRID_CAP:
        vals = vals[np.unique(np.round(
            np.linspace(0, vals.size - 1, spectral._GRID_CAP)).astype(int))]
    return vals.astype(np.float64)


def reference_relaxed_scan(g, n):
    """(value, lower_bound) from the relaxed-scan pipeline without per-graph
    preparation: a float64 A^2, the np.unique grid walked in ascending
    order, and at every threshold a dense T_z that _sym_lmax turns into CSR
    above _DENSE_EIG_N vertices."""
    B = reference_squared_adjacency(g)
    best = math.inf
    for z in reference_grid(B):
        if n * z >= best:
            break
        T = np.where(B > z, B, 0).astype(np.float64)
        best = min(best, spectral._sym_lmax(T) + n * float(z))
    return float(best), spectral.sparse_eig_lower(B, n).value


def relaxed_cases():
    """(graph, n): seeded draws on both sides of _DENSE_EIG_N = 160, and
    graphs whose B has few distinct values."""
    cases = []
    for N, p0, p1, n in ((100, 0.1, 0.6, 10), (160, 0.1, 0.5, 10),
                         (161, 0.2, 0.6, 10), (300, 0.05, 0.3, 15),
                         (500, 0.05, 0.4, 20)):
        cases += [(sample(ModelSpec.null(N, p0), 41, 0), n),
                  (sample(ModelSpec.planted(N, p0, p1, n), 41, 1), n)]
    for N in (1, 8, 200):
        cases += [(Graph.empty(N), min(3, N)), (Graph.complete(N), min(3, N))]
    cases.append((Graph(200, [(0, i) for i in range(1, 200)]), 5))
    return cases


class TestRelaxedScanPreparation:
    """The per-graph preparation (float32 A^2, bincount grid, one CSR sliced
    per threshold) against the pipeline it replaced: equal to the bit."""

    def test_matches_reference_pipeline(self):
        for g, n in relaxed_cases():
            res = relaxed_scan_stat(g, n)
            assert (res.value, res.lower_bound) == reference_relaxed_scan(g, n)

    def test_thinned_grid_matches_reference(self, monkeypatch):
        # reference_relaxed_scan reads the patched cap too
        cases = relaxed_cases()[:6]
        full = [relaxed_scan_stat(g, n).value for g, n in cases]
        monkeypatch.setattr(spectral, "_GRID_CAP", 8)
        capped = []
        for g, n in cases:
            assert np.unique(squared_adjacency(g)).size > 8
            res = relaxed_scan_stat(g, n)
            assert (res.value, res.lower_bound) == reference_relaxed_scan(g, n)
            capped.append(res.value)
        # fewer thresholds can only loosen the bound
        assert all(c >= u for c, u in zip(capped, full))
        assert capped != full

    def test_squared_adjacency_matches_reference(self):
        graphs = [g for g, _ in relaxed_cases()] + [Graph(0)]
        for g in graphs:
            B = squared_adjacency(g)
            assert B.dtype == np.int64
            assert np.array_equal(B, reference_squared_adjacency(g))

    def test_value_entry_matches_detector(self):
        for g, n in relaxed_cases():
            value = evaluate_value("relaxed_scan", g, {"n": n})
            assert value == DETECTORS["relaxed_scan"](g, n=n).value

    def test_value_entry_rejects_what_the_detector_rejects(self, k4):
        for call in (lambda p: evaluate("relaxed_scan", k4, p),
                     lambda p: evaluate_value("relaxed_scan", k4, p)):
            with pytest.raises(InvalidSpecError,
                               match="bad params for relaxed_scan: .*'mode'"):
                call({"n": 2, "mode": "exact"})
            with pytest.raises(InvalidSpecError,
                               match=r"block size 5 outside \[1, 4\]"):
                call({"n": 5})
        with pytest.raises(InvalidSpecError, match="block size 1 outside"):
            evaluate_value("relaxed_scan", Graph(0), {"n": 1})

    def test_calibrate_and_risk_compute_no_lower_bound(self, monkeypatch):
        from subgraph_sentinel.calibration import calibrate
        from subgraph_sentinel.risk import estimate_risk

        null = ModelSpec.null(16, 0.3)
        alt = ModelSpec.planted(16, 0.3, 0.9, 4)

        def run():
            test = calibrate("relaxed_scan", {"n": 4}, null, 0.1, 19, 3,
                             workers=1)
            return test, estimate_risk(test, null, alt, 10, 4, workers=1)

        want = run()

        def no_lower(*args, **kwargs):
            raise AssertionError("lower bound computed")

        monkeypatch.setattr(spectral, "sparse_eig_lower", no_lower)
        assert run() == want
        with pytest.raises(AssertionError, match="lower bound computed"):
            DETECTORS["relaxed_scan"](sample(null, 3, 0), n=4)

    def test_dual_bound_from_csr_equals_dense(self):
        import scipy.sparse as sp

        for g, n in relaxed_cases():
            B = squared_adjacency(g)
            C = sp.csr_matrix(B, dtype=np.float64)
            for z in np.unique(B)[:4].astype(np.float64):
                assert sdp_dual_bound(C, n, z) == sdp_dual_bound(B, n, z)


class TestRelaxedScanOrder:
    """_relaxed_upper solves the thresholds in ascending order of a floor
    that needs no eigensolve, plus n z, and stops once no key left can beat
    the best bound: the value is the full grid's minimum, in fewer solves."""

    def test_floors_are_lower_bounds(self, graph_battery):
        small = [g for g, _ in relaxed_cases() if g.n_nodes <= 200]
        for g in graph_battery + small:
            B = squared_adjacency(g)
            grid, floors = spectral._threshold_grid(B)
            assert np.array_equal(grid, reference_grid(B))
            for z, floor in zip(grid, floors):
                T = np.where(B > z, B, 0).astype(np.float64)
                lam = float(np.linalg.eigvalsh(T)[-1])
                assert floor <= lam + 1e-9 * max(1.0, lam)

    def test_star_floor_is_its_diagonal(self):
        # above z = 1 the star's T_z keeps only the centre's degree, 199:
        # the ones-vector quotient is 199/200 and the diagonal term is exact
        star = Graph(200, [(0, i) for i in range(1, 200)])
        grid, floors = spectral._threshold_grid(squared_adjacency(star))
        assert grid.tolist() == [0.0, 1.0, 199.0]
        assert floors.tolist() == [199.0, 199.0, 0.0]

    def test_skip_rule_matches_full_grid(self):
        for g, n in relaxed_cases():
            B = squared_adjacency(g)
            full = min(sdp_dual_bound(B, n, z) for z in reference_grid(B))
            assert relaxed_scan_stat(g, n).value == full

    def test_densest_threshold_never_solved_at_n500(self, monkeypatch):
        # T_0 = B is the costliest solve and never the minimum on these draws
        import scipy.sparse as sp

        solve = spectral._sym_lmax
        nnz = []

        def spy(M):
            nnz.append(M.nnz if sp.issparse(M) else np.count_nonzero(M))
            return solve(M)

        monkeypatch.setattr(spectral, "_sym_lmax", spy)
        cases = [(g, n) for g, n in relaxed_cases() if g.n_nodes == 500]
        assert len(cases) == 2
        for g, n in cases:
            B = squared_adjacency(g)
            assert B.min() == 0  # so T_0 = B is on the grid
            nnz.clear()
            want = reference_relaxed_scan(g, n)
            ascending = len(nnz)
            nnz.clear()
            res = relaxed_scan_stat(g, n)
            assert (res.value, res.lower_bound) == want
            assert 0 < len(nnz) < ascending
            assert max(nnz) < np.count_nonzero(B)


def blas_thread_counts():
    return [get() for get, _ in spectral._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every bundled OpenBLAS at 2 threads, so that a count left at the cap
    of 1 shows; the counts found are put back afterwards."""
    controls = spectral._openblas_thread_controls()
    before = blas_thread_counts()
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, before):
        set_threads(count)


def capped_cases():
    """(graph, n): seeded null and planted draws on both sides of
    _DENSE_EIG_N = 160."""
    cases = []
    for N, p0, p1, n in ((100, 0.1, 0.6, 10), (161, 0.2, 0.6, 10),
                         (500, 0.05, 0.4, 20)):
        cases += [(sample(ModelSpec.null(N, p0), 43, 0), n),
                  (sample(ModelSpec.planted(N, p0, p1, n), 43, 1), n)]
    return cases


# one call per wrapped loop: the thresholds (through _sym_lmax) on the
# detector and value paths, and the power iteration (through support_eig)
BLAS_LOOP_CALLS = [
    pytest.param(lambda g: relaxed_scan_stat(g, 10), "_sym_lmax",
                 id="relaxed_scan"),
    pytest.param(lambda g: evaluate_value("relaxed_scan", g, {"n": 10}),
                 "_sym_lmax", id="relaxed_scan-value"),
    pytest.param(lambda g: sparse_eig_stat(g, 10), "support_eig",
                 id="sparse_eig"),
]


class TestOneBlasThread:
    """The eigensolve loops run on one BLAS thread, and each OpenBLAS copy
    gets its thread count back when the detector returns or raises."""

    @pytest.mark.parametrize("call,inner", BLAS_LOOP_CALLS)
    def test_capped_inside_and_restored_after(self, call, inner,
                                              two_blas_threads, monkeypatch):
        if not two_blas_threads:
            pytest.skip("no bundled OpenBLAS")
        seen = []
        solve = getattr(spectral, inner)

        def spy(*args):
            seen.append(blas_thread_counts())
            return solve(*args)

        monkeypatch.setattr(spectral, inner, spy)
        call(sample(ModelSpec.null(200, 0.05), 3, 0))
        ones = [1] * len(two_blas_threads)
        assert seen and all(counts == ones for counts in seen)
        assert blas_thread_counts() == [2] * len(two_blas_threads)

    @pytest.mark.parametrize("call,inner", BLAS_LOOP_CALLS)
    def test_restored_after_error(self, call, inner, two_blas_threads,
                                  monkeypatch):
        if not two_blas_threads:
            pytest.skip("no bundled OpenBLAS")

        def broken(*args):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(spectral, inner, broken)
        with pytest.raises(RuntimeError, match="solver failed"):
            call(sample(ModelSpec.null(200, 0.05), 3, 0))
        assert blas_thread_counts() == [2] * len(two_blas_threads)

    def test_nested_blocks_restore_at_outermost_exit(self, two_blas_threads):
        if not two_blas_threads:
            pytest.skip("no bundled OpenBLAS")
        with spectral._one_blas_thread:
            with spectral._one_blas_thread:
                pass
            assert blas_thread_counts() == [1] * len(two_blas_threads)
        assert blas_thread_counts() == [2] * len(two_blas_threads)

    def test_values_equal_with_cap_off(self, two_blas_threads, monkeypatch):
        # with the lookup finding no library the cap is off: the detectors
        # run on the threads they find, and every number is unchanged
        def run():
            return [(relaxed_scan_stat(g, n), sparse_eig_stat(g, n))
                    for g, n in capped_cases()]

        capped = run()
        seen = []
        solve = spectral._sym_lmax

        def spy(*args):
            seen.append([get() for get, _ in two_blas_threads])
            return solve(*args)

        monkeypatch.setattr(spectral, "_sym_lmax", spy)
        monkeypatch.setattr(spectral, "_openblas_thread_controls", lambda: ())
        uncapped = run()
        assert seen and all(c == [2] * len(two_blas_threads) for c in seen)
        for (rel, eig), (rel_off, eig_off) in zip(capped, uncapped):
            assert (rel.value, rel.lower_bound) == (rel_off.value,
                                                    rel_off.lower_bound)
            assert (eig.value, eig.witness) == (eig_off.value, eig_off.witness)


# -- registry and result plumbing ------------------------------------------

class TestRegistry:
    def test_evaluate_dispatch(self, k4):
        res = evaluate("scan", k4, {"n": 2})
        assert res.value == 1.0
        assert evaluate("total_degree", k4).value == 6.0

    def test_unknown_detector(self, k4):
        with pytest.raises(InvalidSpecError, match="unknown detector"):
            evaluate("psychic", k4)

    def test_bad_params(self, k4):
        with pytest.raises(InvalidSpecError, match="bad params"):
            evaluate("scan", k4, {"m": 2})

    def test_result_round_trip(self):
        res = DetectorResult("scan", 5.0, (1, 2, 3), True)
        assert DetectorResult.from_json(res.to_json()) == res
        rel = DetectorResult("relaxed_scan", 9.5, None, False, lower_bound=7.25)
        assert DetectorResult.from_json(rel.to_json()) == rel

    def test_result_rejects_unknown_keys(self):
        with pytest.raises(InvalidSpecError):
            DetectorResult.from_dict({"detector_id": "scan", "value": 1.0,
                                      "witness": None, "exact": True, "zzz": 0})

    def test_witness_value_passthrough_without_witness(self, k4):
        res = DetectorResult("total_degree", 6.0, None, True)
        assert witness_value(k4, res) == 6.0
