"""Every detector against a brute-force oracle on small random graphs.

The oracles below enumerate subsets directly with itertools and count edges
through Graph.has_edge only, so they share no code path with the detectors
they check.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from subgraph_sentinel.detectors import (
    DetectorResult,
    clique_number,
    degree_variance_stat,
    densest_at_least,
    densest_subgraph,
    evaluate,
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
from subgraph_sentinel.detectors import densest, spectral
from subgraph_sentinel.detectors.degree import degree_variance_raw, total_degree_moments
from subgraph_sentinel.errors import (
    BudgetExceededError,
    DegenerateGraphError,
    InvalidSpecError,
    TimeBudgetExceededError,
)
from subgraph_sentinel.graph import Graph
from subgraph_sentinel.models import ModelSpec, pair_count, sample


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


def brute_block_eig(g, n):
    B = squared_adjacency(g).astype(np.float64)
    best, wit = -math.inf, None
    for s in itertools.combinations(range(g.n_nodes), n):
        lam = float(np.linalg.eigvalsh(B[np.ix_(s, s)])[-1])
        if lam > best:
            best, wit = lam, s
    return best, wit


def sizes_for(g):
    return sorted({2, 3, min(5, g.n_nodes), g.n_nodes})


# -- scan -------------------------------------------------------------------

class TestScan:
    def test_exact_matches_oracle(self, graph_battery):
        for g in graph_battery:
            for n in sizes_for(g):
                want_v, want_w = brute_scan(g, n)
                res = scan_stat(g, n, mode="exact")
                assert res.value == want_v
                assert res.witness == want_w
                assert res.exact

    def test_branch_bound_matches_exact(self, graph_battery):
        for g in graph_battery:
            for n in sizes_for(g):
                ex = scan_stat(g, n, mode="exact")
                bb = scan_stat(g, n, mode="branch_bound")
                assert bb.value == ex.value
                assert bb.witness == ex.witness
                assert bb.exact

    def test_greedy_is_lower_bound(self, graph_battery):
        for g in graph_battery:
            for n in sizes_for(g):
                ex = scan_stat(g, n, mode="exact")
                gr = scan_stat(g, n, mode="greedy")
                assert gr.value <= ex.value
                assert not gr.exact
                assert len(gr.witness) == n
                assert witness_value(g, gr) == gr.value

    def test_witness_rescores(self, graph_battery):
        for g in graph_battery:
            res = scan_stat(g, min(4, g.n_nodes), mode="exact")
            assert witness_value(g, res) == res.value

    def test_trivial_sizes(self, k4):
        assert scan_stat(k4, 1).value == 0.0
        assert scan_stat(k4, 4).value == 6.0

    def test_budget_refusal(self):
        g = Graph(20, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            scan_stat(g, 10, mode="exact", budget=100)

    def test_bad_args(self, k4):
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 0)
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 5)
        with pytest.raises(InvalidSpecError):
            scan_stat(k4, 2, mode="psychic")


class TestGlr:
    def test_matches_oracle(self, graph_battery):
        for g in graph_battery:
            for n in (2, 3):
                want_v, want_w = brute_glr(g, n)
                res = glr_stat(g, n)
                assert res.value == pytest.approx(want_v, abs=1e-10)
                assert res.witness == want_w
                assert res.exact

    def test_extremes_route_same_value(self, graph_battery):
        # forcing past the enumeration cap exercises the convexity argument
        for g in graph_battery[:8]:
            for n in (2, 3):
                full = glr_stat(g, n)
                fast = glr_stat(g, n, budget=1)
                assert fast.value == pytest.approx(full.value, abs=1e-10)
                assert witness_value(g, fast) == pytest.approx(fast.value, abs=1e-10)

    def test_empty_graph_scores_zero(self, empty10):
        assert glr_stat(empty10, 3).value == pytest.approx(0.0, abs=1e-12)


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
        with pytest.raises(DegenerateGraphError):
            degree_variance_stat(empty10)

    def test_total_degree_moments(self):
        null = ModelSpec.null(20, 0.3)
        assert total_degree_moments(null) == pytest.approx(
            (190 * 0.3, 190 * 0.3 * 0.7))
        alt = ModelSpec.planted(20, 0.3, 0.8, 5)
        mean, var = total_degree_moments(alt)
        assert mean == pytest.approx(180 * 0.3 + 10 * 0.8)
        assert var == pytest.approx(180 * 0.3 * 0.7 + 10 * 0.8 * 0.2)
        fd = ModelSpec.planted_fixed_degree(20, 0.3, 0.8, 5)
        assert total_degree_moments(fd)[0] == pytest.approx(
            total_degree_moments(fd.matched_null())[0], rel=1e-12)


# -- clique -----------------------------------------------------------------

class TestClique:
    def test_matches_oracle(self, graph_battery):
        for g in graph_battery:
            want_v, want_w = brute_clique(g)
            res = clique_number(g)
            assert res.value == want_v
            assert res.witness == want_w
            assert witness_value(g, res) == res.value

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

    def test_witness_must_be_clique(self, k4):
        fake = DetectorResult("clique_number", 3.0, (0, 1, 2), True)
        assert witness_value(k4, fake) == 3.0
        sparse = Graph(4, [(0, 1)])
        with pytest.raises(AssertionError):
            witness_value(sparse, fake)


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
        for fn in (lambda: densest_subgraph(empty10),
                   lambda: densest_subgraph(empty10, mode="peel"),
                   lambda: densest_at_least(empty10, 2)):
            with pytest.raises(DegenerateGraphError):
                fn()
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

    def test_power_iteration_is_feasible_lower_bound(self, graph_battery):
        for g in graph_battery:
            n = min(3, g.n_nodes)
            want_v, _ = brute_block_eig(g, n)
            res = sparse_eig_stat(g, n, enum_budget=1)
            assert not res.exact
            assert res.value <= want_v + 1e-9
            B = squared_adjacency(g)
            assert support_eig(B, res.witness) == pytest.approx(res.value, abs=1e-9)

    def test_power_iteration_deterministic(self, graph_battery):
        g = graph_battery[3]
        n = min(4, g.n_nodes)
        r1 = sparse_eig_stat(g, n, enum_budget=1)
        r2 = sparse_eig_stat(g, n, enum_budget=1)
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
