"""Output checks, computed apart from the program.

Every check takes plain values (edge arrays, counts, numbers the program
returned) and gives back a list of problems, empty when the output holds.
The reference values come from direct enumeration, networkx, scipy's LP
solver, numpy eigensolvers, mpmath or exact binomial and beta-binomial
tails, never from stored copies of earlier output.

Checks on Monte Carlo estimates use tail probabilities of 1e-7 or less per
comparison, so that over every seed the benchmark is run with a correct
program does not trip them.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

TAIL = 1e-7          # per-comparison false-alarm rate of the Monte Carlo checks
REL = 1e-9           # relative tolerance for floating-point equalities


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def adjacency(N, edges):
    a = np.zeros((N, N), dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a[e[:, 0], e[:, 1]] = 1
    a[e[:, 1], e[:, 0]] = 1
    return a


def degrees(N, edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.bincount(e.ravel(), minlength=N).astype(np.int64)


def subset_edges(adj, subset):
    s = list(subset)
    return int(adj[np.ix_(s, s)].sum()) // 2


# ------------------------------------------------------------ references

def max_subset_edges(adj, n):
    """Largest edge count over all n-subsets, by enumerating every subset.

    A subset is split into a prefix of n//2 vertices and a suffix of the
    rest whose smallest vertex comes after the prefix's largest; the suffix
    edge counts and their links to each vertex are tabulated once.
    """
    N = adj.shape[0]
    a, b = n // 2, n - n // 2
    suffix = np.array(list(itertools.combinations(range(N), b)),
                      dtype=np.int64).reshape(-1, b)
    inner = np.zeros(len(suffix), dtype=np.int64)
    for x, y in itertools.combinations(range(b), 2):
        inner += adj[suffix[:, x], suffix[:, y]]
    if a == 0:
        return int(inner.max())
    links = adj[:, suffix].sum(axis=2)          # (N, C(N, b))
    starts = np.searchsorted(suffix[:, 0], np.arange(N + 1))
    best = -1
    for prefix in itertools.combinations(range(N), a):
        lo = starts[prefix[-1] + 1]
        if lo == len(suffix):
            continue
        w = subset_edges(adj, prefix)
        cross = links[list(prefix), lo:].sum(axis=0)
        best = max(best, w + int((inner[lo:] + cross).max()))
    return best


def degree_statistics(N, edges):
    """total_degree, max_degree and degree_variance from an edge list.

    degree_variance follows its documented definition: with p = M / C(N,2),
    (sum_i (d_i - (N-1)p)^2 / (N-2) - (N-1) C(N,2)/(C(N,2)-1) p(1-p))
    divided by sqrt(N) p.
    """
    d = degrees(N, edges).astype(np.float64)
    M = len(edges)
    pairs = N * (N - 1) // 2
    p = M / pairs
    excess = float(((d - (N - 1) * p) ** 2).sum()) / (N - 2) \
        - (N - 1) * pairs / (pairs - 1) * p * (1.0 - p)
    return {"total_degree": float(M), "max_degree": float(d.max()),
            "degree_variance": excess / (math.sqrt(N) * p)}


def clique_number(N, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(N))
    g.add_edges_from(map(tuple, np.asarray(edges).tolist()))
    return max(len(c) for c in nx.find_cliques(g))


def densest_lp(N, edges):
    """Charikar's LP: max sum_e y_e, y_e <= x_i, y_e <= x_j, sum x <= 1."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    M = len(e)
    rows = np.concatenate([np.arange(M), np.arange(M, 2 * M),
                           np.arange(M), np.arange(M, 2 * M),
                           np.full(N, 2 * M)])
    cols = np.concatenate([np.arange(M), np.arange(M), M + e[:, 0],
                           M + e[:, 1], M + np.arange(N)])
    vals = np.concatenate([np.ones(2 * M), -np.ones(2 * M), np.ones(N)])
    a_ub = coo_matrix((vals, (rows, cols)), shape=(2 * M + 1, M + N))
    b_ub = np.concatenate([np.zeros(2 * M), [1.0]])
    c = np.concatenate([-np.ones(M), np.zeros(N)])
    res = linprog(c, A_ub=a_ub.tocsr(), b_ub=b_ub, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -res.fun


def glr_closed_form(N, M, n, w):
    """C(n,2) h(w/C(n,2)) + (C(N,2)-C(n,2)) h((M-w)/rest) - C(N,2) h(M/C(N,2))
    with h(x) = x log x + (1-x) log(1-x)."""
    def h(x):
        return sum(t * math.log(t) for t in (x, 1.0 - x) if t > 0.0)

    pairs, inner = N * (N - 1) // 2, n * (n - 1) // 2
    rest = pairs - inner
    value = -pairs * h(M / pairs)
    if inner:
        value += inner * h(w / inner)
    if rest:
        value += rest * h((M - w) / rest)
    return value


def lr_average(N, edges, n, p0, p1):
    """mpmath mean over all n-subsets of (p1/p0)^W (q1/q0)^(C(n,2)-W)."""
    import mpmath

    adj = adjacency(N, edges)
    inner = n * (n - 1) // 2
    up = mpmath.mpf(p1) / mpmath.mpf(p0)
    down = (1 - mpmath.mpf(p1)) / (1 - mpmath.mpf(p0))
    total = mpmath.mpf(0)
    count = 0
    for s in itertools.combinations(range(N), n):
        w = subset_edges(adj, s)
        total += up ** w * down ** (inner - w)
        count += 1
    return float(total / count)


def clopper_pearson(k, n):
    """One-sided exact binomial bounds (lower, upper) at tail TAIL each."""
    from scipy.stats import beta

    lo = 0.0 if k == 0 else float(beta.ppf(TAIL, k, n - k + 1))
    hi = 1.0 if k == n else float(beta.ppf(1.0 - TAIL, k + 1, n - k))
    return lo, hi


def type1_ceiling(alpha, calibration_replicates, trials):
    """Largest null rejection count out of `trials` that a conservative-rank
    threshold from `calibration_replicates` null draws reaches with
    probability above TAIL.

    For a continuous statistic the count is beta-binomial(trials, B+1-k, k)
    with k = ceil((1-alpha)(B+1)); a statistic with ties and a strict
    rejection rule rejects less often, so the ceiling holds for both.
    """
    from scipy.stats import betabinom

    B = calibration_replicates
    k = math.ceil((1.0 - alpha) * (B + 1))
    return int(betabinom.isf(TAIL, trials, B + 1 - k, k))


# ------------------------------------------------------------ checks

def check_order_statistic(label, threshold, values, alpha):
    """The threshold is the ceil((1-alpha)(B+1))-th smallest value."""
    B = len(values)
    k = math.ceil((1.0 - alpha) * (B + 1))
    want = sorted(values)[k - 1]
    if not _close(threshold, want):
        return [f"{label}: threshold {threshold!r} is not order statistic "
                f"{k} of {B} independent values ({want!r})"]
    return []


def check_sweep_row(row, calibration_replicates):
    """gamma = type1 + type2, and type1 within its null-count ceiling."""
    out = []
    tag = f"row {row.get('N')},{row.get('p1')},{row.get('detector')}"
    if row.get("error"):
        return [f"{tag}: error {row['error']}"]
    if not _close(row["gamma"], row["type1"] + row["type2"]):
        out.append(f"{tag}: gamma {row['gamma']} != type1 + type2")
    trials = int(row["replicates"])
    ceiling = type1_ceiling(row["alpha"], calibration_replicates, trials)
    if round(row["type1"] * trials) > ceiling:
        out.append(f"{tag}: type1 {row['type1']} above {ceiling}/{trials}")
    return out


def check_rows_equal(label, rows, reference):
    """Equal in every field but the wall-clock `seconds`."""
    out = []
    for key in sorted((set(rows) | set(reference)) - {"seconds"}):
        if rows.get(key) != reference.get(key):
            out.append(f"{label}: {key} {rows.get(key)!r} != "
                       f"{reference.get(key)!r}")
    return out


def check_scan(label, value, N, edges, n):
    want = max_subset_edges(adjacency(N, edges), n)
    if value != want:
        return [f"{label}: scan {value} != enumerated maximum {want}"]
    return []


def check_clique(label, value, N, edges):
    want = clique_number(N, edges)
    return [] if value == want else [f"{label}: clique {value} != {want}"]


def check_densest(label, value, N, edges):
    want = densest_lp(N, edges)
    if abs(value - want) > 1e-6 * max(1.0, want):
        return [f"{label}: densest {value} != LP optimum {want}"]
    return []


def check_block_eig(label, value, witness, N, edges):
    a = adjacency(N, edges).astype(np.float64)
    s = np.asarray(witness, dtype=np.int64)
    block = (a @ a)[np.ix_(s, s)]
    want = float(np.linalg.eigvalsh(block)[-1])
    if not _close(value, want):
        return [f"{label}: sparse_eig {value} != witness block top "
                f"eigenvalue {want}"]
    return []


def check_relaxed(label, value, lower, N, edges):
    a = adjacency(N, edges).astype(np.float64)
    top = float(np.linalg.eigvalsh(a)[-1]) ** 2
    out = []
    if lower > value + REL * max(1.0, value):
        out.append(f"{label}: lower bound {lower} above value {value}")
    if value > top + 1e-7 * max(1.0, top):
        out.append(f"{label}: value {value} above lambda_max(A)^2 {top}")
    return out


def check_glr(label, value, witness, N, edges, n):
    w = subset_edges(adjacency(N, edges), witness)
    want = glr_closed_form(N, len(edges), n, w)
    if len(witness) != n or not _close(value, want, 1e-8):
        return [f"{label}: glr {value} != closed form {want} at witness"]
    return []


def check_density_witness(label, value, witness, N, edges, n_min):
    w = subset_edges(adjacency(N, edges), witness)
    if len(witness) < n_min or not _close(value, w / len(witness)):
        return [f"{label}: density {value} != {w}/{len(witness)} at witness"]
    return []


def check_dominance(label, oracle, detector, trials):
    """The oracle's risk is at most the detector's, within exact bounds.

    oracle and detector are (type-I rejections, type-II acceptances) counts
    out of `trials` each, pooled over parameter pairs: the oracle beats the
    detector on every pair, so also on their mean, and a sum of binomials
    with unequal rates is less spread than one binomial at their mean rate
    (Hoeffding 1956), so the exact bounds hold for the pooled counts.  The
    oracle's lower confidence bound must not exceed the detector's upper
    bound.
    """
    lo = sum(clopper_pearson(k, trials)[0] for k in oracle)
    hi = sum(clopper_pearson(k, trials)[1] for k in detector)
    if lo > hi:
        return [f"{label}: oracle risk bound {lo:.4f} above detector "
                f"bound {hi:.4f}"]
    return []


def check_lr_statistic(label, value, N, edges, n, p0, p1):
    want = lr_average(N, edges, n, p0, p1)
    if not _close(value, want, 1e-8):
        return [f"{label}: lr_statistic {value} != subset average {want}"]
    return []


def parse_edge_file(text):
    """(N, edges, problems) from the text of an edge-list file."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        N, M = (int(t) for t in lines[0].split())
        edges = np.array([[int(t) for t in ln.split()] for ln in lines[1:]],
                         dtype=np.int64).reshape(-1, 2)
    except (IndexError, ValueError) as exc:
        return 0, np.empty((0, 2), dtype=np.int64), [f"unparsable: {exc}"]
    out = []
    if M != len(edges):
        out.append(f"header M={M} but {len(edges)} edge lines")
    if len(edges):
        if not ((edges[:, 0] >= 0) & (edges[:, 0] < edges[:, 1])
                & (edges[:, 1] < N)).all():
            out.append("an edge line breaks 0 <= i < j < N")
        if len(np.unique(edges[:, 0] * N + edges[:, 1])) != len(edges):
            out.append("duplicate edge lines")
    return N, edges, out


def check_stat(label, result, N, edges):
    want = degree_statistics(N, edges)[result["detector_id"]]
    out = []
    if not _close(result["value"], want):
        out.append(f"{label}: {result['detector_id']} {result['value']} "
                   f"!= {want} from the file")
    if result["detector_id"] == "max_degree":
        first = int(np.argmax(degrees(N, edges)))
        if result["witness"] != [first]:
            out.append(f"{label}: max_degree witness {result['witness']} "
                       f"!= [{first}]")
    return out


def check_densities(label, N, edges, block, p0, p1):
    """Block and background edge counts within 5 sd of their expectations.

    5 sd, not 4: the check runs on every seed, and at 4 sd a correct
    program would fail one run in about 4,000."""
    sds = 5.0
    inside = np.zeros(N, dtype=bool)
    inside[list(block)] = True
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = int((inside[e[:, 0]] & inside[e[:, 1]]).sum())
    inner = len(block) * (len(block) - 1) // 2
    pairs = N * (N - 1) // 2
    out = []
    for name, count, trials, p in (("block", w, inner, p1),
                                   ("background", len(e) - w,
                                    pairs - inner, p0)):
        sd = math.sqrt(trials * p * (1.0 - p))
        if abs(count - trials * p) > sds * sd:
            out.append(f"{label}: {name} edges {count} more than {sds} sd "
                       f"from {trials * p:.1f}")
    return out


def check_bootstrap_p0(label, p0, N, edges):
    want = len(edges) / (N * (N - 1) // 2)
    if not _close(p0, want, 1e-12):
        return [f"{label}: bootstrap p0 {p0} != M / C(N,2) = {want}"]
    return []
