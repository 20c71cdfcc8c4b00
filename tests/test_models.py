"""Sampling models: spec validation, determinism, and edge densities."""

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from subgraph_sentinel.errors import InvalidSpecError
from subgraph_sentinel.graph import Graph, format_graph
from subgraph_sentinel.models import (
    _SPARSE_CUTOVER,
    ModelSpec,
    effective_p0,
    index_from_pair,
    pair_count,
    pair_from_index,
    sample,
    sample_with_witness,
    stream_rng,
)

from test_graph import tiny_blocks


def _via_json(spec):
    """The spec rebuilt from the JSON object that calibrate prints for it."""
    return ModelSpec(**json.loads(json.dumps(asdict(spec))))


class TestSpecValidation:
    def test_null_round_trip(self):
        spec = ModelSpec.null(50, 0.2)
        assert _via_json(spec) == spec

    def test_planted_round_trip(self):
        spec = ModelSpec.planted(50, 0.2, 0.7, 5, planted_set=range(5))
        back = _via_json(spec)  # JSON gives planted_set back as a list
        assert back == spec
        assert back.planted_set == (0, 1, 2, 3, 4)

    def test_fixed_degree_round_trip(self):
        spec = ModelSpec.planted_fixed_degree(50, 0.2, 0.7, 5)
        assert _via_json(spec) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            dict(variant="nope", N=10, p0=0.5),
            dict(variant="null", N=0, p0=0.5),
            dict(variant="null", N=2**32 + 1, p0=0.01),
            dict(variant="planted", N=10**30, p0=0.1, p1=0.9, n=5),
            dict(variant="planted_fixed_degree", N=2**32 + 1, p0_prime=0.1,
                 p1=0.9, n=5),
            dict(variant="null", N=10),
            dict(variant="null", N=10, p0=0.0),
            dict(variant="null", N=10, p0=1.5),
            dict(variant="null", N=10, p0=0.5, n=3),
            dict(variant="planted", N=10, p0=0.5, p1=0.4, n=3),
            dict(variant="planted", N=10, p0=0.5, p1=0.9, n=11),
            dict(variant="planted", N=10, p0=0.5, p1=0.9, n=3, planted_set=(0, 1)),
            dict(variant="planted", N=10, p0=0.5, p1=0.9, n=3, p0_prime=0.5),
            dict(variant="planted_fixed_degree", N=10, p0_prime=0.5, p1=0.4, n=3),
            dict(variant="planted_fixed_degree", N=10, p0=0.5, p1=0.9, n=3),
            dict(variant="null", N=10, p0=10**400),
            dict(variant="null", N=20.7, p0=0.5),
            dict(variant="null", N=np.float64(math.nan), p0=0.5),
            dict(variant="null", N=np.bool_(True), p0=0.5),
            dict(variant="null", N=10, p0=np.float32(math.inf)),
            dict(variant="null", N=10, p0=np.float64(math.nan)),
            dict(variant="planted", N=10, p0=0.5, p1=0.9, n=np.float32(2.5)),
        ],
    )
    def test_invalid_specs(self, bad):
        with pytest.raises(InvalidSpecError):
            ModelSpec(**bad)

    @pytest.mark.parametrize("N,n,p,q", [
        (np.int64(10), np.int32(3), np.float64(0.3), np.float64(0.9)),
        (10.0, 3.0, np.float32(0.3), np.float32(0.9)),
        (np.float32(10.0), np.uint8(3), 0.3, 1),
    ])
    def test_numpy_and_whole_numbers_stored_canonical(self, N, n, p, q):
        # the same spec, and the same JSON, as from Python ints and floats
        want = ModelSpec.planted(10, float(p), float(q), 3)
        for spec, base in ((ModelSpec.planted(N, p, q, n), want),
                           (ModelSpec.planted_fixed_degree(N, p, q, n),
                            ModelSpec.planted_fixed_degree(10, float(p),
                                                           float(q), 3)),
                           (ModelSpec.null(N, p), ModelSpec.null(10, float(p)))):
            assert spec == base
            assert json.dumps(asdict(spec)) == json.dumps(asdict(base))
            assert {type(v) for v in asdict(spec).values() if v is not None} \
                <= {str, int, float}

    def test_N_up_to_the_pair_index_limit_accepted(self):
        # C(2**32, 2) < 2**63 <= C(2**32 + 1, 2); no graph is drawn here
        assert ModelSpec.null(2**32, 0.01).N == 2**32
        assert ModelSpec.planted(2**32, 0.1, 0.9, 5).N == 2**32
        assert ModelSpec.planted_fixed_degree(2**32, 0.1, 0.9, 5).N == 2**32

    def test_planted_set_normalized_sorted(self):
        spec = ModelSpec.planted(10, 0.5, 0.9, 3, planted_set=(7, 2, 5))
        assert spec.planted_set == (2, 5, 7)
        spec = ModelSpec.planted(10, 0.5, 0.9, 3,
                                 planted_set=(v for v in (7.0, 2, 5)))
        assert spec.planted_set == (2, 5, 7)

    def test_planted_set_non_integral_rejected(self):
        # a cast would silently plant the block (0, 3)
        with pytest.raises(ValueError, match="not an integer"):
            ModelSpec.planted(10, 0.1, 0.5, 2, planted_set=(0.5, 3.2))
        with pytest.raises(ValueError, match="not an integer"):
            ModelSpec.planted_fixed_degree(10, 0.1, 0.5, 2, planted_set=[1, 2.5])

    @pytest.mark.parametrize("planted_set,message,cause", [
        ((0, 10), "outside", IndexError),
        ((1, 1), "duplicate", ValueError),
        ((0.5, 1), "not an integer", ValueError),
        (5, "not iterable", TypeError),
    ])
    def test_bad_planted_set_is_spec_error(self, planted_set, message, cause):
        with pytest.raises(InvalidSpecError, match=message) as err:
            ModelSpec.planted(10, 0.1, 0.5, 2, planted_set=planted_set)
        assert type(err.value.__cause__) is cause

    def test_matched_null_planted(self):
        spec = ModelSpec.planted(10, 0.3, 0.9, 3)
        assert spec.matched_null() == ModelSpec.null(10, 0.3)

    def test_matched_null_fixed_degree(self):
        spec = ModelSpec.planted_fixed_degree(20, 0.1, 0.6, 5)
        null = spec.matched_null()
        assert null.p0 == pytest.approx(effective_p0(0.1, 0.6, 5, 20), rel=1e-15)


class TestEffectiveP0:
    def test_balances_expected_totals(self):
        for (N, n, pp, p1) in [(20, 5, 0.1, 0.6), (400, 80, 0.1, 0.5), (7, 2, 0.3, 0.9)]:
            p0 = effective_p0(pp, p1, n, N)
            lhs = pair_count(N) * p0
            rhs = (pair_count(N) - pair_count(n)) * pp + pair_count(n) * p1
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degenerate_cases(self):
        assert effective_p0(0.1, 0.6, 1, 20) == pytest.approx(0.1)
        assert effective_p0(0.1, 0.6, 20, 20) == pytest.approx(0.6)

    def test_single_vertex_keeps_p0_prime(self):
        # no pair to match: the null of a one-vertex fixed-degree model
        assert effective_p0(0.3, 0.6, 1, 1) == 0.3
        assert ModelSpec.planted_fixed_degree(1, 0.3, 0.6, 1).matched_null() \
            == ModelSpec.null(1, 0.3)


class TestPairIndexing:
    @pytest.mark.parametrize("N", [2, 3, 7, 64, 65, 100])
    def test_bijection(self, N):
        ks = np.arange(pair_count(N))
        i, j = pair_from_index(ks, N)
        assert np.all((0 <= i) & (i < j) & (j < N))
        assert np.array_equal(index_from_pair(i, j, N), ks)
        # every pair hit exactly once
        assert len({(a, b) for a, b in zip(i, j)}) == pair_count(N)

    def test_row_major_order(self):
        i, j = pair_from_index(np.arange(6), 4)
        assert list(zip(i, j)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_large_N_no_float_drift(self):
        N = 100_000
        ks = np.array([0, 1, N - 2, N - 1, pair_count(N) - 1,
                       pair_count(N) // 2], dtype=np.int64)
        i, j = pair_from_index(ks, N)
        assert np.array_equal(index_from_pair(i, j, N), ks)


class TestSampling:
    def test_deterministic_per_stream(self):
        spec = ModelSpec.planted(40, 0.2, 0.8, 6)
        g1, w1 = sample_with_witness(spec, 123, 7)
        g2, w2 = sample_with_witness(spec, 123, 7)
        assert g1 == g2
        assert np.array_equal(w1, w2)

    def test_streams_differ(self):
        spec = ModelSpec.null(40, 0.2)
        assert sample(spec, 123, 0) != sample(spec, 123, 1)
        assert sample(spec, 123, 0) != sample(spec, 124, 0)

    @pytest.mark.parametrize("p", [1e-18, 1e-30, 1e-296, 5e-324])
    def test_tiny_probability_strikes_no_pair(self, p):
        # numpy caps a geometric skip at the int64 maximum; summed, such
        # skips once wrapped to negative pair indices
        for seed in range(3):
            assert sample(ModelSpec.null(3, p), seed).total_edges() == 0
            g, w = sample_with_witness(
                ModelSpec.planted(3, p, 1.0, 2, planted_set=(0, 1)), seed)
            assert g.edges().tolist() == [[0, 1]]

    def test_negative_stream_rejected(self):
        with pytest.raises(InvalidSpecError):
            stream_rng(5, -1)
        # a negative master seed is a spec error too, not numpy's ValueError
        with pytest.raises(InvalidSpecError, match="master_seed"):
            stream_rng(-1, 0)

    def test_fixed_witness_respected(self):
        spec = ModelSpec.planted(30, 0.1, 0.9, 5, planted_set=(3, 9, 11, 20, 29))
        for idx in range(5):
            _, w = sample_with_witness(spec, 99, idx)
            assert tuple(w) == (3, 9, 11, 20, 29)

    def test_random_witness_varies(self):
        spec = ModelSpec.planted(30, 0.1, 0.9, 5)
        seen = {tuple(sample_with_witness(spec, 99, idx)[1]) for idx in range(20)}
        assert len(seen) > 1

    def test_null_witness_is_none(self):
        _, w = sample_with_witness(ModelSpec.null(20, 0.3), 1, 0)
        assert w is None

    def test_null_density(self):
        # 200 reps of C(60,2)=1770 pairs at p0=.25: SE of mean density ~ .0007
        spec = ModelSpec.null(60, 0.25)
        dens = [sample(spec, 2024, i).total_edges() / pair_count(60) for i in range(200)]
        assert abs(np.mean(dens) - 0.25) < 4 * math.sqrt(0.25 * 0.75 / (200 * 1770))

    def test_planted_block_density(self):
        spec = ModelSpec.planted(50, 0.1, 0.8, 8, planted_set=tuple(range(8)))
        inside, outside = [], []
        for i in range(200):
            g = sample(spec, 77, i)
            w_in = g.subgraph_edges(range(8))
            inside.append(w_in / pair_count(8))
            outside.append((g.total_edges() - w_in) / (pair_count(50) - pair_count(8)))
        assert abs(np.mean(inside) - 0.8) < 4 * math.sqrt(0.8 * 0.2 / (200 * 28))
        assert abs(np.mean(outside) - 0.1) < 4 * math.sqrt(0.1 * 0.9 / (200 * 1197))

    def test_sparse_and_dense_paths_same_distribution(self):
        # p0=.04 uses geometric skips, p0=.06 thresholds uniforms; both must
        # hit their nominal density
        for p0 in (0.04, 0.06):
            spec = ModelSpec.null(80, p0)
            dens = [sample(spec, 31, i).total_edges() / pair_count(80)
                    for i in range(300)]
            se = math.sqrt(p0 * (1 - p0) / (300 * pair_count(80)))
            assert abs(np.mean(dens) - p0) < 4 * se

    def test_extreme_probabilities(self):
        g = sample(ModelSpec.planted(12, 1.0, 1.0, 3), 0, 0)
        assert g == __import__("subgraph_sentinel").Graph.complete(12)
        spec = ModelSpec.planted(12, 0.001, 1.0, 4, planted_set=(0, 1, 2, 3))
        g = sample(spec, 5, 0)
        assert g.subgraph_edges(range(4)) == 6

    def test_fixed_degree_total_matches_matched_null(self):
        # expected total edges under alt == under matched null, by construction
        spec = ModelSpec.planted_fixed_degree(60, 0.1, 0.7, 12,
                                              planted_set=tuple(range(12)))
        null = spec.matched_null()
        alt_tot = np.mean([sample(spec, 8, i).total_edges() for i in range(300)])
        null_tot = np.mean([sample(null, 9, i).total_edges() for i in range(300)])
        expected = pair_count(60) * null.p0
        se = math.sqrt(expected)  # generous: binomial sd < sqrt(mean) scale
        assert abs(alt_tot - expected) < 4 * se / math.sqrt(300) * 3
        assert abs(null_tot - expected) < 4 * se / math.sqrt(300) * 3


# sha256 of format_graph(g) followed by the witness as a JSON list (or null),
# for fixed (spec, seed, stream). Both sides of _SPARSE_CUTOVER, fixed and
# drawn planted sets, and N from 1 to 2000; a change to the pair order, the
# Philox streams or the edge-list text moves one of these.
_GOLDEN = [
    (ModelSpec.null(1, 0.5), 1, 0,
     "65c8526af737eca56ef1c0ebac51294b0dded97a3d011a1a8297540f58f95300"),
    (ModelSpec.null(2, 1.0), 1, 0,
     "a73e774ccddf5677ae30b01d6a34bcf62100c69d837f6952b561d6a45f6a0307"),
    (ModelSpec.null(12, 0.3), 7, 0,
     "deb5eb2b784475a20aed03793b03cd33fd3d0c6a03f816f6bdf29bc510565d63"),
    (ModelSpec.null(12, 0.04), 7, 3,
     "3035e7f6918c4059c0afbb0e8c4de4b264272896813ce836ee4013c796f53423"),
    (ModelSpec.null(200, 0.02), 11, 1,
     "364d8127faacc99ef45339a8c3759f411326484fc577546c740a68fa0484d765"),
    (ModelSpec.null(2000, 0.01), 5, 0,
     "171d523e3330c43740a3bb867c6528aa6e3bd1cb3d71ef4f0c0f0c5127a46398"),
    (ModelSpec.null(2000, 0.3), 5, 2,
     "c2c47f682b386a401dbba41e655965cc54125b11430472542d5f8ed2853ed2f1"),
    (ModelSpec.planted(50, 0.1, 0.8, 8,
                       planted_set=(1, 4, 9, 16, 25, 36, 42, 49)), 3, 0,
     "28e013f5c19a8a78a69836fa7d09729c71754cc5f2c3fd2f01f3030300691146"),
    (ModelSpec.planted(50, 0.1, 0.8, 8), 3, 1,
     "000abc9ed9e020aeb7ba89ebe547b47878ee1f59951cc83ea2a4996ba1dda304"),
    (ModelSpec.planted(20, 0.3, 0.3, 1), 4, 0,
     "1220d4bd28b615edb34a1d6bc1e4a975ad30afb4afb8104d004e8ee9229fe2ab"),
    (ModelSpec.planted(500, 0.02, 0.5, 30), 9, 4,
     "0daf4b2d356607841ee3d31871dd972364e90bbad9110f52d33d5dfc1e8142ec"),
    (ModelSpec.planted(2000, 0.01, 0.2, 80), 2, 0,
     "58b774d52997646617c3c394efd8eaa3fe3f3d3abf5932a0309cfa6f3ff331c1"),
    (ModelSpec.planted_fixed_degree(60, 0.1, 0.7, 12,
                                    planted_set=tuple(range(0, 60, 5))), 8, 0,
     "1391a99ad9a4c37738f01f6a4b0153da531d2ef777e57159eebdc71b6fb08c7f"),
    (ModelSpec.planted_fixed_degree(60, 0.1, 0.7, 12), 8, 5,
     "05cc110832218ef35db96c787506fc24dfad9e13e026ba51edf9965d678a8dba"),
    # dense draws at the 64-bit word and 8-bit byte edges of the packed rows,
    # the large-graph workload's planted shape, and a no-draw p = 1.0 block
    (ModelSpec.null(63, 0.3), 14, 0,
     "e53c63d7ccc32a5ac2adf92ce9c54c09a3922a5591c46a1f4d6c4e7a370a0f3d"),
    (ModelSpec.null(64, 0.3), 14, 1,
     "18ff98e6475f7a72acd845e4e2e3a78da26091910f61a73686211f64e91a9f70"),
    (ModelSpec.null(65, 0.3), 14, 2,
     "a9747d505369dcada59bb38e123121605cae0146b572a78ace5f440dbc7098a0"),
    (ModelSpec.null(129, 0.3), 14, 3,
     "9669840e882bd8ad50e388e202ff230270f959bc50d226e2ea6cac9f163f2464"),
    (ModelSpec.planted(63, 0.3, 0.7, 9), 15, 0,
     "1aa258184c00bfc421dcc4cc28041c6d8e57143f1e1d9e8a1e5a66eb48312188"),
    (ModelSpec.planted(64, 0.3, 0.7, 9), 15, 1,
     "f4504265a8fe0d62b99b06973f520863731f14dea5a350b624ba28bf0bdabb28"),
    (ModelSpec.planted(65, 0.3, 0.7, 9), 15, 2,
     "79ab0510f99e09b50d5493f81a4b10f3f2f81d378dc59032b4eb917635b4ec3f"),
    (ModelSpec.planted(129, 0.3, 0.7, 9), 15, 3,
     "4d2af6ef90e581fc53a88cce0ac83a1dd0ff25b790c852e549284e6375d7b3aa"),
    (ModelSpec.planted(2000, 0.3, 0.6, 60), 1, 0,
     "6a286190045bf584ddd7ce579c75317eb3c4ed6bb1d6c52b5a2b12b866f575f8"),
    (ModelSpec.planted_fixed_degree(100, 0.2, 0.7, 10), 16, 0,
     "5bf0507dbe314772906f0c71353ca332815e45aaa59e34800c369be521f7acf3"),
    (ModelSpec.planted(70, 1.0, 1.0, 5), 17, 0,
     "26920d9119c732d3a39b5a121d8e050988b7ab90f74c465f9e30d02a3a31004a"),
    # planted blocks on a sparse background, drawn and fixed: sparse p1,
    # a no-draw p1 = 1.0, blocks of one and two vertices, and a fixed-degree
    # background under a dense p1
    (ModelSpec.planted(300, 0.01, 0.03, 12), 21, 0,
     "5fe0ed1b96152575e5d48d2cc86dd06cd8b7e8ef0dcd3df69f772fd19213763b"),
    (ModelSpec.planted(300, 0.01, 0.03, 12,
                       planted_set=tuple(range(3, 300, 25))), 21, 1,
     "06b2b73de40623bc5cb1c1ac802ff1cceb24987cd6d34822b704d8868c856143"),
    (ModelSpec.planted(200, 0.02, 1.0, 10), 22, 0,
     "1b514606f0e8eca370dbb2026c00121f674dcca011b5b452b0be3a6db116a613"),
    (ModelSpec.planted(200, 0.02, 1.0, 10,
                       planted_set=tuple(range(0, 200, 20))), 22, 1,
     "d2f0b040ccc1fdae337751af8c6c1342d8ae41ff412e3426c83192579eb9223b"),
    (ModelSpec.planted(150, 0.03, 0.6, 1), 23, 0,
     "de3cb64f8a6868eff0d74aa542b959d327d735e247ac6b7de551c7d3263a66bc"),
    (ModelSpec.planted(150, 0.03, 0.6, 1, planted_set=(149,)), 23, 1,
     "beec2725795e40bde158574bec13bf99d54c8a7144001376b18a3af04a3fac1e"),
    (ModelSpec.planted(150, 0.03, 0.04, 2), 24, 0,
     "b843d907cada86402f7600336b7e3668a62f581c4dcef2d628bbdda149099079"),
    (ModelSpec.planted(150, 0.03, 0.6, 2, planted_set=(7, 140)), 24, 1,
     "fcec0a76944baf2a69675f292a8e7491e7b59b0c3251139ad771fc75fe51dfa4"),
    (ModelSpec.planted_fixed_degree(300, 0.02, 0.6, 15), 25, 0,
     "350b685c6adb57ebc502638f6aece0fc08858f22484272163b623eedcc07a77d"),
    (ModelSpec.planted_fixed_degree(300, 0.02, 0.6, 15,
                                    planted_set=tuple(range(0, 300, 20))), 25, 1,
     "3deced665057e7166befbdc54106b11906ad1bf63c84e83e1d3a7a47bb3c6a46"),
]


@pytest.mark.parametrize("spec,seed,stream,digest", _GOLDEN,
                         ids=[f"{s.variant}-N{s.N}-{seed}-{stream}"
                              for s, seed, stream, _ in _GOLDEN])
def test_golden_sample_digest(spec, seed, stream, digest):
    g, w = sample_with_witness(spec, seed, stream)
    text = format_graph(g) + json.dumps(None if w is None else [int(v) for v in w])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("spec,seed,stream,digest", _GOLDEN,
                         ids=[f"{s.variant}-N{s.N}-{seed}-{stream}"
                              for s, seed, stream, _ in _GOLDEN])
def test_golden_sample_digest_in_one_row_blocks(spec, seed, stream, digest):
    # each row its own block, in the draw, the packing and the writer
    with tiny_blocks():
        test_golden_sample_digest(spec, seed, stream, digest)


def _sampler_graphs():
    """Draws from every variant on both sides of _SPARSE_CUTOVER."""
    for N in (1, 2, 63, 64, 65, 129):
        n = min(N, 7)
        for p in (_SPARSE_CUTOVER / 2, _SPARSE_CUTOVER, 0.3, 1.0):
            specs = [ModelSpec.null(N, p),
                     ModelSpec.planted(N, p, min(1.0, 2 * p), n),
                     ModelSpec.planted(N, p, 1.0, n, planted_set=range(N - n, N)),
                     ModelSpec.planted_fixed_degree(N, p, min(1.0, p + 0.5), n)]
            for spec in specs:
                for stream in range(2):
                    yield spec, sample(spec, 41, stream)


def test_sampled_rows_round_trip():
    # Graph(N, edges) rebuilds the rows from scratch, so equality of row bytes
    # also checks that the padding bits past vertex N - 1 are zero
    for spec, g in _sampler_graphs():
        assert Graph(spec.N, g.edges()) == g, spec
        bits = g.adjacency(np.uint8)
        assert np.array_equal(bits, bits.T), spec
        assert not bits.diagonal().any(), spec
