"""Tests for repro.core.permutation: nulls, thresholds, p-values."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.mi import batched_pair_mi, mi_bspline_pair, mi_tile, mi_tile_sparse
from repro.core.mi_matrix import mi_matrix
from repro.core.permutation import (
    NullDistribution,
    pair_nulls,
    per_pair_pvalues,
    permuted_weights,
    pooled_null,
)
from repro.core.sparsekernel import _reset_backend_cache, pack_slab, sparse_backend
from repro.stats.random import as_rng, permutation_matrix, sample_pairs


@pytest.fixture(scope="module")
def ranked_weights():
    rng = np.random.default_rng(5)
    data = rank_transform(rng.normal(size=(20, 120)))
    return weight_tensor(data)


class TestPermutedWeights:
    def test_rows_permuted(self, rng):
        w = weight_tensor(rng.normal(size=(1, 30)))[0]
        perm = rng.permutation(30)
        assert np.array_equal(permuted_weights(w, perm), w[perm])

    def test_tensor_form(self, rng):
        w = weight_tensor(rng.normal(size=(4, 25)))
        perm = rng.permutation(25)
        out = permuted_weights(w, perm)
        assert np.array_equal(out, w[:, perm])

    def test_identity_permutation_noop(self, rng):
        w = weight_tensor(rng.normal(size=(2, 20)))
        assert np.array_equal(permuted_weights(w, np.arange(20)), w)

    def test_marginal_invariant_under_permutation(self, rng):
        # Permutation preserves the marginal, hence H(X); only the joint moves.
        w = weight_tensor(rng.normal(size=(1, 50)))[0]
        perm = rng.permutation(50)
        assert np.allclose(w.mean(axis=0), permuted_weights(w, perm).mean(axis=0))

    def test_rejects_wrong_length(self, rng):
        w = weight_tensor(rng.normal(size=(2, 20)))
        with pytest.raises(ValueError):
            permuted_weights(w, np.arange(19))

    def test_rejects_non_permutation(self, rng):
        w = weight_tensor(rng.normal(size=(1, 5)))[0]
        with pytest.raises(ValueError):
            permuted_weights(w, np.array([0, 0, 1, 2, 3]))


class TestPooledNull:
    def test_size_and_metadata(self, ranked_weights):
        null = pooled_null(ranked_weights, n_permutations=7, n_pairs=13, seed=0)
        assert null.size == 7 * 13
        assert null.n_permutations == 7
        assert null.n_pairs_sampled == 13

    def test_reproducible(self, ranked_weights):
        a = pooled_null(ranked_weights, 5, 10, seed=3)
        b = pooled_null(ranked_weights, 5, 10, seed=3)
        assert np.array_equal(a.mis, b.mis)

    def test_nonnegative(self, ranked_weights):
        null = pooled_null(ranked_weights, 5, 20, seed=1)
        assert (null.mis >= 0).all()

    def test_null_below_dependent_mi(self, rng):
        # A strongly coupled pair's MI should exceed essentially all null values.
        x = rng.normal(size=200)
        data = rank_transform(np.vstack([x, x + 0.1 * rng.normal(size=200),
                                         rng.normal(size=(8, 200))]))
        w = weight_tensor(data)
        null = pooled_null(w, 20, 30, seed=2)
        observed = mi_bspline_pair(w[0], w[1])
        assert observed > np.quantile(null.mis, 0.999)

    def test_matches_manual_computation(self, ranked_weights):
        # Reconstruct the first null value by hand using the same RNG stream.
        from repro.stats.random import as_rng, permutation_matrix, sample_pairs

        rng = as_rng(42)
        pairs = sample_pairs(20, 4, rng)
        perms = permutation_matrix(3, 120, rng)
        null = pooled_null(ranked_weights, 3, 4, seed=42)
        wi = ranked_weights[pairs[0, 0]][perms[0]]
        wj = ranked_weights[pairs[0, 1]]
        assert null.mis[0] == pytest.approx(mi_bspline_pair(wi, wj), rel=1e-10)

    def test_threshold_monotone_in_alpha(self, ranked_weights):
        null = pooled_null(ranked_weights, 20, 50, seed=0)
        t_strict = null.threshold(alpha=0.001, n_tests=100)
        t_loose = null.threshold(alpha=0.5, n_tests=100)
        assert t_strict >= t_loose

    def test_pvalues_interface(self, ranked_weights):
        null = pooled_null(ranked_weights, 10, 30, seed=0)
        p = null.pvalues(np.array([0.0, 1e9]))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(1.0 / (null.size + 1))

    def test_invalid_args(self, ranked_weights):
        with pytest.raises(ValueError):
            pooled_null(ranked_weights, 0, 10)
        with pytest.raises(ValueError):
            pooled_null(ranked_weights, 10, 0)
        with pytest.raises(ValueError):
            pooled_null(ranked_weights[0], 5, 5)


class TestPerPairPvalues:
    def test_dependent_pair_significant(self, rng):
        x = rng.normal(size=150)
        data = rank_transform(np.vstack([x, x + 0.1 * rng.normal(size=150),
                                         rng.normal(size=150)]))
        w = weight_tensor(data)
        obs, p = per_pair_pvalues(w, np.array([[0, 1], [0, 2]]), n_permutations=60, seed=0)
        assert p[0] == pytest.approx(1.0 / 61.0)  # beats every permutation
        assert p[1] > 0.05  # independent pair not significant

    def test_observed_matches_kernel(self, ranked_weights):
        pairs = np.array([[0, 1], [5, 9]])
        obs, _ = per_pair_pvalues(ranked_weights, pairs, n_permutations=5, seed=0)
        for (i, j), o in zip(pairs, obs):
            assert o == pytest.approx(mi_bspline_pair(ranked_weights[i], ranked_weights[j]))

    def test_agrees_with_pooled_on_independent_data(self, rng):
        # On fully independent rank-transformed genes, pooled-null p-values
        # and per-pair p-values must be statistically indistinguishable:
        # compare medians loosely.
        data = rank_transform(rng.normal(size=(10, 100)))
        w = weight_tensor(data)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        _, p_exact = per_pair_pvalues(w, pairs, n_permutations=50, seed=1)
        null = pooled_null(w, 50, 40, seed=2)
        res = mi_matrix(w)
        p_pooled = null.pvalues(res.mi[pairs[:, 0], pairs[:, 1]])
        assert np.median(np.abs(p_exact - p_pooled)) < 0.35

    def test_rejects_bad_pairs(self, ranked_weights):
        with pytest.raises(ValueError):
            per_pair_pvalues(ranked_weights, np.array([0, 1]))


class TestPooledNullEngineDispatch:
    def test_engine_paths_bit_identical(self, ranked_weights):
        from repro.cluster.elastic import ElasticEngine
        from repro.parallel.engine import (
            ProcessEngine,
            SerialEngine,
            SharedMemoryEngine,
            ThreadEngine,
        )

        serial = pooled_null(ranked_weights, 8, 40, seed=13)
        elastic = ElasticEngine(n_workers=2)
        try:
            for engine in (SerialEngine(), ThreadEngine(n_workers=3),
                           ProcessEngine(n_workers=3),
                           SharedMemoryEngine(n_workers=3), elastic):
                parallel = pooled_null(ranked_weights, 8, 40, seed=13, engine=engine)
                assert np.array_equal(serial.mis, parallel.mis), type(engine).__name__
                assert parallel.n_permutations == 8
                assert parallel.n_pairs_sampled == 40
        finally:
            elastic.close()


def _einsum_null(weights, pairs, perms):
    """The pooled null as it was computed before the sparse kernel: per
    permutation, one stacked dense contraction over all sampled pairs and
    the joint-marginal MI reduction.  Kept as the accuracy reference."""
    m = weights.shape[1]
    wi = weights[pairs[:, 0]]
    wj = weights[pairs[:, 1]]
    rows = []
    for perm in perms:
        joint = np.einsum("pmb,pmc->pbc", wi[:, perm], wj, optimize=True) / m
        rows.append(batched_pair_mi(joint))
    return np.stack(rows).ravel()


class TestPooledNullKernel:
    """The null is the MI kernel itself, evaluated on permuted pairs."""

    N_GENES, M, Q = 10, 120, 6
    N_PAIRS = N_GENES * (N_GENES - 1) // 2  # every pair is sampled

    @pytest.fixture(scope="class")
    def data(self):
        # Gene 0 is binary and gene 1 constant: their packed rows span one
        # bin (the binary gene's at the last bin) against three for the
        # rest, the mixed-span class the sparse packing must clamp.
        rng = np.random.default_rng(3)
        return rank_transform(np.vstack([
            (rng.random(self.M) < 0.5).astype(float),
            np.full(self.M, 2.0),
            rng.normal(size=(self.N_GENES - 2, self.M)),
        ]))

    @pytest.fixture(scope="class")
    def weights(self, data):
        return weight_tensor(data)

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        yield
        _reset_backend_cache()

    def _stream(self, seed):
        rng = as_rng(seed)
        pairs = sample_pairs(self.N_GENES, self.N_PAIRS, rng)
        perms = permutation_matrix(self.Q, self.M, rng)
        return pairs, perms

    def test_sample_is_mixed_span(self, weights):
        spans = {pack_slab(weights[g:g + 1])[2] for g in range(self.N_GENES)}
        assert spans == {1, 3}

    def test_bitwise_sparse_kernel_on_permuted_pair(self, weights):
        null = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        pairs, perms = self._stream(4)
        h = marginal_entropies(weights)
        mis = null.mis.reshape(self.Q, self.N_PAIRS)
        for p, (x, y) in enumerate(pairs):
            ref = mi_tile_sparse(weights[y][None], weights[x][perms],
                                 h_i=h[y:y + 1], h_j=np.full(self.Q, h[x]))
            assert np.array_equal(mis[:, p], ref[0]), (x, y)
        assert null.route == f"sparse:{sparse_backend()}"

    def test_within_1e13_of_dense_contraction(self, weights):
        null = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        pairs, perms = self._stream(4)
        np.testing.assert_allclose(null.mis, _einsum_null(weights, pairs, perms),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_backends_bit_identical(self, weights, monkeypatch, backend):
        import repro.core.sparsekernel as sk

        if backend == "numba" and sk._numba_tile_fn() is None:
            pytest.skip("numba not installed")
        native = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        monkeypatch.setenv("REPRO_SPARSE_BACKEND", backend)
        _reset_backend_cache()
        forced = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        assert forced.route == f"sparse:{backend}"
        assert np.array_equal(native.mis, forced.mis)

    def test_order_above_packing_runs_dense_kernel(self, data):
        weights = weight_tensor(data, bins=10, order=5)
        null = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        assert null.route == "dense"
        pairs, perms = self._stream(4)
        h = marginal_entropies(weights)
        mis = null.mis.reshape(self.Q, self.N_PAIRS)
        for p, (x, y) in enumerate(pairs):
            ref = mi_tile(weights[y][None], weights[x][perms],
                          h_i=h[y:y + 1], h_j=np.full(self.Q, h[x]))
            assert np.array_equal(mis[:, p], ref[0]), (x, y)
        np.testing.assert_allclose(null.mis, _einsum_null(weights, pairs, perms),
                                   rtol=0, atol=1e-13)

    def test_float32_tensor(self, data, weights):
        w32 = weight_tensor(data, dtype=np.float32)
        null = pooled_null(w32, self.Q, self.N_PAIRS, seed=4)
        pairs, perms = self._stream(4)
        h = marginal_entropies(w32)
        mis = null.mis.reshape(self.Q, self.N_PAIRS)
        for p, (x, y) in enumerate(pairs):
            ref = mi_tile_sparse(w32[y][None], w32[x][perms], h_i=h[y:y + 1],
                                 h_j=np.full(self.Q, h[x]), dtype="float64")
            assert np.array_equal(mis[:, p], ref[0]), (x, y)
        ref64 = pooled_null(weights, self.Q, self.N_PAIRS, seed=4)
        np.testing.assert_allclose(null.mis, ref64.mis, rtol=0, atol=1e-6)

    def test_pair_nulls_rejects_bad_permutations(self, weights):
        pairs = np.array([[0, 2], [3, 4]])
        perms = np.tile(np.arange(self.M), (3, 1))
        with pytest.raises(ValueError, match="array"):
            pair_nulls(weights, pairs, perms[:, 1:])
        perms[1, 5] = self.M
        with pytest.raises(ValueError, match="outside"):
            pair_nulls(weights, pairs, perms)

    def test_pipeline_records_route_on_null_span(self, data):
        from repro.core.pipeline import TingeConfig, TingePipeline
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        res = TingePipeline(TingeConfig(n_permutations=self.Q, n_null_pairs=20),
                            tracer=tracer).run(data)
        (span,) = tracer.find_spans("null")
        assert span.metadata["route"] == res.null.route == f"sparse:{sparse_backend()}"


class TestPerPairVectorization:
    def test_matches_per_permutation_reference_loop(self, ranked_weights):
        # Regression: the permutation dimension is vectorized with a stacked
        # batched matmul; results must be bit-identical to evaluating one
        # permutation at a time with the pair kernel.
        from repro.stats.random import as_rng, permutation_matrix

        pairs = np.array([[0, 1], [3, 7], [2, 19], [10, 11]])
        q = 40
        observed, pvals = per_pair_pvalues(ranked_weights, pairs,
                                           n_permutations=q, seed=21)

        n, m, b = ranked_weights.shape
        perms = permutation_matrix(q, m, as_rng(21))
        ref_obs = np.empty(len(pairs))
        ref_p = np.empty(len(pairs))
        for idx, (i, j) in enumerate(pairs):
            wx, wy = ranked_weights[i], ranked_weights[j]
            ref_obs[idx] = mi_bspline_pair(wx, wy)
            null = np.array([mi_bspline_pair(wx[perms[r]], wy) for r in range(q)])
            exceed = int(np.count_nonzero(null >= ref_obs[idx]))
            ref_p[idx] = (1.0 + exceed) / (1.0 + q)
        assert np.array_equal(observed, ref_obs)
        assert np.array_equal(pvals, ref_p)
