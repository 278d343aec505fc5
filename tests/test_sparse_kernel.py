"""Tests for the compiled sparse-kernel tier.

The sparse tile kernel (:func:`repro.core.mi.mi_tile_sparse` /
``mi_tile_sparse_block``) consumes the packed ``(values, first)`` layout
and scatters per-sample weight products into the joint histogram instead
of running the dense GEMM.  Three backend tiers exist — Numba JIT, a
cc-compiled shared library, and a pure-numpy scatter — and all of them
must be *bitwise identical* to each other at float64 (one product per
touched cell per sample, accumulated in sample order, no FMA
contraction), so any installed tier is interchangeable.  Against the
dense ``mi_tile`` reference the float64 sparse path agrees to ~1 ulp
(the dense GEMM may contract into FMAs; the summation-order difference
is documented, bounded, and pinned here).
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    KERNEL_NAMES,
    TileWorkspace,
    mi_tile,
    mi_tile_sparse,
    mi_tile_sparse_block,
    mi_tile_sparse_packed,
)
from repro.core.mi_matrix import mi_matrix
from repro.core.sparsekernel import (
    PACK_LANES,
    _reset_backend_cache,
    accumulate_tile,
    joint_pad,
    pack_slab,
    prepare_packed,
    sparse_backend,
)

# One ulp of the entropy sums at these magnitudes, with headroom: the
# sparse scatter and the dense GEMM reduce in different orders.
SPARSE_VS_DENSE_ATOL = 1e-13


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(42)
    return weight_tensor(rng.normal(size=(24, 150)), bins=10, order=3)


@pytest.fixture(scope="module")
def entropies(weights):
    return marginal_entropies(weights, base="nat")


def _forced_backend(monkeypatch, name):
    monkeypatch.setenv("REPRO_SPARSE_BACKEND", name)
    _reset_backend_cache()


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    _reset_backend_cache()


# ---------------------------------------------------------------------------
# Packed slab layout
# ---------------------------------------------------------------------------

class TestPackSlab:
    def test_shape_and_span_inference(self, weights):
        values, first, span = pack_slab(weights)
        n, m, b = weights.shape
        assert values.shape == (n, m, PACK_LANES)
        assert first.shape == (n, m) and first.dtype == np.int32
        assert span == 3  # order-3 splines: at most 3 nonzeros per sample

    def test_pad_lanes_exactly_zero(self, weights):
        values, first, span = pack_slab(weights)
        pad = values[:, :, span:]
        assert (pad == 0.0).all()
        assert not np.signbit(pad).any()  # +0.0, never -0.0

    def test_reconstructs_dense(self, weights):
        values, first, span = pack_slab(weights)
        n, m, b = weights.shape
        dense = np.zeros_like(weights)
        for g in range(n):
            for s in range(m):
                f = first[g, s]
                dense[g, s, f : f + span] = values[g, s, :span]
        assert (dense == weights).all()

    def test_order1_span(self):
        rng = np.random.default_rng(0)
        w = weight_tensor(rng.normal(size=(4, 30)), bins=10, order=1)
        _values, _first, span = pack_slab(w)
        assert span == 1

    def test_span_above_lanes_raises(self):
        rng = np.random.default_rng(0)
        w = weight_tensor(rng.normal(size=(4, 30)), bins=10, order=5)
        with pytest.raises(ValueError, match="span"):
            pack_slab(w)

    def test_prepare_packed_caches_identity(self, weights):
        a = prepare_packed(weights)
        b = prepare_packed(weights)
        assert a[0] is b[0] and a[1] is b[1]

    def test_operand_caches_drop_collected_tensors(self):
        import gc
        import weakref

        from repro.core.mi import _OPERAND_CACHE, prepare_operands
        from repro.core.sparsekernel import _PACKED_CACHE

        rng = np.random.default_rng(5)
        tensors = [weight_tensor(rng.normal(size=(6, 40))) for _ in range(2)]
        derived = []
        for w in tensors:
            derived += [weakref.ref(prepare_operands(w)[0]),
                        weakref.ref(prepare_operands(w, np.float32)[1]),
                        weakref.ref(prepare_packed(w)[0])]
        assert len(_OPERAND_CACHE) == 2 and len(_PACKED_CACHE) == 2
        del w, tensors
        gc.collect()
        assert len(_OPERAND_CACHE) == 0 and len(_PACKED_CACHE) == 0
        assert all(ref() is None for ref in derived)

    def test_joint_pad(self):
        assert joint_pad(10) == 10 + PACK_LANES - 1


# ---------------------------------------------------------------------------
# Backend equivalence: numba == cc == numpy, bit for bit at float64
# ---------------------------------------------------------------------------

class TestBackendEquivalence:
    def test_some_backend_selected(self):
        assert sparse_backend() in ("numba", "cc", "numpy")

    def test_forced_unavailable_raises(self, monkeypatch):
        _forced_backend(monkeypatch, "not-a-backend")
        with pytest.raises(ValueError):
            sparse_backend()

    def test_numpy_fallback_bitwise_identical_f64(self, weights, entropies,
                                                  monkeypatch):
        native = mi_tile_sparse(weights[:8], weights[8:20],
                                h_i=entropies[:8], h_j=entropies[8:20])
        _forced_backend(monkeypatch, "numpy")
        assert sparse_backend() == "numpy"
        fallback = mi_tile_sparse(weights[:8], weights[8:20],
                                  h_i=entropies[:8], h_j=entropies[8:20])
        assert np.array_equal(native, fallback)

    def test_host_tag_stable_hex(self):
        # The cc cache name carries a CPU tag (-march=native .so files are
        # not portable across heterogeneous hosts sharing a cache dir).
        from repro.core.sparsekernel import _host_tag

        tag = _host_tag()
        assert tag == _host_tag() and len(tag) == 8
        int(tag, 16)  # hex digest

    def test_numpy_fallback_accumulator_bitwise_f64(self, weights, monkeypatch):
        values, first, span = pack_slab(weights)
        b = weights.shape[2]
        shape = (4, 4, b, joint_pad(b))
        native = np.empty(shape, dtype=np.float64)
        accumulate_tile(values[:4], first[:4], values[4:8], first[4:8],
                        span, b, native)
        _forced_backend(monkeypatch, "numpy")
        fallback = np.empty(shape, dtype=np.float64)
        accumulate_tile(values[:4], first[:4], values[4:8], first[4:8],
                        span, b, fallback)
        assert np.array_equal(native, fallback)


# ---------------------------------------------------------------------------
# Mixed-span tiles: independently packed slabs with different spans
# ---------------------------------------------------------------------------

def _single_bin_slab(n, m, b, rng):
    """Span-1 slab with guaranteed support at the last bin (first = b-1)."""
    w = np.zeros((n, m, b))
    cols = rng.integers(0, b, size=(n, m))
    cols[:, : max(1, m // 8)] = b - 1
    w[np.arange(n)[:, None], np.arange(m)[None, :], cols] = 1.0
    return w


class TestMixedSpanTiles:
    """Regression for the mixed-span out-of-bounds scatter.

    ``pack_slab`` clamps ``first`` to ``b - span_own``, but the kernels
    iterate the tile's *shared* (max) span of row lanes: a span-1 slab
    with support at the last bin (binary / low-cardinality genes) paired
    with a span-3 slab used to produce row indices up to ``b + 1`` — a
    deterministic crash in the numpy backend and unchecked out-of-bounds
    writes in the compiled ones.  ``mi_tile_sparse`` now repacks the
    narrower slab at the shared span, and ``accumulate_tile`` rejects
    under-clamped operands outright.
    """

    @pytest.fixture()
    def slabs(self):
        rng = np.random.default_rng(21)
        m, b = 120, 10
        narrow = _single_bin_slab(3, m, b, rng)
        wide = weight_tensor(rng.normal(size=(4, m)), bins=b, order=3)
        return narrow, wide

    def test_pack_spans_differ(self, slabs):
        narrow, wide = slabs
        _, f1, s1 = pack_slab(narrow)
        _, _, s3 = pack_slab(wide)
        assert s1 == 1 and s3 == 3
        assert int(f1.max()) == narrow.shape[2] - 1  # the hazardous clamp

    def test_narrow_rows_match_dense(self, slabs):
        narrow, wide = slabs
        h_n = marginal_entropies(narrow)
        h_w = marginal_entropies(wide)
        ref = mi_tile(narrow, wide, h_i=h_n, h_j=h_w)
        got = mi_tile_sparse(narrow, wide, h_i=h_n, h_j=h_w)
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_wide_rows_match_dense(self, slabs):
        narrow, wide = slabs
        h_n = marginal_entropies(narrow)
        h_w = marginal_entropies(wide)
        ref = mi_tile(wide, narrow, h_i=h_w, h_j=h_n)
        got = mi_tile_sparse(wide, narrow, h_i=h_w, h_j=h_n)
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    @pytest.mark.parametrize("backend", ["numpy", "cc", "numba"])
    def test_each_backend_mixed_span(self, slabs, monkeypatch, backend):
        import repro.core.sparsekernel as sk

        if backend == "cc" and sk._cc_library() is None:
            pytest.skip("no C compiler")
        if backend == "numba" and sk._numba_tile_fn() is None:
            pytest.skip("numba not installed")
        _forced_backend(monkeypatch, backend)
        narrow, wide = slabs
        h_n = marginal_entropies(narrow)
        h_w = marginal_entropies(wide)
        ref = mi_tile(narrow, wide, h_i=h_n, h_j=h_w)
        got = mi_tile_sparse(narrow, wide, h_i=h_n, h_j=h_w)
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_mixed_span_float32(self, slabs):
        narrow, wide = slabs
        h_n = marginal_entropies(narrow)
        h_w = marginal_entropies(wide)
        ref = mi_tile(narrow, wide, h_i=h_n, h_j=h_w)
        got = mi_tile_sparse(narrow, wide, h_i=h_n, h_j=h_w, dtype="float32")
        np.testing.assert_allclose(got, ref, rtol=0, atol=5e-6)

    def test_accumulate_tile_rejects_underclamped_first(self, slabs):
        narrow, wide = slabs
        b = narrow.shape[2]
        vn, fn, _ = pack_slab(narrow)
        vw, fw, sw = pack_slab(wide)
        out = np.empty((3, 4, b, joint_pad(b)))
        with pytest.raises(ValueError, match="shared span"):
            accumulate_tile(vn, fn, vw, fw, sw, b, out)

    def test_pack_slab_span_override(self):
        b = 10
        w = np.zeros((1, 5, b))
        w[0, :, b - 1] = 1.0
        _v1, f1, s1 = pack_slab(w)
        assert s1 == 1 and int(f1.max()) == b - 1
        v3, f3, s3 = pack_slab(w, span=3)
        assert s3 == 3 and int(f3.max()) == b - 3
        # The unit weight still maps to bin b-1 via lane (b-1) - first.
        assert (v3[0, :, 2] == 1.0).all()
        assert (v3[0, :, :2] == 0.0).all()

    def test_pack_slab_span_below_observed_raises(self, slabs):
        _narrow, wide = slabs
        with pytest.raises(ValueError, match="span"):
            pack_slab(wide, span=2)

    def test_pack_slab_span_above_bins_raises(self):
        w = np.zeros((1, 3, 2))
        w[:, :, 0] = 1.0
        with pytest.raises(ValueError, match="span"):
            pack_slab(w, span=3)  # 2 bins cannot hold a 3-lane window


# ---------------------------------------------------------------------------
# Sparse kernel vs the dense reference
# ---------------------------------------------------------------------------

class TestSparseKernel:
    def test_matches_mi_tile_f64(self, weights, entropies):
        ref = mi_tile(weights[:10], weights[10:24],
                      h_i=entropies[:10], h_j=entropies[10:24])
        got = mi_tile_sparse(weights[:10], weights[10:24],
                             h_i=entropies[:10], h_j=entropies[10:24])
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_slab_and_block_forms_bitwise_equal(self, weights, entropies):
        slab = mi_tile_sparse(weights[:6], weights[6:18],
                              h_i=entropies[:6], h_j=entropies[6:18])
        block = mi_tile_sparse_block(weights, 0, 6, 6, 18,
                                     h_i=entropies[:6], h_j=entropies[6:18])
        assert np.array_equal(slab, block)

    def test_packed_form_bitwise_equal(self, weights, entropies):
        values, first, span = pack_slab(weights)
        b = weights.shape[2]
        m = weights.shape[1]
        block = mi_tile_sparse_block(weights, 0, 6, 6, 18,
                                     h_i=entropies[:6], h_j=entropies[6:18])
        packed = mi_tile_sparse_packed(values[0:6], first[0:6],
                                       values[6:18], first[6:18],
                                       span, b, m,
                                       h_i=entropies[:6], h_j=entropies[6:18])
        assert np.array_equal(block, packed)

    def test_packed_dtype_mismatch_raises(self, weights, entropies):
        values, first, span = pack_slab(weights)
        with pytest.raises(ValueError, match="dtype"):
            mi_tile_sparse_packed(values[:4], first[:4], values[4:8],
                                  first[4:8], span, weights.shape[2],
                                  weights.shape[1],
                                  h_i=entropies[:4], h_j=entropies[4:8],
                                  dtype="float32")

    def test_float32_within_tolerance(self, weights, entropies):
        ref = mi_tile(weights[:10], weights[10:24],
                      h_i=entropies[:10], h_j=entropies[10:24])
        got = mi_tile_sparse(weights[:10], weights[10:24],
                             h_i=entropies[:10], h_j=entropies[10:24],
                             dtype="float32")
        np.testing.assert_allclose(got, ref, rtol=0, atol=5e-6)

    def test_1x1_tile(self, weights, entropies):
        ref = mi_tile(weights[:1], weights[1:2],
                      h_i=entropies[:1], h_j=entropies[1:2])
        got = mi_tile_sparse(weights[:1], weights[1:2],
                             h_i=entropies[:1], h_j=entropies[1:2])
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_base_bit(self, weights, entropies):
        h = marginal_entropies(weights, base="bit")
        ref = mi_tile(weights[:6], weights[6:12], h_i=h[:6], h_j=h[6:12],
                      base="bit")
        got = mi_tile_sparse(weights[:6], weights[6:12], h_i=h[:6],
                             h_j=h[6:12], base="bit")
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_constant_gene_zero_mi(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 60))
        data[1] = 2.5  # constant gene: all weight mass in the first bins
        w = weight_tensor(data, bins=10, order=3)
        h = marginal_entropies(w)
        got = mi_tile_sparse(w[:2], w[2:4], h_i=h[:2], h_j=h[2:4])
        ref = mi_tile(w[:2], w[2:4], h_i=h[:2], h_j=h[2:4])
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)
        assert got[1].max() < 1e-12  # MI against a constant is 0

    def test_fewer_samples_than_bins(self):
        rng = np.random.default_rng(6)
        w = weight_tensor(rng.normal(size=(6, 7)), bins=10, order=3)
        h = marginal_entropies(w)
        ref = mi_tile(w[:3], w[3:6], h_i=h[:3], h_j=h[3:6])
        got = mi_tile_sparse(w[:3], w[3:6], h_i=h[:3], h_j=h[3:6])
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_workspace_reuse_across_tile_shapes(self, weights, entropies):
        ws = TileWorkspace()
        a = mi_tile_sparse(weights[:8], weights[8:16], h_i=entropies[:8],
                           h_j=entropies[8:16], workspace=ws)
        b = mi_tile_sparse(weights[:3], weights[3:8], h_i=entropies[:3],
                           h_j=entropies[3:8], workspace=ws)
        fresh = mi_tile_sparse(weights[:3], weights[3:8], h_i=entropies[:3],
                               h_j=entropies[3:8])
        assert np.array_equal(b, fresh)
        assert a.shape == (8, 8)


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------

class TestKernelVariantRouting:
    def test_kernel_names(self):
        assert set(KERNEL_NAMES) == {"legacy", "fused", "sparse", "auto"}

    def test_mi_matrix_sparse_close_to_fused(self, weights):
        ref = mi_matrix(weights, tile=8).mi
        got = mi_matrix(weights, tile=8, kernel="sparse").mi
        np.testing.assert_allclose(got, ref, rtol=0, atol=SPARSE_VS_DENSE_ATOL)

    def test_mi_matrix_legacy_bitwise_equals_fused(self, weights):
        ref = mi_matrix(weights, tile=8).mi
        got = mi_matrix(weights, tile=8, kernel="legacy").mi
        assert np.array_equal(got, ref)

    def test_mi_matrix_unknown_kernel_raises(self, weights):
        with pytest.raises(ValueError, match="kernel"):
            mi_matrix(weights, kernel="bogus")

    def test_sparse_composes_with_kernel_dtype(self, weights):
        ref = mi_matrix(weights, tile=8).mi
        got = mi_matrix(weights, tile=8, kernel="sparse",
                        kernel_dtype="float32").mi
        np.testing.assert_allclose(got, ref, rtol=0, atol=5e-6)

    def test_numpy_fallback_through_mi_matrix(self, weights, monkeypatch):
        native = mi_matrix(weights, tile=8, kernel="sparse").mi
        _forced_backend(monkeypatch, "numpy")
        fallback = mi_matrix(weights, tile=8, kernel="sparse").mi
        assert np.array_equal(native, fallback)

    def test_pipeline_config_kernel_validated(self):
        from repro.core.pipeline import TingeConfig

        assert TingeConfig(kernel="sparse").kernel == "sparse"
        with pytest.raises(ValueError, match="kernel"):
            TingeConfig(kernel="dense")

    def test_auto_kernel_resolves_and_persists(self, tmp_path, monkeypatch):
        # Enough genes that the smallest tile candidate fits the sample.
        rng = np.random.default_rng(13)
        weights = weight_tensor(rng.normal(size=(40, 60)), bins=10, order=3)
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(tmp_path / "t.json"))
        res = mi_matrix(weights, kernel="auto")
        assert res.mi.shape == (40, 40)
        data = json.loads((tmp_path / "t.json").read_text())
        assert data["version"] == 2
        auto = [v for k, v in data["entries"].items() if ";kernel=auto;" in k]
        assert auto and auto[0]["kernel"] in ("legacy", "fused", "sparse")


# ---------------------------------------------------------------------------
# PackedWeightSource: packed slabs over the wire
# ---------------------------------------------------------------------------

class TestPackedWeightSource:
    @pytest.fixture()
    def source(self, weights):
        from repro.core.exec import PackedWeightSource, TensorSource

        return PackedWeightSource.from_source(TensorSource(weights))

    def test_slab_reconstructs_dense(self, source, weights):
        assert np.array_equal(source.slab(3, 17), weights[3:17])

    def test_entropies_carried_from_dense_source(self, source, entropies):
        assert np.array_equal(source.entropies("nat"), entropies)

    def test_pickle_round_trip_smaller_than_dense(self, source, weights):
        blob = pickle.dumps(source, protocol=5)
        dense = pickle.dumps(weights, protocol=5)
        assert len(blob) < 0.5 * len(dense)
        back = pickle.loads(blob)
        assert np.array_equal(back.slab(0, 24), weights)

    def test_packed_returns_lane_padded_layout(self, source, weights):
        values, first, span = source.packed()
        assert values.shape == (24, weights.shape[1], PACK_LANES)
        assert span == 3 and source.bins == weights.shape[2]

    def test_mi_matrix_over_packed_source_matches(self, source, weights):
        ref = mi_matrix(weights, tile=8, kernel="sparse").mi
        got = mi_matrix(source, tile=8, kernel="sparse").mi
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# Autotune sidecar: v2 schema + v1 migration
# ---------------------------------------------------------------------------

class TestAutotuneSidecarV2:
    def test_v1_flat_file_migrates(self, tmp_path, monkeypatch):
        from repro.core.tiling import _load_autotune_cache

        path = tmp_path / "tiles.json"
        path.write_text(json.dumps(
            {"m=100;b=10;dtype=float64;engine=serial;host=h1": 32}))
        cache = _load_autotune_cache(path)
        assert cache == {
            "m=100;b=10;dtype=float64;engine=serial;kernel=fused;host=h1": 32}

    def test_v1_entry_honored_without_remeasure(self, weights, tmp_path,
                                                monkeypatch):
        import socket

        from repro.core.tiling import autotune_tile_size

        path = tmp_path / "tiles.json"
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(path))
        m, b = weights.shape[1], weights.shape[2]
        host = socket.gethostname()
        path.write_text(json.dumps(
            {f"m={m};b={b};dtype=float64;engine=serial;host={host}": 64}))
        assert autotune_tile_size(weights, candidates=(4, 8), repeats=1) == 64

    def test_unknown_future_version_ignored(self, tmp_path):
        from repro.core.tiling import _load_autotune_cache

        path = tmp_path / "tiles.json"
        path.write_text(json.dumps({"version": 99, "entries": {"k": 8}}))
        assert _load_autotune_cache(path) == {}

    def test_kernel_variants_get_distinct_entries(self, weights, tmp_path,
                                                  monkeypatch):
        from repro.core.tiling import autotune_tile_size

        path = tmp_path / "tiles.json"
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(path))
        autotune_tile_size(weights, candidates=(4, 8), repeats=1)
        autotune_tile_size(weights, candidates=(4, 8), repeats=1,
                           kernel="sparse")
        keys = json.loads(path.read_text())["entries"].keys()
        assert any(";kernel=fused;" in k for k in keys)
        assert any(";kernel=sparse;" in k for k in keys)

    def test_autotune_kernel_round_trip(self, weights, tmp_path, monkeypatch):
        from repro.core.tiling import autotune_kernel

        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(tmp_path / "t.json"))
        kernel, tile = autotune_kernel(weights, candidates=(4, 8), repeats=1)
        assert kernel in ("legacy", "fused", "sparse") and tile in (4, 8)
        again = autotune_kernel(weights, candidates=(4, 8), repeats=1)
        assert again == (kernel, tile)
