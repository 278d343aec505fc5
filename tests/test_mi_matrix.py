"""Tests for repro.core.mi_matrix: the tiled all-pairs driver."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.exec import DenseSink, TensorSource, default_kernel, plan_tiles, run_tile_plan
from repro.core.mi import mi_bspline_pair
from repro.core.mi_matrix import compute_tile, mi_matrix, mi_pairs
from repro.core.tiling import Tile
from repro.faults.policy import FaultPolicy
from repro.parallel.engine import SerialEngine, ThreadEngine


@pytest.fixture(scope="module")
def weights12():
    rng = np.random.default_rng(99)
    return weight_tensor(rng.normal(size=(12, 80)))


class TestMiMatrix:
    def test_symmetric_zero_diagonal(self, weights12):
        res = mi_matrix(weights12, tile=4)
        assert np.array_equal(res.mi, res.mi.T)
        assert np.all(np.diag(res.mi) == 0.0)

    def test_matches_pairwise_kernel(self, weights12):
        res = mi_matrix(weights12, tile=5)
        for i in range(12):
            for j in range(i + 1, 12):
                assert res.mi[i, j] == pytest.approx(
                    mi_bspline_pair(weights12[i], weights12[j]), rel=1e-10, abs=1e-12
                )

    @pytest.mark.parametrize("tile", [1, 2, 3, 7, 64])
    def test_tile_size_invariance(self, weights12, tile):
        ref = mi_matrix(weights12, tile=4).mi
        assert np.allclose(mi_matrix(weights12, tile=tile).mi, ref)

    def test_default_tile(self, weights12):
        res = mi_matrix(weights12)
        assert res.n_genes == 12
        assert res.n_pairs == 66

    def test_bookkeeping(self, weights12):
        res = mi_matrix(weights12, tile=4)
        assert res.n_tiles == 6  # 3x3 upper-tri block grid
        assert res.marginal_entropy.shape == (12,)

    def test_thread_engine_identical(self, weights12):
        ref = mi_matrix(weights12, tile=4).mi
        eng = ThreadEngine(n_workers=3)
        assert np.allclose(mi_matrix(weights12, tile=4, engine=eng).mi, ref)

    def test_serial_engine_identical(self, weights12):
        ref = mi_matrix(weights12, tile=4).mi
        assert np.allclose(mi_matrix(weights12, tile=4, engine=SerialEngine()).mi, ref)

    def test_base_bits(self, weights12):
        nat = mi_matrix(weights12, tile=4).mi
        bit = mi_matrix(weights12, tile=4, base="bit").mi
        assert np.allclose(bit, nat / np.log(2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mi_matrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            mi_matrix(np.zeros((1, 4, 10)))

    def test_nonnegative(self, weights12):
        assert (mi_matrix(weights12).mi >= 0).all()


class TestComputeTile:
    def test_diagonal_tile_masked(self, weights12):
        from repro.core.entropy import marginal_entropies

        h = marginal_entropies(weights12)
        block = compute_tile(weights12, h, Tile(0, 4, 0, 4))
        assert np.all(block[np.tril_indices(4)] == 0.0)

    def test_off_diagonal_unmasked(self, weights12):
        from repro.core.entropy import marginal_entropies

        h = marginal_entropies(weights12)
        block = compute_tile(weights12, h, Tile(0, 3, 6, 9))
        assert (block > 0).any() or (block >= 0).all()
        assert block.shape == (3, 3)


class TestMiPairs:
    def test_matches_matrix(self, weights12):
        full = mi_matrix(weights12, tile=4).mi
        pairs = np.array([[0, 1], [2, 7], [10, 11], [0, 11]])
        vals = mi_pairs(weights12, pairs)
        for (i, j), v in zip(pairs, vals):
            assert v == pytest.approx(full[i, j], rel=1e-10, abs=1e-12)

    def test_batching_invariance(self, weights12):
        pairs = np.array([[i, j] for i in range(12) for j in range(i + 1, 12)])
        a = mi_pairs(weights12, pairs, batch=5)
        b = mi_pairs(weights12, pairs, batch=1000)
        assert np.allclose(a, b)

    def test_empty_pairs(self, weights12):
        assert mi_pairs(weights12, np.empty((0, 2), dtype=int)).size == 0

    def test_rejects_out_of_range(self, weights12):
        with pytest.raises(ValueError):
            mi_pairs(weights12, np.array([[0, 99]]))

    def test_rejects_bad_shape(self, weights12):
        with pytest.raises(ValueError):
            mi_pairs(weights12, np.array([0, 1, 2]))


class TestProgressCallback:
    def test_serial_progress_called_per_tile(self, weights12):
        calls = []
        mi_matrix(weights12, tile=4, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (len(calls), len(calls))
        assert [d for d, _ in calls] == list(range(1, len(calls) + 1))

    def test_in_process_engine_progress_called_per_tile(self, weights12):
        # Regression: engine paths used to fire progress once, at the end.
        for engine in (SerialEngine(), ThreadEngine(n_workers=2)):
            calls = []
            mi_matrix(weights12, tile=4, engine=engine,
                      progress=lambda d, t: calls.append((d, t)))
            assert calls[-1] == (6, 6)
            assert sorted(d for d, _ in calls) == list(range(1, 7))

    @pytest.mark.parametrize("policy", [None, FaultPolicy(max_retries=2)],
                             ids=["default", "retry"])
    def test_in_process_progress_is_live(self, weights12, policy):
        # The first tick must land while tiles are still to run, not after
        # the whole grid has returned.
        kernel_calls = []
        first_tick = []

        def counting_kernel(source, h, t, base):
            kernel_calls.append(t)
            return default_kernel(source, h, t, base)

        def progress(done, total):
            if not first_tick:
                first_tick.append(len(kernel_calls))

        source = TensorSource(weights12)
        plan = plan_tiles(source, tile=4)
        run_tile_plan(plan, source, DenseSink(12), engine=ThreadEngine(n_workers=1),
                      progress=progress, kernel=counting_kernel, policy=policy)
        assert len(kernel_calls) == plan.n_tiles == 6
        assert first_tick and first_tick[0] < plan.n_tiles

    def test_fork_engine_progress_called_per_batch(self, weights12):
        from repro.parallel.engine import ProcessEngine

        calls = []
        mi_matrix(weights12, tile=4, engine=ProcessEngine(n_workers=2),
                  progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (6, 6)
        assert all(calls[i][0] < calls[i + 1][0] for i in range(len(calls) - 1))

    def test_no_progress_by_default(self, weights12):
        mi_matrix(weights12, tile=4)  # must not raise
