"""Tests for the sample-increment path of repro.core.incremental.

The contract under test: after ``NetworkUpdater.add_samples`` the
*network* — threshold, adjacency, and the MI weight of every edge — is
bit-identical to a from-scratch pipeline run on the grown dataset, while
only a proper subset of pairs is recomputed; interruption leaves the
visible state untouched and a resume replays only the still-dirty tiles.
"""

import json

import numpy as np
import pytest

from repro.core.checkpoint import DeltaCheckpointSink, checkpoint_status
from repro.core.discretize import extend_columns, rank_drift_bound
from repro.core.exec import TensorSource, filter_plan, plan_tiles
from repro.core.incremental import NetworkUpdater, UpdateDelta
from repro.core.pipeline import TingeConfig, reconstruct_network
from repro.obs.tracer import Tracer

N, M, DM = 60, 200, 2
CONFIG = TingeConfig(n_permutations=10, n_null_pairs=80, alpha=0.01,
                     seed=3, tile=8)


def _dataset(n=N, m=M, dm=DM, seed=42):
    """(old, new_columns, full): mostly-null data + some coupled pairs."""
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(n, m + dm))
    for k in range(n // 6):
        full[2 * k + 1] = full[2 * k] + 0.3 * rng.normal(size=m + dm)
    return full[:, :m], full[:, m:], full


@pytest.fixture(scope="module")
def stream():
    data, new, full = _dataset()
    res_old = reconstruct_network(data, config=CONFIG)
    res_full = reconstruct_network(full, config=CONFIG)
    return data, new, full, res_old, res_full


def _assert_network_identical(updater, reference):
    """The streaming consistency guarantee, literally."""
    net = updater.network
    ref = reference.network
    assert net.threshold == ref.threshold
    assert np.array_equal(net.adjacency, ref.adjacency)
    assert np.array_equal(net.weights[ref.adjacency], ref.weights[ref.adjacency])


class TestAddSamples:
    def test_bit_identical_to_full_recompute(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.add_samples(new)
        assert delta is not None
        _assert_network_identical(u, res_full)

    def test_recomputes_proper_subset(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.add_samples(new)
        assert 0 < delta.pairs_recomputed < delta.pairs_total
        assert delta.tiles_skipped > 0
        assert delta.tiles_dirty + delta.tiles_skipped == delta.tiles_total
        assert delta.recompute_fraction == delta.pairs_recomputed / delta.pairs_total

    def test_screen_never_skips_a_crossing_pair(self, stream):
        """Conservativeness audit: every pair at-or-above the new threshold
        is bitwise equal to the full recompute (stale entries are only
        ever below-threshold non-edges in both matrices)."""
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        u.add_samples(new)
        mi_full = res_full.mi
        thr = res_full.network.threshold
        above = (mi_full > thr) | (u.mi > thr)
        assert np.array_equal(u.mi[above], mi_full[above])

    def test_delta_reports_edge_churn(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        before = u.network.edge_set()
        delta = u.add_samples(new)
        after = u.network.edge_set()
        assert {(a, b) for a, b, _ in delta.edges_added} == after - before
        assert {(a, b) for a, b, _ in delta.edges_removed} == before - after
        assert delta.n_samples_before == M
        assert delta.n_samples_after == M + DM
        assert delta.threshold_after == res_full.network.threshold

    def test_as_dict_is_json_safe(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.add_samples(new)
        payload = json.loads(json.dumps(delta.as_dict()))
        assert payload["pairs_recomputed"] == delta.pairs_recomputed
        assert payload["cached"] is False

    def test_single_column_1d(self, stream):
        data, new, full, res_old, _ = stream
        ref = reconstruct_network(full[:, : M + 1], config=CONFIG)
        u = NetworkUpdater.from_result(res_old, data)
        assert u.add_samples(new[:, 0]) is not None  # 1-D accepted
        _assert_network_identical(u, ref)

    def test_consecutive_increments(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        u.add_samples(new[:, :1])
        u.add_samples(new[:, 1:])
        assert u.n_samples == M + DM
        _assert_network_identical(u, res_full)

    def test_tracer_counters(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        tracer = Tracer()
        delta = u.add_samples(new, tracer=tracer)
        counters = tracer.counters
        assert counters["tiles_dirty"] == delta.tiles_dirty
        assert counters["tiles_skipped"] == delta.tiles_skipped
        assert counters["delta_edges"] == (len(delta.edges_added)
                                           + len(delta.edges_removed))

    def test_mixed_gene_and_sample_ops(self, stream):
        data, new, full, res_old, _ = stream
        rng = np.random.default_rng(9)
        fresh = rng.normal(size=M)
        cols = rng.normal(size=(N, DM))  # one row per gene of the final list

        u = NetworkUpdater.from_result(res_old, data)
        u.remove_gene("G00010")
        u.add_gene("fresh", fresh)
        assert u.add_samples(cols) is not None

        # From-scratch on the exact final dataset (same gene order).
        final = np.vstack([np.delete(data, 10, axis=0), fresh[None, :]])
        final = np.concatenate([final, cols], axis=1)
        genes = [g for g in res_old.network.genes if g != "G00010"] + ["fresh"]
        res_ref = reconstruct_network(final, config=CONFIG, genes=genes)
        _assert_network_identical(u, res_ref)


class TestAtomicityAndResume:
    def test_interrupt_returns_none_and_leaves_state(self, stream, tmp_path):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        mi_before, thr_before = u.mi, u.threshold
        out = u.add_samples(new, checkpoint_dir=tmp_path / "ck",
                            interrupt_after_rows=1)
        assert out is None
        assert np.array_equal(u.mi, mi_before)
        assert u.threshold == thr_before
        assert u.n_samples == M

    def test_resume_replays_only_remaining_rows(self, stream, tmp_path):
        data, new, full, res_old, res_full = stream
        ck = tmp_path / "ck"
        u = NetworkUpdater.from_result(res_old, data)
        assert u.add_samples(new, checkpoint_dir=ck,
                             interrupt_after_rows=1) is None
        status = checkpoint_status(ck)
        done_before = status["done_rows"]
        assert 0 < done_before < status["total_rows"]
        delta = u.add_samples(new, checkpoint_dir=ck)
        assert delta is not None
        _assert_network_identical(u, res_full)
        ledger = json.loads((ck / "ledger.json").read_text())
        assert ledger["delta"]["kind"] == "sample-increment"
        assert ledger["delta"]["m_samples"] == M + DM

    def test_checkpointed_uninterrupted_matches_dense(self, stream, tmp_path):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.add_samples(new, checkpoint_dir=tmp_path / "ck")
        assert delta is not None
        _assert_network_identical(u, res_full)

    def test_resume_rejects_different_increment(self, stream, tmp_path):
        data, new, full, res_old, _ = stream
        ck = tmp_path / "ck"
        u = NetworkUpdater.from_result(res_old, data)
        assert u.add_samples(new, checkpoint_dir=ck,
                             interrupt_after_rows=1) is None
        other = new + 1.0  # a different batch => different fingerprint
        with pytest.raises(ValueError, match="fingerprint"):
            u.add_samples(other, checkpoint_dir=ck)


class TestAdoptSamples:
    def test_adopt_matches_add(self, stream):
        data, new, full, res_old, res_full = stream
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.adopt_samples(new, res_full.mi)
        assert delta.cached is True
        assert delta.pairs_recomputed == 0
        _assert_network_identical(u, res_full)
        # The adopted state keeps streaming: a further increment works.
        rng = np.random.default_rng(1)
        more = rng.normal(size=(N, 1))
        grown = np.concatenate([full, more], axis=1)
        ref = reconstruct_network(grown, config=CONFIG)
        assert u.add_samples(more) is not None
        _assert_network_identical(u, ref)

    def test_adopt_validates_shape(self, stream):
        data, new, full, res_old, _ = stream
        u = NetworkUpdater.from_result(res_old, data)
        with pytest.raises(ValueError, match="MI matrix"):
            u.adopt_samples(new, np.zeros((3, 3)))


class TestStreamingValidation:
    def test_needs_data_and_config(self, stream):
        data, new, full, res_old, _ = stream
        u = NetworkUpdater(
            np.zeros((4, 12, 10)), np.zeros((4, 4)),
            [f"g{i}" for i in range(4)], res_old.null)
        with pytest.raises(ValueError, match="data"):
            u.add_samples(np.zeros((4, 1)))

    @pytest.mark.parametrize("field,value,match", [
        ("correction", "bh", "fixed threshold"),
        ("base", "bits", "nat"),
        ("dtype", "float32", "float64"),
    ])
    def test_unsupported_configs(self, stream, field, value, match):
        data, new, full, res_old, _ = stream
        cfg = TingeConfig(**{**CONFIG.__dict__, field: value})
        u = NetworkUpdater(np.zeros((4, 12, 10)), np.zeros((4, 4)),
                           [f"g{i}" for i in range(4)], res_old.null,
                           data=np.zeros((4, 12)), config=cfg)
        with pytest.raises(ValueError, match=match):
            u.add_samples(np.zeros((4, 1)))

    def test_rejects_nonfinite_columns(self, stream):
        data, new, full, res_old, _ = stream
        u = NetworkUpdater.from_result(res_old, data)
        bad = new.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            u.add_samples(bad)

    def test_from_result_requires_null(self, stream):
        data, new, full, res_old, _ = stream
        import dataclasses
        gutted = dataclasses.replace(res_old, null=None)
        with pytest.raises(ValueError, match="pooled null"):
            NetworkUpdater.from_result(gutted, data)


class TestDeltaCheckpointSink:
    @pytest.fixture
    def plan_and_source(self):
        rng = np.random.default_rng(0)
        from repro.core.bspline import weight_tensor
        from repro.core.discretize import rank_transform

        w = weight_tensor(rank_transform(rng.normal(size=(12, 40))))
        source = TensorSource(w)
        return plan_tiles(source, tile=4), source

    def test_validates_base_shape(self, plan_and_source, tmp_path):
        plan, source = plan_and_source
        with pytest.raises(ValueError, match="base matrix"):
            DeltaCheckpointSink(tmp_path, plan, source.fingerprint(),
                                base=np.zeros((3, 3)))

    def test_rejects_mismatched_dirty_set(self, plan_and_source, tmp_path):
        plan, source = plan_and_source
        base = np.zeros((12, 12))
        sub_a = filter_plan(plan, plan.tiles[:2])
        sub_b = filter_plan(plan, plan.tiles[1:3])
        DeltaCheckpointSink(tmp_path, sub_a, source.fingerprint(), base=base)
        with pytest.raises(ValueError, match="dirty-tile"):
            DeltaCheckpointSink(tmp_path, sub_b, source.fingerprint(), base=base)

    def test_finalize_patches_base(self, plan_and_source, tmp_path):
        from repro.core.exec import run_tile_plan
        from repro.core.mi_matrix import mi_matrix

        plan, source = plan_and_source
        full = mi_matrix(source.weights, tile=4).mi
        base = np.full((12, 12), 7.0)
        np.fill_diagonal(base, 0.0)
        sub = filter_plan(plan, plan.tiles[:2])
        sink = DeltaCheckpointSink(tmp_path, sub, source.fingerprint(),
                                   base=base)
        out = run_tile_plan(sub, source, sink)
        covered = np.zeros((12, 12), dtype=bool)
        for t in sub.tiles:
            covered[t.i0:t.i1, t.j0:t.j1] = True
        covered |= covered.T
        np.fill_diagonal(covered, False)
        assert np.array_equal(out[covered], full[covered])
        off_diag = ~covered & ~np.eye(12, dtype=bool)
        assert (out[off_diag] == 7.0).all()
        assert (np.diag(out) == 0.0).all()


class TestExtendColumnsAndDrift:
    def test_extend_columns_appends(self):
        data = np.arange(12.0).reshape(3, 4)
        out = extend_columns(data, np.ones(3))
        assert out.shape == (3, 5)
        assert np.array_equal(out[:, :4], data)
        assert (out[:, 4] == 1.0).all()

    def test_extend_columns_validation(self):
        data = np.zeros((3, 4))
        with pytest.raises(ValueError, match="new sample columns"):
            extend_columns(data, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="no new samples"):
            extend_columns(data, np.zeros((3, 0)))
        with pytest.raises(ValueError, match="NaN"):
            extend_columns(data, np.full((3, 1), np.nan))

    def test_rank_drift_bound_shrinks(self):
        assert rank_drift_bound(100, 101) == pytest.approx(1 / 100)
        assert rank_drift_bound(1000, 1001) < rank_drift_bound(100, 101)
        with pytest.raises(ValueError):
            rank_drift_bound(10, 10)
        with pytest.raises(ValueError):
            rank_drift_bound(1, 5)

    def test_drift_bound_is_sharp(self):
        # Empirically: appending dm columns never moves an old sample's
        # transformed value by more than the documented bound.
        rng = np.random.default_rng(7)
        from repro.core.discretize import rank_transform

        data = rng.normal(size=(5, 50))
        new = rng.normal(size=(5, 3))
        before = rank_transform(data)
        after = rank_transform(np.concatenate([data, new], axis=1))[:, :50]
        assert np.abs(after - before).max() <= rank_drift_bound(50, 53) + 1e-12


class TestReplayGranularity:
    """Scattered dirty pairs replay as 1x1 tiles only under the sparse
    kernel: the BLAS kernels' MI depends on the tile shape in the last bit,
    so they must replay the from-scratch run's own tiles."""

    @pytest.mark.parametrize("kernel", ["fused", "legacy", "sparse"])
    def test_sparse_dirt_bit_identical_at_large_m(self, kernel):
        data, new, full = _dataset(n=64, m=400, dm=1, seed=7)
        cfg = TingeConfig(n_permutations=10, n_null_pairs=80, alpha=0.01,
                          seed=3, tile=16, kernel=kernel)
        res_old = reconstruct_network(data, config=cfg)
        res_full = reconstruct_network(full, config=cfg)
        u = NetworkUpdater.from_result(res_old, data)
        delta = u.add_samples(new)
        assert 0 < delta.pairs_screened_dirty <= 0.05 * delta.pairs_total
        refined = delta.pairs_recomputed == delta.pairs_screened_dirty
        assert refined == (kernel == "sparse")
        _assert_network_identical(u, res_full)
