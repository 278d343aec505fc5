"""Tests for repro.cluster: simulated MPI and the distributed algorithm."""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.cluster.comm import CommMismatchError, LockstepComm, run_lockstep
from repro.cluster.distributed import distributed_reconstruct
from repro.data import yeast_subset


class TestLockstepComm:
    def test_bcast_all_receive(self):
        comm = LockstepComm(4)
        out = comm.bcast(np.arange(3), root=0)
        assert len(out) == 4
        assert all(np.array_equal(o, np.arange(3)) for o in out)

    def test_scatter_by_rank(self):
        comm = LockstepComm(3)
        out = comm.scatter([1, 2, 3])
        assert out == [1, 2, 3]

    def test_scatter_wrong_count(self):
        with pytest.raises(ValueError):
            LockstepComm(3).scatter([1, 2])

    def test_gather_root_only(self):
        comm = LockstepComm(3)
        out = comm.gather([10, 20, 30], root=1)
        assert out[1] == [10, 20, 30]
        assert out[0] is None and out[2] is None

    def test_allgather(self):
        comm = LockstepComm(2)
        out = comm.allgather([np.zeros(2), np.ones(2)])
        for rank_view in out:
            assert np.array_equal(rank_view[0], np.zeros(2))
            assert np.array_equal(rank_view[1], np.ones(2))

    def test_allreduce_sum(self):
        comm = LockstepComm(4)
        parts = [np.full(3, float(r)) for r in range(4)]
        out = comm.allreduce(parts)
        assert all(np.array_equal(o, np.full(3, 6.0)) for o in out)

    def test_allreduce_custom_op(self):
        comm = LockstepComm(3)
        out = comm.allreduce([np.array([1.0, 5.0]), np.array([4.0, 2.0]),
                              np.array([3.0, 3.0])], op=np.maximum)
        assert np.array_equal(out[0], np.array([4.0, 5.0]))

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            LockstepComm(2).bcast(1, root=5)

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            LockstepComm(0)


class TestCommMetering:
    def test_allgather_ring_volume(self):
        comm = LockstepComm(4)
        slabs = [np.zeros(100, dtype=np.float64) for _ in range(4)]
        comm.allgather(slabs)
        # Ring: (P-1) * total bytes = 3 * 4 * 800.
        assert comm.meter.volume_bytes == 3 * 4 * 800

    def test_allreduce_log_rounds(self):
        comm = LockstepComm(8)
        comm.allreduce([np.zeros(10) for _ in range(8)])
        # log2(8)=3 rounds * 8 ranks * 80 bytes.
        assert comm.meter.volume_bytes == 3 * 8 * 80

    def test_single_rank_no_allgather_volume(self):
        comm = LockstepComm(1)
        comm.allgather([np.zeros(50)])
        assert comm.meter.volume_bytes == 0.0

    def test_call_counts(self):
        comm = LockstepComm(2)
        comm.barrier()
        comm.bcast(1)
        comm.bcast(2)
        assert comm.meter.calls == {"barrier": 1, "bcast": 2}

    def test_p2p_send_metered_per_peer(self):
        comm = LockstepComm(3)
        out = comm.send(np.zeros(10), src=0, dst=2)
        assert np.array_equal(out, np.zeros(10))
        assert comm.meter.volume_bytes == 80.0
        counters = comm.meter.peer_counters()
        assert counters["comm.bytes_sent{peer=rank2}"] == 80.0
        assert counters["comm.bytes_recv{peer=rank0}"] == 80.0

    def test_send_to_failed_rank_rejected(self):
        comm = LockstepComm(3)
        comm.mark_failed(1)
        with pytest.raises(ValueError, match="failed rank"):
            comm.send(1.0, src=0, dst=1)
        with pytest.raises(ValueError, match="failed rank"):
            comm.send(1.0, src=1, dst=0)


class TestLockstepEdgeCases:
    """P=1 degenerate worlds, empty arrays, dtype preservation."""

    def test_single_rank_collectives(self):
        comm = LockstepComm(1)
        assert comm.bcast(np.arange(4))[0].tolist() == [0, 1, 2, 3]
        assert comm.scatter([np.ones(2)])[0].tolist() == [1.0, 1.0]
        gathered = comm.gather([7])
        assert gathered == [[7]]
        reduced = comm.allreduce([np.full(3, 5.0)])
        assert np.array_equal(reduced[0], np.full(3, 5.0))
        # A world of one moves nothing: no wire volume for any of it.
        assert comm.meter.volume_bytes == 0.0

    def test_empty_arrays_through_collectives(self):
        comm = LockstepComm(3)
        empty = np.empty(0, dtype=np.float64)
        out = comm.allgather([empty, empty, empty])
        assert all(v.size == 0 for view in out for v in view)
        reduced = comm.allreduce([empty.copy() for _ in range(3)])
        assert reduced[0].size == 0
        assert comm.meter.volume_bytes == 0.0  # zero bytes, still counted
        assert comm.meter.calls == {"allgather": 1, "allreduce": 1}

    def test_allreduce_preserves_dtype(self):
        comm = LockstepComm(4)
        f32 = [np.ones(5, dtype=np.float32) for _ in range(4)]
        out = comm.allreduce(f32)
        assert out[0].dtype == np.float32
        assert np.array_equal(out[0], np.full(5, 4.0, dtype=np.float32))
        i64 = [np.arange(3, dtype=np.int64) for _ in range(4)]
        assert comm.allreduce(i64)[0].dtype == np.int64


class TestThreadedRunLockstep:
    """Per-rank callables: rendezvous, results, and sequence validation."""

    def test_spmd_allreduce(self):
        def rank_prog(comm):
            local = np.full(4, float(comm.rank))
            total = comm.allreduce(local)
            comm.barrier()
            return total

        results, comm = run_lockstep(3, [rank_prog] * 3)
        for r in results:
            assert np.array_equal(r, np.full(4, 3.0))  # 0+1+2
        # Metered exactly like the legacy single-driver formulation.
        assert comm.meter.calls["allreduce"] == 1
        assert comm.meter.calls["barrier"] == 1

    def test_spmd_bcast_and_gather(self):
        def rank_prog(comm):
            seed = comm.bcast(42 if comm.rank == 0 else None, root=0)
            gathered = comm.gather(seed + comm.rank, root=1)
            return gathered

        results, _ = run_lockstep(3, [rank_prog] * 3)
        assert results[1] == [42, 43, 44]
        assert results[0] is None and results[2] is None

    def test_diverged_collectives_raise(self):
        def good(comm):
            comm.allgather(comm.rank)

        def rogue(comm):
            comm.allreduce(np.zeros(2))  # different op at the same step

        with pytest.raises(CommMismatchError, match="diverged"):
            run_lockstep(2, [good, rogue])

    def test_diverged_roots_raise(self):
        def rank_prog(comm):
            comm.bcast(1, root=comm.rank)  # each rank names a different root

        with pytest.raises(CommMismatchError, match="diverged"):
            run_lockstep(2, [rank_prog] * 2)

    def test_early_finish_strands_waiters(self):
        def quitter(comm):
            return "done"  # returns without joining the collective

        def waiter(comm):
            comm.barrier()

        with pytest.raises(CommMismatchError, match="finished while"):
            run_lockstep(2, [quitter, waiter])

    def test_rank_exception_propagates(self):
        def boom(comm):
            raise RuntimeError("rank exploded")

        def waiter(comm):
            comm.barrier()  # must not deadlock waiting for the dead rank

        with pytest.raises(RuntimeError, match="rank exploded"):
            run_lockstep(2, [boom, waiter])

    def test_wrong_callable_count(self):
        with pytest.raises(ValueError, match="one callable per rank"):
            run_lockstep(3, [lambda c: None] * 2)

    def test_legacy_driver_mode_unchanged(self):
        def driver(comm):
            return comm.allreduce([np.ones(2)] * comm.n_ranks)

        results, comm = run_lockstep(4, driver)
        assert np.array_equal(results[0], np.full(2, 4.0))
        assert comm.meter.calls["allreduce"] == 1


class TestDistributedReconstruct:
    @pytest.fixture(scope="class")
    def dataset(self):
        return yeast_subset(n_genes=36, m_samples=150, seed=20)

    def test_matches_serial_pipeline(self, dataset):
        cfg = TingeConfig(n_permutations=15, n_null_pairs=50, alpha=0.01, seed=7)
        serial = reconstruct_network(dataset.expression, dataset.genes, cfg)
        dist = distributed_reconstruct(
            dataset.expression, dataset.genes, n_ranks=4,
            n_permutations=15, n_null_pairs=50, alpha=0.01, seed=7,
        )
        assert np.allclose(dist.mi, serial.mi)
        assert dist.threshold == serial.network.threshold
        assert np.array_equal(dist.network.adjacency, serial.network.adjacency)

    def test_rank_count_invariance(self, dataset):
        results = [
            distributed_reconstruct(dataset.expression, dataset.genes,
                                    n_ranks=p, n_permutations=10, seed=3)
            for p in (1, 2, 5)
        ]
        ref = results[0]
        for r in results[1:]:
            assert np.allclose(r.mi, ref.mi)
            assert r.threshold == ref.threshold

    def test_tiles_balanced_cyclically(self, dataset):
        dist = distributed_reconstruct(dataset.expression, dataset.genes,
                                       n_ranks=4, n_permutations=5, tile=4)
        assert max(dist.tiles_per_rank) - min(dist.tiles_per_rank) <= 1
        assert sum(dist.tiles_per_rank) > 0

    def test_comm_volume_dominated_by_allgather(self, dataset):
        dist = distributed_reconstruct(dataset.expression, dataset.genes,
                                       n_ranks=4, n_permutations=5)
        assert dist.comm_calls["allgather"] >= 1
        assert dist.comm_volume_bytes > 0

    def test_allgather_volume_matches_alpha_beta_model(self, dataset):
        """The measured allgather bytes must equal what the cluster cost
        model charges: (P-1) * n * m * b * itemsize for the weight slabs."""
        p = 4
        dist = distributed_reconstruct(dataset.expression, dataset.genes,
                                       n_ranks=p, n_permutations=5,
                                       dtype="float32")
        n, m, b = 36, 150, 10
        weight_bytes = n * m * b * 4
        # allgather volume includes the weight slabs and the (small) null
        # shares; the weights term dominates and must be present exactly.
        expected_weights = (p - 1) * weight_bytes
        assert dist.comm_volume_bytes >= expected_weights
        # Remaining volume: data scatter, MI-matrix allreduce (dense in this
        # in-process demonstrator; the real tool gathers sparse edges) and
        # the small null allgather.
        assert dist.comm_volume_bytes < expected_weights * 1.5

    def test_single_rank_equals_serial_mi(self, dataset):
        dist = distributed_reconstruct(dataset.expression, dataset.genes,
                                       n_ranks=1, n_permutations=8, seed=1)
        from repro.core.bspline import weight_tensor
        from repro.core.discretize import rank_transform
        from repro.core.mi_matrix import mi_matrix

        w = weight_tensor(rank_transform(dataset.expression))
        assert np.allclose(dist.mi, mi_matrix(w).mi)

    def test_more_ranks_than_genes_tolerated(self):
        ds = yeast_subset(n_genes=6, m_samples=60, seed=1)
        dist = distributed_reconstruct(ds.expression, ds.genes, n_ranks=10,
                                       n_permutations=5)
        assert dist.network.n_genes == 6

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            distributed_reconstruct(dataset.expression[:1], n_ranks=2)
        with pytest.raises(ValueError):
            distributed_reconstruct(dataset.expression, dataset.genes, n_ranks=0)
        with pytest.raises(ValueError):
            distributed_reconstruct(dataset.expression, ["x"], n_ranks=2)
