"""The distributed TINGe algorithm (Zola et al. 2010), executable.

The algorithm the paper's single-chip solution replaces, implemented over
the simulated MPI layer (:mod:`repro.cluster.comm`) so it *runs* — and is
verified against the serial pipeline — rather than existing only as a cost
formula:

1. **Distribute** — genes are block-partitioned; each rank rank-transforms
   and builds B-spline weights for its own genes only.
2. **Allgather** — weight slabs are replicated everywhere (the algorithm's
   one heavyweight collective; its measured byte volume is asserted against
   the alpha-beta model of :mod:`repro.baselines.cluster_tinge`).
3. **Compute** — the pair upper-triangle is tiled and tiles are assigned
   round-robin by tile index (the static-cyclic distribution the original
   TINGe uses); every rank computes only its tiles.
4. **Null + threshold** — each rank contributes a share of the pooled
   permutation null; an allreduce of the null histogram yields the global
   threshold; each rank thresholds its own blocks and a final gather
   assembles the edge list.

``distributed_reconstruct`` returns the same :class:`GeneNetwork` the
serial pipeline produces: a bit-identical MI matrix, and a null whose
values are bitwise the serial pool's (each rank evaluates its share of the
sampled pairs with :func:`repro.core.permutation.pair_nulls`), so under
the same seed the thresholds are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.comm import LockstepComm
from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.exec import MatrixSink, TensorSource, plan_tiles, run_tile_plan
from repro.core.network import GeneNetwork
from repro.core.permutation import pair_nulls
from repro.core.threshold import threshold_adjacency
from repro.core.tiling import Tile, pair_count
from repro.parallel.partition import block_partition
from repro.stats.quantile import upper_tail_threshold
from repro.stats.random import as_rng, permutation_matrix, sample_pairs

__all__ = ["DistributedRunInfo", "RankPartitionSink", "distributed_reconstruct"]


class RankPartitionSink(MatrixSink):
    """Per-rank partial MI matrices (the distributed TINGe layout).

    Each tile block lands in the partial matrix of the rank the plan's
    cyclic policy assigned it to; cells are disjoint across ranks, so an
    element-wise allreduce later assembles the full matrix.  ``finalize``
    returns the partials — the allreduce is the caller's (collective)
    concern, not the sink's.
    """

    grain = "matrix"
    span_name = None

    def __init__(self, n: int, n_ranks: int, rank_of: np.ndarray):
        self.partials = [np.zeros((n, n), dtype=np.float64) for _ in range(n_ranks)]
        self.tiles_per_rank = [0] * n_ranks
        self.rank_of = rank_of

    def put(self, idx: int, t: Tile, block: np.ndarray) -> None:
        r = int(self.rank_of[idx])
        self.tiles_per_rank[r] += 1
        self.partials[r][t.i0 : t.i1, t.j0 : t.j1] = block

    def finalize(self, completed: bool = True) -> list:
        return self.partials


@dataclass
class DistributedRunInfo:
    """What a distributed run did, beyond the network itself.

    Attributes
    ----------
    network:
        The reconstructed :class:`GeneNetwork` (assembled on rank 0).
    mi:
        The full MI matrix (identical to the serial pipeline's).
    threshold:
        Global ``I_alpha``.
    n_ranks:
        Ranks used.
    comm_volume_bytes:
        Metered wire bytes across all collectives.
    comm_calls:
        Per-collective call counts.
    tiles_per_rank:
        Tile counts per rank (the load-balance evidence).
    lost_ranks:
        Ranks declared lost before the compute superstep (empty normally).
    reassigned_tiles:
        Tiles originally owned by lost ranks, redistributed round-robin
        over the survivors.
    quarantined:
        Tiles abandoned under a fault policy
        (:class:`repro.faults.policy.QuarantinedTile` records).
    """

    network: GeneNetwork
    mi: np.ndarray
    threshold: float
    n_ranks: int
    comm_volume_bytes: float
    comm_calls: dict
    tiles_per_rank: list
    lost_ranks: tuple = ()
    reassigned_tiles: int = 0
    quarantined: list = field(default_factory=list)


def distributed_reconstruct(
    data: np.ndarray,
    genes: "list[str] | None" = None,
    n_ranks: int = 4,
    bins: int = 10,
    order: int = 3,
    n_permutations: int = 30,
    n_null_pairs: int = 200,
    alpha: float = 0.01,
    tile: int | None = None,
    dtype: str = "float64",
    seed: "int | None" = 0,
    engine=None,
    policy=None,
    lost_ranks=(),
    tracer=None,
    backend: str = "lockstep",
) -> DistributedRunInfo:
    """Run the distributed TINGe algorithm on ``n_ranks`` simulated ranks.

    Parameters mirror :class:`repro.core.pipeline.TingeConfig` where they
    overlap.  Raises on degenerate inputs exactly like the serial pipeline.

    ``engine`` / ``policy`` / ``tracer`` are forwarded to the executor
    running the compute superstep (:func:`repro.core.exec.run_tile_plan`),
    so each rank's tile share can itself be parallel and fault-tolerant.

    ``lost_ranks`` simulates rank failure after the weight allgather (the
    point where replication makes loss recoverable — every survivor holds
    the full tensor): lost ranks' tiles are reassigned round-robin over
    the survivors, their null shares are re-partitioned, and they
    contribute ``None`` to every later collective.  The network is
    bit-identical to the no-loss run; at least one rank must survive.

    ``backend`` selects the distribution substrate: ``"lockstep"`` (the
    default) runs the bulk-synchronous simulation above; ``"elastic"``
    runs the compute superstep over ``n_ranks`` real worker *processes*
    through :class:`repro.cluster.elastic.ElasticEngine` — dynamic
    membership instead of fixed ranks, with ``lost_ranks`` rejected
    (elastic loss is a runtime event, not a configuration) and the same
    seeded null sequence, so the network is bit-identical to the
    lockstep and serial paths.
    """
    if backend not in ("lockstep", "elastic"):
        raise ValueError(
            f"backend must be 'lockstep' or 'elastic', got {backend!r}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (genes, samples) matrix, got shape {data.shape}")
    n, m = data.shape
    if n < 2:
        raise ValueError(f"need at least 2 genes, got {n}")
    if genes is None:
        genes = [f"G{i:05d}" for i in range(n)]
    if len(genes) != n:
        raise ValueError(f"{len(genes)} gene names for {n} genes")
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    lost = tuple(sorted({int(r) for r in lost_ranks}))
    for r in lost:
        if not 0 <= r < n_ranks:
            raise ValueError(f"lost rank {r} out of range for {n_ranks} ranks")
    if len(lost) >= n_ranks:
        raise ValueError(
            f"cannot lose all {n_ranks} ranks: at least one must survive"
        )

    if backend == "elastic":
        if lost:
            raise ValueError(
                "lost_ranks is a lockstep simulation knob; elastic worker "
                "loss happens at runtime (kill the worker process)")
        if engine is not None:
            raise ValueError(
                "backend='elastic' builds its own engine; do not pass one")
        return _elastic_reconstruct(
            data, genes, n_workers=n_ranks, bins=bins, order=order,
            n_permutations=n_permutations, n_null_pairs=n_null_pairs,
            alpha=alpha, tile=tile, dtype=dtype, seed=seed, policy=policy,
            tracer=tracer)

    comm = LockstepComm(n_ranks)
    np_dtype = np.dtype(dtype)

    # ------------------------------------------------------------------
    # Superstep 1: scatter gene blocks; each rank builds its local weights.
    # (The expression matrix starts on rank 0, as in the original tool.)
    gene_blocks = block_partition(n, n_ranks)
    local_rows = comm.scatter([data[idx] for idx in gene_blocks], root=0)
    local_weights = [
        weight_tensor(rank_transform(rows), bins, order, np_dtype)
        if rows.shape[0]
        else np.empty((0, m, bins), dtype=np_dtype)
        for rows in local_rows
    ]

    # ------------------------------------------------------------------
    # Superstep 2: allgather the weight slabs — every rank now holds all
    # weights (TINGe's memory-for-communication tradeoff).
    gathered = comm.allgather(local_weights)
    weights_full = [np.concatenate(slabs, axis=0) for slabs in gathered]

    # ------------------------------------------------------------------
    # Superstep 3: each rank computes its cyclic share of the tiles,
    # expressed as one executor run.  The weight replicas are identical
    # (that's what the allgather bought), so the plan draws slabs and
    # hoisted entropies from a single source; the cyclic policy's static
    # assignment decides which rank's partial matrix each tile lands in —
    # the static-cyclic distribution the original TINGe uses.
    source = TensorSource(weights_full[0])
    plan = plan_tiles(source, tile=tile, schedule="cyclic")
    rank_of = np.empty(plan.n_tiles, dtype=np.intp)
    for r, idxs in enumerate(plan.policy.static_assignment(plan.n_tiles, n_ranks)):
        rank_of[np.asarray(idxs, dtype=np.intp)] = r

    # Rank loss happens here, after the allgather: every survivor holds the
    # full weight replica, so the lost ranks' tiles are simply reassigned
    # round-robin over the survivors (preserving cyclic-style balance).
    for r in lost:
        comm.mark_failed(r)
    survivors = comm.alive
    reassigned = 0
    if lost:
        lost_set = set(lost)
        for idx in range(plan.n_tiles):
            if int(rank_of[idx]) in lost_set:
                rank_of[idx] = survivors[reassigned % len(survivors)]
                reassigned += 1

    sink = RankPartitionSink(n, n_ranks, rank_of)
    partial_mi = run_tile_plan(plan, source, sink, engine=engine,
                               tracer=tracer, policy=policy)
    tiles_per_rank = sink.tiles_per_rank

    # Assemble the full MI matrix: element-wise allreduce of the disjoint
    # partial matrices (each cell written by exactly one rank; lost ranks
    # contribute None and are skipped by the tolerant collective).
    contrib = [None if r in comm.failed else partial_mi[r] for r in range(n_ranks)]
    mi_all = comm.allreduce(contrib, op=np.add)
    mi = mi_all[0]
    iu = np.triu_indices(n, k=1)
    mi[(iu[1], iu[0])] = mi[iu]
    np.fill_diagonal(mi, 0.0)

    # ------------------------------------------------------------------
    # Superstep 4: pooled null, rank-partitioned.  The same seeded streams
    # as the serial pooled_null: pairs then permutations, so the threshold
    # is reproducible; ranks each evaluate a contiguous share of the pairs.
    rng = as_rng(seed)
    n_pairs = min(n_null_pairs, pair_count(n))
    pairs = sample_pairs(n, n_pairs, rng)
    perms = permutation_matrix(n_permutations, m, rng)
    # Pairs are re-partitioned over the *survivors* in rank order, so the
    # concatenated null sequence — contiguous pair blocks, ascending rank —
    # is identical with or without rank loss, and so is the threshold.
    # Each survivor runs the pooled null's own pair kernel on its block, so
    # every null value is bitwise the serial pool's.
    pair_blocks = block_partition(n_pairs, len(survivors))
    null_parts: list = [None] * n_ranks
    for k, r in enumerate(survivors):
        mis, _route = pair_nulls(weights_full[r], pairs[pair_blocks[k]], perms)
        null_parts[r] = mis.ravel()
    # Allgather (small) null shares; every rank derives the same threshold.
    null_all = comm.allgather(null_parts)
    null = np.concatenate([p for p in null_all[0] if p is not None])
    threshold = upper_tail_threshold(null, alpha, n_tests=pair_count(n))

    # ------------------------------------------------------------------
    # Superstep 5: rank 0 assembles the network (gather of edge blocks is
    # subsumed by the earlier allreduce in this in-process setting; the
    # gather call is issued for faithful collective accounting).
    comm.gather(
        [None if r in comm.failed else np.count_nonzero(partial_mi[r] > threshold)
         for r in range(n_ranks)],
        root=0,
    )
    adjacency = threshold_adjacency(mi, threshold)
    network = GeneNetwork(adjacency=adjacency, weights=mi, genes=list(genes),
                          threshold=threshold)
    return DistributedRunInfo(
        network=network,
        mi=mi,
        threshold=threshold,
        n_ranks=n_ranks,
        comm_volume_bytes=comm.meter.volume_bytes,
        comm_calls=dict(comm.meter.calls),
        tiles_per_rank=tiles_per_rank,
        lost_ranks=lost,
        reassigned_tiles=reassigned,
        quarantined=sink.quarantined,
    )


def _elastic_reconstruct(
    data: np.ndarray,
    genes: list,
    n_workers: int,
    bins: int,
    order: int,
    n_permutations: int,
    n_null_pairs: int,
    alpha: float,
    tile: "int | None",
    dtype: str,
    seed,
    policy,
    tracer,
) -> DistributedRunInfo:
    """The elastic form of the distributed run: a thin engine configuration.

    Where the lockstep backend *simulates* ranks with explicit supersteps,
    this is just :func:`repro.core.exec.run_tile_plan` over an
    :class:`~repro.cluster.elastic.ElasticEngine` — weights build on the
    coordinator, the task payload (weights included) broadcasts once per
    worker, tiles shard across live membership, and results commit by
    plan index.  The null uses the exact seeded sequence the lockstep
    path evaluates (pairs in sample order × permutations in draw order),
    so MI matrix *and* threshold are bit-identical across serial,
    lockstep, and elastic — regardless of worker churn mid-run.
    """
    from repro.cluster.elastic import ElasticEngine
    from repro.core.exec import DenseSink

    n, m = data.shape
    np_dtype = np.dtype(dtype)
    weights = weight_tensor(rank_transform(data), bins, order, np_dtype)
    source = TensorSource(weights)
    plan = plan_tiles(source, tile=tile, schedule="cyclic")

    engine = ElasticEngine(n_workers=n_workers, tracer=tracer)
    try:
        sink = DenseSink(n)
        mi = run_tile_plan(plan, source, sink, engine=engine, tracer=tracer,
                           policy=policy)
        owners = engine.last_graph.owners() if engine.last_graph else {}
        meter = engine.meter
        comm_volume = meter.volume_bytes
        comm_calls = dict(meter.calls)
    finally:
        engine.close()

    # Same seeded null sequence as the lockstep path (pairs in sampling
    # order, permutations in draw order) — same threshold, bit for bit.
    rng = as_rng(seed)
    n_pairs = min(n_null_pairs, pair_count(n))
    pairs = sample_pairs(n, n_pairs, rng)
    perms = permutation_matrix(n_permutations, m, rng)
    mis, _route = pair_nulls(weights, pairs, perms)
    null = mis.ravel()
    threshold = upper_tail_threshold(null, alpha, n_tests=pair_count(n))

    adjacency = threshold_adjacency(mi, threshold)
    network = GeneNetwork(adjacency=adjacency, weights=mi, genes=list(genes),
                          threshold=threshold)
    return DistributedRunInfo(
        network=network,
        mi=mi,
        threshold=threshold,
        n_ranks=n_workers,
        comm_volume_bytes=comm_volume,
        comm_calls=comm_calls,
        tiles_per_rank=[owners.get(w, 0) for w in sorted(owners)],
        lost_ranks=(),
        reassigned_tiles=engine.last_graph.reassigned if engine.last_graph else 0,
        quarantined=sink.quarantined,
    )
