"""All-pairs mutual information over a gene set (the tiled driver).

Given the ``(n, m, b)`` B-spline weight tensor of ``n`` genes, computes the
symmetric ``(n, n)`` MI matrix by iterating cache-blocked tiles of the upper
triangle (see :mod:`repro.core.tiling`) and dispatching one GEMM-formulated
kernel call per tile (:func:`repro.core.mi.mi_tile`).  Marginal entropies
are hoisted: computed once per gene, reused by every tile.

This driver is a thin configuration of the unified execution core
(:mod:`repro.core.exec`): an in-memory :class:`~repro.core.exec.TensorSource`
feeding a dense :class:`~repro.core.exec.DenseSink` through
:func:`~repro.core.exec.run_tile_plan`, which owns engine dispatch
(tolerant ``map`` variants), scheduling, progress and tracing.  This is exactly
the decomposition the paper distributes over the Phi's 240 hardware
threads, which write disjoint blocks of the MI matrix in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.entropy import joint_entropy_from_probs, marginal_entropies
from repro.core.exec import (
    DenseSink,
    PackedWeightSource,
    TensorSource,
    WeightSource,
    plan_tiles,
    resolve_kernel,
    run_tile_plan,
    worker_workspace,
)
from repro.core.mi import mi_tile, mi_tile_block, mi_tile_sparse_block
from repro.core.tiling import Tile, pair_count
from repro.parallel.engine import engine_kind

__all__ = ["MiMatrixResult", "compute_tile", "mi_matrix", "mi_pairs", "mi_row"]


@dataclass
class MiMatrixResult:
    """Output of :func:`mi_matrix`.

    Attributes
    ----------
    mi:
        ``(n, n)`` symmetric MI matrix with zero diagonal (self-MI is H(X),
        not useful for network edges, and is excluded by convention).
    marginal_entropy:
        ``(n,)`` per-gene marginal entropies (same log base as ``mi``).
    n_tiles, n_pairs:
        Workload bookkeeping, used by the benchmarks for throughput
        (pairs/second) reporting.
    quarantined:
        Tiles abandoned under a fault policy
        (:class:`repro.faults.policy.QuarantinedTile` records); empty in
        normal runs.  Their blocks are zero in ``mi``.
    """

    mi: np.ndarray
    marginal_entropy: np.ndarray
    n_tiles: int
    n_pairs: int
    quarantined: list = field(default_factory=list)

    @property
    def n_genes(self) -> int:
        return self.mi.shape[0]


def compute_tile(
    weights: np.ndarray,
    h: np.ndarray,
    t: Tile,
    base: str = "nat",
    workspace=None,
    kernel_dtype=None,
    kernel=None,
) -> np.ndarray:
    """Kernel for one tile: the ``(rows, cols)`` MI block.

    Module-level (not a closure) so process-based engines can pickle a
    reference to it and look the weight tensor up in worker-shared memory.
    ``kernel`` picks the tile variant: ``None``/``"fused"`` runs the fused
    workspace kernel (:func:`repro.core.mi.mi_tile_block`) against the
    process-cached hoisted operands, bit-identical to the legacy
    ``mi_tile`` path unless ``kernel_dtype`` selects mixed precision;
    ``"sparse"`` runs the packed compiled kernel
    (:func:`repro.core.mi.mi_tile_sparse_block`, ~1 ulp from ``mi_tile``
    in float64); ``"legacy"`` runs the plain GEMM path.  ``workspace``
    defaults to this worker's reused buffers.
    """
    ws = workspace if workspace is not None else worker_workspace()
    if kernel == "sparse":
        block = mi_tile_sparse_block(
            weights, t.i0, t.i1, t.j0, t.j1,
            h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1],
            base=base, workspace=ws, dtype=kernel_dtype,
        )
    elif kernel == "legacy":
        block = mi_tile(
            weights[t.i0 : t.i1], weights[t.j0 : t.j1],
            h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1], base=base,
        )
    else:
        block = mi_tile_block(
            weights, t.i0, t.i1, t.j0, t.j1,
            h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1],
            base=base, workspace=ws, dtype=kernel_dtype,
        )
    if t.is_diagonal:
        block[~t.pair_mask()] = 0.0
    return block


def _tile_kernel(source, h: np.ndarray, t: Tile, base: str, kernel_dtype=None,
                 kernel=None) -> np.ndarray:
    """Executor kernel routing through the patchable :func:`compute_tile`."""
    weights = getattr(source, "weights", None)
    if weights is None:  # non-tensor sources slab through the default kernel
        from repro.core.exec import default_kernel

        return default_kernel(source, h, t, base, kernel_dtype=kernel_dtype,
                              kernel=kernel)
    return compute_tile(weights, h, t, base, kernel_dtype=kernel_dtype,
                        kernel=kernel)


def mi_matrix(
    weights: "np.ndarray | WeightSource",
    tile: int | None = None,
    base: str = "nat",
    engine=None,
    progress=None,
    out: "np.ndarray | None" = None,
    tracer=None,
    schedule=None,
    policy=None,
    kernel_dtype=None,
    autotune: bool = False,
    kernel=None,
) -> MiMatrixResult:
    """Compute the full symmetric MI matrix of a gene set.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` B-spline weight tensor
        (:func:`repro.core.bspline.weight_tensor`), or a prepared
        :class:`repro.core.exec.WeightSource` (which carries cached
        marginal entropies across phases).
    tile:
        Tile edge; defaults to :func:`repro.core.tiling.default_tile_size`
        for the given ``(m, b)``.
    base:
        Entropy log base (``"nat"`` or ``"bit"``).
    engine:
        Optional execution engine; defaults to serial in-process execution.
        In-process engines (serial, thread) and the shared-memory engine
        have their workers write tile blocks straight into the output
        matrix; other fork and remote engines return blocks for a
        parent-side assembly loop.
    progress:
        Optional callback ``progress(done_tiles, total_tiles)``.  The
        serial path and in-process engines (``engine.in_process``) call it
        after *every* tile; fork-based engines split the grid into batches
        of a few tiles per worker and call it per batch — whole-genome runs
        take hours and deserve a live progress line, not one callback after
        the final tile.
    out:
        Optional preallocated ``(n, n)`` float64 output (e.g. a memmap or a
        :class:`repro.parallel.sharedmem.SharedArray` view) the matrix is
        computed into; allocated fresh when omitted.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  The whole computation
        runs under an ``mi_matrix`` span; each tile (in-process paths) or
        tile batch (fork paths) ticks the ``tiles_done`` / ``pairs_done``
        counters, so throughput over time is recoverable from the trace.
    schedule:
        Optional scheduling policy for the tile dispatch order: a name
        from :data:`repro.core.exec.SCHEDULE_NAMES` (``static``,
        ``cyclic``, ``dynamic``, ``cost``) or a
        :class:`repro.parallel.scheduler.SchedulerPolicy`; default is
        grid order (equivalent to dynamic chunk-1 pull).
    policy:
        Optional :class:`repro.faults.policy.FaultPolicy` for the tile
        dispatch (retries, timeouts, quarantine, engine fallback);
        ``None`` means no retries, no timeout, and a failed tile aborts
        the run with :class:`repro.faults.policy.FaultToleranceExceeded`.
    kernel_dtype:
        GEMM precision of the fused tile kernel: ``None`` (default) keeps
        the weight tensor's own precision and stays bit-identical to
        previous releases; ``"float32"`` runs the mixed-precision kernel
        (float32 GEMM, float64 entropy accumulation; MI error ~1e-6);
        ``"float64"`` forces a float64 GEMM.  An explicit setting also
        switches the default tile size to the fused kernel's calibrated
        cache model (:func:`repro.core.tiling.fused_tile_size`).
    autotune:
        Measure candidate tile sizes on a slab sample before the run and
        use the empirically fastest
        (:func:`repro.core.tiling.autotune_tile_size`); the winner is
        persisted per ``(m, b, dtype, engine, kernel, host)`` so later
        runs skip the measurement.  Ignored when ``tile`` is given
        explicitly.
    kernel:
        Tile kernel variant: ``None``/``"fused"`` (default, the GEMM
        workspace kernel), ``"legacy"`` (plain ``mi_tile``), ``"sparse"``
        (the compiled packed-weight kernel exploiting B-spline sparsity;
        float64 results within ~1 ulp of ``mi_tile``), or ``"auto"``
        (autotune the per-host winner across variants and tile sizes,
        persisted in the same sidecar).  Composes with ``kernel_dtype``.

    Returns
    -------
    MiMatrixResult
    """
    source = weights if isinstance(weights, WeightSource) else TensorSource(weights)
    engine_name = engine_kind(engine)
    kernel, tile_override = resolve_kernel(source, kernel,
                                           kernel_dtype=kernel_dtype,
                                           engine_name=engine_name, base=base)
    if tile is None and tile_override is not None:
        tile = tile_override
    if (kernel == "sparse" and engine_name == "elastic"
            and isinstance(source, TensorSource)):
        # Elastic workers receive the source by value: ship the ~k/b-sized
        # packed slabs instead of the dense tensor (metered by comm.bytes_sent).
        source = PackedWeightSource.from_source(source, base=base,
                                                dtype=kernel_dtype)
    plan = plan_tiles(source, tile=tile, base=base, schedule=schedule,
                      kernel_dtype=kernel_dtype, autotune=autotune,
                      engine_name=engine_name, kernel=kernel)
    sink = DenseSink(source.n_genes, out=out)
    # A partial, not a closure, so the task pickles for remote engines.
    task = functools.partial(_tile_kernel, kernel_dtype=kernel_dtype,
                             kernel=kernel)
    mi = run_tile_plan(plan, source, sink, engine=engine, tracer=tracer,
                       progress=progress, kernel=task, policy=policy,
                       kernel_dtype=kernel_dtype, kernel_variant=kernel)
    return MiMatrixResult(
        mi=mi,
        marginal_entropy=source.entropies(base),
        n_tiles=plan.n_tiles,
        n_pairs=plan.n_pairs,
        quarantined=sink.quarantined,
    )


def mi_row(
    weights: np.ndarray,
    gene: int,
    base: str = "nat",
    block: int = 256,
    h: "np.ndarray | None" = None,
) -> np.ndarray:
    """MI of one gene against every other gene (one matrix row).

    The incremental-update primitive: adding or re-annotating a single gene
    costs ``O(n * m * b^2)`` instead of recomputing the full ``O(n^2)``
    matrix.  ``out[gene]`` is 0 by the no-self-edge convention.

    ``h`` (optional) supplies precomputed per-gene marginal entropies in
    ``base``; callers maintaining a network incrementally cache them so
    each added gene costs one new entropy, not ``n`` recomputed ones.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight tensor, got shape {weights.shape}")
    n = weights.shape[0]
    if not 0 <= gene < n:
        raise ValueError(f"gene index {gene} out of range for {n} genes")
    if h is None:
        h = marginal_entropies(weights, base=base)
    elif np.asarray(h).shape != (n,):
        raise ValueError(f"expected ({n},) entropies, got shape {np.asarray(h).shape}")
    wg = weights[gene : gene + 1]
    out = np.empty(n, dtype=np.float64)
    for s in range(0, n, block):
        e = min(s + block, n)
        tile = mi_tile(wg, weights[s:e], h_i=h[gene : gene + 1], h_j=h[s:e], base=base)
        out[s:e] = tile[0]
    out[gene] = 0.0
    return out


def mi_pairs(
    weights: np.ndarray,
    pairs: np.ndarray,
    base: str = "nat",
    batch: int = 4096,
) -> np.ndarray:
    """MI of an explicit list of gene pairs (not the full matrix).

    Used by the permutation-null builder, which samples a subset of pairs.
    Processes pairs in batches with the same GEMM trick: a batch of pairs is
    a ``(B, b, m) @ (B, m, b)`` stacked matmul.

    Parameters
    ----------
    pairs:
        ``(P, 2)`` integer array of ``(i, j)`` gene indices.
    """
    weights = np.asarray(weights)
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"expected (P, 2) pair array, got shape {pairs.shape}")
    n, m, b = weights.shape
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("pair indices out of range")
    h = marginal_entropies(weights, base=base)
    out = np.empty(pairs.shape[0], dtype=np.float64)
    for s in range(0, pairs.shape[0], batch):
        chunk = pairs[s : s + batch]
        wi = weights[chunk[:, 0]].astype(np.float64, copy=False)
        wj = weights[chunk[:, 1]].astype(np.float64, copy=False)
        # (B, b, b) joint matrices via batched matmul over the sample axis.
        joint = np.matmul(wi.transpose(0, 2, 1), wj) / m
        h_joint = joint_entropy_from_probs(joint, base=base)
        out[s : s + chunk.shape[0]] = np.maximum(
            h[chunk[:, 0]] + h[chunk[:, 1]] - h_joint, 0.0
        )
    return out
