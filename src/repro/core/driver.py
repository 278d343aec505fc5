"""Auto-strategy whole-genome driver.

The integration layer a production user actually calls: given the data, a
memory budget and a working directory, it picks the execution strategy
(in-memory / checkpointed / out-of-core) the way an operator would, runs
the reconstruction, and leaves behind the artifacts a reproducible run
needs (network, edge list, provenance record, checkpoint ledger).

Strategy selection mirrors :func:`repro.machine.memory.memory_plan`:

* everything fits comfortably        → the plain in-memory pipeline;
* weights fit but the run is long    → block-row checkpointing
  (``checkpoint=True`` or a gene count above ``checkpoint_threshold``);
* weights exceed the budget          → the out-of-core path (weights and
  MI matrix on disk, streamed block-rows).

The statistical stages (null, threshold) are identical across strategies,
so every path yields the same network for the same seed — asserted by the
test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from pathlib import Path

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import CheckpointSink
from repro.core.discretize import preprocess
from repro.core.exec import (
    DenseSink,
    MmapSource,
    TensorSource,
    plan_tiles,
    run_tile_plan,
)
from repro.core.network import GeneNetwork
from repro.core.outofcore import MmapMatrixSink, build_weight_store
from repro.core.permutation import pooled_null
from repro.core.pipeline import TingeConfig
from repro.core.threshold import threshold_adjacency
from repro.core.tiling import pair_count

__all__ = ["AutoRunResult", "auto_reconstruct"]

# The pooled-threshold strategies share one global null quantile, so only
# corrections expressible as a single adjusted alpha are supported here.
# ``"bh"`` needs per-edge p-values — use reconstruct_network for that path.
_SUPPORTED_CORRECTIONS = ("bonferroni", "none")

# Genes whose weights seed the out-of-core pooled null; beyond this the
# driver samples a random subset (with the run's seed) instead of loading
# every gene's weights into RAM.
_NULL_GENE_CAP = 2048


@dataclass
class AutoRunResult:
    """Outcome of an auto-strategy run.

    Attributes
    ----------
    network:
        The reconstructed network.
    strategy:
        ``"in-memory"``, ``"checkpointed"``, or ``"out-of-core"``.
    seconds:
        Wall-clock for the whole run.
    artifacts:
        Paths written (network, edge list, provenance, stores), by name.
    quarantined:
        Tiles abandoned under a fault policy
        (:class:`repro.faults.policy.QuarantinedTile` records); empty in
        normal runs.
    """

    network: GeneNetwork
    strategy: str
    seconds: float
    artifacts: dict
    quarantined: list = dataclasses_field(default_factory=list)


def _weights_bytes(n: int, m: int, bins: int, dtype: str) -> float:
    return float(n) * m * bins * np.dtype(dtype).itemsize


def _null_gene_subset(n: int, cap: int, seed) -> np.ndarray:
    """Sorted gene indices whose weights seed the out-of-core pooled null.

    All genes when ``n <= cap`` (matching the in-memory path exactly);
    otherwise a uniform random subset drawn with the run's seed — a
    contiguous prefix would be biased for genome-ordered inputs, where
    neighbouring genes are correlated.  Sorted for memmap read locality.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    if n <= cap:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=cap, replace=False))


def auto_reconstruct(
    data: np.ndarray,
    genes: "list[str] | None" = None,
    config: "TingeConfig | None" = None,
    workdir: "str | Path | None" = None,
    mem_budget_gb: float = 4.0,
    checkpoint: "bool | None" = None,
    checkpoint_threshold: int = 4000,
    engine=None,
    tracer=None,
    progress=None,
    policy=None,
) -> AutoRunResult:
    """Reconstruct with automatically chosen residency strategy.

    Parameters
    ----------
    data, genes, config:
        As in :func:`repro.core.pipeline.reconstruct_network` (pooled
        testing only — the strategies differ in how the MI matrix is
        computed, which exact mode fuses differently).

        Correction support: every strategy here thresholds against one
        pooled null quantile, so only ``config.correction`` values of
        ``"bonferroni"`` (family-wise, the TINGe default) and ``"none"``
        (per-test alpha) are accepted.  ``"bh"`` requires per-edge
        p-values and is rejected with a ValueError — run
        :func:`repro.core.pipeline.reconstruct_network` for the FDR path.
    workdir:
        Directory for artifacts; required for the checkpointed and
        out-of-core strategies (a ValueError names the reason otherwise).
    mem_budget_gb:
        Memory the weight tensor may occupy in RAM.
    checkpoint:
        Force checkpointing on/off; default: on for runs with more than
        ``checkpoint_threshold`` genes.
    engine:
        Optional execution engine (:mod:`repro.parallel.engine`) for the
        all-pairs MI stage of whichever strategy is chosen.  In-process
        and shared-memory engines write tile blocks into the output in
        place; other fork and remote engines return them by pickling.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer` forwarded to whichever
        MI driver the strategy selects (and, via the engine, to the worker
        metrics); the null phase dispatches through the engine as well, so
        a traced run records every phase regardless of strategy.
    progress:
        Optional ``progress(done, total)`` callback — tile-granular for
        the in-memory and out-of-core strategies, row-granular for the
        checkpointed one.
    policy:
        Optional :class:`repro.faults.policy.FaultPolicy` for the MI
        stage; defaults to the policy implied by the config's
        ``max_retries`` / ``task_timeout`` / ``on_fault`` fields.  Outside
        ``on_fault="raise"``, quarantined tiles are reported on the result
        instead of aborting the run.
    """
    config = config or TingeConfig()
    if policy is None:
        policy = config.fault_policy()
    if config.testing != "pooled":
        raise ValueError("auto_reconstruct supports pooled testing only")
    if config.correction not in _SUPPORTED_CORRECTIONS:
        raise ValueError(
            f"auto_reconstruct does not support correction={config.correction!r}: "
            "the pooled-threshold strategies support only "
            f"{_SUPPORTED_CORRECTIONS} (correction='bh' needs per-edge "
            "p-values; use repro.core.pipeline.reconstruct_network instead)"
        )
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (genes, samples) matrix, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("expression data contains NaN/inf; impute first")
    n, m = data.shape
    if n < 2:
        raise ValueError(f"need at least 2 genes, got {n}")
    if genes is None:
        genes = [f"G{i:05d}" for i in range(n)]
    if mem_budget_gb <= 0:
        raise ValueError("mem_budget_gb must be positive")
    workdir = Path(workdir) if workdir is not None else None

    fits = _weights_bytes(n, m, config.bins, config.dtype) <= mem_budget_gb * 1e9
    if checkpoint is None:
        checkpoint = n > checkpoint_threshold
    if fits and not checkpoint:
        strategy = "in-memory"
    elif fits:
        strategy = "checkpointed"
    else:
        strategy = "out-of-core"
    if strategy != "in-memory" and workdir is None:
        raise ValueError(f"strategy {strategy!r} needs a workdir for its artifacts")
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    transformed = preprocess(data, config.transform)
    artifacts: dict = {}

    # Every strategy is the same executor run over a different
    # (source, sink) pair; only weight residency and output storage differ.
    if strategy == "out-of-core":
        wpath = build_weight_store(
            transformed, workdir / "weights", bins=config.bins,
            order=config.order, dtype=config.dtype,
        )
        artifacts["weight_store"] = wpath
        source = MmapSource(wpath)
    else:
        weights = weight_tensor(transformed, config.bins, config.order,
                                np.dtype(config.dtype))
        source = TensorSource(weights)
    plan = plan_tiles(source, tile=config.tile, base=config.base,
                      schedule=config.schedule)
    if strategy == "out-of-core":
        sink = MmapMatrixSink(workdir / "mi", source.n_genes)
        artifacts["mi_store"] = sink.out_path
    elif strategy == "checkpointed":
        ck = workdir / "checkpoint"
        sink = CheckpointSink(ck, plan, source.fingerprint())
        artifacts["checkpoint_dir"] = ck
    else:
        sink = DenseSink(source.n_genes)

    # The null phase is strategy-independent statistics; only which
    # weights seed it differs.  Out of core it needs a bounded subset:
    # every gene when small enough, otherwise a seeded random sample (a
    # contiguous prefix would bias the null for genome-ordered data).
    if strategy == "out-of-core":
        weights_view = np.load(wpath, mmap_mode="r")
        try:
            subset = _null_gene_subset(n, _NULL_GENE_CAP, config.seed)
            null_weights = np.asarray(weights_view[subset], dtype=np.float64)
        finally:
            mmap_handle = getattr(weights_view, "_mmap", None)
            del weights_view
            if mmap_handle is not None:
                mmap_handle.close()
        null = pooled_null(
            null_weights,
            config.n_permutations,
            min(config.n_null_pairs, pair_count(n)),
            config.seed, config.base, engine,
        )
        del null_weights
    else:
        null = pooled_null(
            weights, config.n_permutations,
            min(config.n_null_pairs, pair_count(n)), config.seed, config.base,
            engine,
        )

    try:
        result = run_tile_plan(plan, source, sink, engine=engine,
                               tracer=tracer, progress=progress, policy=policy)
    finally:
        source.close()
    if strategy == "out-of-core":
        mi = np.asarray(np.load(result, mmap_mode="r"))
    else:
        mi = result

    threshold = null.threshold(config.alpha, n_tests=pair_count(n),
                               correction=config.correction)
    network = GeneNetwork(
        adjacency=threshold_adjacency(mi, threshold),
        weights=mi, genes=list(genes), threshold=threshold,
    )
    seconds = time.perf_counter() - t0

    if workdir is not None:
        net_path = workdir / "network.npz"
        network.save(net_path)
        artifacts["network"] = net_path
        from repro.data.io import write_edge_list

        edges_path = workdir / "edges.tsv"
        write_edge_list(network.edge_list(), edges_path)
        artifacts["edges"] = edges_path
    return AutoRunResult(
        network=network, strategy=strategy, seconds=seconds, artifacts=artifacts,
        quarantined=sink.quarantined,
    )
