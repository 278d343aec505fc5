"""Unified tile-execution core: one executor behind every MI driver.

The paper's central decomposition — independent upper-triangle tiles of
the MI matrix, scheduled across many workers — used to be re-implemented
by each driver (in-memory, checkpointed, out-of-core, distributed), each
with its own weight access, entropy hoisting and output writing.  This
module factors that loop into three small protocols plus one executor:

* :class:`WeightSource` — where the ``(n, m, b)`` weight tensor lives and
  how a block-row slab of it is produced (in-memory tensor, mmap store).
  The source also owns the hoisted per-gene marginal entropies and the
  tensor fingerprint, so neither is recomputed per driver.
* :class:`MatrixSink` — where tile blocks go: a dense ``(n, n)`` array,
  a checkpointed block ledger, a memory-mapped matrix, or per-rank
  partial matrices.  Sinks declare their *grain* (whole-matrix or
  block-row) and the executor adapts its dispatch to it.
* :class:`TilePlan` — the tile grid plus the schedule: a
  :class:`repro.parallel.scheduler.SchedulerPolicy` orders real dispatch
  (with per-tile costs for the cost-model policies), not just the
  simulator's replay.

:func:`run_tile_plan` then owns tile iteration, tolerant engine dispatch
(validation, retries, quarantine, fork-engine batching and shared-memory
staging), progress reporting and span/counter emission — identically for
every driver, so a new backend is one new protocol implementation, not a
fourth fork of the loop.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from dataclasses import asdict, is_dataclass
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    KERNEL_NAMES,
    TileWorkspace,
    _resolve_kernel_dtype,
    mi_tile,
    mi_tile_into,
    mi_tile_sparse,
    mi_tile_sparse_packed,
    prepare_operands,
)
from repro.core.sparsekernel import PACK_LANES, prepare_packed
from repro.core.tiling import (
    Tile,
    autotune_tile_size,
    default_tile_size,
    fused_tile_size,
    pair_count,
    tile_grid,
)
from repro.faults.policy import FaultPolicy, FaultToleranceExceeded, QuarantinedTile
from repro.obs.tracer import NULL_TRACER
from repro.parallel.engine import (
    EngineFailure,
    SerialEngine,
    SharedMemoryEngine,
    WorkerLocal,
    fallback_engine,
)
from repro.parallel.scheduler import (
    DynamicScheduler,
    LptScheduler,
    SchedulerPolicy,
    make_scheduler,
)
from repro.parallel.sharedmem import SharedArray

__all__ = [
    "SCHEDULE_NAMES",
    "DenseSink",
    "MatrixSink",
    "MmapSource",
    "PackedWeightSource",
    "TensorSource",
    "TilePlan",
    "WeightSource",
    "filter_plan",
    "plan_tiles",
    "resolve_kernel",
    "result_cache_key",
    "run_tile_plan",
    "schedule_policy",
    "weights_fingerprint",
]

# Schedule names accepted by config/CLI.  "cost" is the LPT oracle: the
# plan orders tiles by descending kernel cost (n_elements), which a
# greedy puller turns into the classic LPT assignment.
SCHEDULE_NAMES = ("static", "cyclic", "dynamic", "cost")


def weights_fingerprint(weights: np.ndarray) -> str:
    """Cheap, deterministic fingerprint of a weight tensor.

    Hashes shape/dtype and a strided subsample (hashing 2 GB fully would
    cost more than a tile); collisions across *different experiments* are
    what matter, and shape+samples make those practically impossible.
    Shared by the checkpoint ledger and the out-of-core store header.
    """
    h = hashlib.sha256()
    h.update(str(weights.shape).encode())
    h.update(str(weights.dtype).encode())
    flat = weights.reshape(-1)
    stride = max(flat.size // 65536, 1)
    h.update(np.ascontiguousarray(flat[::stride]).tobytes())
    return h.hexdigest()[:32]


def result_cache_key(fingerprint: str, config) -> str:
    """Deterministic identity of one ``(weight tensor, config)`` result.

    The serve layer's cache key: the :meth:`WeightSource.fingerprint` of
    the input tensor (which already encodes the dataset *and* the
    preprocessing that produced the weights) combined with a canonical
    JSON rendering of the reconstruction config.  Two submissions with
    the same key are guaranteed to produce the same network, so the cache
    can return the stored result without running a single tile.

    ``config`` may be a dataclass (e.g. ``TingeConfig``) or any
    JSON-serializable mapping.
    """
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    payload = json.dumps(config, sort_keys=True, default=str)
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(b"\x00")
    h.update(payload.encode())
    return h.hexdigest()[:32]


def schedule_policy(schedule) -> "SchedulerPolicy | None":
    """Resolve a schedule name (or policy instance) to a plan policy.

    ``None``/``"dynamic"`` map to the paper's default dynamic
    self-scheduling with chunk 1; ``"cost"`` maps to the LPT oracle,
    which needs the per-tile costs only the plan knows.
    """
    if schedule is None:
        return None
    if isinstance(schedule, SchedulerPolicy):
        return schedule
    if schedule == "dynamic":
        return DynamicScheduler(chunk=1)
    if schedule == "cost":
        return LptScheduler()
    if schedule in ("static", "cyclic"):
        return make_scheduler(schedule)
    raise ValueError(
        f"unknown schedule {schedule!r}; choose from {sorted(SCHEDULE_NAMES)}"
    )


# ---------------------------------------------------------------------------
# Weight sources
# ---------------------------------------------------------------------------


class WeightSource:
    """Where the ``(n, m, b)`` weight tensor lives.

    Subclasses provide :meth:`slab`; marginal entropies (per log base) and
    the tensor fingerprint are computed once here and cached, so every
    consumer — the MI pass, the exact tester, the checkpoint ledger —
    reuses the same arrays instead of recomputing them per driver.
    """

    n_genes: int
    m_samples: int
    bins: int
    dtype: np.dtype

    def __init__(self) -> None:
        self._entropies: dict = {}
        self._fingerprint: "str | None" = None

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    def slab(self, a: int, b: int) -> np.ndarray:
        """The ``weights[a:b]`` block-row, in the dtype the kernel expects."""
        raise NotImplementedError

    def entropies(self, base: str = "nat") -> np.ndarray:
        """Per-gene marginal entropies, computed once per base and cached."""
        if base not in self._entropies:
            self._entropies[base] = self._compute_entropies(base)
        return self._entropies[base]

    def _compute_entropies(self, base: str) -> np.ndarray:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Cached :func:`weights_fingerprint` of the underlying tensor."""
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any file handles (no-op for in-memory sources)."""


def _check_tensor_shape(weights: np.ndarray) -> None:
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight tensor, got shape {weights.shape}")
    if weights.shape[0] < 2:
        raise ValueError(f"need at least 2 genes, got {weights.shape[0]}")


class TensorSource(WeightSource):
    """In-memory weight tensor (the common case)."""

    def __init__(self, weights: np.ndarray):
        super().__init__()
        weights = np.asarray(weights)
        _check_tensor_shape(weights)
        self.weights = weights
        self.n_genes, self.m_samples, self.bins = weights.shape
        self.dtype = weights.dtype

    def slab(self, a: int, b: int) -> np.ndarray:
        return self.weights[a:b]

    def _compute_entropies(self, base: str) -> np.ndarray:
        return marginal_entropies(self.weights, base=base)

    def _compute_fingerprint(self) -> str:
        return weights_fingerprint(self.weights)


class MmapSource(WeightSource):
    """Memory-mapped weight store written by
    :func:`repro.core.outofcore.build_weight_store`.

    Slabs are materialized block-row by block-row as float64 (the kernel
    precision), never the whole tensor; marginal entropies stream through
    the same block granularity.  Entropies are per-gene, so the streaming
    pass is bit-identical to a whole-tensor one.
    """

    def __init__(self, path, entropy_block: int = 256):
        super().__init__()
        self.path = path
        self._weights = np.load(path, mmap_mode="r")
        if self._weights.ndim != 3:
            raise ValueError(
                f"weight store has shape {self._weights.shape}, expected 3-D"
            )
        self.n_genes, self.m_samples, self.bins = self._weights.shape
        if self.n_genes < 2:
            raise ValueError(f"need at least 2 genes, got {self.n_genes}")
        self.dtype = self._weights.dtype
        self._entropy_block = max(int(entropy_block), 1)

    def slab(self, a: int, b: int) -> np.ndarray:
        return np.asarray(self._weights[a:b], dtype=np.float64)

    def _compute_entropies(self, base: str) -> np.ndarray:
        h = np.empty(self.n_genes, dtype=np.float64)
        for s in range(0, self.n_genes, self._entropy_block):
            e = min(s + self._entropy_block, self.n_genes)
            h[s:e] = marginal_entropies(self.slab(s, e), base=base)
        return h

    def _compute_fingerprint(self) -> str:
        return weights_fingerprint(self._weights)

    def close(self) -> None:
        """Release the mmap handle (important before deleting the file)."""
        handle = getattr(self._weights, "_mmap", None)
        self._weights = None
        if handle is not None:
            handle.close()


class PackedWeightSource(WeightSource):
    """Weight source carrying only the sparse packed layout.

    Each sample has at most ``span`` (the spline order ``k``) non-zero
    weights, so the packed ``(values, first)`` form is
    ``(span * itemsize + 4) / (b * itemsize)`` the size of the dense
    tensor — 28/80 at the paper's ``b=10, k=3`` float64 config.  The MI
    driver wraps a :class:`TensorSource` in this class for serializing
    engines (elastic) when the sparse kernel is selected, so remote task
    closures ship the small layout (metered by the transport's
    ``comm.bytes_sent`` counters) and workers scatter from it directly;
    no worker ever reconstructs the dense tensor on the kernel path.

    Marginal entropies and the dense tensor's fingerprint are computed at
    wrap time and carried along, so cache keys and thresholds are
    identical to the dense run's.  :meth:`slab` reconstructs dense rows on
    demand — only non-sparse fallback paths (e.g. a quarantine retry
    through the fused kernel) pay that cost.
    """

    def __init__(
        self,
        values: np.ndarray,
        first: np.ndarray,
        span: int,
        bins: int,
        entropies: "dict | None" = None,
        fingerprint: "str | None" = None,
    ):
        super().__init__()
        values = np.asarray(values)
        first = np.asarray(first, dtype=np.int32)
        if values.ndim != 3 or first.shape != values.shape[:2]:
            raise ValueError(
                f"inconsistent packed source: values {values.shape}, first {first.shape}")
        if not 1 <= span <= values.shape[2] <= PACK_LANES:
            raise ValueError(f"span {span} / lane count {values.shape[2]} out of range")
        self.n_genes, self.m_samples = values.shape[:2]
        self.bins = int(bins)
        self.span = int(span)
        self.dtype = values.dtype
        # Transport form: tight lanes only.  The padded kernel form is
        # materialized lazily per process (and dropped from pickles).
        self._values = np.ascontiguousarray(values[:, :, : self.span])
        self._first = np.ascontiguousarray(first)
        self._padded: "np.ndarray | None" = None
        if entropies:
            self._entropies.update(entropies)
        self._fingerprint = fingerprint

    @classmethod
    def from_source(cls, source: WeightSource, base: str = "nat", dtype=None):
        """Pack a dense source, carrying its entropies and fingerprint."""
        weights = getattr(source, "weights", None)
        if weights is None:
            weights = source.slab(0, source.n_genes)
        dt, _ = _resolve_kernel_dtype(dtype, weights.dtype)
        values, first, span = prepare_packed(weights, dt)
        return cls(values, first, span, source.bins,
                   entropies={base: source.entropies(base)},
                   fingerprint=source.fingerprint())

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_padded"] = None  # rebuilt per worker; never shipped
        return state

    def packed(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The padded kernel operands ``(values, first, span)``."""
        if self._padded is None:
            if self._values.shape[2] == PACK_LANES:
                self._padded = self._values
            else:
                padded = np.zeros(
                    (self.n_genes, self.m_samples, PACK_LANES), dtype=self.dtype)
                padded[:, :, : self.span] = self._values
                self._padded = padded
        return self._padded, self._first, self.span

    def slab(self, a: int, b: int) -> np.ndarray:
        """Dense reconstruction of rows ``[a, b)`` (fallback paths only)."""
        rows = b - a
        w = np.zeros((rows, self.m_samples, self.bins), dtype=self.dtype)
        cols = (self._first[a:b, :, None]
                + np.arange(self.span, dtype=np.int32)[None, None, :])
        np.put_along_axis(w, cols.astype(np.intp), self._values[a:b], axis=2)
        return w

    def _compute_entropies(self, base: str) -> np.ndarray:
        h = np.empty(self.n_genes, dtype=np.float64)
        step = 256
        for s in range(0, self.n_genes, step):
            e = min(s + step, self.n_genes)
            h[s:e] = marginal_entropies(self.slab(s, e), base=base)
        return h

    def _compute_fingerprint(self) -> str:
        # Normally carried from the dense source at wrap time; a source
        # built directly from packed arrays hashes the packed layout
        # (tagged so it can never collide with a dense fingerprint).
        h = hashlib.sha256(b"packed\x00")
        h.update(str((self.n_genes, self.m_samples, self.bins, self.span)).encode())
        h.update(str(self.dtype).encode())
        h.update(self._values.tobytes())
        h.update(self._first.tobytes())
        return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Tile plans
# ---------------------------------------------------------------------------


@dataclass
class TilePlan:
    """The tile grid plus its schedule.

    ``policy`` orders real dispatch: the executor submits tiles in
    :meth:`order`, so a cyclic policy interleaves block-rows and the cost
    policy (LPT over ``Tile.n_elements``) sorts heavy tiles first —
    exactly what the scheduler module previously only simulated.
    """

    n_genes: int
    tile: int
    base: str
    tiles: list
    policy: "SchedulerPolicy | None" = None
    rows: list = field(init=False)
    _row_tiles: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._row_tiles = {}
        for t in self.tiles:
            self._row_tiles.setdefault(t.i0, []).append(t)
        self.rows = sorted(self._row_tiles)

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_pairs(self) -> int:
        return pair_count(self.n_genes)

    def row_tiles(self, i0: int) -> list:
        """Tiles of block-row ``i0``, in grid (ascending ``j0``) order."""
        return self._row_tiles[i0]

    def costs(self) -> np.ndarray:
        """Per-tile kernel cost (cells computed, ``Tile.n_elements``)."""
        return np.asarray([t.n_elements for t in self.tiles], dtype=np.float64)

    def order(self, n_workers: int = 1) -> list:
        """Tile indices in dispatch order for ``n_workers`` workers.

        Dynamic policies concatenate their chunk sequence (the pull
        order); static policies concatenate per-worker assignments, with
        the plan supplying per-tile costs so LPT works.  No policy means
        grid order.
        """
        n = len(self.tiles)
        if self.policy is None:
            return list(range(n))
        n_workers = max(int(n_workers), 1)
        if self.policy.is_dynamic():
            chunks = self.policy.chunk_sequence(n, n_workers)
        else:
            chunks = self.policy.static_assignment(n, n_workers, costs=self.costs())
        return [int(i) for chunk in chunks for i in chunk]


def plan_tiles(
    source: WeightSource,
    tile: "int | None" = None,
    base: str = "nat",
    schedule=None,
    kernel_dtype=None,
    autotune: bool = False,
    engine_name: str = "serial",
    kernel=None,
) -> TilePlan:
    """Build the :class:`TilePlan` for ``source``.

    When ``tile`` is ``None`` it is chosen in this order: ``autotune=True``
    measures candidate sizes on a real slab sample
    (:func:`repro.core.tiling.autotune_tile_size`, persisted per
    ``(m, b, dtype, engine, kernel, host)``); an explicit ``kernel_dtype``
    or the sparse kernel selects the fused cache model
    (:func:`repro.core.tiling.fused_tile_size` — the sparse count buffer
    has the same footprint shape as the fused joint buffer); otherwise the
    legacy :func:`repro.core.tiling.default_tile_size` applies, keeping
    default runs tile-for-tile identical to previous releases.
    ``schedule`` is a name from :data:`SCHEDULE_NAMES`, a policy instance,
    or ``None`` (grid order).  ``kernel`` is a variant name from
    :data:`repro.core.mi.KERNEL_NAMES` (``"auto"`` must be resolved by
    :func:`resolve_kernel` before planning).
    """
    if tile is None:
        if autotune:
            sample = source.slab(0, min(source.n_genes, 256))
            tile = autotune_tile_size(
                np.ascontiguousarray(sample), dtype=kernel_dtype,
                engine=engine_name, base=base, kernel=kernel or "fused")
        elif kernel == "sparse" or kernel_dtype is not None:
            itemsize = (np.dtype(kernel_dtype).itemsize
                        if kernel_dtype is not None else source.itemsize)
            tile = fused_tile_size(
                source.m_samples, source.bins, itemsize=itemsize)
        else:
            tile = default_tile_size(
                source.m_samples, source.bins, itemsize=source.itemsize)
    return TilePlan(
        n_genes=source.n_genes,
        tile=tile,
        base=base,
        tiles=tile_grid(source.n_genes, tile),
        policy=schedule_policy(schedule),
    )


def resolve_kernel(
    source: WeightSource,
    kernel,
    kernel_dtype=None,
    engine_name: str = "serial",
    base: str = "nat",
) -> "tuple[str | None, int | None]":
    """Resolve the kernel-variant knob to ``(variant, tile_override)``.

    Explicit variants pass through with no tile override.  ``"auto"`` runs
    the cross-variant autotuner
    (:func:`repro.core.tiling.autotune_kernel`) on a real slab sample,
    returning the per-host winning ``(variant, tile)`` — persisted in the
    sidecar so later runs skip the measurement.
    """
    if kernel in (None, "legacy", "fused", "sparse"):
        return kernel, None
    if kernel != "auto":
        raise ValueError(
            f"kernel must be one of {sorted(KERNEL_NAMES)} or None, got {kernel!r}")
    from repro.core.tiling import autotune_kernel

    sample = np.ascontiguousarray(source.slab(0, min(source.n_genes, 256)))
    return autotune_kernel(sample, dtype=kernel_dtype, engine=engine_name,
                           base=base)


def filter_plan(plan: TilePlan, tiles: list) -> TilePlan:
    """A sub-plan of ``plan`` executing only ``tiles`` (same grid geometry).

    The selective-recompute primitive: the incremental updater screens the
    full grid for tiles whose MI could have crossed the significance
    threshold and replays just those through :func:`run_tile_plan`.  The
    sub-plan keeps the parent's tile size, base and scheduling policy, so
    each surviving tile runs through exactly the kernel invocation a full
    pass would have used — recomputed blocks are bit-identical to a
    from-scratch run's.  ``tiles`` must come from ``plan.tiles`` (the grid
    geometry is what guarantees kernel-call identity); an empty selection
    yields a valid no-op plan.
    """
    kept = list(tiles)
    grid = {(t.i0, t.j0) for t in plan.tiles}
    for t in kept:
        if (t.i0, t.j0) not in grid:
            raise ValueError(
                f"tile ({t.i0}, {t.j0}) is not on the parent plan's grid "
                f"(tile size {plan.tile})"
            )
    return TilePlan(
        n_genes=plan.n_genes,
        tile=plan.tile,
        base=plan.base,
        tiles=kept,
        policy=plan.policy,
    )


# ---------------------------------------------------------------------------
# Matrix sinks
# ---------------------------------------------------------------------------


class MatrixSink:
    """Where computed tile blocks go.

    ``grain`` picks the executor's dispatch shape:

    * ``"matrix"`` — tiles are independent; the executor dispatches the
      whole (policy-ordered) grid at once, batching fork engines and
      staging shared memory.  A sink with a :meth:`buffer` has blocks
      written straight into it; any other receives every block through
      :meth:`put`.
    * ``"rows"`` — tiles are processed one block-row at a time (the
      checkpoint and out-of-core layouts); the executor hands each
      completed row to :meth:`store_row`, then :meth:`commit_row` decides
      whether the run continues (the checkpoint interrupt hook).

    ``span_name`` (outer span), ``row_span_name`` (per-row span) and
    ``progress_units`` (``"tiles"`` or ``"rows"``) preserve each
    driver's historical observability contract.
    """

    grain: str = "matrix"
    span_name: "str | None" = None
    row_span_name: "str | None" = None
    progress_units: str = "tiles"
    _quarantined: "list | None" = None

    def span_meta(self, plan: TilePlan) -> dict:
        return {}

    # -- fault tolerance ---------------------------------------------------
    @property
    def quarantined(self) -> list:
        """Tiles given up on under a :class:`~repro.faults.policy.FaultPolicy`
        (:class:`~repro.faults.policy.QuarantinedTile` records, possibly
        empty).  Their blocks are left as the sink's fill value (zero)."""
        return list(self._quarantined or [])

    def quarantine(self, idx: int, t: Tile, error: str) -> None:
        """Record a tile whose retry budget is exhausted."""
        if self._quarantined is None:
            self._quarantined = []
        self._quarantined.append(
            QuarantinedTile(index=idx, i0=t.i0, i1=t.i1, j0=t.j0, j1=t.j1,
                            error=error))

    # -- matrix grain ------------------------------------------------------
    def buffer(self) -> "np.ndarray | None":
        """``(n, n)`` array blocks are written into in place, or ``None``
        to force block-wise :meth:`put`."""
        return None

    def put(self, idx: int, t: Tile, block: np.ndarray) -> None:
        raise NotImplementedError

    # -- rows grain --------------------------------------------------------
    def skip_row(self, i0: int) -> bool:
        """True when the row is already complete (checkpoint resume)."""
        return False

    def store_row(self, i0: int, items: list) -> None:
        """Persist one completed block-row; ``items`` is ``[(tile, block)]``."""
        raise NotImplementedError

    def commit_row(self, i0: int) -> bool:
        """Durably record the row; return False to stop the run."""
        return True

    # -- lifecycle ---------------------------------------------------------
    def finalize(self, completed: bool = True):
        """Produce the sink's result (driver-specific type)."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; called by the executor even on error."""


class DenseSink(MatrixSink):
    """Dense in-memory ``(n, n)`` matrix (optionally caller-preallocated)."""

    grain = "matrix"
    span_name = "mi_matrix"

    def __init__(self, n: int, out: "np.ndarray | None" = None):
        if out is None:
            self.mi = np.zeros((n, n), dtype=np.float64)
        else:
            if out.shape != (n, n) or out.dtype != np.float64:
                raise ValueError(
                    f"out must be a ({n}, {n}) float64 array, "
                    f"got shape {out.shape} dtype {out.dtype}"
                )
            self.mi = out
        self.n = n

    def span_meta(self, plan: TilePlan) -> dict:
        return {
            "n_genes": plan.n_genes,
            "n_tiles": plan.n_tiles,
            "n_pairs": plan.n_pairs,
            "tile": plan.tile,
        }

    def buffer(self) -> np.ndarray:
        return self.mi

    def put(self, idx: int, t: Tile, block: np.ndarray) -> None:
        self.mi[t.i0 : t.i1, t.j0 : t.j1] = block

    def finalize(self, completed: bool = True) -> np.ndarray:
        # Mirror the strict upper triangle into the lower one.
        iu = np.triu_indices(self.n, k=1)
        self.mi[(iu[1], iu[0])] = self.mi[iu]
        np.fill_diagonal(self.mi, 0.0)
        return self.mi


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


# One reusable kernel workspace per engine worker (thread- and fork-safe);
# buffers are sized by the first tile and reused for the rest of the run.
_WORKER_WORKSPACE = WorkerLocal(TileWorkspace)


def worker_workspace() -> TileWorkspace:
    """This worker's reusable :class:`repro.core.mi.TileWorkspace`."""
    return _WORKER_WORKSPACE.get()


def default_kernel(
    source: WeightSource, h: np.ndarray, t: Tile, base: str, kernel_dtype=None,
    kernel=None,
) -> np.ndarray:
    """One tile's MI block from the source's slabs (diagonal masked).

    ``kernel`` selects the variant: ``None``/``"fused"`` runs the fused
    workspace kernel (:func:`repro.core.mi.mi_tile_into`; bit-identical to
    the legacy path unless ``kernel_dtype`` selects mixed precision),
    ``"legacy"`` the allocating :func:`repro.core.mi.mi_tile`, and
    ``"sparse"`` the packed scatter kernel — straight from the source's
    packed operands when it carries them (:class:`PackedWeightSource`),
    otherwise packing the dense slabs per tile.
    """
    if kernel == "sparse":
        packed = getattr(source, "packed", None)
        if callable(packed):
            values, first, span = packed()
            block = mi_tile_sparse_packed(
                values[t.i0 : t.i1], first[t.i0 : t.i1],
                values[t.j0 : t.j1], first[t.j0 : t.j1],
                span, source.bins, source.m_samples,
                h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1], base=base,
                workspace=worker_workspace(), dtype=kernel_dtype,
            )
        else:
            block = mi_tile_sparse(
                source.slab(t.i0, t.i1), source.slab(t.j0, t.j1),
                h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1], base=base,
                workspace=worker_workspace(), dtype=kernel_dtype,
            )
    elif kernel == "legacy":
        block = mi_tile(
            source.slab(t.i0, t.i1), source.slab(t.j0, t.j1),
            h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1], base=base,
        )
    else:
        block = mi_tile_into(
            source.slab(t.i0, t.i1),
            source.slab(t.j0, t.j1),
            h_i=h[t.i0 : t.i1],
            h_j=h[t.j0 : t.j1],
            base=base,
            workspace=worker_workspace(),
            dtype=kernel_dtype,
        )
    if t.is_diagonal:
        block[~t.pair_mask()] = 0.0
    return block


def _default_kernel_task(source, h, base, kernel_dtype, kernel, t: Tile) -> np.ndarray:
    """Picklable form of the default tile task (see :func:`run_tile_plan`)."""
    return default_kernel(source, h, t, base, kernel_dtype=kernel_dtype,
                          kernel=kernel)


def _custom_kernel_task(kernel, source, h, base, t: Tile) -> np.ndarray:
    """Picklable adapter for caller-supplied kernels (picklable iff the
    kernel is — drivers pass partials of module-level functions)."""
    return kernel(source, h, t, base)


def run_tile_plan(
    plan: TilePlan,
    source: WeightSource,
    sink: MatrixSink,
    engine=None,
    tracer=None,
    progress=None,
    kernel=None,
    policy: "FaultPolicy | None" = None,
    kernel_dtype=None,
    kernel_variant=None,
):
    """Execute ``plan``: every tile through ``kernel`` into ``sink``.

    This is the one tile loop all MI drivers share.  ``engine`` is any
    :mod:`repro.parallel.engine` engine (or ``None`` for serial);
    ``kernel(source, h, tile, base)`` defaults to the fused workspace MI
    kernel and is overridable (the checkpoint driver routes through its
    patchable ``compute_tile``).  ``kernel_dtype`` selects the default
    kernel's GEMM precision (``"float32"`` = mixed precision) and is also
    used to warm the process-wide hoisted-operand cache before dispatch,
    so fork workers inherit the repacked tensor copy-on-write instead of
    each rebuilding it; custom kernels receive it via their own closures.
    ``progress(done, total)`` and the tracer's ``tiles_done``/``pairs_done``
    (and, for row sinks, ``rows_done``) counters tick per tile for serial
    and in-process engines, per batch (or row) for fork and remote engines.

    Every run goes through one tolerant dispatch governed by ``policy``
    (a :class:`repro.faults.policy.FaultPolicy`): each block is validated,
    failed tasks are retried with backoff, hung fork-engine tasks are
    timed out and their workers replaced, and tasks that exhaust the
    budget are quarantined on the sink (or raise, per ``policy.on_fault``).
    Outside ``on_fault="raise"`` an engine that loses its pool is swapped
    for the next one down the fallback chain.  ``policy=None`` means
    :meth:`FaultPolicy.from_options` defaults: no retries, no timeout, and
    ``"raise"`` — the first failed tile aborts the run with
    :class:`~repro.faults.policy.FaultToleranceExceeded` naming its error,
    and an :class:`~repro.parallel.engine.EngineFailure` propagates.

    Returns ``sink.finalize(completed)`` — the sink-specific result.
    """
    tracer = tracer or NULL_TRACER
    policy = policy if policy is not None else FaultPolicy.from_options()
    engine = engine if engine is not None else SerialEngine()
    h = source.entropies(plan.base)
    base = plan.base

    # Warm the per-variant operand caches in the parent: thread workers
    # share the one repacking, fork workers inherit it copy-on-write.
    weights = getattr(source, "weights", None)
    if weights is not None and weights.ndim == 3 and weights.shape[0] >= 2:
        dt = np.dtype(kernel_dtype) if kernel_dtype is not None else None
        if kernel_variant == "sparse":
            prepare_packed(weights, _resolve_kernel_dtype(kernel_dtype,
                                                          weights.dtype)[0])
        elif kernel_variant != "legacy":
            prepare_operands(weights, dt)
    elif kernel_variant == "sparse":
        packed = getattr(source, "packed", None)
        if callable(packed):
            packed()  # materialize the padded lanes pre-fork (COW)

    if kernel is None:
        # functools.partial of a module-level function, not a closure, so
        # the default task pickles — the elastic engine ships it (source
        # tensor included, broadcast once per worker) to remote processes.
        # Behavior is identical for every in-process engine.
        run = functools.partial(_default_kernel_task, source, h, base,
                                kernel_dtype, kernel_variant)
    else:
        run = functools.partial(_custom_kernel_task, kernel, source, h, base)

    try:
        if sink.grain == "rows":
            completed = _run_rows(plan, sink, run, engine, tracer, progress,
                                  policy)
        else:
            _run_matrix(plan, sink, run, engine, tracer, progress, policy)
            completed = True
        return sink.finalize(completed=completed)
    finally:
        sink.close()


def _span(tracer, name, **meta):
    return tracer.span(name, **meta) if name else nullcontext()


def _engine_workers(engine) -> int:
    return max(int(getattr(engine, "n_workers", 1) or 1), 1)


class _Counter:
    """Completed work: tracer counters first, then the progress line."""

    def __init__(self, tracer, progress, total: int, done: int = 0):
        self.tracer = tracer
        self.progress = progress
        self.total = total
        self.done = done
        self._lock = threading.Lock()

    def tick(self, n_tiles: int, n_pairs: int, units: "int | None" = None) -> None:
        """Count finished tiles; ``units`` (default: the tiles) advance
        the progress line."""
        with self._lock:
            self.done += n_tiles if units is None else units
            done = self.done
        self.tracer.add("tiles_done", n_tiles)
        self.tracer.add("pairs_done", n_pairs)
        if self.progress is not None:
            self.progress(done, self.total)


class CorruptBlock(ValueError):
    """A tile block rejected by the fault policy's validation."""


def _dispatch_once(engine, tiles, idxs, run, shm_out, policy, tracer,
                   deliver, done):
    """One tolerant dispatch round over ``idxs``; ``{idx: error}`` of the failed.

    Each block that passes ``policy.check`` goes to ``deliver(idx, tile,
    block)`` (``block`` is ``None`` when the worker already wrote it into
    the shared ``shm_out``) and is counted by ``done(n_tiles, n_pairs)``.
    In-process engines do both inside the worker, right after the tile's
    kernel, so no block outlives its task and progress is live.  Fork and
    remote engines return blocks to the parent, which delivers them and
    reports the round's tiles at once.
    """
    items = [tiles[i] for i in idxs]

    def accept(idx: int, t: Tile, block, inplace: bool = False) -> None:
        if not policy.check(t, block):
            tracer.add("task_corruptions")
            raise CorruptBlock("corrupt result (validation failed)")
        deliver(idx, t, None if inplace else block)

    if getattr(engine, "in_process", False):
        def on_result(p: int, block) -> None:
            t = items[p]
            accept(idxs[p], t, block)
            done(1, t.n_pairs)

        _, failures = engine.map_tolerant(run, items, on_result=on_result)
        return {idxs[p]: err for p, err in failures.items()}

    inplace = (shm_out is not None and isinstance(engine, SharedMemoryEngine)
               and not engine._inline())
    if inplace:
        def run_into(out: np.ndarray, t: Tile) -> None:
            out[t.i0:t.i1, t.j0:t.j1] = run(t)

        failures = engine.map_into_supervised(
            run_into, items, shm_out, timeout=policy.task_timeout)
        results = [None if p in failures
                   else shm_out.array[t.i0:t.i1, t.j0:t.j1]
                   for p, t in enumerate(items)]
    else:
        results, failures = engine.map_supervised(
            run, items, timeout=policy.task_timeout)
    ok = []
    for p, t in enumerate(items):
        if p in failures:
            continue
        try:
            accept(idxs[p], t, results[p], inplace)
        except CorruptBlock as exc:
            failures[p] = f"{type(exc).__name__}: {exc}"
        else:
            ok.append(t)
        results[p] = None
    if ok:
        done(len(ok), sum(t.n_pairs for t in ok))
    return {idxs[p]: err for p, err in failures.items()}


def _execute(engine, tiles, idxs, run, shm_out, policy, tracer, deliver,
             done):
    """Retry/timeout/fallback loop over one batch of tile indices.

    Returns ``(failures, engine)``: the tasks whose budget ran out, each
    with its last error string, and the (possibly degraded) engine now in
    use — callers thread it through so a fallback persists for later
    batches.  Under ``on_fault="raise"`` an :class:`EngineFailure`
    propagates instead of falling back.
    """
    pending = list(idxs)
    errors: dict = {}
    eng = engine
    attempt = 0
    max_retries = 0 if policy.on_fault == "quarantine" else policy.max_retries
    while pending:
        if attempt > 0:
            if attempt > max_retries:
                break
            delay = policy.backoff_delay(attempt)
            if delay > 0:
                time.sleep(delay)
            tracer.add("task_retries", len(pending))
        try:
            failures = _dispatch_once(eng, tiles, pending, run, shm_out,
                                      policy, tracer, deliver, done)
        except EngineFailure as exc:
            nxt = None if policy.on_fault == "raise" else fallback_engine(eng)
            if nxt is None:
                raise
            with tracer.span("engine_fault", engine=type(eng).__name__,
                             error=str(exc),
                             action=f"fallback:{type(nxt).__name__}"):
                pass
            tracer.add("engine_fallbacks")
            eng = nxt
            continue  # a fallback does not consume a retry
        attempt += 1
        faults = getattr(eng, "faults", None)
        for idx, err in failures.items():
            if err.startswith("task timed out"):
                tracer.add("task_timeouts")
            if faults is not None:
                # Parent-side attempt ledger: fork engines re-fork per
                # round, so children inherit the updated counts and a
                # task that burned its failure budget retries clean.
                faults.record_failure(tiles[idx])
        pending = [idx for idx in pending if idx in failures]
        errors = failures
    return {idx: errors[idx] for idx in pending}, eng


def _quarantine_failures(sink, tiles, failures, policy, tracer, counter=None):
    """Record budget-exhausted tasks on the sink (or abort, per policy)."""
    if not failures:
        return
    for idx in sorted(failures):
        t = tiles[idx]
        error = failures[idx]
        with tracer.span("engine_fault", kind="quarantine", i0=t.i0, j0=t.j0,
                         error=error):
            pass
        tracer.add("tasks_quarantined")
        sink.quarantine(idx, t, error)
        if counter is not None:
            counter.tick(1, 0)
    if policy.on_fault == "raise":
        raise FaultToleranceExceeded(sink.quarantined)


def _run_matrix(plan, sink, run, engine, tracer, progress, policy) -> None:
    """Whole-grid dispatch (dense and distributed sinks).

    In-process engines take the whole grid in one map, each worker
    checking, writing and ticking its own tile.  Fork and remote engines
    report completion only when a map returns, so while a progress
    callback or tracer is watching the grid goes out in batches of four
    tiles per worker.  A shared-memory engine writes every batch into one
    staged shared copy of the sink buffer, copied back once at the end.
    Blocks that end up quarantined are reset to the sink's zero fill.
    """
    tiles = plan.tiles
    order = plan.order(_engine_workers(engine))
    counter = _Counter(tracer, progress, len(tiles))
    buf = sink.buffer()
    staged = None
    if (buf is not None and isinstance(engine, SharedMemoryEngine)
            and not engine._inline()):
        staged = SharedArray.from_array(buf)
    target = staged.array if staged is not None else buf
    put_lock = threading.Lock()

    def deliver(idx: int, t: Tile, block) -> None:
        if block is None:
            return
        if target is not None:
            target[t.i0:t.i1, t.j0:t.j1] = block
        else:
            with put_lock:
                sink.put(idx, t, block)

    observing = progress is not None or tracer is not NULL_TRACER
    chunk = len(order)
    if observing and not getattr(engine, "in_process", False):
        chunk = 4 * _engine_workers(engine)
    eng = engine
    with _span(tracer, sink.span_name, **sink.span_meta(plan)):
        try:
            for s in range(0, len(order), max(chunk, 1)):
                failures, eng = _execute(
                    eng, tiles, order[s:s + chunk], run, staged, policy,
                    tracer, deliver, counter.tick)
                if target is not None:
                    for idx in failures:
                        t = tiles[idx]
                        target[t.i0:t.i1, t.j0:t.j1] = 0.0
                _quarantine_failures(sink, tiles, failures, policy, tracer,
                                     counter)
            if staged is not None:
                buf[...] = staged.array
        finally:
            if staged is not None:
                staged.close()
                staged.unlink()


def _run_rows(plan, sink, run, engine, tracer, progress, policy) -> bool:
    """Block-row dispatch (checkpoint and out-of-core sinks).

    ``store_row`` receives only the tiles that succeeded, leaving
    quarantined blocks at the sink's fill value.  Quarantine is recorded
    *before* ``commit_row`` so ledger-backed sinks persist it atomically
    with the row.  Returns False when the sink stopped the run early
    (checkpoint interruption), True on completion.
    """
    rows = plan.rows
    tiles = plan.tiles
    row_progress = sink.progress_units == "rows"
    pending = [i0 for i0 in rows if not sink.skip_row(i0)]
    if row_progress:
        counter = _Counter(tracer, progress, len(rows),
                           done=len(rows) - len(pending))
        if progress is not None and counter.done:
            progress(counter.done, counter.total)  # resumed rows are complete
    else:
        counter = _Counter(tracer, progress, len(tiles))

    def done(n_tiles: int, n_pairs: int) -> None:
        if not row_progress:  # row units tick once the row is committed
            counter.tick(n_tiles, n_pairs)

    row_idx: dict = {}
    for idx, t in enumerate(tiles):
        row_idx.setdefault(t.i0, []).append(idx)
    eng = engine

    with _span(tracer, sink.span_name, **sink.span_meta(plan)):
        for i0 in pending:
            idxs = row_idx[i0]
            collected: dict = {}

            def deliver(idx, t, block, _c=collected):
                _c[idx] = (t, block)

            with _span(tracer, sink.row_span_name, i0=i0, n_tiles=len(idxs)):
                failures, eng = _execute(eng, tiles, idxs, run, None, policy,
                                         tracer, deliver, done)
                sink.store_row(i0, [collected[i] for i in idxs if i in collected])
                _quarantine_failures(sink, tiles, failures, policy, tracer,
                                     None if row_progress else counter)
            keep_going = sink.commit_row(i0)
            if row_progress:
                tracer.add("rows_done")
                counter.tick(len(idxs), sum(tiles[i].n_pairs for i in idxs),
                             units=1)
            if not keep_going:
                return False
    return True
