"""Incremental network maintenance: grow a network gene by gene or
sample by sample.

Real compendia grow along both axes.  A new probe set adds a *gene*:
recomputing 1.2e8 pairs for one new gene wastes ``(n-1)/1`` of the work,
so :class:`NetworkUpdater` updates the weight tensor, MI matrix and
thresholded network in ``O(n)`` per added/removed gene using the row
kernel (:func:`repro.core.mi_matrix.mi_row`).  A new microarray adds a
*sample column*: every pair's MI drifts (the rank transform re-scales
all columns), but by a bounded amount, so :meth:`NetworkUpdater.
add_samples` recomputes only the tiles whose MI could have crossed the
significance threshold and replays them through the shared tile executor
(:func:`repro.core.exec.run_tile_plan`).

Statistical note (gene axis): the significance threshold was derived for
the original gene universe.  Adding genes increases the number of
hypotheses, so the updater re-tightens the Bonferroni threshold from the
stored null at every change — edges can therefore *disappear* when genes
are added, which is correct behaviour, not a bug (tests pin it).

The dirty-tile screen (sample axis)
-----------------------------------
For pair ``(i, j)``, ``MI' = MI + dH_i + dH_j - dH_ij`` where ``dH_i``
are the *exact* per-gene marginal-entropy deltas (one cheap pass over the
grown weight tensor) and ``dH_ij`` is the joint-entropy drift.  The
marginal terms are computed exactly; the joint term is bounded by a
probe-calibrated ``gamma``: a deterministic sample of pairs (random plus
the genes with the largest marginal drift) is recomputed exactly, and
``gamma = safety * max |dH_ij|`` over the probes.  A pair is *clean* when
``MI + dH_i + dH_j + gamma <= threshold'`` — its new MI provably (up to
the calibrated bound) cannot exceed the new threshold, so it cannot
become an edge and its tile need not run.  Existing edges are always
marked dirty so their weights refresh and removals are detected exactly.
Rank-transform stability (:func:`repro.core.discretize.rank_drift_bound`)
makes the drift ``O(dm / m)``, so the clean fraction approaches 1 as the
dataset grows — the property the serve layer's subscription endpoint
turns into cheap continuous maintenance.

Consistency guarantee: after ``add_samples`` the *network* (threshold,
adjacency, and the MI weight of every edge) is bit-identical to a
from-scratch pipeline run on the grown dataset; MI entries of clean
non-edge pairs keep their pre-update values (stale by at most the drift
bound, and provably below threshold).  The property suite pins both the
identity and the screen's conservativeness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.bspline import BsplineBasis, weight_tensor
from repro.core.discretize import extend_columns, preprocess, rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.exec import (
    DenseSink,
    TensorSource,
    filter_plan,
    plan_tiles,
    resolve_kernel,
    run_tile_plan,
)
from repro.core.mi_matrix import compute_tile, mi_pairs, mi_row
from repro.core.network import GeneNetwork
from repro.core.permutation import NullDistribution, pooled_null
from repro.core.exec import TilePlan
from repro.core.threshold import threshold_adjacency
from repro.core.tiling import Tile, pair_count
from repro.parallel.engine import engine_kind

__all__ = ["NetworkUpdater", "UpdateDelta"]

# Below this dirty-pair fraction a sparse-kernel replay switches from coarse
# tiles to per-pair 1x1 tiles (see add_samples); above it, block efficiency
# outweighs recomputing the clean pairs sharing a dirty tile.
_REFINE_FRACTION = 0.05


@dataclass
class UpdateDelta:
    """What one :meth:`NetworkUpdater.add_samples` call changed.

    ``edges_added`` / ``edges_removed`` are ``(gene_a, gene_b, mi)``
    tuples (MI from the post-/pre-update matrix respectively).  The tile
    counters quantify the screen's selectivity: ``tiles_dirty`` ran,
    ``tiles_skipped`` provably could not change the network.  ``cached``
    marks serve-layer adoptions of an already-cached grown network (no
    tiles ran at all).
    """

    n_samples_before: int
    n_samples_after: int
    threshold_before: float
    threshold_after: float
    edges_added: list
    edges_removed: list
    tiles_total: int
    tiles_dirty: int
    tiles_skipped: int
    pairs_total: int
    pairs_screened_dirty: int
    pairs_recomputed: int
    gamma: float
    cached: bool = False
    quarantined: list = field(default_factory=list)

    @property
    def recompute_fraction(self) -> float:
        """Fraction of all gene pairs whose tiles were recomputed."""
        if self.pairs_total <= 0:
            return 0.0
        return self.pairs_recomputed / self.pairs_total

    def as_dict(self) -> dict:
        """JSON-safe rendering (the serve layer's event payload)."""
        return {
            "n_samples_before": self.n_samples_before,
            "n_samples_after": self.n_samples_after,
            "threshold_before": self.threshold_before,
            "threshold_after": self.threshold_after,
            "edges_added": [[a, b, float(w)] for a, b, w in self.edges_added],
            "edges_removed": [[a, b, float(w)] for a, b, w in self.edges_removed],
            "tiles_total": self.tiles_total,
            "tiles_dirty": self.tiles_dirty,
            "tiles_skipped": self.tiles_skipped,
            "pairs_total": self.pairs_total,
            "pairs_screened_dirty": self.pairs_screened_dirty,
            "pairs_recomputed": self.pairs_recomputed,
            "recompute_fraction": self.recompute_fraction,
            "gamma": self.gamma,
            "cached": self.cached,
            "quarantined": list(self.quarantined),
        }


def _delta_kernel(source, h: np.ndarray, t, base: str, kernel_dtype=None,
                  kernel=None) -> np.ndarray:
    """Dirty-tile kernel: the same patchable :func:`compute_tile` the full
    drivers run, so recomputed blocks are bit-identical to a full pass."""
    return compute_tile(source.weights, h, t, base, kernel_dtype=kernel_dtype,
                        kernel=kernel)


class NetworkUpdater:
    """Mutable wrapper around (weights, MI matrix, network).

    Build one from a finished pipeline run and then :meth:`add_gene` /
    :meth:`remove_gene` / :meth:`add_samples`; :attr:`network` is always
    current.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor of the *rank-transformed* genes.
    mi:
        The matching ``(n, n)`` MI matrix.
    genes:
        Gene names.
    null:
        The pooled null the run produced (thresholds re-derive from it).
    alpha, correction:
        Significance settings (as in the pipeline).  Ignored when
        ``config`` is given (the config's values win — one source of
        truth for the streaming path).
    data:
        Optional raw ``(n, m)`` expression matrix the weights came from.
        Required for :meth:`add_samples`: appending a column re-ranks
        every existing one, so the raw values must be retained.
    config:
        Optional :class:`repro.core.pipeline.TingeConfig` (or dict of its
        fields).  Required for :meth:`add_samples`: the update rebuilds
        the permutation null and replays tiles with exactly the
        pipeline's parameters, which is what makes the result
        bit-identical to a from-scratch run on the grown dataset.
    """

    def __init__(
        self,
        weights: np.ndarray,
        mi: np.ndarray,
        genes: list,
        null: NullDistribution,
        alpha: float = 0.01,
        correction: str = "bonferroni",
        data: "np.ndarray | None" = None,
        config=None,
    ):
        weights = np.asarray(weights)
        mi = np.asarray(mi, dtype=np.float64)
        if weights.ndim != 3:
            raise ValueError(f"expected (n, m, b) weights, got {weights.shape}")
        n = weights.shape[0]
        if mi.shape != (n, n) or len(genes) != n:
            raise ValueError("weights / mi / genes sizes disagree")
        if config is not None and not hasattr(config, "alpha"):
            from repro.core.pipeline import TingeConfig

            config = TingeConfig(**dict(config))
        if config is not None:
            alpha = config.alpha
            correction = config.correction
        if data is not None:
            data = np.array(data, dtype=np.float64)
            if data.shape != (n, weights.shape[1]):
                raise ValueError(
                    f"data shape {data.shape} does not match weights "
                    f"{weights.shape[:2]}"
                )
        # Backing buffers are over-allocated (geometric growth with
        # capacity slack): n consecutive add_gene calls cost O(log n)
        # reallocations instead of n full (n, m, b) + (n, n) copies.
        # Consumers only ever see the [:n] prefix views, whose values and
        # memory layout (C-contiguous leading slice) match exact-sized
        # arrays, so outputs stay bit-identical.
        self._n = n
        self._wbuf = np.array(weights, dtype=np.float64, copy=True)
        self._mibuf = mi.copy()
        # Cached per-gene marginal entropies: each update touches only the
        # changed gene's entry instead of recomputing all n of them.
        self._hbuf = marginal_entropies(self._wbuf)
        self._genes = list(genes)
        self._null = null
        self._alpha = alpha
        self._correction = correction
        self._data = data
        self._config = config
        if config is not None:
            self._basis = BsplineBasis(bins=config.bins, order=config.order)
        else:
            self._basis = BsplineBasis(bins=weights.shape[2])

    @classmethod
    def from_result(cls, result, data: np.ndarray) -> "NetworkUpdater":
        """Build a streaming-capable updater from a
        :class:`~repro.core.pipeline.TingeResult` plus the raw data that
        produced it (the weight tensor is re-derived, cheaply)."""
        cfg = result.config
        if result.null is None:
            raise ValueError("streaming updates need a pooled null "
                             "(testing='pooled' runs only)")
        transformed = preprocess(np.asarray(data, dtype=np.float64), cfg.transform)
        weights = weight_tensor(transformed, cfg.bins, cfg.order, np.dtype(cfg.dtype))
        return cls(weights, result.mi, list(result.network.genes), result.null,
                   data=data, config=cfg)

    # -- backing storage ------------------------------------------------
    @property
    def _weights(self) -> np.ndarray:
        """Live ``(n, m, b)`` prefix view of the weight buffer."""
        return self._wbuf[: self._n]

    @property
    def _mi(self) -> np.ndarray:
        """Live ``(n, n)`` prefix view of the MI buffer."""
        return self._mibuf[: self._n, : self._n]

    @property
    def _h(self) -> np.ndarray:
        """Live ``(n,)`` prefix view of the entropy cache."""
        return self._hbuf[: self._n]

    @property
    def capacity(self) -> int:
        """Gene slots allocated in the backing buffers (``>= n_genes``)."""
        return self._wbuf.shape[0]

    def _ensure_capacity(self, n_needed: int) -> None:
        """Grow the backing buffers geometrically to hold ``n_needed`` genes."""
        cap = self.capacity
        if n_needed <= cap:
            return
        new_cap = max(2 * cap, n_needed)
        _, m, b = self._wbuf.shape
        wbuf = np.zeros((new_cap, m, b), dtype=np.float64)
        wbuf[: self._n] = self._wbuf[: self._n]
        mibuf = np.zeros((new_cap, new_cap), dtype=np.float64)
        mibuf[: self._n, : self._n] = self._mibuf[: self._n, : self._n]
        hbuf = np.zeros(new_cap, dtype=np.float64)
        hbuf[: self._n] = self._hbuf[: self._n]
        self._wbuf, self._mibuf, self._hbuf = wbuf, mibuf, hbuf

    # ------------------------------------------------------------------
    @property
    def n_genes(self) -> int:
        return len(self._genes)

    @property
    def n_samples(self) -> int:
        return self._wbuf.shape[1]

    @property
    def mi(self) -> np.ndarray:
        return self._mi.copy()

    @property
    def threshold(self) -> float:
        return self._null.threshold(
            self._alpha, n_tests=pair_count(self.n_genes),
            correction=self._correction,
        )

    @property
    def network(self) -> GeneNetwork:
        """The current thresholded network (threshold re-tightened to the
        current gene count)."""
        thr = self.threshold
        return GeneNetwork(
            adjacency=threshold_adjacency(self._mi, thr),
            weights=self._mi.copy(),
            genes=list(self._genes),
            threshold=thr,
        )

    # ------------------------------------------------------------------
    def add_gene(self, name: str, samples: np.ndarray) -> None:
        """Append a gene: O(n) MI evaluations instead of O(n^2).

        ``samples`` is the gene's raw expression vector (rank-transformed
        internally, matching the pipeline's preprocessing).
        """
        assert self._n == len(self._genes), "gene bookkeeping desynced"
        if name in self._genes:
            raise ValueError(f"gene {name!r} already present")
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size != self._weights.shape[1]:
            raise ValueError(
                f"expected {self._weights.shape[1]} samples, got {samples.size}"
            )
        if not np.isfinite(samples).all():
            raise ValueError(
                f"samples for gene {name!r} contain NaN/inf; impute first "
                "(rank-transforming non-finite values would corrupt the "
                "weight tensor silently)"
            )
        n = self._n
        self._ensure_capacity(n + 1)
        # Stage into the (invisible) slot past the live prefix and compute
        # the MI row against a widened view; the visible state — _genes,
        # _n, the MI prefix — only mutates once everything has succeeded,
        # so a failed add leaves the updater exactly as it was.
        self._wbuf[n] = self._basis.weights(rank_transform(samples))
        self._hbuf[n] = marginal_entropies(self._wbuf[n : n + 1])[0]
        row = mi_row(self._wbuf[: n + 1], n, h=self._hbuf[: n + 1])
        self._mibuf[n, : n + 1] = row
        self._mibuf[: n + 1, n] = row
        self._genes.append(name)
        if self._data is not None:
            self._data = np.concatenate([self._data, samples[None, :]], axis=0)
        self._n = n + 1

    def remove_gene(self, name: str) -> None:
        """Drop a gene (in-place compaction of the backing buffers)."""
        assert self._n == len(self._genes), "gene bookkeeping desynced"
        try:
            idx = self._genes.index(name)
        except ValueError:
            raise ValueError(f"gene {name!r} not present") from None
        if self.n_genes <= 2:
            raise ValueError("cannot shrink below 2 genes")
        n = self._n
        # Shift the tail up by one slot.  The .copy() on each source slice
        # keeps the overlapping same-buffer assignment well-defined.
        self._wbuf[idx : n - 1] = self._wbuf[idx + 1 : n].copy()
        self._hbuf[idx : n - 1] = self._hbuf[idx + 1 : n].copy()
        self._mibuf[idx : n - 1, :n] = self._mibuf[idx + 1 : n, :n].copy()
        self._mibuf[: n - 1, idx : n - 1] = self._mibuf[: n - 1, idx + 1 : n].copy()
        # Clear the vacated slot: the entropy cache must describe exactly
        # the weight rows of the live prefix and nothing else, so a later
        # add_gene can never alias stale weights/entropies — removing the
        # last-added gene repeatedly (remove g, add g', remove g', ...)
        # stays consistent by construction instead of by overwrite order.
        self._wbuf[n - 1] = 0.0
        self._hbuf[n - 1] = 0.0
        self._mibuf[n - 1, :n] = 0.0
        self._mibuf[:n, n - 1] = 0.0
        if self._data is not None:
            self._data = np.delete(self._data, idx, axis=0)
        del self._genes[idx]
        self._n = n - 1

    # -- sample increment ----------------------------------------------
    def _streaming_config(self, what: str):
        """The validated config for the sample-increment path (or raise)."""
        if self._data is None or self._config is None:
            raise ValueError(
                f"{what} needs the raw data and pipeline config; construct "
                "the updater with data=/config= (or NetworkUpdater.from_result)"
            )
        cfg = self._config
        if cfg.testing != "pooled" or cfg.exact_retest:
            raise ValueError(f"{what} supports pooled-null testing only")
        if cfg.correction == "bh":
            raise ValueError(
                f"{what} needs a fixed threshold (correction='bonferroni' "
                "or 'none'); FDR re-ranks every pair on every update"
            )
        if cfg.transform != "rank":
            raise ValueError(f"{what} requires the rank transform")
        if cfg.base != "nat":
            raise ValueError(f"{what} requires base='nat' (the entropy-cache base)")
        if cfg.dtype != "float64":
            raise ValueError(f"{what} requires dtype='float64'")
        return cfg

    def _screen_gamma(
        self,
        weights_new: np.ndarray,
        dh: np.ndarray,
        n_probes: int,
        safety: float,
    ) -> float:
        """Probe-calibrated bound on the per-pair joint-entropy drift.

        Exactly recomputes a deterministic probe set — uniform random
        pairs plus every pair among the genes with the largest marginal
        drift (the likeliest joint-drift extremes) — and returns
        ``safety * max |dH_ij|`` observed.  Deterministic in (seed, n, m')
        so an interrupted update rebuilds the identical dirty set on
        resume.
        """
        n, m_new = weights_new.shape[0], weights_new.shape[1]
        cfg = self._config
        rng = np.random.default_rng([int(cfg.seed or 0), n, m_new])
        pairs = rng.integers(0, n, size=(max(int(n_probes), 1), 2))
        top = np.argsort(np.abs(dh))[-8:]
        ti, tj = np.meshgrid(top, top, indexing="ij")
        pairs = np.concatenate([pairs, np.stack([ti.ravel(), tj.ravel()], axis=1)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size == 0:  # n == 1 cannot happen (updater floor is 2 genes)
            return 0.0
        mi_new = mi_pairs(weights_new, pairs, base=cfg.base)
        mi_old = self._mi[pairs[:, 0], pairs[:, 1]]
        dh_joint = dh[pairs[:, 0]] + dh[pairs[:, 1]] - (mi_new - mi_old)
        return float(safety * np.abs(dh_joint).max())

    def add_samples(
        self,
        new_data: np.ndarray,
        *,
        engine=None,
        tracer=None,
        progress=None,
        checkpoint_dir=None,
        interrupt_after_rows: "int | None" = None,
        n_probes: int = 256,
        safety: float = 4.0,
    ) -> "UpdateDelta | None":
        """Fold ``dm`` new sample columns in, recomputing only dirty tiles.

        ``new_data`` is ``(n, dm)`` — one new expression value per gene
        per arriving array — or 1-D for a single array.  Rank transforms,
        the weight tensor, marginal entropies and the pooled null are
        rebuilt for the grown dataset (cheap, ``O(n m b)``); the all-pairs
        MI matrix — the ``O(n^2)`` part — is only patched where the
        dirty-tile screen says the network could change.

        The update is *staged*: the updater's visible state mutates only
        after every dirty tile has been recomputed, so an interrupted call
        (fault, preemption, or the ``interrupt_after_rows`` hook with a
        ``checkpoint_dir``) leaves the pre-update network intact and
        returns ``None``; re-invoking with the same samples and
        ``checkpoint_dir`` resumes from the ledger, replaying only the
        still-dirty tiles.

        Parameters
        ----------
        engine:
            Optional execution engine for the tile replay and null
            rebuild; results are engine-independent (bit-identical).
        tracer:
            Optional :class:`repro.obs.tracer.Tracer`; ticks the
            ``tiles_dirty`` / ``tiles_skipped`` / ``delta_edges``
            counters on top of the executor's own.
        checkpoint_dir:
            Optional directory for the dirty-tile replay's checkpoint
            ledger (:class:`repro.core.checkpoint.DeltaCheckpointSink`).
        n_probes, safety:
            Screen calibration: probe-pair count and the multiplier on
            the worst probe drift (see :meth:`_screen_gamma`).

        Returns
        -------
        UpdateDelta or None
            ``None`` when interrupted before completion (state unchanged).
        """
        cfg = self._streaming_config("add_samples")
        from repro.obs.tracer import NULL_TRACER

        tracer = tracer or NULL_TRACER
        n = self._n
        data_new = extend_columns(self._data, new_data)
        m_old = self._data.shape[1]
        m_new = data_new.shape[1]

        # Mirror the pipeline's phases exactly on the grown dataset; every
        # array below is bitwise what a from-scratch run would produce.
        transformed = preprocess(data_new, cfg.transform)
        weights_new = weight_tensor(transformed, cfg.bins, cfg.order,
                                    np.dtype(cfg.dtype))
        source = TensorSource(weights_new)
        h_new = source.entropies(cfg.base)
        null_new = pooled_null(weights_new, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base, engine)
        thr_old = self.threshold
        thr_new = null_new.threshold(cfg.alpha, n_tests=pair_count(n),
                                     correction=self._correction)

        # The screen: exact marginal deltas + calibrated joint bound.
        dh = h_new - self._h
        gamma = self._screen_gamma(weights_new, dh, n_probes, safety)
        upper = self._mi + dh[:, None] + dh[None, :] + gamma
        adj_old = threshold_adjacency(self._mi, thr_old)
        dirty = (upper > thr_new) | adj_old
        np.fill_diagonal(dirty, False)

        kernel_variant, _tile_override = resolve_kernel(
            source, cfg.kernel, kernel_dtype=cfg.kernel_dtype,
            engine_name=engine_kind(engine), base=cfg.base)
        plan = plan_tiles(source, tile=cfg.tile, base=cfg.base,
                          schedule=cfg.schedule, kernel_dtype=cfg.kernel_dtype,
                          autotune=cfg.autotune, engine_name=engine_kind(engine),
                          kernel=kernel_variant)
        dirty_tiles = [t for t in plan.tiles
                       if dirty[t.i0 : t.i1, t.j0 : t.j1].any()]
        dirty_upper = np.triu(dirty, k=1)
        n_dirty_pairs = int(dirty_upper.sum())
        # Replay granularity.  Only the sparse kernel's MI is bitwise
        # invariant to the tile decomposition (each pair's histogram is
        # scattered sample by sample whatever the block shape); a BLAS
        # GEMM's summation order depends on the operand shape, so the
        # fused and legacy kernels replay the from-scratch run's own tiles.
        # Under the sparse kernel, scattered near-threshold pairs are far
        # cheaper to replay as 1x1 tiles than by dragging whole blocks
        # along; dense dirt keeps the coarse tiles.  The switch is a pure
        # function of the (deterministic) screen, so a resumed update
        # rebuilds the identical plan.
        if (kernel_variant == "sparse"
                and 0 < n_dirty_pairs <= _REFINE_FRACTION * pair_count(n)):
            ii, jj = np.nonzero(dirty_upper)
            replay = [Tile(int(i), int(i) + 1, int(j), int(j) + 1)
                      for i, j in zip(ii, jj)]
            sub = TilePlan(n_genes=n, tile=1, base=cfg.base, tiles=replay,
                           policy=plan.policy)
        else:
            sub = filter_plan(plan, dirty_tiles)
        tracer.add("tiles_dirty", len(dirty_tiles))
        tracer.add("tiles_skipped", plan.n_tiles - len(dirty_tiles))

        kernel = functools.partial(_delta_kernel, kernel_dtype=cfg.kernel_dtype,
                                   kernel=kernel_variant)
        if checkpoint_dir is None:
            staged = np.array(self._mi)
            sink = DenseSink(n, out=staged)
        else:
            from repro.core.checkpoint import DeltaCheckpointSink

            sink = DeltaCheckpointSink(Path(checkpoint_dir), sub,
                                       source.fingerprint(), base=self._mi,
                                       m_samples=m_new,
                                       interrupt_after_rows=interrupt_after_rows)
        mi_new = run_tile_plan(sub, source, sink, engine=engine, tracer=tracer,
                               progress=progress, kernel=kernel,
                               policy=cfg.fault_policy(),
                               kernel_dtype=cfg.kernel_dtype,
                               kernel_variant=kernel_variant)
        quarantined = [q.as_dict() for q in sink.quarantined]
        if mi_new is None:
            # Interrupted mid-replay: the ledger survives, the updater's
            # visible state is untouched.
            return None

        adj_new = threshold_adjacency(mi_new, thr_new)
        added, removed = self._edge_delta(adj_old, adj_new, self._mi, mi_new)
        tracer.add("delta_edges", len(added) + len(removed))

        # Commit (the only state mutation in this method).
        cap = self.capacity
        b = self._wbuf.shape[2]
        wbuf = np.zeros((cap, m_new, b), dtype=np.float64)
        wbuf[:n] = weights_new
        self._wbuf = wbuf
        self._hbuf[:n] = h_new
        self._mibuf[:n, :n] = mi_new
        self._null = null_new
        self._data = data_new

        return UpdateDelta(
            n_samples_before=m_old,
            n_samples_after=m_new,
            threshold_before=float(thr_old),
            threshold_after=float(thr_new),
            edges_added=added,
            edges_removed=removed,
            tiles_total=plan.n_tiles,
            tiles_dirty=len(dirty_tiles),
            tiles_skipped=plan.n_tiles - len(dirty_tiles),
            pairs_total=pair_count(n),
            pairs_screened_dirty=n_dirty_pairs,
            pairs_recomputed=int(sum(t.n_pairs for t in sub.tiles)),
            gamma=gamma,
            quarantined=quarantined,
        )

    def adopt_samples(self, new_data: np.ndarray, mi: np.ndarray,
                      tracer=None) -> UpdateDelta:
        """Fold new columns in using an already-computed grown MI matrix.

        The serve layer's cache-hit path: when the grown dataset's network
        is already in the result cache, the stored MI matrix is adopted
        verbatim (zero tiles run) while the weights, entropies and null
        are rebuilt deterministically — the resulting state is identical
        to what :meth:`add_samples` would have produced.
        """
        cfg = self._streaming_config("adopt_samples")
        n = self._n
        data_new = extend_columns(self._data, new_data)
        m_old = self._data.shape[1]
        m_new = data_new.shape[1]
        mi = np.asarray(mi, dtype=np.float64)
        if mi.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) MI matrix, got {mi.shape}")

        transformed = preprocess(data_new, cfg.transform)
        weights_new = weight_tensor(transformed, cfg.bins, cfg.order,
                                    np.dtype(cfg.dtype))
        h_new = marginal_entropies(weights_new, base=cfg.base)
        null_new = pooled_null(weights_new, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base)
        thr_old = self.threshold
        thr_new = null_new.threshold(cfg.alpha, n_tests=pair_count(n),
                                     correction=self._correction)
        adj_old = threshold_adjacency(self._mi, thr_old)
        adj_new = threshold_adjacency(mi, thr_new)
        added, removed = self._edge_delta(adj_old, adj_new, self._mi, mi)
        if tracer is not None:
            tracer.add("delta_edges", len(added) + len(removed))

        cap = self.capacity
        b = self._wbuf.shape[2]
        wbuf = np.zeros((cap, m_new, b), dtype=np.float64)
        wbuf[:n] = weights_new
        self._wbuf = wbuf
        self._hbuf[:n] = h_new
        self._mibuf[:n, :n] = mi
        self._null = null_new
        self._data = data_new

        n_tiles = 0
        return UpdateDelta(
            n_samples_before=m_old,
            n_samples_after=m_new,
            threshold_before=float(thr_old),
            threshold_after=float(thr_new),
            edges_added=added,
            edges_removed=removed,
            tiles_total=n_tiles,
            tiles_dirty=0,
            tiles_skipped=0,
            pairs_total=pair_count(n),
            pairs_screened_dirty=0,
            pairs_recomputed=0,
            gamma=0.0,
            cached=True,
        )

    def _edge_delta(self, adj_old, adj_new, mi_old, mi_new):
        """(added, removed) edge lists between two adjacency snapshots."""
        genes = self._genes
        iu = np.triu_indices(self._n, k=1)
        gained = adj_new[iu] & ~adj_old[iu]
        lost = adj_old[iu] & ~adj_new[iu]
        added = [(genes[i], genes[j], float(mi_new[i, j]))
                 for i, j in zip(iu[0][gained], iu[1][gained])]
        removed = [(genes[i], genes[j], float(mi_old[i, j]))
                   for i, j in zip(iu[0][lost], iu[1][lost])]
        return added, removed
