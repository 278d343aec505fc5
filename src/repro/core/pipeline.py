"""The end-to-end TINGe pipeline (preprocess → weights → null → MI → network).

This is the package's primary public entry point: give it an expression
matrix and gene names, get back a :class:`repro.core.network.GeneNetwork`
plus per-phase wall-clock timings (the data behind the paper's phase
breakdown, experiment E9).

The phases correspond one-to-one to the stages the paper times on the Phi:

1. ``preprocess``  — rank transform (copula), see :mod:`repro.core.discretize`.
2. ``weights``     — B-spline weight tensor, :mod:`repro.core.bspline`.
3. ``null``        — pooled permutation null, :mod:`repro.core.permutation`.
4. ``mi``          — tiled all-pairs MI, :mod:`repro.core.mi_matrix`.
5. ``threshold``   — significance thresholding + network object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.discretize import preprocess
from repro.core.exact import exact_mi_pvalues
from repro.core.exec import SCHEDULE_NAMES, TensorSource
from repro.core.mi import KERNEL_NAMES
from repro.core.mi_matrix import mi_matrix
from repro.core.network import GeneNetwork
from repro.core.permutation import NullDistribution, pooled_null
from repro.core.threshold import fdr_adjacency, threshold_adjacency
from repro.core.tiling import pair_count
from repro.faults.policy import ON_FAULT_MODES, FaultPolicy
from repro.obs.tracer import Tracer

__all__ = ["TingeConfig", "TingeResult", "reconstruct_network", "TingePipeline"]


@dataclass(frozen=True)
class TingeConfig:
    """All tunables of a network reconstruction run.

    Attributes
    ----------
    bins, order:
        B-spline estimator parameters (TINGe defaults 10 / 3).
    n_permutations:
        Shared permutations ``q`` used to build the null.
    n_null_pairs:
        Random pairs sampled into the pooled null; pool size is
        ``q * n_null_pairs`` and bounds the threshold's resolution.
    alpha:
        Significance level.
    correction:
        ``"bonferroni"`` (TINGe's family-wise default), ``"none"``, or
        ``"bh"`` (p-value + FDR path).
    transform:
        Preprocessing transform; ``"rank"`` is required for the pooled null
        to be valid (a non-rank transform with pooled testing is rejected).
    tile:
        Tile edge for the all-pairs kernel; ``None`` = cache-derived default.
    base:
        Entropy log base.
    dtype:
        Weight tensor dtype (``"float64"`` or ``"float32"``; float32 halves
        memory traffic like the paper's single-precision kernels).
    seed:
        Seed for permutations and null-pair sampling.
    exact_retest:
        Two-stage testing: after the pooled-threshold screen, re-test every
        surviving edge with its own exact per-pair permutation test and
        keep only BH-significant ones.  Costs ``retest_permutations`` extra
        MI evaluations per *candidate* (not per pair) — the affordable way
        to buy exactness, since candidates are a vanishing fraction of the
        n(n-1)/2 population.
    retest_permutations:
        Permutations per candidate in the exact re-test stage.
    testing:
        ``"pooled"`` (TINGe's fast path: one global null) or ``"exact"``
        (the paper's fused kernel: every pair gets its own ``q``-permutation
        p-value at ``(1 + q)x`` the MI cost).  Exact mode's p-value
        resolution is ``1/(q+1)``, so Bonferroni correction demands
        ``q + 1 >= n_tests / alpha`` — the pipeline refuses under-resolved
        configurations instead of silently returning an empty network.
    schedule:
        Tile scheduling policy for the MI phase
        (:data:`repro.core.exec.SCHEDULE_NAMES`): ``"dynamic"`` is the
        paper's chunk-1 self-scheduling default; ``"static"`` /
        ``"cyclic"`` are the block and round-robin assignments;
        ``"cost"`` orders heavy tiles first (LPT on the tile cost model).
    max_retries, task_timeout, on_fault:
        Fault tolerance for the MI phase (see
        :class:`repro.faults.policy.FaultPolicy`): retry budget per tile
        task, per-task timeout in seconds (fork engines only; hung
        workers are killed and replaced), and what to do when the budget
        is exhausted (``"retry"``/``"quarantine"`` record the tile and
        keep going, ``"raise"`` aborts).  The defaults (0 / ``None`` /
        ``"raise"``) abort on the first failed tile with
        :class:`repro.faults.policy.FaultToleranceExceeded`, which names
        the tile's error; only the non-``raise`` modes fall back to the
        next engine when one loses its pool.
    kernel_dtype:
        GEMM precision of the fused MI tile kernel: ``None`` (default)
        keeps the weight tensor's own precision and is bit-identical to
        previous releases; ``"float32"`` runs the mixed-precision kernel
        (float32 GEMM, float64 entropy accumulation; MI error ~1e-6);
        ``"float64"`` forces a float64 GEMM.
    autotune:
        Measure candidate MI tile sizes on a slab sample before the run
        and use the empirically fastest
        (:func:`repro.core.tiling.autotune_tile_size`); ignored when
        ``tile`` is set explicitly.
    kernel:
        MI tile kernel variant: ``"fused"`` (default, the GEMM workspace
        kernel), ``"legacy"`` (plain ``mi_tile``), ``"sparse"`` (the
        compiled packed-weight kernel exploiting B-spline sparsity —
        float64 results within ~1 ulp of ``mi_tile``), or ``"auto"``
        (measure all variants on a slab sample and use the per-host
        winner).  Composes with ``kernel_dtype``.
    """

    bins: int = 10
    order: int = 3
    n_permutations: int = 30
    n_null_pairs: int = 200
    alpha: float = 0.01
    correction: str = "bonferroni"
    transform: str = "rank"
    tile: "int | None" = None
    base: str = "nat"
    dtype: str = "float64"
    seed: "int | None" = 0
    exact_retest: bool = False
    retest_permutations: int = 100
    testing: str = "pooled"
    schedule: str = "dynamic"
    max_retries: int = 0
    task_timeout: "float | None" = None
    on_fault: str = "raise"
    kernel_dtype: "str | None" = None
    autotune: bool = False
    kernel: str = "fused"

    def __post_init__(self) -> None:
        if self.correction not in ("bonferroni", "none", "bh"):
            raise ValueError(f"unknown correction {self.correction!r}")
        if (
            self.testing == "pooled"
            and self.correction != "bh"
            and self.transform != "rank"
        ):
            raise ValueError(
                "pooled-null thresholding requires the rank transform "
                "(identical marginals); use correction='bh', transform='rank', "
                "or testing='exact'"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32/float64, got {self.dtype!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.retest_permutations < 1:
            raise ValueError(
                f"retest_permutations must be >= 1, got {self.retest_permutations}"
            )
        if self.testing not in ("pooled", "exact"):
            raise ValueError(f"testing must be 'pooled' or 'exact', got {self.testing!r}")
        if self.schedule not in SCHEDULE_NAMES:
            raise ValueError(
                f"schedule must be one of {sorted(SCHEDULE_NAMES)}, got {self.schedule!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.kernel_dtype not in (None, "float32", "float64"):
            raise ValueError(
                f"kernel_dtype must be None/float32/float64, got {self.kernel_dtype!r}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"kernel must be one of {sorted(KERNEL_NAMES)}, got {self.kernel!r}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.on_fault not in ON_FAULT_MODES:
            raise ValueError(
                f"on_fault must be one of {ON_FAULT_MODES}, got {self.on_fault!r}"
            )

    def fault_policy(self) -> FaultPolicy:
        """The :class:`repro.faults.policy.FaultPolicy` these fields imply
        (all defaults: no retries, no timeout, raise on a failed tile)."""
        return FaultPolicy.from_options(self.max_retries, self.task_timeout,
                                        self.on_fault)


@dataclass
class TingeResult:
    """Everything a reconstruction run produced.

    ``timings`` maps phase name → seconds; ``network.threshold`` holds the
    global ``I_alpha`` for threshold-mode runs (NaN for FDR mode).
    ``quarantined`` lists tiles abandoned under the config's fault policy
    (:class:`repro.faults.policy.QuarantinedTile`; empty in normal runs) —
    their MI blocks are zero, so their pairs cannot appear as edges.
    """

    network: GeneNetwork
    mi: np.ndarray
    null: "NullDistribution | None"
    timings: dict
    config: TingeConfig
    pvalues: "np.ndarray | None" = None
    quarantined: list = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.timings.values()))

    def phase_fractions(self) -> dict:
        """Phase → fraction of total runtime (the E9 breakdown rows)."""
        total = self.total_seconds
        if total <= 0:
            return {k: 0.0 for k in self.timings}
        return {k: v / total for k, v in self.timings.items()}


class TingePipeline:
    """Stage-by-stage pipeline runner with per-phase timing.

    Use :func:`reconstruct_network` for the one-call API; instantiate the
    pipeline directly when you need intermediate artifacts (e.g. the weight
    tensor for a custom analysis) or a non-default execution engine.

    Every run is traced: each phase executes under a span on ``tracer``
    (:class:`repro.obs.tracer.Tracer`; one is created per pipeline when not
    supplied) and ``timings`` is derived *from* those spans, so the legacy
    phase → seconds dict and a trace export of the same run always agree.
    Pass ``progress`` (a ``progress(done, total)`` callable, e.g.
    :class:`repro.obs.progress.ProgressPrinter`) to get live per-tile
    completion from the MI phase.
    """

    def __init__(self, config: TingeConfig | None = None, engine=None,
                 tracer=None, progress=None):
        self.config = config or TingeConfig()
        self.engine = engine
        self.tracer = tracer if tracer is not None else Tracer()
        self.progress = progress
        self.timings: dict = {}
        # An engine without its own tracer reports worker metrics into the
        # pipeline's trace (engine_map spans nest under the phase spans).
        if engine is not None and getattr(engine, "tracer", None) is None:
            try:
                engine.tracer = self.tracer
            except AttributeError:  # third-party engine with __slots__
                pass

    def _timed(self, phase: str, fn, *args, **kwargs):
        with self.tracer.span(phase) as sp:
            out = fn(*args, **kwargs)
        self.timings[phase] = sp.wall
        return out

    def run(self, data: np.ndarray, genes: "list[str] | None" = None) -> TingeResult:
        """Reconstruct the network of ``data`` (``(n_genes, m_samples)``).

        Raises on degenerate inputs (fewer than 2 genes, fewer samples than
        the spline order needs to be meaningful).
        """
        cfg = self.config
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"expected (genes, samples) matrix, got shape {data.shape}")
        n, m = data.shape
        if not np.isfinite(data).all():
            raise ValueError(
                "expression data contains NaN/inf; impute first "
                "(see repro.data.impute_missing)"
            )
        if n < 2:
            raise ValueError(f"need at least 2 genes, got {n}")
        if m < 2 * cfg.order:
            raise ValueError(
                f"need at least {2 * cfg.order} samples for order {cfg.order}, got {m}"
            )
        if genes is None:
            genes = [f"G{i:05d}" for i in range(n)]
        if len(genes) != n:
            raise ValueError(f"{len(genes)} gene names for {n} genes")
        self.timings = {}

        with self.tracer.span("reconstruct", n_genes=n, m_samples=m,
                              testing=cfg.testing):
            transformed = self._timed("preprocess", preprocess, data, cfg.transform)
            weights = self._timed(
                "weights", weight_tensor, transformed, cfg.bins, cfg.order, np.dtype(cfg.dtype)
            )
            # One weight source for the whole run: marginal entropies are
            # computed once here and reused by every phase that needs them.
            source = TensorSource(weights)
            if cfg.testing == "exact":
                return self._run_exact(source, genes, n)
            null = self._timed(
                "null",
                pooled_null,
                weights,
                cfg.n_permutations,
                min(cfg.n_null_pairs, pair_count(n)),
                cfg.seed,
                cfg.base,
                self.engine,
            )
            result = self._timed(
                "mi", mi_matrix, source, cfg.tile, cfg.base, self.engine,
                self.progress, None, self.tracer, cfg.schedule,
                policy=cfg.fault_policy(), kernel_dtype=cfg.kernel_dtype,
                autotune=cfg.autotune, kernel=cfg.kernel,
            )

            def build():
                if cfg.correction == "bh":
                    adj, _p = fdr_adjacency(result.mi, null, alpha=cfg.alpha)
                    thr = float("nan")
                else:
                    thr = null.threshold(cfg.alpha, n_tests=pair_count(n), correction=cfg.correction)
                    adj = threshold_adjacency(result.mi, thr)
                return GeneNetwork(adjacency=adj, weights=result.mi, genes=list(genes), threshold=thr)

            network = self._timed("threshold", build)
            if cfg.exact_retest and network.n_edges:
                network = self._timed("retest", self._exact_retest, network, weights)
        return TingeResult(
            network=network,
            mi=result.mi,
            null=null,
            timings=dict(self.timings),
            config=cfg,
            quarantined=result.quarantined,
        )

    def _run_exact(self, source: TensorSource, genes: list, n: int) -> TingeResult:
        """Exact-testing branch: fused per-pair permutation p-values."""
        from repro.stats.fdr import benjamini_hochberg

        cfg = self.config
        min_p = 1.0 / (cfg.n_permutations + 1.0)
        if cfg.correction == "bonferroni" and min_p > cfg.alpha / pair_count(n):
            raise ValueError(
                f"exact testing with q={cfg.n_permutations} resolves p-values "
                f"only to {min_p:.2e}, above the Bonferroni level "
                f"{cfg.alpha / pair_count(n):.2e} for {pair_count(n)} pairs; "
                "raise n_permutations or use correction='bh'/'none'"
            )
        exact = self._timed(
            "mi", exact_mi_pvalues, source, cfg.n_permutations, cfg.tile,
            cfg.seed, cfg.base, self.engine, self.progress, self.tracer,
        )

        def build():
            iu = np.triu_indices(n, k=1)
            p_upper = exact.pvalues[iu]
            if cfg.correction == "bh":
                keep = benjamini_hochberg(p_upper, alpha=cfg.alpha)
            elif cfg.correction == "bonferroni":
                keep = p_upper <= cfg.alpha / pair_count(n)
            else:
                keep = p_upper <= cfg.alpha
            adj = np.zeros((n, n), dtype=bool)
            adj[(iu[0][keep], iu[1][keep])] = True
            adj = adj | adj.T
            return GeneNetwork(adjacency=adj, weights=exact.mi,
                               genes=list(genes), threshold=float("nan"))

        network = self._timed("threshold", build)
        return TingeResult(
            network=network,
            mi=exact.mi,
            null=None,
            timings=dict(self.timings),
            config=cfg,
            pvalues=exact.pvalues,
        )

    def _exact_retest(self, network: GeneNetwork, weights: np.ndarray) -> GeneNetwork:
        """Stage-two exact per-pair permutation test of the candidate edges."""
        from repro.core.permutation import per_pair_pvalues
        from repro.stats.fdr import benjamini_hochberg

        cfg = self.config
        iu = np.nonzero(np.triu(network.adjacency, k=1))
        pairs = np.stack(iu, axis=1)
        _obs, pvals = per_pair_pvalues(
            weights, pairs, n_permutations=cfg.retest_permutations,
            seed=cfg.seed, base=cfg.base,
        )
        keep = benjamini_hochberg(pvals, alpha=cfg.alpha)
        adj = np.zeros_like(network.adjacency)
        adj[(iu[0][keep], iu[1][keep])] = True
        adj = adj | adj.T
        return GeneNetwork(
            adjacency=adj, weights=network.weights,
            genes=network.genes, threshold=network.threshold,
        )




def reconstruct_network(
    data: np.ndarray,
    genes: "list[str] | None" = None,
    config: TingeConfig | None = None,
    engine=None,
    tracer=None,
    progress=None,
) -> TingeResult:
    """One-call TINGe network reconstruction.

    Parameters
    ----------
    data:
        ``(n_genes, m_samples)`` expression matrix.
    genes:
        Optional gene names (defaults to ``G00000...``).
    config:
        :class:`TingeConfig`; defaults are the TINGe paper settings scaled
        for interactive use.
    engine:
        Optional parallel execution engine (:mod:`repro.parallel.engine`).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer` the run records spans and
        counters into (export with :func:`repro.obs.export.write_jsonl`).
    progress:
        Optional ``progress(done, total)`` callback for the MI tile loop.

    Returns
    -------
    TingeResult

    Examples
    --------
    >>> import numpy as np
    >>> from repro import reconstruct_network
    >>> rng = np.random.default_rng(0)
    >>> x = rng.normal(size=200); noisy = x + 0.1 * rng.normal(size=200)
    >>> data = np.vstack([x, noisy, rng.normal(size=200)])
    >>> res = reconstruct_network(data, genes=["a", "b", "c"])
    >>> ("a", "b") in res.network.edge_set()
    True
    """
    return TingePipeline(config=config, engine=engine, tracer=tracer,
                         progress=progress).run(data, genes)
