"""Job execution: the serve daemon's reconstruction path.

One job runs the same phases as :class:`repro.core.pipeline.TingePipeline`
(preprocess → weights → null → mi → threshold), with two service-grade
differences wired in at the weight-source boundary:

* **cache check** — once the weight tensor exists, its fingerprint plus
  the config form the :func:`repro.core.exec.result_cache_key`; a
  committed cache entry short-circuits the run before any null/MI work,
  so resubmissions finish with ``tiles_done == 0``.
* **checkpointed MI** — the MI phase runs through a
  :class:`~repro.core.checkpoint.CheckpointSink` in a per-key directory,
  so a job killed mid-run (preemption, daemon restart) resumes from the
  ledger when the same (dataset, config) is resubmitted, and the resumed
  matrix is bit-identical to an uninterrupted run.

Phase ordering, seeds and null sizing match the pipeline exactly, so a
served network equals what ``reconstruct_network`` returns for the same
inputs.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import CheckpointSink
from repro.core.discretize import preprocess
from repro.core.exec import (
    TensorSource,
    plan_tiles,
    resolve_kernel,
    result_cache_key,
    run_tile_plan,
)
from repro.core.network import GeneNetwork
from repro.core.permutation import pooled_null
from repro.core.pipeline import TingeConfig
from repro.core.threshold import fdr_adjacency, threshold_adjacency
from repro.core.tiling import pair_count
from repro.obs.progress import ProgressState
from repro.obs.tracer import Tracer
from repro.parallel.engine import engine_kind, make_engine
from repro.serve.cache import ResultCache
from repro.serve.jobs import Job, JobState

__all__ = ["execute_job", "load_job_dataset", "validate_submission"]

_ENGINE_KINDS = ("serial", "thread", "process", "sharedmem", "elastic")


class ValidationError(ValueError):
    """A submission the daemon rejects up front (HTTP 400)."""


def validate_submission(payload: dict) -> Job:
    """Parse and validate a ``POST /jobs`` body into a :class:`Job`.

    Raises :class:`ValidationError` with a user-facing message for
    anything malformed: unknown config fields, unsupported modes, a
    dataset path that does not exist.  Validating here keeps the worker
    pool free of jobs that can only fail.
    """
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    unknown = set(payload) - {
        "dataset", "config", "tenant", "priority", "engine", "workers",
        "interrupt_after_rows",
    }
    if unknown:
        raise ValidationError(f"unknown field(s): {sorted(unknown)}")
    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ValidationError("'dataset' (path to .npz/.tsv) is required")
    path = Path(dataset)
    if path.suffix not in (".npz", ".tsv"):
        raise ValidationError(f"unsupported dataset format {path.suffix!r} "
                              "(use .npz or .tsv)")
    if not path.exists():
        raise ValidationError(f"dataset not found: {dataset}")
    config = payload.get("config") or {}
    if not isinstance(config, dict):
        raise ValidationError("'config' must be a JSON object of TingeConfig fields")
    try:
        cfg = TingeConfig(**config)
    except TypeError as exc:
        raise ValidationError(f"bad config field: {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"bad config: {exc}") from None
    if cfg.testing != "pooled":
        raise ValidationError(
            "the serve path supports testing='pooled' only (exact per-pair "
            "testing has no checkpointable tile decomposition yet)")
    if cfg.exact_retest:
        raise ValidationError("exact_retest is not supported by the serve path")
    engine = payload.get("engine", "serial")
    if engine not in _ENGINE_KINDS:
        raise ValidationError(
            f"unknown engine {engine!r}; choose from {list(_ENGINE_KINDS)}")
    workers = payload.get("workers")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    priority = payload.get("priority", 0)
    if not isinstance(priority, int):
        raise ValidationError(f"priority must be an integer, got {priority!r}")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ValidationError("tenant must be a non-empty string")
    interrupt = payload.get("interrupt_after_rows")
    if interrupt is not None and (not isinstance(interrupt, int) or interrupt < 1):
        raise ValidationError("interrupt_after_rows must be a positive integer")
    return Job(dataset=str(path), config=dict(config), tenant=tenant,
               priority=priority, engine=engine, workers=workers,
               interrupt_after_rows=interrupt)


def load_job_dataset(path: "str | Path"):
    """Load a dataset the way the CLI does (.npz round-trip or TINGe TSV)."""
    from repro.data import load_dataset, read_expression_tsv

    path = Path(path)
    if path.suffix == ".npz":
        return load_dataset(path)
    return read_expression_tsv(path)


def _result_payload(job: Job, network: GeneNetwork, cached: bool) -> dict:
    """The JSON body ``GET /jobs/<id>/result`` returns."""
    thr = network.threshold
    return {
        "job_id": job.job_id,
        "cache_key": job.cache_key,
        "cached": cached,
        "genes": list(network.genes),
        "n_genes": network.n_genes,
        "n_edges": network.n_edges,
        "threshold": None if np.isnan(thr) else float(thr),
        "edges": [[a, b, float(w)] for a, b, w in network.edge_list()],
        "quarantined": list(job.quarantined),
    }


def execute_job(job: Job, cache: ResultCache, state_dir: "str | Path",
                datasets=None) -> None:
    """Run one job end to end, mutating it in place.

    Never raises: failures land in ``job.state == "failed"`` with the
    error message, interruptions in ``"interrupted"`` with the ledger
    kept for resumption.  ``datasets`` is the daemon's
    :class:`~repro.serve.datasets.DatasetRegistry`, required for the
    ``dataset_init`` / ``dataset_samples`` job kinds.
    """
    state_dir = Path(state_dir)
    job.state = JobState.RUNNING
    job.started_at = time.time()
    job.tracer = Tracer(meta={"job_id": job.job_id, "dataset": job.dataset})
    job.progress = ProgressState()
    try:
        if job.kind == "reconstruct":
            _execute(job, cache, state_dir)
        elif job.kind in ("dataset_init", "dataset_samples"):
            if datasets is None:
                raise ValueError(f"{job.kind} job without a dataset registry")
            _execute_dataset(job, cache, state_dir, datasets)
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
    except Exception as exc:  # noqa: BLE001 - the daemon must survive any job
        job.state = JobState.FAILED
        job.error = f"{type(exc).__name__}: {exc}"
    finally:
        job.finished_at = time.time()
        job.phase = None


def _execute(job: Job, cache: ResultCache, state_dir: Path) -> None:
    cfg = TingeConfig(**job.config)
    tracer = job.tracer
    ds = load_job_dataset(job.dataset)
    data = np.asarray(ds.expression, dtype=np.float64)
    n, m = data.shape
    if n < 2:
        raise ValueError(f"need at least 2 genes, got {n}")
    if m < 2 * cfg.order:
        raise ValueError(
            f"need at least {2 * cfg.order} samples for order {cfg.order}, got {m}")
    if not np.isfinite(data).all():
        raise ValueError("expression data contains NaN/inf; impute first")

    job.phase = "preprocess"
    with tracer.span("preprocess"):
        transformed = preprocess(data, cfg.transform)
    job.phase = "weights"
    with tracer.span("weights"):
        weights = weight_tensor(transformed, cfg.bins, cfg.order, np.dtype(cfg.dtype))
    source = TensorSource(weights)
    key = result_cache_key(source.fingerprint(), cfg)
    job.cache_key = key

    hit = cache.get(key)
    if hit is not None:
        # Resubmission of an identical (dataset, config): serve the stored
        # network.  No null, no tiles — tiles_done stays 0 by construction.
        job.quarantined = list(hit.meta.get("quarantined", []))
        job.result = _result_payload(job, hit.network, cached=True)
        job.cached = True
        job.state = JobState.DONE
        return

    engine = None
    try:
        if job.engine != "serial":
            # An elastic job spawns (job.workers or 3) local worker
            # subprocesses; remote workers can additionally join the
            # printed coordinator address at any time via `repro worker`.
            engine = make_engine(job.engine, n_workers=job.workers,
                                 tracer=tracer,
                                 fallback=cfg.on_fault != "raise")

        job.phase = "null"
        with tracer.span("null") as sp:
            null = pooled_null(weights, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base, engine)
            sp.annotate(route=null.route)

        job.phase = "mi"
        kernel, tile_override = resolve_kernel(
            source, cfg.kernel, kernel_dtype=cfg.kernel_dtype,
            engine_name=engine_kind(engine), base=cfg.base)
        plan = plan_tiles(source,
                          tile=cfg.tile if cfg.tile is not None else tile_override,
                          base=cfg.base, schedule=cfg.schedule,
                          kernel_dtype=cfg.kernel_dtype, autotune=cfg.autotune,
                          engine_name=engine_kind(engine), kernel=kernel)
        ck_dir = state_dir / "checkpoints" / key
        sink = CheckpointSink(ck_dir, plan, source.fingerprint(),
                              interrupt_after_rows=job.interrupt_after_rows)
        with tracer.span("mi", n_genes=n, n_tiles=plan.n_tiles):
            mi = run_tile_plan(plan, source, sink, engine=engine,
                               tracer=tracer, progress=job.progress,
                               policy=cfg.fault_policy(),
                               kernel_dtype=cfg.kernel_dtype,
                               kernel_variant=kernel)
    finally:
        # Only the elastic engine holds resources (worker subprocesses,
        # a listener socket); in-process pools are per-call.
        if engine is not None and hasattr(engine, "close"):
            engine.close()
    job.quarantined = [q.as_dict() for q in sink.quarantined]
    if mi is None:
        # Interrupted mid-run (simulated kill or preemption): the ledger
        # stays on disk, so resubmitting the same job resumes it.
        job.state = JobState.INTERRUPTED
        job.error = "interrupted mid-run; resubmit to resume from the ledger"
        return

    job.phase = "threshold"
    with tracer.span("threshold"):
        if cfg.correction == "bh":
            adj, _p = fdr_adjacency(mi, null, alpha=cfg.alpha)
            thr = float("nan")
        else:
            thr = null.threshold(cfg.alpha, n_tests=pair_count(n),
                                 correction=cfg.correction)
            adj = threshold_adjacency(mi, thr)
        network = GeneNetwork(adjacency=adj, weights=mi,
                              genes=list(ds.genes), threshold=thr)

    if not job.quarantined:
        cache.put(key, network, meta={
            "fingerprint": source.fingerprint(),
            "config": dict(job.config),
            "dataset": job.dataset,
            "quarantined": [],
        })
        # The result is durably cached; the row files have served their
        # purpose and a whole-genome ledger is not small.
        shutil.rmtree(ck_dir, ignore_errors=True)
    job.result = _result_payload(job, network, cached=False)
    job.state = JobState.DONE


# ---------------------------------------------------------------------------
# Streaming dataset jobs
# ---------------------------------------------------------------------------

def _dataset_engine(job, cfg, tracer):
    """The (possibly None) engine a dataset job runs tiles/null through."""
    if job.engine == "serial":
        return None
    return make_engine(job.engine, n_workers=job.workers, tracer=tracer,
                       fallback=cfg.on_fault != "raise")


def _bootstrap_updater(job, ds, cache, state_dir: Path, engine):
    """Build (or rebuild, after a daemon restart) the dataset's updater.

    Cache-first: if the committed data's network is already cached, the
    stored MI matrix is adopted and only the cheap deterministic parts
    (weights, entropies, null) are rebuilt — zero tiles run.  Otherwise
    this is a full checkpointed reconstruction, exactly the classic job
    path.  Returns ``None`` if interrupted mid-build.
    """
    from repro.core.incremental import NetworkUpdater

    cfg = TingeConfig(**ds.config)
    tracer = job.tracer
    data = ds.data
    n = data.shape[0]

    job.phase = "preprocess"
    with tracer.span("preprocess"):
        transformed = preprocess(data, cfg.transform)
    job.phase = "weights"
    with tracer.span("weights"):
        weights = weight_tensor(transformed, cfg.bins, cfg.order,
                                np.dtype(cfg.dtype))
    source = TensorSource(weights)
    key = result_cache_key(source.fingerprint(), cfg)
    job.cache_key = key

    hit = cache.get(key)
    if hit is not None:
        job.cached = True
        job.phase = "null"
        with tracer.span("null") as sp:
            null = pooled_null(weights, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base, engine)
            sp.annotate(route=null.route)
        updater = NetworkUpdater(weights, hit.network.weights, list(ds.genes),
                                 null, data=data, config=cfg)
    else:
        job.phase = "null"
        with tracer.span("null") as sp:
            null = pooled_null(weights, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base, engine)
            sp.annotate(route=null.route)
        job.phase = "mi"
        kernel, tile_override = resolve_kernel(
            source, cfg.kernel, kernel_dtype=cfg.kernel_dtype,
            engine_name=engine_kind(engine), base=cfg.base)
        plan = plan_tiles(source,
                          tile=cfg.tile if cfg.tile is not None else tile_override,
                          base=cfg.base, schedule=cfg.schedule,
                          kernel_dtype=cfg.kernel_dtype, autotune=cfg.autotune,
                          engine_name=engine_kind(engine), kernel=kernel)
        ck_dir = state_dir / "checkpoints" / key
        sink = CheckpointSink(ck_dir, plan, source.fingerprint(),
                              interrupt_after_rows=job.interrupt_after_rows)
        with tracer.span("mi", n_genes=n, n_tiles=plan.n_tiles):
            mi = run_tile_plan(plan, source, sink, engine=engine,
                               tracer=tracer, progress=job.progress,
                               policy=cfg.fault_policy(),
                               kernel_dtype=cfg.kernel_dtype,
                               kernel_variant=kernel)
        job.quarantined = [q.as_dict() for q in sink.quarantined]
        if mi is None:
            return None
        updater = NetworkUpdater(weights, mi, list(ds.genes), null,
                                 data=data, config=cfg)
        if not job.quarantined:
            cache.put(key, updater.network, meta={
                "fingerprint": source.fingerprint(),
                "config": dict(ds.config),
                "dataset_id": ds.dataset_id,
                "quarantined": [],
            })
            shutil.rmtree(ck_dir, ignore_errors=True)
    ds.updater = updater
    ds.latest_key = key
    if ds.version == 0:
        network = updater.network
        thr = network.threshold
        ds.commit(ds.data, 0)  # version 0 -> 1, no data change
        ds.emit("snapshot", {
            "job_id": job.job_id,
            "n_samples": int(ds.data.shape[1]),
            "n_edges": network.n_edges,
            "threshold": None if np.isnan(thr) else float(thr),
            "cached": job.cached,
        })
        ds.save()
    return updater


def _dataset_payload(job, ds, event=None) -> dict:
    network = ds.updater.network
    thr = network.threshold
    payload = {
        "job_id": job.job_id,
        "dataset_id": ds.dataset_id,
        "version": ds.version,
        "cache_key": job.cache_key,
        "cached": job.cached,
        "n_genes": network.n_genes,
        "n_samples": int(ds.data.shape[1]),
        "n_edges": network.n_edges,
        "threshold": None if np.isnan(thr) else float(thr),
        "quarantined": list(job.quarantined),
    }
    if event is not None:
        payload["event"] = event
    return payload


def _execute_dataset(job: Job, cache: ResultCache, state_dir: Path,
                     datasets) -> None:
    """Run one ``dataset_init`` / ``dataset_samples`` job."""
    ds = datasets.get(job.dataset_id)
    if ds is None:
        raise ValueError(f"no such dataset: {job.dataset_id}")
    cfg = TingeConfig(**ds.config)
    engine = None
    # One dataset, one job at a time: two sample batches posted
    # back-to-back serialize here, each folding in whatever is staged
    # when its turn comes.
    with ds.exec_lock:
        try:
            engine = _dataset_engine(job, cfg, job.tracer)
            if ds.updater is None:
                if _bootstrap_updater(job, ds, cache, state_dir, engine) is None:
                    job.state = JobState.INTERRUPTED
                    job.error = ("interrupted mid-build; post to "
                                 f"/datasets/{ds.dataset_id}/samples "
                                 "to resume from the ledger")
                    return
            if job.kind == "dataset_init":
                job.result = _dataset_payload(job, ds)
                job.state = JobState.DONE
                return
            _execute_dataset_samples(job, ds, cache, state_dir, cfg, engine)
        finally:
            if engine is not None and hasattr(engine, "close"):
                engine.close()


def _execute_dataset_samples(job: Job, ds, cache: ResultCache,
                             state_dir: Path, cfg, engine) -> None:
    from repro.core.discretize import extend_columns

    new, n_batches = ds.pending_columns()
    if new is None:
        # Nothing staged (an extra retry after the batch already
        # committed): idempotent no-op serving the current state.
        job.result = _dataset_payload(job, ds)
        job.state = JobState.DONE
        return

    # Key the *grown* dataset's cache entry before running anything: if
    # another daemon (or an earlier life of this one) already computed
    # this exact version, adopt its matrix with zero tiles.
    job.phase = "weights"
    grown = extend_columns(ds.data, new)
    with job.tracer.span("weights"):
        weights = weight_tensor(preprocess(grown, cfg.transform),
                                cfg.bins, cfg.order, np.dtype(cfg.dtype))
    key = result_cache_key(TensorSource(weights).fingerprint(), cfg)
    job.cache_key = key

    hit = cache.get(key)
    if hit is not None:
        job.phase = "adopt"
        delta = ds.updater.adopt_samples(new, hit.network.weights,
                                         tracer=job.tracer)
        job.cached = True
    else:
        job.phase = "mi"
        ck_dir = state_dir / "checkpoints" / key
        delta = ds.updater.add_samples(
            new, engine=engine, tracer=job.tracer, progress=job.progress,
            checkpoint_dir=ck_dir,
            interrupt_after_rows=job.interrupt_after_rows)
        if delta is None:
            # The staged batch and the replay ledger both survive; the
            # next (even empty) samples post resumes from the ledger.
            job.state = JobState.INTERRUPTED
            job.error = ("interrupted mid-replay; post to "
                         f"/datasets/{ds.dataset_id}/samples "
                         "to resume from the ledger")
            return
        job.quarantined = list(delta.quarantined)
        if not delta.quarantined:
            cache.put(key, ds.updater.network, meta={
                "config": dict(ds.config),
                "dataset_id": ds.dataset_id,
                "quarantined": [],
            })
            shutil.rmtree(ck_dir, ignore_errors=True)

    job.phase = "commit"
    ds.commit(grown, n_batches)
    ds.latest_key = key
    event = ds.emit("delta", {"job_id": job.job_id, **delta.as_dict()})
    ds.save()
    job.result = _dataset_payload(job, ds, event=event)
    job.state = JobState.DONE
