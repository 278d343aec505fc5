"""Per-layer tracing, done from the benchmark's own code.

While a traced operation runs, :class:`LayerTrace` replaces the public
layer functions that the pipeline and the streaming updater call (by
rebinding the names in the calling modules) with wrappers that open a
span on a :class:`repro.obs.tracer.Tracer` and record counts at the same
boundary.  The program itself is not modified and runs untouched when
no trace is active.  The same tracer is handed to the pipeline through
its public ``tracer=`` argument, so the spans the program already emits
(``engine_map`` with per-worker busy time, the ``comm.bytes_*`` counters
of the elastic transport) nest in one tree with the benchmark's spans.

A sampler thread reads the resident set size from ``/proc/self/status``
every few milliseconds, so each span's peak RSS can be recovered.  Spans
stay in memory; :meth:`LayerTrace.write` exports them at the end.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.core.incremental import NetworkUpdater
from repro.core.sparsekernel import PACK_LANES
from repro.obs.export import write_jsonl
from repro.obs.tracer import Tracer

# (module whose global is rebound, attribute, span name).  The names are
# rebound where they are *called*: the pipeline and the updater import
# the layer functions into their own namespaces.
_SPANNED = [
    ("repro.core.pipeline", "preprocess", "discretize.preprocess"),
    ("repro.core.pipeline", "weight_tensor", "bspline.weight_tensor"),
    ("repro.core.pipeline", "pooled_null", "permutation.pooled_null"),
    ("repro.core.pipeline", "mi_matrix", "mi_matrix.mi_matrix"),
    ("repro.core.pipeline", "threshold_adjacency", "threshold.threshold_adjacency"),
    ("repro.core.pipeline", "GeneNetwork", "network.GeneNetwork"),
    ("repro.core.mi_matrix", "run_tile_plan", "exec.run_tile_plan"),
    ("repro.core.incremental", "preprocess", "discretize.preprocess"),
    ("repro.core.incremental", "weight_tensor", "bspline.weight_tensor"),
    ("repro.core.incremental", "pooled_null", "permutation.pooled_null"),
    ("repro.core.incremental", "run_tile_plan", "exec.run_tile_plan"),
    ("repro.core.incremental", "threshold_adjacency", "threshold.threshold_adjacency"),
    ("repro.core.incremental", "GeneNetwork", "network.GeneNetwork"),
]
# Tile kernels as the tile driver (repro.core.mi_matrix.compute_tile)
# calls them; they run on engine worker threads, so they get counters,
# not spans.  Elastic workers run in other processes and are seen
# through the engine's own engine_map metadata instead.
_KERNELS = [
    ("repro.core.mi_matrix", "mi_tile_block"),
    ("repro.core.mi_matrix", "mi_tile_sparse_block"),
    ("repro.core.mi_matrix", "mi_tile"),
]

def kernel_work(tiles, variant, m: int, b: int, k: int, itemsize: int) -> tuple:
    """Computed ``(ops, bytes)`` of the tile kernel over ``tiles``.

    A model, not a measurement, so it repeats exactly between runs.  Per
    computed cell (one gene pair of a tile):

    * dense GEMM kernels (``fused``, ``legacy``): ``2 m b^2`` operations
      for the joint histogram plus ``3 b^2 + 3`` for the entropy;
    * ``sparse``: ``2 m k^2`` scatter operations plus the same entropy.

    Bytes per tile: both operand slabs read once (dense: ``m b`` values
    per gene; sparse: ``PACK_LANES`` packed values plus one int32 index
    per sample), the float64 joint buffer written and read, and the MI
    block written.
    """
    ops = 0
    nbytes = 0
    sparse = variant == "sparse"
    per_gene = m * (PACK_LANES * itemsize + 4) if sparse else m * b * itemsize
    per_cell_ops = (2 * m * k * k if sparse else 2 * m * b * b) + 3 * b * b + 3
    for t in tiles:
        rows, cols = t.i1 - t.i0, t.j1 - t.j0
        cells = rows * cols
        ops += cells * per_cell_ops
        nbytes += per_gene * (rows + cols) + cells * (2 * 8 * b * b + 8)
    return ops, nbytes


class RssSampler:
    """Background sampler of this process's resident set size."""

    def __init__(self, clock, interval: float = 0.005):
        self._clock = clock
        self._interval = interval
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self.samples: list = []  # (tracer time, MB)

    @staticmethod
    def read_mb() -> float:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append((self._clock(), self.read_mb()))
            self._stop.wait(self._interval)

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def peak_mb(self, start: float, end: float) -> float:
        """Peak RSS sampled in ``[start, end]`` (the last earlier sample
        when the window fell between two samples)."""
        inside = [mb for t, mb in self.samples if start <= t <= end]
        if inside:
            return max(inside)
        before = [mb for t, mb in self.samples if t <= end]
        return before[-1] if before else 0.0


class LayerTrace:
    """Span tracer for the benchmark's traced operations."""

    def __init__(self, order: int):
        self.order = order
        self.tracer = Tracer(meta={"source": "perfbench"})
        self.rss = RssSampler(self.tracer.now)
        self.ops: list = []  # (op id, kind, {metric: value})

    # -- wrappers ---------------------------------------------------------
    def _annotate(self, name: str, sp, args, kwargs, out) -> None:
        if name == "bspline.weight_tensor":
            sp.annotate(bytes=int(out.nbytes))
        elif name == "permutation.pooled_null":
            sp.annotate(null_mi_evals=int(out.size))
        elif name == "network.GeneNetwork":
            sp.annotate(edges=int(out.n_edges))
        elif name == "exec.run_tile_plan":
            plan, source = args[0], args[1]
            variant = kwargs.get("kernel_variant")
            kdt = kwargs.get("kernel_dtype")
            itemsize = source.itemsize if kdt is None else np.dtype(kdt).itemsize
            ops, nbytes = kernel_work(plan.tiles, variant, source.m_samples,
                                      source.bins, self.order, itemsize)
            sp.annotate(tiles=plan.n_tiles,
                        pairs=int(sum(t.n_pairs for t in plan.tiles)),
                        kernel=variant or "fused", kernel_ops=ops,
                        kernel_bytes=nbytes)
        elif name == "incremental.add_samples" and out is not None:
            sp.annotate(pairs_total=out.pairs_total,
                        pairs_screened_dirty=out.pairs_screened_dirty,
                        pairs_recomputed=out.pairs_recomputed)

    def _spanned(self, fn, name: str):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs)
                self._annotate(name, sp, args, kwargs, out)
            return out

        return wrapped

    def _counted(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer.add("kernel.busy_s", time.perf_counter() - t0)
            tracer.add("kernel.calls", 1)
            return out

        return wrapped

    @contextmanager
    def _installed(self):
        targets = [(importlib.import_module(mod), attr,
                    functools.partial(self._spanned, name=name))
                   for mod, attr, name in _SPANNED]
        targets += [(importlib.import_module(mod), attr, self._counted)
                    for mod, attr in _KERNELS]
        targets.append((NetworkUpdater, "add_samples",
                        functools.partial(self._spanned, name="incremental.add_samples")))
        saved = []
        try:
            for owner, attr, wrap in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- operations ---------------------------------------------------------
    @contextmanager
    def op(self, kind: str):
        """Trace one operation: every span it opens is tagged with its id."""
        op_id = len(self.ops)
        first_span = len(self.tracer.spans)
        before = dict(self.tracer.counters)
        self.rss.start()
        try:
            with self._installed(), self.tracer.span("op", op=op_id, kind=kind):
                yield self.tracer
        finally:
            self.rss.stop()
            spans = self.tracer.spans[first_span:]
            for s in spans:
                s.annotate(op=op_id)
            counters = {k: v - before.get(k, 0.0)
                        for k, v in self.tracer.counters.items()}
            self.ops.append((op_id, kind, self._layer_metrics(spans, counters)))

    def engine_started(self, seconds: float) -> None:
        """Record an engine start timed by the caller (inside an op)."""
        self.tracer.add("engine.start_s", seconds)
        self.tracer.add("engine.starts", 1)

    def _layer_metrics(self, spans: list, counters: dict) -> dict:
        by = defaultdict(list)
        for s in spans:
            by[s.name].append(s)
        ids = {s.span_id: s for s in spans}

        def wall(name: str) -> float:
            return float(sum(s.wall for s in by[name]))

        def meta(name: str, key: str) -> float:
            return float(sum(s.metadata.get(key, 0) for s in by[name]))

        def peak(name: str) -> float:
            return max((self.rss.peak_mb(s.start, s.end) for s in by[name]),
                       default=0.0)

        def under(span, name: str) -> bool:
            parent = ids.get(span.parent_id)
            while parent is not None:
                if parent.name == name:
                    return True
                parent = ids.get(parent.parent_id)
            return False

        out: dict = {}
        if by["discretize.preprocess"]:
            out["discretize.preprocess_s"] = wall("discretize.preprocess")
        if by["bspline.weight_tensor"]:
            out["bspline.weight_tensor_s"] = wall("bspline.weight_tensor")
            out["bspline.weight_tensor_rss_mb"] = peak("bspline.weight_tensor")
            out["bspline.weight_tensor_bytes"] = meta("bspline.weight_tensor", "bytes")
        if by["permutation.pooled_null"]:
            out["permutation.pooled_null_s"] = wall("permutation.pooled_null")
            out["permutation.null_mi_evals"] = meta("permutation.pooled_null",
                                                    "null_mi_evals")
        if by["mi_matrix.mi_matrix"]:
            out["mi_matrix.mi_matrix_s"] = wall("mi_matrix.mi_matrix")
            out["mi_matrix.rss_mb"] = peak("mi_matrix.mi_matrix")
        if by["threshold.threshold_adjacency"]:
            out["threshold.threshold_adjacency_s"] = wall("threshold.threshold_adjacency")
        if by["network.GeneNetwork"]:
            out["network.edges"] = float(by["network.GeneNetwork"][-1].metadata["edges"])
        if counters.get("engine.starts"):
            out["engine.start_s"] = counters["engine.start_s"] / counters["engine.starts"]

        execs = by["exec.run_tile_plan"]
        if execs:
            exec_wall = wall("exec.run_tile_plan")
            pairs = meta("exec.run_tile_plan", "pairs")
            out["exec.tiles"] = meta("exec.run_tile_plan", "tiles")
            out["exec.pairs"] = pairs
            maps = [s for s in by["engine_map"] if under(s, "exec.run_tile_plan")]
            busy_by_worker: dict = defaultdict(float)
            for s in maps:
                for w, sec in s.metadata.get("worker_busy_seconds", {}).items():
                    busy_by_worker[w] += sec
            busy = float(sum(s.metadata.get("busy_seconds", 0.0) for s in maps))
            workers = max((s.metadata.get("n_workers", 1) for s in maps), default=1)
            out["engine.maps"] = float(len(maps))
            out["engine.busy_s"] = busy
            out["engine.dispatch_overhead_s"] = exec_wall - busy / max(workers, 1)
            if busy_by_worker:
                loads = list(busy_by_worker.values())
                out["engine.imbalance"] = max(loads) / (sum(loads) / len(loads))
            if counters.get("kernel.calls"):
                calls, kbusy = counters["kernel.calls"], counters["kernel.busy_s"]
            else:  # kernels ran in worker processes: the engine saw them
                calls = float(sum(s.metadata.get("n_tasks", 0) for s in maps))
                kbusy = busy
            out["kernel.calls"] = calls
            out["kernel.busy_s"] = kbusy
            out["kernel.pairs_per_busy_s"] = pairs / kbusy if kbusy > 0 else 0.0
            ops = meta("exec.run_tile_plan", "kernel_ops")
            nbytes = meta("exec.run_tile_plan", "kernel_bytes")
            out["kernel.ops"] = ops
            out["kernel.bytes"] = nbytes
            out["kernel.ops_per_byte"] = ops / nbytes if nbytes else 0.0

        out["elastic.bytes_sent"] = float(sum(
            v for k, v in counters.items() if k.startswith("comm.bytes_sent")))
        out["elastic.bytes_recv"] = float(sum(
            v for k, v in counters.items() if k.startswith("comm.bytes_recv")))
        out["elastic.locality_hits"] = float(counters.get("elastic_locality_hits", 0.0))

        adds = by["incremental.add_samples"]
        if adds:
            rebuild = {"discretize.preprocess", "bspline.weight_tensor",
                       "permutation.pooled_null"}
            out["incremental.rebuild_s"] = float(sum(
                s.wall for name in rebuild for s in by[name]
                if under(s, "incremental.add_samples")))
            out["incremental.replay_s"] = float(sum(
                s.wall for s in execs if under(s, "incremental.add_samples")))
            total = meta("incremental.add_samples", "pairs_total")
            recomputed = meta("incremental.add_samples", "pairs_recomputed")
            dirty = meta("incremental.add_samples", "pairs_screened_dirty")
            out["incremental.pairs_recomputed_frac"] = recomputed / total if total else 0.0
            out["incremental.replay_useful_frac"] = dirty / recomputed if recomputed else 0.0
        return out

    def write(self, path) -> None:
        """Export every span and counter event of the run as JSON Lines."""
        write_jsonl(self.tracer, path)
