"""Execution engines: how tile tasks actually run on this host.

An engine is anything with ``map(fn, items) -> list`` (results in item
order).  The core drivers (:func:`repro.core.mi_matrix.mi_matrix`) are
engine-agnostic; picking an engine picks the host-level parallelism:

* :class:`SerialEngine` — in-process loop (the reference).
* :class:`ThreadEngine` — ``ThreadPoolExecutor``; effective for the MI
  kernel because its time is spent inside BLAS/numpy calls that release the
  GIL, the numpy analog of the paper's OpenMP threads.
* :class:`ProcessEngine` — a ``fork``-based process pool for kernels that
  hold the GIL.  Task functions may be closures: the engine publishes the
  function in a module-level registry *before* forking, so children inherit
  it by COW memory instead of pickling (the same zero-copy trick the paper
  plays with the weight matrices resident on the coprocessor).  Results
  still cross the pipe by pickling.
* :class:`SharedMemoryEngine` — the write-in-place pool.  In addition to
  ``map`` it implements ``map_into_supervised(fn, items, out)``: workers
  attach ``out`` through named shared memory and write their disjoint
  output blocks directly into it, so *nothing* but task indices crosses
  the pipe — the process analog of the paper's 240 Phi threads writing
  disjoint blocks of the MI matrix in coprocessor memory.

Engines execute tasks in the order given by a
:class:`repro.parallel.scheduler.SchedulerPolicy`; results are always
returned in the original item order regardless of execution order.

Tolerant dispatch
-----------------
The tile executor (:func:`repro.core.exec.run_tile_plan`) never lets one
failing task abort a map.  In-process engines offer
``map_tolerant(fn, items, on_result)``, whose ``on_result(pos, value)``
runs inside the worker right after the task, so a tile block can be
checked and written to its sink before the next task starts; fork
engines offer ``map_supervised(fn, items, timeout)`` (per-task timeouts,
blocks returned by pickling) and the shared-memory engine
``map_into_supervised(fn, items, out)``, which calls ``fn(out_view,
item)`` once per item on a :class:`SharedArray` the workers write in
place.  Each returns the failed positions with their error strings.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_mod
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, plan_from_env
from repro.obs.metrics import MapStats, WorkerStats, merge_worker_stats
from repro.obs.tracer import NULL_TRACER
from repro.parallel.scheduler import DynamicScheduler, SchedulerPolicy
from repro.parallel.sharedmem import SharedArray

__all__ = [
    "ENGINE_KINDS",
    "EngineFailure",
    "SerialEngine",
    "ThreadEngine",
    "ProcessEngine",
    "SharedMemoryEngine",
    "WorkerLocal",
    "engine_kind",
    "fallback_engine",
    "make_engine",
]

#: Valid ``make_engine`` kinds, in fallback-chain order (most to least
#: capable): ``sharedmem → process → thread → serial``.
ENGINE_KINDS = ("serial", "thread", "process", "sharedmem", "elastic")

#: Supervised-pool message poll interval; bounds timeout-detection latency.
_POLL_SECONDS = 0.02

#: Give up and fail over if a supervised pool makes no progress this long.
_STALL_SECONDS = 60.0


class WorkerLocal:
    """Per-worker lazily-constructed value, valid across every engine kind.

    Thread workers each see their own value (``threading.local``); fork
    workers detect the pid change and rebuild rather than sharing the
    parent's instance through copy-on-write memory.  Used to give each
    engine worker its own reusable kernel workspace
    (:class:`repro.core.mi.TileWorkspace`) without the drivers having to
    know the engine's worker topology.
    """

    def __init__(self, factory: Callable):
        self._factory = factory
        self._local = threading.local()

    def get(self):
        pid = os.getpid()
        if getattr(self._local, "pid", None) != pid:
            self._local.value = self._factory()
            self._local.pid = pid
        return self._local.value


def engine_kind(engine) -> str:
    """The :data:`ENGINE_KINDS` name of an engine instance (``None`` → serial).

    Used as part of the autotuner's cache key, so a tile size measured
    under one worker topology is not silently reused under another.
    """
    if engine is None or isinstance(engine, SerialEngine):
        return "serial"
    if isinstance(engine, SharedMemoryEngine):
        return "sharedmem"
    if isinstance(engine, ProcessEngine):
        return "process"
    if isinstance(engine, ThreadEngine):
        return "thread"
    # Engines defined outside this module (e.g. the elastic cluster
    # engine) declare their factory name via a ``kind`` class attribute.
    return getattr(engine, "kind", type(engine).__name__)


class EngineFailure(RuntimeError):
    """An engine lost its worker pool or could not start one.

    Distinct from a *task* failure: the resilient dispatch layer answers
    task failures with retries, but an :class:`EngineFailure` means the
    engine itself is unusable and dispatch should fall back down the
    chain (``sharedmem → process → thread → serial``)."""


def _result_nbytes(value) -> int:
    """Bytes a pickle-returned result ships through the pipe (arrays only).

    Counts ndarray payloads (including inside tuples/lists, the fused
    kernel's ``(observed, exceed)`` case); scalars and small objects are
    noise next to tile blocks and are ignored.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_result_nbytes(v) for v in value)
    return 0


class _EngineObsMixin:
    """Shared observability plumbing for all engines.

    Every map call times each task and aggregates the
    timings per worker into a :class:`repro.obs.metrics.MapStats`, stored
    on ``last_map_stats`` and — when a tracer is attached (constructor
    argument or ``engine.tracer = ...``) — recorded as an ``engine_map``
    span whose metadata carries per-worker task counts and busy seconds.
    """

    tracer = None
    last_map_stats: "MapStats | None" = None
    faults: "FaultPlan | None" = None

    def _obs_tracer(self):
        return self.tracer if self.tracer is not None else NULL_TRACER

    def _faulty(self, fn: Callable) -> Callable:
        """Wrap a ``fn(item)`` task with this engine's fault plan (if any)."""
        return fn if self.faults is None else self.faults.wrap(fn)

    def _faulty_into(self, fn: Callable) -> Callable:
        """Wrap a ``fn(out, item)`` task with this engine's fault plan."""
        return fn if self.faults is None else self.faults.wrap_into(fn)

    def _engine_fault_check(self) -> None:
        """Fire one injected engine-level failure, if the plan holds any."""
        if self.faults is not None and self.faults.take_engine_failure():
            raise EngineFailure(
                f"injected engine failure on {type(self).__name__}")

    def _record_map(self, span, kind: str, n_tasks: int, wall: float, workers: list) -> MapStats:
        stats = MapStats(n_tasks=n_tasks, wall_seconds=wall, workers=workers)
        self.last_map_stats = stats
        span.annotate(kind=kind, **stats.as_metadata())
        tracer = self._obs_tracer()
        tracer.add("engine_tasks", n_tasks)
        tracer.add("engine_busy_seconds", stats.busy_seconds)
        return stats


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _tolerant_loop(fn: Callable, items: Sequence, arr: np.ndarray | None = None,
                   on_result: Callable | None = None):
    """In-process fallback dispatch: run every task, collect failures.

    Returns ``(results, failures)`` where ``failures`` maps item position
    to an error string.  With ``arr`` set, tasks are ``fn(arr, item)``
    (the write-in-place shape) and results are all ``None``.  With
    ``on_result`` set, each value goes to ``on_result(pos, value)``
    instead of ``results``; an exception there fails the task.
    """
    results: list = [None] * len(items)
    failures: dict[int, str] = {}
    for i, item in enumerate(items):
        try:
            value = fn(item) if arr is None else fn(arr, item)
            if on_result is not None:
                on_result(i, value)
            else:
                results[i] = value
        except Exception as exc:
            failures[i] = _format_error(exc)
    return results, failures


class SerialEngine(_EngineObsMixin):
    """Run tasks one after another in the calling thread."""

    n_workers = 1
    in_process = True

    def __init__(self, tracer=None, faults: FaultPlan | None = None):
        self.tracer = tracer
        self.faults = faults

    def map_tolerant(self, fn: Callable, items: Sequence,
                     on_result: Callable | None = None):
        """``map`` that survives task failures: ``(results, failures)``.

        ``failures`` maps item position to an error string; failed
        positions hold ``None`` in ``results``.  ``on_result(pos, value)``,
        when given, receives each value as its task finishes (and
        ``results`` stays all ``None``); an exception it raises fails
        that task.  The serial engine is the end of the fallback chain,
        so it never raises :class:`EngineFailure` (injected engine faults
        are ignored here).
        """
        items = list(items)
        if not items:
            return [], {}
        with self._obs_tracer().span("engine_map", engine="SerialEngine") as sp:
            t0 = time.perf_counter()
            results, failures = _tolerant_loop(self._faulty(fn), items,
                                               on_result=on_result)
            wall = time.perf_counter() - t0
            self._record_map(sp, "map", len(items), wall,
                             [WorkerStats("w0", len(items), wall)])
            sp.annotate(mode="tolerant", failed=len(failures))
        return results, failures

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, returning results in order."""
        fn = self._faulty(fn)
        items = list(items)
        results: list = []
        with self._obs_tracer().span("engine_map", engine="SerialEngine") as sp:
            t0 = time.perf_counter()
            busy = 0.0
            for item in items:
                s = time.perf_counter()
                results.append(fn(item))
                busy += time.perf_counter() - s
            wall = time.perf_counter() - t0
            self._record_map(sp, "map", len(items), wall,
                             [WorkerStats("w0", len(items), busy)] if items else [])
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialEngine()"


class ThreadEngine(_EngineObsMixin):
    """Thread-pool engine honouring a scheduling policy.

    Parameters
    ----------
    n_workers:
        Thread count; defaults to the host CPU count.
    policy:
        A :class:`SchedulerPolicy` deciding the submission order.  With a
        dynamic policy the pool's own work queue provides the pull
        behaviour; with a static policy each worker thread runs its fixed
        slice.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer` receiving one
        ``engine_map`` span (with per-worker metrics) per map call.
    """

    in_process = True

    def __init__(self, n_workers: int | None = None, policy: SchedulerPolicy | None = None,
                 tracer=None, faults: FaultPlan | None = None):
        self.n_workers = (os.cpu_count() or 1) if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self.policy = policy or DynamicScheduler(chunk=1)
        self.tracer = tracer
        self.faults = faults

    def _chunks(self, n_items: int):
        if self.policy.is_dynamic():
            return self.policy.chunk_sequence(n_items, self.n_workers)
        return self.policy.static_assignment(n_items, self.n_workers)

    def _run_chunks(self, task, n_items: int) -> list:
        """Run ``task(idx)`` for every index on the pool, timing per thread.

        Returns the per-worker ``(tasks, busy_seconds)`` aggregation, keyed
        by thread ident.
        """
        raw: dict = {}
        lock = threading.Lock()

        def run_chunk(chunk) -> None:
            tasks = 0
            busy = 0.0
            for idx in chunk:
                s = time.perf_counter()
                task(int(idx))
                busy += time.perf_counter() - s
                tasks += 1
            key = threading.get_ident()
            with lock:
                t, b = raw.get(key, (0, 0.0))
                raw[key] = (t + tasks, b + busy)

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            list(pool.map(run_chunk, self._chunks(n_items)))
        return merge_worker_stats(raw)

    def map(self, fn: Callable, items: Sequence) -> list:
        fn = self._faulty(fn)
        items = list(items)
        results: list = [None] * len(items)
        if not items:
            return results
        with self._obs_tracer().span(
            "engine_map", engine="ThreadEngine", policy=self.policy.name
        ) as sp:
            t0 = time.perf_counter()
            workers = self._run_chunks(lambda idx: results.__setitem__(idx, fn(items[idx])),
                                       len(items))
            self._record_map(sp, "map", len(items), time.perf_counter() - t0, workers)
        return results

    def map_tolerant(self, fn: Callable, items: Sequence,
                     on_result: Callable | None = None):
        """``map`` that survives task failures: ``(results, failures)``.

        Failed positions hold ``None`` in ``results`` and an error string
        in ``failures``.  ``on_result(pos, value)``, when given, runs on
        the worker thread as each task finishes (and ``results`` stays
        all ``None``); an exception it raises fails that task.  Per-task
        timeouts are *not* supported here — Python threads cannot be
        killed — so a hung task simply occupies its thread until it
        returns (use a fork engine for hang protection).
        """
        self._engine_fault_check()
        fn = self._faulty(fn)
        items = list(items)
        results: list = [None] * len(items)
        failures: dict[int, str] = {}
        if not items:
            return results, failures
        lock = threading.Lock()

        def task(idx: int) -> None:
            try:
                value = fn(items[idx])
                if on_result is not None:
                    on_result(idx, value)
                    return
            except Exception as exc:
                with lock:
                    failures[idx] = _format_error(exc)
            else:
                results[idx] = value

        with self._obs_tracer().span(
            "engine_map", engine="ThreadEngine", policy=self.policy.name
        ) as sp:
            t0 = time.perf_counter()
            workers = self._run_chunks(task, len(items))
            self._record_map(sp, "map", len(items), time.perf_counter() - t0, workers)
            sp.annotate(mode="tolerant", failed=len(failures))
        return results, failures

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadEngine(n_workers={self.n_workers}, policy={self.policy.name})"


# ---------------------------------------------------------------------------
# Fork-based process pools
# ---------------------------------------------------------------------------
# Task registry inherited by children through fork; only (token, index)
# pairs cross the pipe, never the function or the (large, read-only) arrays
# it closes over.  Keyed by a unique token per map call so concurrent or
# nested calls never clobber each other's tasks (itertools.count.__next__
# is atomic under the GIL, so tokens are unique across threads too).
_FORK_TASKS: dict = {}
_TOKENS = itertools.count()


def _publish(payload) -> int:
    token = next(_TOKENS)
    _FORK_TASKS[token] = payload
    return token


def _fork_worker(args):
    token, idx = args
    fn, items = _FORK_TASKS[token]
    t0 = time.perf_counter()
    value = fn(items[idx])
    # The elapsed seconds and pid ride back with the result so the parent
    # can aggregate per-worker busy time without any extra IPC.
    return idx, value, time.perf_counter() - t0, os.getpid()


def _supervised_worker(token: int, task_q, msg_q) -> None:
    """Worker loop for the supervised (timeout-capable) pool.

    Announces ``("start", pid, idx, None)`` *before* running each task so
    the parent can hold a deadline against it, then ``("ok", pid, idx,
    (value, seconds))`` or ``("err", pid, idx, traceback)``.  Task
    failures stay inside the worker — only the message crosses the pipe —
    so one poisoned tile never kills the pool.
    """
    fn, items, handle, into = _FORK_TASKS[token]
    view = SharedArray.attach(*handle) if handle is not None else None
    pid = os.getpid()
    try:
        while True:
            idx = task_q.get()
            if idx is None:
                msg_q.put(("exit", pid, None, None))
                return
            msg_q.put(("start", pid, idx, None))
            t0 = time.perf_counter()
            try:
                if into:
                    fn(view.array, items[idx])
                    value = None
                else:
                    value = fn(items[idx])
            except Exception:
                msg_q.put(("err", pid, idx, traceback.format_exc()))
            else:
                msg_q.put(("ok", pid, idx, (value, time.perf_counter() - t0)))
    finally:
        if view is not None:
            view.close()


class ProcessEngine(_EngineObsMixin):
    """Fork-based process pool for GIL-bound task functions.

    Only usable where ``fork`` is available (Linux; the benchmark hosts) —
    the constructor raises :class:`RuntimeError` elsewhere.  A nested
    ``map`` issued from inside a worker runs inline (daemonic workers may
    not fork grandchildren), as does ``n_workers=1``.  Results cross
    process boundaries by pickling — fine for tile-sized MI blocks, wrong
    for whole-matrix outputs; use :class:`SharedMemoryEngine` when workers
    should write the output in place instead.
    """

    in_process = False

    def __init__(self, n_workers: int | None = None, policy: SchedulerPolicy | None = None,
                 tracer=None, faults: FaultPlan | None = None):
        self.n_workers = (os.cpu_count() or 1) if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessEngine requires the fork start method")
        self.policy = policy or DynamicScheduler(chunk=1)
        self.tracer = tracer
        self.faults = faults

    def _submission_order(self, n_items: int) -> list:
        """Task indices in the order the policy submits them to the pool.

        Results are reordered by index on return, so any permutation is
        correct; the policy only shapes which tasks workers pull first.
        """
        if self.policy.is_dynamic():
            chunks = self.policy.chunk_sequence(n_items, self.n_workers)
        else:
            chunks = self.policy.static_assignment(n_items, self.n_workers)
        return [int(i) for chunk in chunks for i in chunk]

    def _inline(self) -> bool:
        # Daemonic pool workers cannot fork children of their own, so a
        # nested map degrades gracefully to the serial path.
        return self.n_workers == 1 or multiprocessing.current_process().daemon

    def _map_inline(self, fn: Callable, items: list, sp) -> list:
        results: list = []
        t0 = time.perf_counter()
        busy = 0.0
        for item in items:
            s = time.perf_counter()
            results.append(fn(item))
            busy += time.perf_counter() - s
        self._record_map(sp, "map", len(items), time.perf_counter() - t0,
                         [WorkerStats("w0", len(items), busy)])
        return results

    def map(self, fn: Callable, items: Sequence) -> list:
        fn = self._faulty(fn)
        items = list(items)
        if not items:
            return []
        with self._obs_tracer().span(
            "engine_map", engine=type(self).__name__, policy=self.policy.name
        ) as sp:
            if self._inline():
                return self._map_inline(fn, items, sp)
            t0 = time.perf_counter()
            ctx = multiprocessing.get_context("fork")
            token = _publish((fn, items))
            try:
                with ctx.Pool(self.n_workers) as pool:
                    quads = pool.map(
                        _fork_worker,
                        [(token, i) for i in self._submission_order(len(items))],
                    )
            finally:
                del _FORK_TASKS[token]
            results: list = [None] * len(items)
            raw: dict = {}
            nbytes = 0
            for idx, value, dt, pid in quads:
                results[idx] = value
                tasks, b = raw.get(pid, (0, 0.0))
                raw[pid] = (tasks + 1, b + dt)
                nbytes += _result_nbytes(value)
            wall = time.perf_counter() - t0
            self._record_map(sp, "map", len(items), wall, merge_worker_stats(raw))
            sp.annotate(result_bytes=nbytes)
            self._obs_tracer().add("bytes_transported", nbytes)
        return results

    def map_supervised(self, fn: Callable, items: Sequence, timeout: float | None = None):
        """Fault-isolating ``map``: ``(results, failures)``.

        Unlike :meth:`map`, a task that raises only fails its own slot,
        and a task that runs past ``timeout`` seconds has its worker
        killed and replaced (the hung-straggler defence the paper's
        multi-hour cluster runs need).  Inline (nested / one-worker)
        execution degrades to the in-process tolerant loop, where
        timeouts cannot be enforced.
        """
        self._engine_fault_check()
        items = list(items)
        if not items:
            return [], {}
        with self._obs_tracer().span(
            "engine_map", engine=type(self).__name__, policy=self.policy.name
        ) as sp:
            t0 = time.perf_counter()
            if self._inline():
                results, failures = _tolerant_loop(self._faulty(fn), items)
                wall = time.perf_counter() - t0
                self._record_map(sp, "map", len(items), wall,
                                 [WorkerStats("w0", len(items), wall)])
            else:
                results, failures, raw = self._run_supervised(
                    fn, items, out=None, timeout=timeout)
                self._record_map(sp, "map", len(items), time.perf_counter() - t0,
                                 merge_worker_stats(raw))
            sp.annotate(mode="supervised", failed=len(failures))
        return results, failures

    def _run_supervised(self, fn: Callable, items: list, out: SharedArray | None,
                        timeout: float | None):
        """Supervised fork pool: per-task messages, deadlines, replacement.

        Returns ``(results, failures, raw_worker_stats)``.  The parent
        drains a message queue; any worker whose announced task exceeds
        ``timeout`` is terminated and a replacement forked (the unserved
        indices still sit in the task queue).  A worker that dies without
        a word (hard crash) fails the task it had announced.  Terminating
        a worker mid-``put`` could in principle wedge a queue; the
        watchdog converts any such total stall into an
        :class:`EngineFailure` so the fallback chain takes over.
        """
        ctx = multiprocessing.get_context("fork")
        into = out is not None
        task = self._faulty_into(fn) if into else self._faulty(fn)
        token = _publish((task, items, out.handle() if into else None, into))
        task_q = ctx.Queue()
        msg_q = ctx.Queue()
        results: list = [None] * len(items)
        failures: dict[int, str] = {}
        raw: dict = {}
        running: dict = {}   # pid -> (idx, started_at)
        workers: dict = {}   # pid -> Process
        settled: set = set()

        def spawn() -> None:
            w = ctx.Process(target=_supervised_worker, args=(token, task_q, msg_q))
            w.start()
            workers[w.pid] = w

        def settle(idx: int, error: str | None, value=None) -> bool:
            if idx in settled:
                return False  # late message for a task already timed out
            settled.add(idx)
            if error is not None:
                failures[idx] = error
            else:
                results[idx] = value
            return True

        try:
            try:
                for _ in range(min(self.n_workers, len(items))):
                    spawn()
            except OSError as exc:
                raise EngineFailure(f"could not fork supervised workers: {exc}") from exc
            for idx in self._submission_order(len(items)):
                task_q.put(idx)
            last_progress = time.perf_counter()
            while len(settled) < len(items):
                try:
                    tag, pid, idx, payload = msg_q.get(timeout=_POLL_SECONDS)
                except queue_mod.Empty:
                    pass
                else:
                    last_progress = time.perf_counter()
                    if tag == "start":
                        running[pid] = (idx, time.perf_counter())
                    elif tag == "ok":
                        running.pop(pid, None)
                        if settle(idx, None, payload[0]):
                            tasks, busy = raw.get(pid, (0, 0.0))
                            raw[pid] = (tasks + 1, busy + payload[1])
                    elif tag == "err":
                        running.pop(pid, None)
                        settle(idx, payload.strip().splitlines()[-1])
                    continue  # drain messages before checking deadlines
                now = time.perf_counter()
                if timeout is not None:
                    for pid, (idx, started) in list(running.items()):
                        if now - started > timeout:
                            w = workers.pop(pid, None)
                            if w is not None:
                                w.terminate()
                                w.join()
                            running.pop(pid, None)
                            settle(idx, f"task timed out after {timeout:.3g}s "
                                        f"(worker {pid} replaced)")
                            last_progress = now
                            if len(settled) < len(items):
                                spawn()
                for pid, w in list(workers.items()):
                    if not w.is_alive():
                        workers.pop(pid)
                        if pid in running:
                            idx, _ = running.pop(pid)
                            settle(idx, f"worker {pid} died (exit code {w.exitcode})")
                            last_progress = now
                        if len(settled) < len(items) and not workers:
                            spawn()
                if now - last_progress > _STALL_SECONDS:
                    raise EngineFailure(
                        f"supervised pool stalled for {_STALL_SECONDS:.0f}s "
                        f"({len(settled)}/{len(items)} tasks settled)")
            for _ in workers:
                task_q.put(None)
            for w in workers.values():
                w.join(timeout=5.0)
        finally:
            del _FORK_TASKS[token]
            for w in workers.values():
                if w.is_alive():
                    w.terminate()
                    w.join()
            task_q.cancel_join_thread()
            task_q.close()
            msg_q.cancel_join_thread()
            msg_q.close()
        return results, failures, raw

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessEngine(n_workers={self.n_workers}, policy={self.policy.name})"


class SharedMemoryEngine(ProcessEngine):
    """Fork pool whose workers write outputs in place via shared memory.

    ``map`` and ``map_supervised`` are inherited from
    :class:`ProcessEngine` (pickle-return); :meth:`map_into_supervised`
    is the zero-copy path.  Per call, the engine publishes ``(fn, items,
    out-handle)`` in the fork registry, forks a supervised pool that
    persists for the whole call, and feeds it task *indices* through a
    queue (dynamic self-scheduling, the policy that wins on the paper's
    imbalanced diagonal tiles).  Each worker attaches the output matrix
    with :meth:`repro.parallel.sharedmem.SharedArray.attach` and runs
    ``fn(out_view, item)``, so results never touch a pipe and the parent
    never runs a reassembly loop.

    The pool is forked *after* task publication — copy-on-write is how
    closures over multi-GB weight tensors reach the workers without
    pickling — which is also why one pool cannot outlive its call: a
    worker forked earlier could never see a later task's memory.
    """

    def map_into_supervised(self, fn: Callable, items: Sequence, out: SharedArray,
                            timeout: float | None = None) -> dict:
        """Call ``fn(out_view, item)`` once per item; ``{position: error}``.

        ``out_view`` aliases ``out``'s storage (in a worker: its
        shared-memory attachment), and each item must write a region
        disjoint from every other item's.  A task that raises fails only
        its slot, and a task past ``timeout`` has its worker killed and
        replaced.  ``out`` must be a :class:`SharedArray`: the tile
        executor stages a plain ndarray once per run, so retries and
        batches all write the same block.
        """
        self._engine_fault_check()
        items = list(items)
        if not items:
            return {}
        if not isinstance(out, SharedArray):
            raise TypeError("map_into_supervised requires a SharedArray sink")
        with self._obs_tracer().span(
            "engine_map", engine="SharedMemoryEngine", policy=self.policy.name
        ) as sp:
            t0 = time.perf_counter()
            if self._inline():
                _, failures = _tolerant_loop(self._faulty_into(fn), items,
                                             arr=out.array)
                wall = time.perf_counter() - t0
                self._record_map(sp, "map_into", len(items), wall,
                                 [WorkerStats("w0", len(items), wall)])
            else:
                _, failures, raw = self._run_supervised(
                    fn, items, out=out, timeout=timeout)
                self._record_map(sp, "map_into", len(items),
                                 time.perf_counter() - t0, merge_worker_stats(raw))
            sp.annotate(mode="supervised", failed=len(failures), result_bytes=0)
        return failures

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryEngine(n_workers={self.n_workers}, policy={self.policy.name})"
        )


#: Degradation order: each kind's next-best substitute.
_FALLBACK_NEXT = {"elastic": "sharedmem", "sharedmem": "process",
                  "process": "thread", "thread": "serial"}


def make_engine(kind: str = "serial", n_workers: int | None = None, tracer=None,
                policy: SchedulerPolicy | None = None,
                faults: FaultPlan | None = None, fallback: bool = False, **kwargs):
    """Factory: ``serial``, ``thread``, ``process``, or ``sharedmem``.

    ``tracer`` (optional) attaches a :class:`repro.obs.tracer.Tracer` so
    every map call records an ``engine_map`` span with worker metrics.
    ``policy`` (optional :class:`SchedulerPolicy`) sets the submission
    order for the pooled engines; the default everywhere is dynamic
    self-scheduling with chunk 1.

    ``faults`` (optional :class:`repro.faults.plan.FaultPlan`) injects
    deterministic task faults into every map call — chaos-testing only.
    When omitted, the ``REPRO_FAULTS`` environment variable is consulted
    so forked subprocess workers (and CLI runs under chaos CI) see the
    same plan.  ``fallback=True`` degrades down the chain ``sharedmem →
    process → thread → serial`` if the requested kind cannot be
    constructed on this host, instead of raising.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; valid kinds: {', '.join(ENGINE_KINDS)}")
    if faults is None:
        faults = plan_from_env()
    while True:
        try:
            if kind == "serial":
                return SerialEngine(tracer=tracer, faults=faults)
            if kind == "thread":
                return ThreadEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                    faults=faults, **kwargs)
            if kind == "process":
                return ProcessEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                     faults=faults)
            if kind == "elastic":
                # Imported lazily: repro.cluster imports this module.
                from repro.cluster.elastic import ElasticEngine

                return ElasticEngine(n_workers=n_workers, policy=policy,
                                     tracer=tracer, faults=faults, **kwargs)
            return SharedMemoryEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                      faults=faults)
        except RuntimeError:
            if not fallback or kind not in _FALLBACK_NEXT:
                raise
            kind = _FALLBACK_NEXT[kind]


def fallback_engine(engine):
    """The next engine down the degradation chain, or ``None`` at the end.

    ``sharedmem → process → thread → serial``; the replacement inherits
    the failing engine's worker count, scheduling policy, tracer and
    fault plan (so a chaos run keeps injecting task faults after a
    fallback — only the injected *engine* failures are consumed).
    """
    if getattr(engine, "kind", None) == "elastic":
        # The elastic pool is gone; degrade to local shared memory with
        # the membership the pool was sized for, not the (empty) live one.
        engine.close()
        return make_engine("sharedmem",
                           n_workers=getattr(engine, "_initial_workers", None),
                           tracer=engine.tracer,
                           policy=getattr(engine, "policy", None),
                           faults=engine.faults, fallback=True)
    if isinstance(engine, SharedMemoryEngine):
        kind = "process"
    elif isinstance(engine, ProcessEngine):
        kind = "thread"
    elif isinstance(engine, ThreadEngine):
        kind = "serial"
    else:
        return None
    return make_engine(kind, n_workers=getattr(engine, "n_workers", None),
                       tracer=engine.tracer, policy=getattr(engine, "policy", None),
                       faults=engine.faults, fallback=True)
