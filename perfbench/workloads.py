"""The four pinned workloads and the measured loop that runs them.

Every workload generates its input from the seed, sets up, then runs its
main operation in a closed loop (the next call starts when the previous
one returned) until the run's time is up, and finally runs one operation
of the other kind, so that both end-to-end timings exist for every
workload:

* the *reconstruct* workloads time ``TingePipeline.run`` from the raw
  matrix to a ``GeneNetwork``, then fold one new array into the last
  result with ``NetworkUpdater.add_samples``;
* ``stream-update`` times single-array ``add_samples`` calls, and
  reconstructs from scratch in each of its set-ups and once at the end as
  the oracle its final network must equal bit for bit.

Each operation is checked outside its timed window (see ``check_*``).  An
operation that raises or fails its check counts as failed; nothing is
retried.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.discretize import preprocess
from repro.core.incremental import NetworkUpdater
from repro.core.mi import mi_tile
from repro.core.pipeline import TingeConfig, TingePipeline
from repro.core.sparsekernel import sparse_backend
from repro.core.threshold import threshold_adjacency
from repro.data.datasets import arabidopsis_scale
from repro.parallel.engine import make_engine

from layers import LayerTrace

WORKERS = 2
# Documented agreement of a float64 kernel with the mi_tile oracle
# (DESIGN.md: sparse vs BLAS atol 1e-13).  The fused float64 kernel is
# bitwise equal to mi_tile at the same tile shape only; the oracle uses
# other shapes, so BLAS blocking may differ and the same bound applies.
ORACLE_ATOL = {"float64": 1e-13, "float32": 1e-6}
ORACLE_GENES = 16
# Set-ups timed per run: fresh interpreters for the thread workloads,
# reconstruct-and-adopt for stream-update.
SETUP_PROBES = 3
# Share of a reconstruct workload's run spent on reconstructs; the rest
# times single-array updates of the last network.
MAIN_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    kernel: str
    engine: str
    main: str  # "reconstruct" or "update"
    data: str  # "arabidopsis" or "coupled"
    extra: int  # columns generated beyond m, folded in by add_samples


# Why each workload is there: BENCHMARK.json ("workloads").
WORKLOADS = {
    w.name: w for w in [
        Workload("genome-slice", n=256, m=3137, kernel="fused", engine="thread",
                 main="reconstruct", data="arabidopsis", extra=8),
        Workload("wide-panel", n=1536, m=256, kernel="sparse", engine="thread",
                 main="reconstruct", data="arabidopsis", extra=8),
        # Sparse, not fused: the BLAS kernels (fused, legacy) break the
        # streaming bit-identity guarantee once m exceeds about 400, since a
        # 1x1 replay tile and a full tile reduce over the samples in a
        # different order.  The sparse scatter does not depend on the tile
        # shape.  See "Known defects" in README.md.
        Workload("stream-update", n=512, m=1000, kernel="sparse", engine="serial",
                 main="update", data="coupled", extra=48),
        Workload("elastic-panel", n=1024, m=384, kernel="sparse", engine="elastic",
                 main="reconstruct", data="arabidopsis", extra=8),
    ]
}


def make_input(wl: Workload, seed: int) -> np.ndarray:
    """The workload's ``(n, m + extra)`` expression matrix for ``seed``."""
    cols = wl.m + wl.extra
    if wl.data == "arabidopsis":
        return arabidopsis_scale(n_genes=wl.n, m_samples=cols, seed=seed).expression
    # Mostly independent genes plus n/20 planted coupled pairs: a sparse
    # network, like a real regulatory one.
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(wl.n, cols))
    for k in range(wl.n // 20):
        data[2 * k + 1] = data[2 * k] + 0.3 * rng.normal(size=cols)
    return data


# ---------------------------------------------------------------------------
# Correctness gates (run outside the timed windows)
# ---------------------------------------------------------------------------

def _oracle_problems(mi: np.ndarray, data: np.ndarray, cfg: TingeConfig,
                     genes: np.ndarray, pairs=None) -> list:
    """Compare ``mi`` on pairs of ``genes`` with the float64 ``mi_tile``
    oracle, computed from the raw rows of just those genes."""
    genes = np.asarray(genes)
    w = weight_tensor(preprocess(data[genes], cfg.transform), cfg.bins,
                      cfg.order, np.dtype("float64"))
    ref = mi_tile(w, w, base=cfg.base)
    if pairs is None:
        a, b = np.triu_indices(len(genes), k=1)
    else:
        a, b = pairs
    diff = np.abs(mi[genes[a], genes[b]] - ref[a, b])
    bound = ORACLE_ATOL[cfg.kernel_dtype or cfg.dtype]
    if diff.size and diff.max() > bound:
        k = int(diff.argmax())
        return [f"MI({genes[a][k]},{genes[b][k]}) off the mi_tile oracle by "
                f"{diff[k]:.3g} > {bound:g}"]
    return []


def _matrix_problems(mi: np.ndarray, adjacency: np.ndarray, threshold: float) -> list:
    problems = []
    if not np.isfinite(mi).all():
        problems.append("MI matrix has non-finite entries")
    if not np.array_equal(mi, mi.T):
        problems.append("MI matrix is not symmetric")
    if np.any(np.diag(mi) != 0.0):
        problems.append("MI matrix diagonal is not zero")
    if not np.array_equal(adjacency, threshold_adjacency(mi, threshold)):
        problems.append("edge set differs from threshold_adjacency(mi, I_alpha)")
    return problems


def check_reconstruct(mi: np.ndarray, network, quarantined, data: np.ndarray,
                      cfg: TingeConfig, rng: np.random.Generator) -> list:
    """Problems with one reconstruct (empty when it is correct)."""
    problems = _matrix_problems(mi, network.adjacency, network.threshold)
    if quarantined:
        problems.append(f"{len(quarantined)} tiles quarantined")
    genes = rng.choice(mi.shape[0], size=min(ORACLE_GENES, mi.shape[0]),
                       replace=False)
    return problems + _oracle_problems(mi, data, cfg, np.sort(genes))


def check_update(mi: np.ndarray, network, delta, data: np.ndarray,
                 cfg: TingeConfig, rng: np.random.Generator) -> list:
    """Problems with one ``add_samples`` call.  ``data`` is the grown raw
    matrix.  Only edges must carry fresh MI (clean non-edges may keep
    their pre-update values), so the oracle checks sampled edges."""
    problems = _matrix_problems(mi, network.adjacency, network.threshold)
    if delta is None or delta.quarantined:
        problems.append("update interrupted or quarantined tiles")
    ii, jj = np.nonzero(np.triu(network.adjacency, k=1))
    if ii.size:
        pick = rng.choice(ii.size, size=min(ORACLE_GENES // 2, ii.size),
                          replace=False)
        genes, inv = np.unique(np.concatenate([ii[pick], jj[pick]]),
                               return_inverse=True)
        pairs = (inv[: pick.size], inv[pick.size:])
        problems += _oracle_problems(mi, data, cfg, genes, pairs)
    return problems


def check_same_network(net, ref) -> list:
    """The streaming guarantee: threshold, edges and edge weights equal a
    from-scratch run bit for bit."""
    problems = []
    if net.threshold != ref.threshold:
        problems.append(f"threshold {net.threshold!r} != {ref.threshold!r}")
    if not np.array_equal(net.adjacency, ref.adjacency):
        problems.append("edge set differs from the from-scratch network")
    elif not np.array_equal(net.weights[ref.adjacency], ref.weights[ref.adjacency]):
        problems.append("edge weights differ from the from-scratch network")
    return problems


# ---------------------------------------------------------------------------
# Host and plan
# ---------------------------------------------------------------------------

def blas_threads() -> "int | None":
    """Threads the loaded OpenBLAS will use (``None`` if not found)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root) -> "str | None":
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info(root) -> dict:
    import importlib.util

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": git_sha(root),
    }


def tile_source(cfg: TingeConfig) -> str:
    """Where the MI tile size came from, by the rule plan_tiles applies."""
    if cfg.tile is not None:
        return "explicit"
    if cfg.autotune:
        return "autotuned"
    if cfg.kernel == "sparse" or cfg.kernel_dtype is not None:
        return "fused_tile_size cache model"
    return "default_tile_size cache model"


def executed_tile(tracer) -> "int | None":
    for s in tracer.find_spans("mi_matrix"):
        if "tile" in s.metadata:
            return int(s.metadata["tile"])
    return None


# ---------------------------------------------------------------------------
# The measured run
# ---------------------------------------------------------------------------

def _median(xs) -> float:
    return float(statistics.median(xs))


def _worker_hwm_mb(engine) -> float:
    """Summed peak RSS of an elastic engine's live worker processes."""
    total = 0.0
    for proc in getattr(engine, "processes", []):
        try:
            with open(f"/proc/{proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


def _probe_setup(wl: Workload, src) -> float:
    """Wall time of a fresh interpreter that imports the package, loads
    the compiled kernel, starts the workload's engine and builds its
    pipeline, then exits."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.core.sparsekernel import sparse_backend\n"
        "from repro.core.pipeline import TingeConfig, TingePipeline\n"
        "from repro.parallel.engine import make_engine\n"
        "sparse_backend()\n"
        "e = make_engine(sys.argv[2], n_workers=int(sys.argv[3]))\n"
        "TingePipeline(TingeConfig(kernel=sys.argv[4]), engine=e)\n"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src), wl.engine,
                    str(WORKERS), wl.kernel], check=True, timeout=120,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, src):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = LayerTrace(order=3) if trace else None
        self.src = src
        self.cfg = TingeConfig(kernel=wl.kernel, seed=seed)
        self.rng = np.random.default_rng([seed, 7])
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.samples = {"time_to_network_s": [], "update_s": [], "setup_s": []}
        self.walls = {"traced": [], "untraced": []}  # main operations
        self.worker_rss: list = []
        self.peak_rss_mb = 0.0
        self.backend = None
        self.tile = None

    # -- operations ---------------------------------------------------------
    def _traced(self, kind: str, on: bool):
        if self.trace is not None and on:
            return self.trace.op(kind)
        return nullcontext()

    def _engine(self, tracer):
        t0 = time.perf_counter()
        engine = make_engine(self.wl.engine, n_workers=WORKERS)
        dt = time.perf_counter() - t0
        if self.wl.engine == "elastic":
            self.samples["setup_s"].append(dt)
        if tracer is not None:
            self.trace.engine_started(dt)
        engine.tracer = tracer
        return engine

    def _close(self, engine) -> None:
        if self.wl.engine == "elastic":
            self.worker_rss.append(_worker_hwm_mb(engine))
            engine.close()

    def _timed(self, tracer, call):
        """Run ``call(engine)`` on a fresh engine; only the call is timed.
        Returns ``(ok, value, wall)``; a raised error counts as failed."""
        self.attempted += 1
        engine = self._engine(tracer)
        try:
            t0 = time.perf_counter()
            try:
                value, error = call(engine), None
            except Exception:  # one failed operation must not end the run
                value, error = None, traceback.format_exc()
            wall = time.perf_counter() - t0
        finally:
            self._close(engine)
        if error is not None:
            self.failed += 1
            self.problems.append(error)
            print(error, file=sys.stderr)
        return error is None, value, wall

    def _judge(self, problems: list) -> bool:
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print("check failed: " + "; ".join(problems), file=sys.stderr)
        return not problems

    def reconstruct(self, data: np.ndarray, traced: bool = True):
        """One raw-matrix-to-network run, timed then checked."""
        with self._traced("reconstruct", traced) as tracer:
            pipe = None

            def call(engine):
                nonlocal pipe
                pipe = TingePipeline(self.cfg, engine=engine, tracer=tracer)
                return pipe.run(data)

            ok, res, wall = self._timed(tracer, call)
        if self.tile is None and pipe is not None:
            self.tile = executed_tile(pipe.tracer)
        if ok:
            ok = self._judge(check_reconstruct(res.mi, res.network, res.quarantined,
                                               data, self.cfg, self.rng))
        return res if ok else None, wall

    def update(self, updater: NetworkUpdater, grown: np.ndarray, traced: bool = True):
        """One single-array ``add_samples`` call (the last column of
        ``grown``), timed then checked against the grown raw matrix."""
        with self._traced("update", traced) as tracer:
            ok, delta, wall = self._timed(tracer, lambda engine: updater.add_samples(
                grown[:, -1], engine=engine, tracer=tracer))
        if ok:
            ok = self._judge(check_update(updater.mi, updater.network, delta,
                                          grown, self.cfg, self.rng))
        return ok, wall

    # -- the run --------------------------------------------------------------
    def _loop(self, step, until: float, overhead: bool) -> None:
        """Closed loop of ``step(i, traced)`` until ``until`` (a
        ``perf_counter`` time); at least one call.  ``step`` returns the
        operation's wall time, or ``None`` when its input is exhausted.

        With ``overhead`` a traced run measures the tracing overhead:
        after one untraced warm-up operation (timed for no metric) it
        alternates traced and untraced operations, at least one of each.
        Otherwise a traced run traces every operation.
        """
        warmup = 1 if overhead and self.trace is not None else 0
        i = 0
        while (i == 0 or time.perf_counter() < until
               or (warmup and i < warmup + 2)):
            traced = self.trace is not None and (
                not overhead or (i >= warmup and (i - warmup) % 2 == 0))
            wall = step(i, traced)
            if wall is None:
                break
            if overhead and i >= warmup:
                self.walls["traced" if traced else "untraced"].append(wall)
            i += 1

    def _peak_rss(self) -> float:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.worker_rss:
            peak += _median(self.worker_rss)
        return peak

    def execute(self) -> None:
        wl = self.wl
        t0 = time.perf_counter()
        # Compiles the cc kernel into the benchmark's own cache on the
        # first run in a checkout, and only loads it afterwards.
        self.backend = sparse_backend()
        kernel_load = time.perf_counter() - t0
        data = make_input(wl, self.seed)
        base = data[:, : wl.m]
        if wl.main == "reconstruct":
            self._reconstruct_workload(data, base)
        else:
            self._stream_workload(data, base, kernel_load)

    def _reconstruct_workload(self, data: np.ndarray, base: np.ndarray) -> None:
        """Reconstructs for the first ``MAIN_SHARE`` of the run, then
        single-array updates of the last network for the rest."""
        wl = self.wl
        if wl.engine != "elastic":  # elastic set-up is timed per operation
            self.samples["setup_s"] = [_probe_setup(wl, self.src)
                                       for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        last = []

        def rebuild(i, traced):
            res, wall = self.reconstruct(base, traced=traced)
            if res is not None:
                last[:] = [res]
            if not traced:
                self.samples["time_to_network_s"].append(wall)
            return wall

        self._loop(rebuild, start + MAIN_SHARE * self.seconds, overhead=True)
        self.peak_rss_mb = self._peak_rss()
        if not last:
            raise RuntimeError("no reconstruct succeeded; nothing to update")
        updater = NetworkUpdater.from_result(last[0], base)

        def update(i, traced):
            if i >= wl.extra:
                return None
            _ok, wall = self.update(updater, data[:, : wl.m + i + 1], traced=traced)
            self.samples["update_s"].append(wall)
            return wall

        self._loop(update, start + self.seconds, overhead=False)

    def _stream_workload(self, data: np.ndarray, base: np.ndarray,
                         kernel_load: float) -> None:
        """Set-up reconstructs, single-array updates for the whole run, then
        the from-scratch oracle of the grown matrix.  The last set-up's
        updater is the one updated."""
        wl = self.wl
        for _ in range(SETUP_PROBES):
            res, wall = self.reconstruct(base)
            if res is None:
                raise RuntimeError("set-up reconstruct failed")
            t0 = time.perf_counter()
            updater = NetworkUpdater.from_result(res, base)
            adopt = time.perf_counter() - t0
            self.samples["setup_s"].append(kernel_load + wall + adopt)
            self.samples["time_to_network_s"].append(wall)
        passed = []

        def update(i, traced):
            if i >= wl.extra:
                return None
            ok, wall = self.update(updater, data[:, : wl.m + i + 1], traced=traced)
            passed.append(ok)
            if not traced:
                self.samples["update_s"].append(wall)
            return wall

        self._loop(update, time.perf_counter() + self.seconds, overhead=True)
        self.peak_rss_mb = self._peak_rss()
        ref, wall = self.reconstruct(data[:, : wl.m + len(passed)])
        self.samples["time_to_network_s"].append(wall)
        problems = [] if ref is None else check_same_network(updater.network,
                                                             ref.network)
        if problems:
            # Every update fed the final network: none of them passes.
            self.failed += sum(passed)
            self.problems.extend(problems)
            print("check failed: " + "; ".join(problems), file=sys.stderr)

    # -- results --------------------------------------------------------------
    def end_to_end(self) -> dict:
        out = {name: _median(xs) for name, xs in self.samples.items()}
        out["peak_rss_mb"] = self.peak_rss_mb
        return out

    def per_layer(self) -> dict:
        """Median over the traced main operations of each layer metric; a
        layer the main operation never calls is taken from the other kind."""
        main = [m for _, kind, m in self.trace.ops if kind == self.wl.main]
        other = [m for _, kind, m in self.trace.ops if kind != self.wl.main]
        names = {k for m in main + other for k in m}
        out = {}
        for name in sorted(names):
            vals = [m[name] for m in main if name in m] or \
                   [m[name] for m in other if name in m]
            out[name] = float(statistics.median_low(vals))  # an observed value
        traced, untraced = _median(self.walls["traced"]), _median(self.walls["untraced"])
        out["trace.overhead_s"] = traced - untraced
        out["trace.overhead_frac"] = (traced - untraced) / untraced
        return out

    def plan(self, root) -> dict:
        cfg = self.cfg
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "n_genes": self.wl.n,
            "m_samples": self.wl.m,
            "bins": cfg.bins,
            "order": cfg.order,
            "permutations": cfg.n_permutations,
            "null_pairs": cfg.n_null_pairs,
            "kernel": cfg.kernel,
            "sparse_backend": self.backend,
            "dtype": cfg.dtype,
            "kernel_dtype": cfg.kernel_dtype or cfg.dtype,
            "tile": self.tile,
            "tile_source": tile_source(cfg),
            "engine": self.wl.engine,
            "workers": WORKERS,
            "autotune": cfg.autotune,
            "cc_cache": os.environ.get("REPRO_CC_CACHE"),
            "autotune_cache": os.environ.get("REPRO_AUTOTUNE_CACHE"),
            "host": host_info(root),
        }
