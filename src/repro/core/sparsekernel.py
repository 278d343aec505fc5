"""Compiled sparse-accumulation backends for the B-spline MI kernel.

Each sample contributes at most ``k`` consecutive non-zero B-spline weights
per gene (PAPER.md, preprocessing), so the ``b x b`` joint-histogram
contraction ``Wx^T Wy`` touches only ``k * k`` of the ``b * b`` cells per
sample — 9/100 of the dense GEMM's FLOPs at the paper's ``b=10, k=3``.
This module owns the three interchangeable backends that exploit that
structure, all consuming the packed ``(values, first)`` layout of
:func:`repro.core.bspline.packed_weights` padded to :data:`PACK_LANES`
vector lanes:

* ``numba`` — an ``@njit`` scatter loop (when Numba is importable).
* ``cc``    — a small C kernel compiled on demand with the system C
  compiler (``-O3 -ffp-contract=off``) and loaded via ctypes; 8 column
  genes are interleaved per row gene so the 3 row-major read-modify-write
  streams of each pair hide each other's store latency.
* ``numpy`` — a vectorized ``np.bincount`` scatter, always available.

**Bit-consistency contract.**  All three backends produce *bitwise
identical* float64 joint counts: each sample adds exactly one product per
touched cell, per-cell accumulation order is sample order in every
backend, and no backend contracts multiply+add into an FMA (the C build
passes ``-ffp-contract=off``; Numba's default ``fastmath=False`` does not
contract; ``np.bincount`` accumulates sequentially in input order).  The
float32 path accumulates in float32 in the compiled backends (numba and
cc are bitwise identical to each other); the numpy fallback accumulates
in float64 and casts — documented tolerance ~2e-6 relative, the same
regime as the PR 5 mixed-precision GEMM.  Because the padded lanes and
pad columns hold exact ``+0.0`` and every accumulated product is
non-negative, padding never perturbs a single bit.

The backend is picked once per process (numba > cc > numpy) and can be
forced with ``REPRO_SPARSE_BACKEND=numba|cc|numpy`` (unavailable forced
backends raise instead of silently degrading — tests rely on that).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.mi import TensorCache

__all__ = [
    "PACK_LANES",
    "MAX_COMPILED_ORDER",
    "joint_pad",
    "pack_slab",
    "prepare_packed",
    "sparse_backend",
    "accumulate_tile",
]

# Packed values are padded to a fixed lane count so the compiled kernels
# always load one aligned 4-wide vector per sample; spline orders above
# this are routed to the (lane-count-agnostic) numpy backend.
PACK_LANES = 4
MAX_COMPILED_ORDER = PACK_LANES

_BACKEND_ENV = "REPRO_SPARSE_BACKEND"
_CACHE_ENV = "REPRO_CC_CACHE"
_BACKENDS = ("numba", "cc", "numpy")


def joint_pad(bins: int) -> int:
    """Padded row stride of the joint-count buffer.

    The scatter writes a full :data:`PACK_LANES`-wide vector starting at
    any column ``first <= bins - 1``, so rows carry ``PACK_LANES - 1``
    spill columns.  Spill cells only ever receive exact ``+0.0`` (the pad
    lanes are zero), so entropy reductions over the padded buffer are
    bit-identical to reductions over the tight one.
    """
    return bins + PACK_LANES - 1


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def pack_slab(
    weights: np.ndarray, dtype=None, *, span: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack an ``(n, m, b)`` weight slab into the padded sparse layout.

    Returns ``(values, first, span)`` where ``values`` is a C-contiguous
    ``(n, m, PACK_LANES)`` array (trailing lanes zero), ``first`` is
    ``(n, m)`` int32, and ``span`` is the widest run of non-zeros observed
    in any row — the effective spline order ``k`` the kernels iterate.
    Inferring ``span`` from the data (instead of threading the basis order
    through every driver) is bitwise safe: packing with extra zero lanes
    only adds exact ``+0.0`` contributions.

    ``span`` forces a wider window than the slab's own widest run (still
    ``<= min(b, PACK_LANES)``).  A tile pairs two independently packed
    slabs and the kernels iterate the *shared* (max) span from each row's
    clamped ``first``, so the narrower slab must be packed — clamped and
    re-extracted together — at that shared span, or its row indices could
    run past ``b - 1``.  Clamping ``first`` alone is not enough: the lane
    values are extracted at ``first``, so moving ``first`` without
    re-extracting would scatter weights into the wrong bins.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight slab, got shape {weights.shape}")
    n, m, b = weights.shape
    dt = np.dtype(dtype) if dtype is not None else weights.dtype
    flat = weights.reshape(n * m, b)
    nz = flat != 0.0
    any_nz = nz.any(axis=1)
    first = np.where(any_nz, nz.argmax(axis=1), 0)
    last = np.where(any_nz, b - 1 - nz[:, ::-1].argmax(axis=1), 0)
    observed = int((last - first + 1).max()) if flat.size else 1
    observed = max(observed, 1)
    if observed > PACK_LANES:
        raise ValueError(
            f"weight rows span up to {observed} non-zero bins; the sparse kernel "
            f"packs at most {PACK_LANES} lanes (spline order <= {MAX_COMPILED_ORDER})"
        )
    if span is None:
        span = observed
    elif not observed <= span <= min(b, PACK_LANES):
        raise ValueError(
            f"requested span {span} outside [{observed}, {min(b, PACK_LANES)}] "
            f"(observed span {observed}, {b} bins, {PACK_LANES} lanes)"
        )
    first = np.minimum(first, b - span)
    cols = first[:, None] + np.arange(span)[None, :]
    values = np.zeros((n * m, PACK_LANES), dtype=dt)
    values[:, :span] = np.take_along_axis(flat, cols, axis=1)
    return (
        np.ascontiguousarray(values.reshape(n, m, PACK_LANES)),
        np.ascontiguousarray(first.reshape(n, m).astype(np.int32)),
        span,
    )


_PACKED_CACHE = TensorCache(pack_slab)


def prepare_packed(weights: np.ndarray, dtype=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Process-cached :func:`pack_slab` of a resident weight tensor.

    Shares :func:`repro.core.mi.prepare_operands`'s cache policy
    (:class:`repro.core.mi.TensorCache`): keyed by tensor identity and
    dtype, at most two entries, each dropped when its tensor is collected,
    and warmed by the executor before forking so child workers inherit the
    packed copy copy-on-write.
    """
    weights = np.asarray(weights)
    dt = np.dtype(dtype) if dtype is not None else weights.dtype
    return _PACKED_CACHE.get(weights, dt)


# ---------------------------------------------------------------------------
# C backend
# ---------------------------------------------------------------------------
#
# The scatter kernel: for each (row gene a, column gene c) pair, every
# sample adds the k x PACK_LANES outer product of its packed weights into a
# (b, bp) count block at (first_a[s], first_c[s]).  Eight column genes are
# interleaved per row gene so the broadcasts of a's lanes are hoisted and
# the dependent read-modify-write chains of eight independent blocks
# overlap.  GCC vector extensions (not intrinsics) keep the source
# portable across x86/ARM; -ffp-contract=off forbids FMA so the numba and
# numpy tiers can reproduce the bits.

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

typedef double v4df __attribute__((vector_size(32), aligned(8)));
typedef float  v4sf __attribute__((vector_size(16), aligned(4)));

static inline v4df loadud(const double* p) { v4df v; __builtin_memcpy(&v, p, 32); return v; }
static inline void storeud(double* p, v4df v) { __builtin_memcpy(p, &v, 32); }
static inline v4sf loaduf(const float* p) { v4sf v; __builtin_memcpy(&v, p, 16); return v; }
static inline void storeuf(float* p, v4sf v) { __builtin_memcpy(p, &v, 16); }

#define SPARSE_TILE(NAME, T, VT, LOAD, STORE, K, CB)                               \
static inline void NAME##_acc(T* r, const T* x, VT y, int bp)                      \
{                                                                                  \
    for (int l = 0; l < (K); l++) {                                                \
        VT xb = { x[l], x[l], x[l], x[l] };                                        \
        STORE(r + (size_t)l * bp, LOAD(r + (size_t)l * bp) + xb * y);              \
    }                                                                              \
}                                                                                  \
void NAME(const T* restrict vi, const int32_t* restrict fi, int ti,                \
          const T* restrict vj, const int32_t* restrict fj, int tj,                \
          int m, int b, int bp, T* restrict out)                                   \
{                                                                                  \
    size_t cell = (size_t)b * bp;                                                  \
    for (int a = 0; a < ti; a++) {                                                 \
        const T*       va = vi + (size_t)a * m * 4;                                \
        const int32_t* fa = fi + (size_t)a * m;                                    \
        int c = 0;                                                                 \
        for (; c + CB <= tj; c += CB) {                                            \
            const T* vc[CB]; const int32_t* fc[CB]; T* J[CB];                      \
            for (int q = 0; q < CB; q++) {                                         \
                vc[q] = vj + (size_t)(c + q) * m * 4;                              \
                fc[q] = fj + (size_t)(c + q) * m;                                  \
                J[q]  = out + ((size_t)a * tj + c + q) * cell;                     \
                memset(J[q], 0, cell * sizeof(T));                                 \
            }                                                                      \
            for (int s = 0; s < m; s++) {                                          \
                const T* x = va + (size_t)s * 4;                                   \
                int row = fa[s] * bp;                                              \
                for (int q = 0; q < CB; q++)                                       \
                    NAME##_acc(J[q] + row + fc[q][s], x,                           \
                               LOAD(vc[q] + (size_t)s * 4), bp);                   \
            }                                                                      \
        }                                                                          \
        for (; c < tj; c++) {                                                      \
            const T*       vc = vj + (size_t)c * m * 4;                            \
            const int32_t* fc = fj + (size_t)c * m;                                \
            T* J = out + ((size_t)a * tj + c) * cell;                              \
            memset(J, 0, cell * sizeof(T));                                        \
            for (int s = 0; s < m; s++)                                            \
                NAME##_acc(J + fa[s] * bp + fc[s], va + (size_t)s * 4,             \
                           LOAD(vc + (size_t)s * 4), bp);                          \
        }                                                                          \
    }                                                                              \
}

SPARSE_TILE(tile_sparse_f64_k1, double, v4df, loadud, storeud, 1, 8)
SPARSE_TILE(tile_sparse_f64_k2, double, v4df, loadud, storeud, 2, 8)
SPARSE_TILE(tile_sparse_f64_k3, double, v4df, loadud, storeud, 3, 8)
SPARSE_TILE(tile_sparse_f64_k4, double, v4df, loadud, storeud, 4, 8)
SPARSE_TILE(tile_sparse_f32_k1, float, v4sf, loaduf, storeuf, 1, 8)
SPARSE_TILE(tile_sparse_f32_k2, float, v4sf, loaduf, storeuf, 2, 8)
SPARSE_TILE(tile_sparse_f32_k3, float, v4sf, loaduf, storeuf, 3, 8)
SPARSE_TILE(tile_sparse_f32_k4, float, v4sf, loaduf, storeuf, 4, 8)
"""


def _cc_cache_dir() -> Path:
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _host_tag() -> str:
    """CPU-capability discriminator for the compiled-kernel cache name.

    The build uses ``-march=native``, so an ``.so`` compiled on one
    machine can load fine yet SIGILL at call time on another — a shared
    cache dir (NFS home, ``REPRO_CC_CACHE``) across heterogeneous hosts
    must key on the CPU's ISA features, not just the source digest.
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key = line.split(":", 1)[0].strip().lower()
                if key in ("flags", "features"):  # x86 / arm
                    parts.append(line.split(":", 1)[1].strip())
                    break
    except OSError:
        # No /proc (e.g. macOS): fall back to one cache entry per host.
        parts.append(platform.node())
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()[:8]


_CC_LOCK = threading.Lock()
_CC_LIB: "list | None" = None  # [lib_or_None] once resolution has run


def _build_cc_library() -> "ctypes.CDLL | None":
    """Compile (once per source hash) and load the C scatter kernels.

    Returns ``None`` when no C compiler is on PATH or compilation fails —
    callers fall through to the next backend.  The shared object is cached
    under ``~/.cache/repro`` (override: ``REPRO_CC_CACHE``) keyed by a
    source hash plus a host CPU tag (the build is ``-march=native``; see
    :func:`_host_tag`), so rebuilds happen only when the kernel source
    changes or the cache is shared with a different kind of host.
    """
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    so_path = _cc_cache_dir() / f"sparsekernel-{digest}-{_host_tag()}.so"
    if so_path.exists():
        try:
            return ctypes.CDLL(str(so_path))
        except OSError:
            pass  # stale/foreign-arch artifact: rebuild below
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(so_path.parent)) as tmp:
            src = Path(tmp) / "sparsekernel.c"
            src.write_text(_C_SOURCE)
            tmp_so = Path(tmp) / "sparsekernel.so"
            base_cmd = [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC",
                        str(src), "-o", str(tmp_so)]
            # -march=native helps where supported; retry portably without.
            for cmd in (base_cmd[:2] + ["-march=native"] + base_cmd[2:], base_cmd):
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
                if proc.returncode == 0:
                    break
            else:
                return None
            os.replace(tmp_so, so_path)
        return ctypes.CDLL(str(so_path))
    except (OSError, subprocess.SubprocessError):
        return None


def _cc_library() -> "ctypes.CDLL | None":
    global _CC_LIB
    with _CC_LOCK:
        if _CC_LIB is None:
            lib = _build_cc_library()
            if lib is not None:
                argtypes = [
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
                    ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_void_p,
                ]
                for prec in ("f64", "f32"):
                    for k in range(1, MAX_COMPILED_ORDER + 1):
                        fn = getattr(lib, f"tile_sparse_{prec}_k{k}")
                        fn.argtypes = argtypes
                        fn.restype = None
            _CC_LIB = [lib]
        return _CC_LIB[0]


def _cc_tile(vi, fi, vj, fj, span, bins, bp, out) -> None:
    lib = _cc_library()
    prec = "f64" if out.dtype == np.float64 else "f32"
    fn = getattr(lib, f"tile_sparse_{prec}_k{span}")
    fn(vi.ctypes.data, fi.ctypes.data, vi.shape[0],
       vj.ctypes.data, fj.ctypes.data, vj.shape[0],
       vi.shape[1], bins, bp, out.ctypes.data)


# ---------------------------------------------------------------------------
# Numba backend
# ---------------------------------------------------------------------------

_NUMBA_LOCK = threading.Lock()
_NUMBA_TILE: "list | None" = None  # [jit_fn_or_None]


def _numba_build():
    """Compile the scatter loop with Numba, or return ``None``.

    The loop body is the scalar transliteration of the C kernel: per pair,
    zero the cell block, then for each sample add ``x[l] * y[q]`` into
    ``(first_a + l, first_c + q)`` — one rounded multiply and one rounded
    add per cell contribution, in sample order, exactly like the vector
    code (elementwise vector mul+add == scalar mul+add), so float64 and
    float32 results are bitwise identical to the cc backend.
    """
    try:
        import numba
    except ImportError:
        return None

    @numba.njit(cache=False, fastmath=False)
    def _tile(vi, fi, vj, fj, span, bp, out):
        ti = vi.shape[0]
        tj = vj.shape[0]
        m = vi.shape[1]
        for a in range(ti):
            for c in range(tj):
                block = out[a, c]
                block[:, :] = 0.0
                for s in range(m):
                    r0 = fi[a, s]
                    c0 = fj[c, s]
                    for l in range(span):
                        x = vi[a, s, l]
                        block[r0 + l, c0] += x * vj[c, s, 0]
                        block[r0 + l, c0 + 1] += x * vj[c, s, 1]
                        block[r0 + l, c0 + 2] += x * vj[c, s, 2]
                        block[r0 + l, c0 + 3] += x * vj[c, s, 3]
        return out

    return _tile


def _numba_tile_fn():
    global _NUMBA_TILE
    with _NUMBA_LOCK:
        if _NUMBA_TILE is None:
            _NUMBA_TILE = [_numba_build()]
        return _NUMBA_TILE[0]


# ---------------------------------------------------------------------------
# Numpy fallback
# ---------------------------------------------------------------------------


def _numpy_tile(vi, fi, vj, fj, span, bins, bp, out) -> None:
    """Pure-numpy scatter via one ``np.bincount`` per row gene.

    Per (row gene, sample, column gene) the ``span x PACK_LANES`` cell
    targets are all distinct, so each cell receives at most one
    contribution per sample and ``bincount``'s sequential input-order
    accumulation reproduces the compiled kernels' per-cell sample order
    bitwise (float64).  Products are always computed in float64; float32
    outputs are casts of the float64 counts (documented ~2e-6 vs the
    compiled float32 tiers, which accumulate natively in float32).
    """
    ti, m, _ = vi.shape
    tj = vj.shape[0]
    cell = bins * bp
    lane_off = (np.arange(span, dtype=np.intp)[:, None] * bp
                + np.arange(PACK_LANES, dtype=np.intp)[None, :])
    vj64 = vj.astype(np.float64, copy=False)
    vi64 = vi.astype(np.float64, copy=False)
    pair_off = (np.arange(tj, dtype=np.intp) * cell)[:, None, None, None]
    col_base = fj.astype(np.intp)[:, :, None, None]
    for a in range(ti):
        idx = (fi[a].astype(np.intp) * bp)[None, :, None, None] + col_base
        idx = idx + lane_off[None, None, :, :] + pair_off
        prod = vi64[a, :, :span][None, :, :, None] * vj64[:, :, None, :]
        counts = np.bincount(idx.ravel(), weights=prod.ravel(), minlength=tj * cell)
        out[a] = counts.reshape(tj, bins, bp)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_BACKEND_LOCK = threading.Lock()
_BACKEND: "list | None" = None


def _detect_backend() -> str:
    forced = os.environ.get(_BACKEND_ENV)
    if forced:
        if forced not in _BACKENDS:
            raise ValueError(
                f"{_BACKEND_ENV} must be one of {_BACKENDS}, got {forced!r}")
        if forced == "numba" and _numba_tile_fn() is None:
            raise RuntimeError(f"{_BACKEND_ENV}=numba but numba is not importable")
        if forced == "cc" and _cc_library() is None:
            raise RuntimeError(f"{_BACKEND_ENV}=cc but no working C compiler found")
        return forced
    if _numba_tile_fn() is not None:
        return "numba"
    if _cc_library() is not None:
        return "cc"
    return "numpy"


def sparse_backend() -> str:
    """The sparse-accumulation backend this process uses (resolved once).

    ``numba`` > ``cc`` > ``numpy`` by availability; forceable via the
    ``REPRO_SPARSE_BACKEND`` environment variable (raises when the forced
    backend is unavailable).  All backends are bitwise identical in
    float64, so the choice affects speed only.
    """
    global _BACKEND
    with _BACKEND_LOCK:
        if _BACKEND is None:
            _BACKEND = [_detect_backend()]
        return _BACKEND[0]


def _reset_backend_cache() -> None:
    """Forget the resolved backend (tests flip REPRO_SPARSE_BACKEND)."""
    global _BACKEND
    with _BACKEND_LOCK:
        _BACKEND = None


def accumulate_tile(
    vi: np.ndarray,
    fi: np.ndarray,
    vj: np.ndarray,
    fj: np.ndarray,
    span: int,
    bins: int,
    out: np.ndarray,
) -> np.ndarray:
    """Joint-count blocks of every pair in a tile, from packed operands.

    Parameters
    ----------
    vi, fi:
        Row-gene packed values ``(TI, m, PACK_LANES)`` (C-contiguous,
        float64 or float32) and first-bin indices ``(TI, m)`` int32.
    vj, fj:
        Column-gene counterparts, ``(TJ, m, PACK_LANES)`` / ``(TJ, m)``.
        Must share ``m`` and dtype with the row operands.
    span:
        Effective spline order (row lanes iterated); ``1..PACK_LANES``.
    bins:
        Number of bins ``b``; ``out`` must be ``(TI, TJ, b, joint_pad(b))``
        in the operand dtype.  Overwritten (not accumulated into).

    Returns ``out``: per pair the unnormalized joint histogram ``m * P``
    in the ``b`` leading columns, exact zeros in the pad columns.
    """
    if not (1 <= span <= PACK_LANES):
        raise ValueError(f"span must be in [1, {PACK_LANES}], got {span}")
    bp = joint_pad(bins)
    expected = (vi.shape[0], vj.shape[0], bins, bp)
    if out.shape != expected:
        raise ValueError(f"out has shape {out.shape}, expected {expected}")
    if vi.shape[1] != vj.shape[1]:
        raise ValueError("packed operands must share the sample axis")
    # Row lanes iterate `span` from fi and every backend writes PACK_LANES
    # columns from fj; reject indices the (b, bp) cell block cannot hold
    # before the compiled backends turn them into out-of-bounds writes.
    # Operands packed at a narrower span than `span` trip this — repack
    # them at the shared span (pack_slab's `span=` argument).
    if fi.size and not 0 <= int(fi.min()) <= int(fi.max()) <= bins - span:
        raise ValueError(
            f"row first indices must lie in [0, {bins - span}] for span {span}; "
            "pack both operands at the shared span (pack_slab(..., span=...))")
    if fj.size and not 0 <= int(fj.min()) <= int(fj.max()) <= bins - 1:
        raise ValueError(
            f"column first indices must lie in [0, {bins - 1}]")
    backend = sparse_backend()
    if backend == "numpy" or out.dtype not in (np.float64, np.float32):
        if out.dtype == np.float64:
            _numpy_tile(vi, fi, vj, fj, span, bins, bp, out)
        else:
            tmp = np.empty(expected, dtype=np.float64)
            _numpy_tile(vi, fi, vj, fj, span, bins, bp, tmp)
            np.copyto(out, tmp, casting="same_kind")
        return out
    if vi.dtype != out.dtype or vj.dtype != out.dtype:
        raise ValueError(
            f"packed operands must match out dtype {out.dtype}, "
            f"got {vi.dtype}/{vj.dtype}")
    if backend == "numba":
        _numba_tile_fn()(vi, fi, vj, fj, span, bp, out)
    else:
        if not (vi.flags.c_contiguous and vj.flags.c_contiguous
                and fi.flags.c_contiguous and fj.flags.c_contiguous
                and out.flags.c_contiguous):
            raise ValueError("cc backend requires C-contiguous operands")
        _cc_tile(vi, fi, vj, fj, span, bins, bp, out)
    return out
