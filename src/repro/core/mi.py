"""Pairwise mutual-information kernels.

The computational heart of TINGe.  For genes ``x`` and ``y`` with B-spline
weight matrices ``Wx, Wy`` (shape ``(m, b)``), the joint bin probability
matrix is

    P = Wx^T @ Wy / m                       (a b x b GEMM over samples)

and, because the basis partitions unity, ``P`` marginalizes *exactly* to the
marginal bin probabilities of ``x`` and ``y``.  Mutual information is then

    I(x; y) = H(x) + H(y) - H(x, y) = KL(P || p ⊗ q) >= 0.

Four kernel tiers mirror the paper's optimization ladder:

* :func:`mi_bspline_pair` — one pair, GEMM-formulated (vectorized).
* :func:`mi_tile` — a whole tile of pairs in a single BLAS call
  (``(TI*b, m) @ (m, TJ*b)``), the analog of the paper's blocked,
  VPU-saturating kernel.
* :func:`mi_tile_into` / :func:`mi_tile_block` — the *fused* tile kernel:
  the same contraction driven through a reusable :class:`TileWorkspace`
  (no per-tile allocations, no validation scans, hoisted operand
  transposes) with an optional mixed-precision mode (float32 GEMM with
  float64 entropy accumulation).  This is what
  :mod:`repro.core.mi_matrix` drives; the float64 path is bit-identical
  to :func:`mi_tile`.
* the scalar per-sample loop lives in :mod:`repro.baselines.naive` and is
  the "unvectorized" baseline of experiment E2.

A Kraskov k-NN estimator is included as the estimator-extension the paper's
discussion points to for continuous data.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np
from scipy.special import xlogy

from repro.core.bspline import BsplineBasis
from repro.core.entropy import (
    _base_divisor,
    entropy_from_probs,
    joint_entropy_from_probs,
    marginal_entropies,
)
from repro.stats.histogram import histogram2d

__all__ = [
    "joint_probs_pair",
    "mi_from_joint",
    "mi_bspline_pair",
    "mi_bspline",
    "mi_histogram_pair",
    "mi_shrinkage_pair",
    "mi_tile",
    "mi_tile_into",
    "mi_tile_block",
    "mi_tile_sparse",
    "mi_tile_sparse_block",
    "mi_tile_sparse_packed",
    "KERNEL_NAMES",
    "TileWorkspace",
    "prepare_operands",
    "batched_pair_mi",
    "joint_probs_tile",
    "mi_kraskov",
]


def joint_probs_pair(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Joint bin probability matrix ``Wx^T Wy / m`` of one gene pair."""
    wx = np.asarray(wx)
    wy = np.asarray(wy)
    if wx.ndim != 2 or wy.ndim != 2 or wx.shape[0] != wy.shape[0]:
        raise ValueError(
            f"weight matrices must share the sample axis, got {wx.shape} and {wy.shape}"
        )
    m = wx.shape[0]
    if m == 0:
        raise ValueError("no samples")
    return (wx.T @ wy).astype(np.float64, copy=False) / m


def mi_from_joint(joint: np.ndarray, base: str = "nat") -> float:
    """MI from a joint probability matrix whose marginals are consistent.

    Computed as ``H(p) + H(q) - H(P)`` with ``p, q`` the row/column sums of
    ``P`` — exact for B-spline joints, and for histograms by construction.
    """
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 2:
        raise ValueError(f"expected a 2-D joint matrix, got shape {joint.shape}")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    h_xy = joint_entropy_from_probs(joint, base=base)
    h_x = entropy_from_probs(px, base=base)
    h_y = entropy_from_probs(py, base=base)
    return float(max(h_x + h_y - h_xy, 0.0))


def mi_bspline_pair(wx: np.ndarray, wy: np.ndarray, base: str = "nat") -> float:
    """MI of one pair from precomputed B-spline weight matrices."""
    return mi_from_joint(joint_probs_pair(wx, wy), base=base)


def mi_bspline(
    x: np.ndarray,
    y: np.ndarray,
    bins: int = 10,
    order: int = 3,
    base: str = "nat",
) -> float:
    """MI of two raw sample vectors via the B-spline estimator.

    Convenience wrapper that builds the basis weights on the fly; bulk
    computation should precompute a weight tensor once
    (:func:`repro.core.bspline.weight_tensor`) and use :func:`mi_tile`.
    """
    basis = BsplineBasis(bins, order)
    return mi_bspline_pair(basis.weights(np.asarray(x)), basis.weights(np.asarray(y)), base=base)


def mi_histogram_pair(x: np.ndarray, y: np.ndarray, bins: int = 10, base: str = "nat") -> float:
    """MI via the plain equal-width histogram estimator (order-1 case)."""
    return mi_from_joint(histogram2d(x, y, bins), base=base)


def mi_shrinkage_pair(wx: np.ndarray, wy: np.ndarray, base: str = "nat") -> float:
    """MI with James–Stein shrinkage of the joint distribution.

    Shrinks the B-spline joint toward uniform before the entropy
    computation (Hausser & Strimmer 2009), trading a little sensitivity for
    much lower small-sample variance.  Marginals are recomputed from the
    shrunk joint so the decomposition stays exact.
    """
    from repro.core.entropy import james_stein_shrinkage

    joint = joint_probs_pair(wx, wy)
    m = np.asarray(wx).shape[0]
    return mi_from_joint(james_stein_shrinkage(joint, m), base=base)


def joint_probs_tile(wi: np.ndarray, wj: np.ndarray) -> np.ndarray:
    """Joint probability matrices of every pair in a tile, in one GEMM.

    Parameters
    ----------
    wi:
        ``(TI, m, b)`` weight slab of the tile's row genes.
    wj:
        ``(TJ, m, b)`` weight slab of the tile's column genes.

    Returns
    -------
    numpy.ndarray
        ``(TI, TJ, b, b)`` joint probabilities.

    Notes
    -----
    The contraction over the sample axis is dispatched as a single
    ``(TI*b, m) @ (m, TJ*b)`` matrix product via :func:`numpy.tensordot`,
    i.e. one large BLAS GEMM per tile — the package's equivalent of the
    paper's hand-vectorized, cache-blocked inner kernel.  Tile sizes are
    chosen by :mod:`repro.core.tiling` so both slabs fit in cache.
    """
    wi = np.asarray(wi)
    wj = np.asarray(wj)
    if wi.ndim != 3 or wj.ndim != 3 or wi.shape[1] != wj.shape[1]:
        raise ValueError(
            f"expected (T, m, b) slabs sharing m, got {wi.shape} and {wj.shape}"
        )
    m = wi.shape[1]
    if m == 0:
        raise ValueError("no samples")
    # (TI, b, TJ, b) <- contract over samples, then put pair axes first.
    joint = np.tensordot(wi, wj, axes=([1], [1]))
    joint = joint.transpose(0, 2, 1, 3)
    if joint.dtype == np.float64 and joint.flags.c_contiguous:
        return joint / m
    return np.ascontiguousarray(joint, dtype=np.float64) / m


def mi_tile(
    wi: np.ndarray,
    wj: np.ndarray,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
) -> np.ndarray:
    """MI of every pair in a tile: ``out[a, c] = I(gene_i[a]; gene_j[c])``.

    Parameters
    ----------
    wi, wj:
        ``(TI, m, b)`` and ``(TJ, m, b)`` weight slabs.
    h_i, h_j:
        Optional precomputed marginal entropies of the slab genes (in
        ``base``); computing them here is correct but the all-pairs driver
        hoists them so each gene's marginal entropy is computed once, not
        once per tile.
    base:
        ``"nat"`` or ``"bit"``.

    Returns
    -------
    numpy.ndarray
        ``(TI, TJ)`` matrix of non-negative MI values.
    """
    joint = joint_probs_tile(wi, wj)
    if h_i is None:
        h_i = marginal_entropies(wi, base=base)
    if h_j is None:
        h_j = marginal_entropies(wj, base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != (wi.shape[0],) or h_j.shape != (wj.shape[0],):
        raise ValueError("marginal entropy vectors do not match slab sizes")
    # The joint comes straight from non-negative B-spline weights; skip the
    # validation scan on this hot path.
    h_joint = joint_entropy_from_probs(joint, base=base, validate=False)
    mi = h_i[:, None] + h_j[None, :] - h_joint
    return np.maximum(mi, 0.0)


# ---------------------------------------------------------------------------
# Fused workspace kernel
# ---------------------------------------------------------------------------
#
# The legacy mi_tile above allocates a fresh (TI, b, TJ, b) tensordot result,
# copies it into pair-major layout, and runs two more same-size temporaries
# through xlogy/sum — every tile.  The fused kernel below removes all of that:
#
# * operand layout is hoisted: the (n, m, b) weight tensor is repacked once
#   per process into the two GEMM-native layouts — (n, b, m) for the row
#   operand and (m, n*b) for the column operand — so each tile's operands
#   are free views and the contraction is a single NoTrans GEMM matching
#   tensordot's internal call bit-for-bit;
# * the divide is folded into the one unavoidable layout pass, xlogy runs
#   in place, and every buffer lives in a per-worker TileWorkspace reused
#   across tiles (zero steady-state allocation);
# * a dtype knob selects mixed precision: float32 GEMM with the entropy
#   reduction accumulated in float64.
#
# The float64 path is bit-identical to mi_tile (verified by
# tests/test_fused_kernel.py).  One caveat shaped the formulation: BLAS
# summation order is transpose- and shape-dependent, so only the NoTrans
# form with the column operand laid out exactly as tensordot lays it out
# reproduces the legacy bits; degenerate 1x1 tiles (where tensordot's
# reshape yields an F-order no-copy view and hence a TransA call) fall back
# to the legacy kernel.

class TensorCache:
    """Arrays derived from a weight tensor, keyed by its identity and dtype.

    The tensor is held weakly, so an entry is dropped as soon as its tensor
    is collected and a run's hoisted operands never outlive the run.  At
    most two entries are kept, the oldest evicted first.  Each cache is
    process-wide: thread workers share its entries, and fork engines
    inherit them copy-on-write when the parent warms the cache before
    forking.
    """

    def __init__(self, build) -> None:
        self._build = build
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # (id, dtype) -> (ref, value)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, weights: np.ndarray, dtype: np.dtype):
        """The cached ``build(weights, dtype)``, built on first use."""
        key = (id(weights), dtype)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None and hit[0]() is weights:
                return hit[1]
            value = self._build(weights, dtype)
            # The drop takes no lock: the collector can run it inside any
            # allocation, this critical section's included.  An evicted
            # entry's ref dies with it, so its drop never fires.
            ref = weakref.ref(weights, lambda _ref: self._entries.pop(key, None))
            self._entries[key] = (ref, value)
            while len(self._entries) > 2:
                self._entries.popitem(last=False)
            return value


def _gemm_operands(weights: np.ndarray, dt: np.dtype) -> "tuple[np.ndarray, np.ndarray]":
    n, m, b = weights.shape
    row_ops = np.ascontiguousarray(weights.transpose(0, 2, 1), dtype=dt)
    col_ops = np.ascontiguousarray(weights.transpose(1, 0, 2), dtype=dt).reshape(m, n * b)
    return row_ops, col_ops


_OPERAND_CACHE = TensorCache(_gemm_operands)


def prepare_operands(weights: np.ndarray, dtype=None) -> "tuple[np.ndarray, np.ndarray]":
    """Hoisted GEMM-native repackings of a weight tensor, cached.

    Returns ``(row_ops, col_ops)``: a ``(n, b, m)`` tensor whose slices are
    the contiguous row operands ``(T*b, m)`` of every tile, and a
    ``(m, n*b)`` matrix whose column slices are the NoTrans column operands.
    Repacking once per process makes every tile's GEMM operands free views
    instead of the per-tile transpose copies :func:`numpy.tensordot` makes.
    The cache (:class:`TensorCache`) is keyed by tensor identity and dtype
    and drops an entry when its tensor is collected.
    """
    weights = np.asarray(weights)
    dt = np.dtype(dtype) if dtype is not None else weights.dtype
    return _OPERAND_CACHE.get(weights, dt)


class TileWorkspace:
    """Reusable per-worker scratch buffers for the fused tile kernel.

    Buffers grow to the largest tile seen and are reused thereafter; views
    for each (shape, dtype) are cached so steady-state tiles do zero
    allocation.  A workspace is *not* thread-safe — allocate one per engine
    worker (see ``run_tile_plan``), never share across concurrent tiles.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}
        self._views: dict = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A ``shape``-shaped scratch view of the named flat buffer."""
        dt = np.dtype(dtype)
        key = (name, shape, dt)
        view = self._views.get(key)
        if view is None:
            size = 1
            for dim in shape:
                size *= int(dim)
            buf = self._buffers.get(name)
            if buf is None or buf.size < size or buf.dtype != dt:
                buf = np.empty(max(size, 1), dtype=dt)
                self._buffers[name] = buf
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = buf[:size].reshape(shape)
            self._views[key] = view
        return view


def _degenerate_block(block: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Deliver a legacy-kernel fallback block through the ``out`` contract.

    1x1 tiles take this path: tensordot's no-copy reshape there issues a
    TransA GEMM whose summation order the fused NoTrans call cannot
    reproduce, so bit-identity requires the legacy kernel itself.
    """
    if out is None:
        return block
    if out.shape != block.shape:
        raise ValueError(f"out has shape {out.shape}, expected {block.shape}")
    np.copyto(out, block)
    return out


def _fused_block(
    at: np.ndarray,
    bv: np.ndarray,
    ti: int,
    tj: int,
    b: int,
    m: int,
    h_i: np.ndarray,
    h_j: np.ndarray,
    base: str,
    ws: TileWorkspace,
    out: np.ndarray | None,
    mixed: bool,
) -> np.ndarray:
    """MI block from hoisted operands ``at (TI*b, m)`` / ``bv (m, TJ*b)``.

    ``mixed=False`` is the exact path (bit-identical to ``mi_tile`` when the
    operand dtype matches the slab): GEMM in operand precision, then one
    strided divide into a float64 pair-major buffer.  ``mixed=True`` keeps
    the whole probability block in float32 and accumulates the entropy sum
    in float64 (documented tolerance ~1e-6 relative).
    """
    hj = ws.array("hj", (ti, tj))
    if mixed:
        dot = ws.array("dot", (ti * b, tj * b), np.float32)
        np.matmul(at, bv, out=dot)
        np.divide(dot, np.float32(m), out=dot)
        joint4 = dot.reshape(ti, b, tj, b)
        xlogy(joint4, joint4, out=joint4)
        # float64 accumulation of the float32 xlogy terms.
        np.sum(joint4, axis=(1, 3), dtype=np.float64, out=hj)
    else:
        dot = ws.array("dot", (ti * b, tj * b), at.dtype)
        np.matmul(at, bv, out=dot)
        joint = ws.array("joint", (ti, tj, b, b))
        if dot.dtype == np.float64:
            # Fold /m into the single unavoidable layout pass (bit-identical
            # to copy-then-divide).
            np.divide(dot.reshape(ti, b, tj, b).transpose(0, 2, 1, 3), m, out=joint)
        else:
            # Non-float64 slabs must upcast *before* dividing: the legacy
            # kernel divides in float64, and a fused divide would resolve to
            # the float32 loop and round differently.
            np.copyto(joint, dot.reshape(ti, b, tj, b).transpose(0, 2, 1, 3))
            np.divide(joint, m, out=joint)
        xlogy(joint, joint, out=joint)
        np.sum(joint, axis=(-2, -1), out=hj)
    return _finish_block(hj, h_i, h_j, ti, tj, base, out)


def _finish_block(
    hj: np.ndarray,
    h_i: np.ndarray,
    h_j: np.ndarray,
    ti: int,
    tj: int,
    base: str,
    out: np.ndarray | None,
) -> np.ndarray:
    """Shared MI finish: ``max(h_i + h_j - H_xy, 0)`` from a raw xlogy sum.

    ``hj`` holds ``-H_xy * divisor``; finishing as ``h_i + h_j +
    hj/divisor`` is bitwise equal to ``h_i + h_j - H_xy`` (IEEE:
    ``a - (-s) == a + s``, and ``(-s)/d == -(s/d)``).  Used by both the
    fused GEMM kernel and the sparse scatter kernel so the two tails
    cannot drift apart.
    """
    divisor = _base_divisor(base)
    if divisor != 1.0:
        np.divide(hj, divisor, out=hj)
    if out is None:
        out = np.empty((ti, tj))
    elif out.shape != (ti, tj):
        raise ValueError(f"out has shape {out.shape}, expected {(ti, tj)}")
    np.add(h_i[:, None], h_j[None, :], out=out)
    np.add(out, hj, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _resolve_kernel_dtype(dtype, slab_dtype) -> tuple:
    """Map the kernel ``dtype`` knob to (operand dtype, mixed-mode flag).

    ``None`` keeps the slab's own precision (bit-replicates the legacy
    kernel for float64 *and* float32 tensors); ``"float32"`` selects the
    mixed-precision path; ``"float64"`` forces a float64 GEMM.
    """
    if dtype is None:
        return np.dtype(slab_dtype), False
    dt = np.dtype(dtype)
    if dt == np.float32:
        return dt, True
    if dt == np.float64:
        return dt, False
    raise ValueError(f"kernel dtype must be float32 or float64, got {dtype!r}")


def mi_tile_into(
    wi: np.ndarray,
    wj: np.ndarray,
    out: np.ndarray | None = None,
    *,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
    workspace: TileWorkspace | None = None,
    dtype=None,
) -> np.ndarray:
    """Fused-workspace MI of every pair in a tile, from raw weight slabs.

    Drop-in replacement for :func:`mi_tile` that stages both slabs into
    reused workspace buffers and runs the fused reduction — no per-tile
    allocations beyond the returned block.  With ``dtype=None`` the result
    is bit-identical to :func:`mi_tile`.  When the slabs are views of one
    resident tensor, prefer :func:`mi_tile_block`, which skips the per-tile
    staging copies entirely via :func:`prepare_operands`.

    ``out``, if given, must be a float64 ``(TI, TJ)`` array; it is returned
    filled.  It must not alias workspace buffers of concurrent workers.
    """
    wi = np.asarray(wi)
    wj = np.asarray(wj)
    if wi.ndim != 3 or wj.ndim != 3 or wi.shape[1] != wj.shape[1] or wi.shape[2] != wj.shape[2]:
        raise ValueError(
            f"expected (T, m, b) slabs sharing m and b, got {wi.shape} and {wj.shape}"
        )
    ti, m, b = wi.shape
    tj = wj.shape[0]
    if m == 0:
        raise ValueError("no samples")
    if h_i is None:
        h_i = marginal_entropies(wi, base=base)
    if h_j is None:
        h_j = marginal_entropies(wj, base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != (ti,) or h_j.shape != (tj,):
        raise ValueError("marginal entropy vectors do not match slab sizes")
    if ti == 1 and tj == 1:
        return _degenerate_block(mi_tile(wi, wj, h_i, h_j, base=base), out)
    ws = workspace if workspace is not None else TileWorkspace()
    dt, mixed = _resolve_kernel_dtype(dtype, wi.dtype)
    at = ws.array("at", (ti, b, m), dt)
    np.copyto(at, wi.transpose(0, 2, 1), casting="same_kind")
    bv = ws.array("bv", (m, tj, b), dt)
    np.copyto(bv, wj.transpose(1, 0, 2), casting="same_kind")
    return _fused_block(
        at.reshape(ti * b, m), bv.reshape(m, tj * b),
        ti, tj, b, m, h_i, h_j, base, ws, out, mixed,
    )


def mi_tile_block(
    weights: np.ndarray,
    i0: int,
    i1: int,
    j0: int,
    j1: int,
    *,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
    workspace: TileWorkspace | None = None,
    dtype=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused MI block of ``weights[i0:i1] x weights[j0:j1]``.

    The all-pairs driver hot path: tile operands are free contiguous views
    of the process-cached hoisted tensor (:func:`prepare_operands`), so the
    per-tile cost is one GEMM plus the fused entropy reduction.  Bit-
    identical to the legacy ``mi_tile`` path when ``dtype`` is ``None``.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected an (n, m, b) weight tensor, got shape {weights.shape}")
    n, m, b = weights.shape
    if m == 0:
        raise ValueError("no samples")
    dt, mixed = _resolve_kernel_dtype(dtype, weights.dtype)
    ti, tj = i1 - i0, j1 - j0
    if h_i is None:
        h_i = marginal_entropies(weights[i0:i1], base=base)
    if h_j is None:
        h_j = marginal_entropies(weights[j0:j1], base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if ti == 1 and tj == 1:
        return _degenerate_block(
            mi_tile(weights[i0:i1], weights[j0:j1], h_i, h_j, base=base), out
        )
    row_ops, col_ops = prepare_operands(weights, dt)
    ws = workspace if workspace is not None else TileWorkspace()
    return _fused_block(
        row_ops[i0:i1].reshape(ti * b, m), col_ops[:, j0 * b:j1 * b],
        ti, tj, b, m, h_i, h_j, base, ws, out, mixed,
    )


# ---------------------------------------------------------------------------
# Sparse scatter kernel
# ---------------------------------------------------------------------------
#
# Third tier of the kernel ladder (--kernel sparse): instead of the dense
# b x b GEMM, accumulate only the <= k*k cells each sample actually touches,
# through the packed (values, first) layout and the compiled backends of
# repro.core.sparsekernel (numba > cc > numpy, bitwise identical in float64
# — see that module's bit-consistency contract).  The entropy reduction runs
# over the padded (b, b + PACK_LANES - 1) count buffer; pad cells are exact
# +0.0 so xlogy contributes exact zeros and only the summation *tree* over
# the extra cells differs from the fused kernel's.  Consequence: sparse
# float64 MI is deterministic and bitwise identical across engines and
# backends, but ~1 ulp from mi_tile (whose BLAS GEMM uses FMA contraction
# the no-FMA sparse contract cannot reproduce).

# Kernel-variant names accepted by config/CLI ("auto" lets the autotuner
# pick the per-host winner across variants x tile sizes).
KERNEL_NAMES = ("legacy", "fused", "sparse", "auto")


def _sparse_block(
    vi: np.ndarray,
    fi: np.ndarray,
    vj: np.ndarray,
    fj: np.ndarray,
    span: int,
    b: int,
    m: int,
    h_i: np.ndarray,
    h_j: np.ndarray,
    base: str,
    ws: TileWorkspace,
    out: np.ndarray | None,
    mixed: bool,
) -> np.ndarray:
    """MI block from packed operands via the sparse scatter backends."""
    from repro.core.sparsekernel import accumulate_tile, joint_pad

    ti, tj = vi.shape[0], vj.shape[0]
    bp = joint_pad(b)
    counts = ws.array("sparse_counts", (ti, tj, b, bp), vi.dtype)
    accumulate_tile(vi, fi, vj, fj, span, b, counts)
    hj = ws.array("hj", (ti, tj))
    if counts.dtype == np.float64:
        np.divide(counts, m, out=counts)
        xlogy(counts, counts, out=counts)
        np.sum(counts, axis=(-2, -1), out=hj)
    elif mixed:
        # Mirror the fused mixed-precision contract: float32 xlogy terms,
        # float64 accumulation of the entropy sum.
        np.divide(counts, counts.dtype.type(m), out=counts)
        xlogy(counts, counts, out=counts)
        np.sum(counts, axis=(-2, -1), dtype=np.float64, out=hj)
    else:
        # float32 tensor without the mixed knob: upcast before dividing,
        # matching the fused kernel's exact-style float32 path.
        joint = ws.array("sparse_joint", (ti, tj, b, bp))
        np.copyto(joint, counts)
        np.divide(joint, m, out=joint)
        xlogy(joint, joint, out=joint)
        np.sum(joint, axis=(-2, -1), out=hj)
    return _finish_block(hj, h_i, h_j, ti, tj, base, out)


def mi_tile_sparse(
    wi: np.ndarray,
    wj: np.ndarray,
    out: np.ndarray | None = None,
    *,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
    workspace: TileWorkspace | None = None,
    dtype=None,
) -> np.ndarray:
    """Sparse-scatter MI of every pair in a tile, from dense weight slabs.

    Packs both slabs into the ``(values, first)`` layout per call (callers
    holding a resident tensor should use :func:`mi_tile_sparse_block`,
    which packs once per process) and drives the compiled scatter
    backends.  Float64 results are bitwise identical across backends and
    engines, and agree with :func:`mi_tile` to ~1 ulp (the dense GEMM's
    FMA contraction is the only difference; see the module comment).
    ``dtype="float32"`` accumulates counts in float32 with a float64
    entropy sum (~1e-6, same contract as the fused kernel).
    """
    from repro.core.sparsekernel import pack_slab

    wi = np.asarray(wi)
    wj = np.asarray(wj)
    if wi.ndim != 3 or wj.ndim != 3 or wi.shape[1] != wj.shape[1] or wi.shape[2] != wj.shape[2]:
        raise ValueError(
            f"expected (T, m, b) slabs sharing m and b, got {wi.shape} and {wj.shape}"
        )
    ti, m, b = wi.shape
    tj = wj.shape[0]
    if m == 0:
        raise ValueError("no samples")
    if h_i is None:
        h_i = marginal_entropies(wi, base=base)
    if h_j is None:
        h_j = marginal_entropies(wj, base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != (ti,) or h_j.shape != (tj,):
        raise ValueError("marginal entropy vectors do not match slab sizes")
    dt, mixed = _resolve_kernel_dtype(dtype, wi.dtype)
    vi, fi, span_i = pack_slab(wi, dt)
    vj, fj, span_j = pack_slab(wj, dt)
    # The kernels iterate the shared (max) span of row lanes from each
    # slab's clamped `first`; a slab packed at a narrower span has `first`
    # clamped only to b - span_own, which would let row indices run past
    # b - 1 (numpy: bincount shape error; compiled: out-of-bounds writes).
    # Repack the narrower slab at the shared span — the extra lanes hold
    # exact +0.0, so the MI bits are unchanged (see pack_slab).
    span = max(span_i, span_j)
    if span_i < span:
        vi, fi, _ = pack_slab(wi, dt, span=span)
    if span_j < span:
        vj, fj, _ = pack_slab(wj, dt, span=span)
    ws = workspace if workspace is not None else TileWorkspace()
    return _sparse_block(vi, fi, vj, fj, span, b, m,
                         h_i, h_j, base, ws, out, mixed)


def mi_tile_sparse_block(
    weights: np.ndarray,
    i0: int,
    i1: int,
    j0: int,
    j1: int,
    *,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
    workspace: TileWorkspace | None = None,
    dtype=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse-scatter MI block of ``weights[i0:i1] x weights[j0:j1]``.

    The all-pairs driver hot path for ``--kernel sparse``: the packed
    operands are process-cached views
    (:func:`repro.core.sparsekernel.prepare_packed`, warmed pre-fork for
    copy-on-write sharing), so the per-tile cost is one scatter pass over
    ``m * span * PACK_LANES`` cells per pair plus the fused entropy
    reduction.  Same precision contract as :func:`mi_tile_sparse`.
    """
    from repro.core.sparsekernel import prepare_packed

    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected an (n, m, b) weight tensor, got shape {weights.shape}")
    n, m, b = weights.shape
    if m == 0:
        raise ValueError("no samples")
    dt, mixed = _resolve_kernel_dtype(dtype, weights.dtype)
    ti, tj = i1 - i0, j1 - j0
    if h_i is None:
        h_i = marginal_entropies(weights[i0:i1], base=base)
    if h_j is None:
        h_j = marginal_entropies(weights[j0:j1], base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    values, first, span = prepare_packed(weights, dt)
    ws = workspace if workspace is not None else TileWorkspace()
    return _sparse_block(values[i0:i1], first[i0:i1], values[j0:j1], first[j0:j1],
                         span, b, m, h_i, h_j, base, ws, out, mixed)


def mi_tile_sparse_packed(
    vi: np.ndarray,
    fi: np.ndarray,
    vj: np.ndarray,
    fj: np.ndarray,
    span: int,
    bins: int,
    m: int,
    *,
    h_i: np.ndarray,
    h_j: np.ndarray,
    base: str = "nat",
    workspace: TileWorkspace | None = None,
    dtype=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """MI block directly from padded packed operands.

    The :class:`repro.core.exec.PackedWeightSource` route: remote/elastic
    workers receive the ~``span/b``-sized packed slabs instead of dense
    ones and feed them straight to the scatter backends — no dense
    reconstruction.  The operand dtype must already match what ``dtype``
    resolves to (the source packs at wrap time).
    """
    from repro.core.sparsekernel import PACK_LANES

    vi = np.asarray(vi)
    vj = np.asarray(vj)
    if vi.ndim != 3 or vi.shape[2] != PACK_LANES or vj.ndim != 3 or vj.shape[2] != PACK_LANES:
        raise ValueError("expected (T, m, PACK_LANES) padded packed values")
    if m <= 0:
        raise ValueError("no samples")
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    dt, mixed = _resolve_kernel_dtype(dtype, vi.dtype)
    if dt != vi.dtype:
        raise ValueError(
            f"packed operands are {vi.dtype}, kernel dtype resolves to {dt}; "
            "pack the source at the kernel dtype")
    ws = workspace if workspace is not None else TileWorkspace()
    return _sparse_block(vi, fi, vj, fj, span, bins, m,
                         h_i, h_j, base, ws, out, mixed)


def batched_pair_mi(joint: np.ndarray, base: str = "nat") -> np.ndarray:
    """MI of a ``(P, b, b)`` stack of per-pair joint probability matrices.

    The validation-free batched reduction of ``per_pair_pvalues``:
    marginals from the joint's row/column sums, plug-in entropies, clamp at
    zero.  Op-for-op identical to :func:`mi_from_joint` on each slice, so
    the per-permutation reference loop of the tests matches it bitwise.
    """
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 3:
        raise ValueError(f"expected a (P, b, b) joint stack, got shape {joint.shape}")
    px = joint.sum(axis=2)
    py = joint.sum(axis=1)
    h_xy = joint_entropy_from_probs(joint, base=base, validate=False)
    h_x = entropy_from_probs(px, axis=1, base=base, validate=False)
    h_y = entropy_from_probs(py, axis=1, base=base, validate=False)
    return np.maximum(h_x + h_y - h_xy, 0.0)


def mi_kraskov(x: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Kraskov–Stögbauer–Grassberger (KSG-1) k-NN MI estimator, in nats.

    The continuous-data alternative the MI literature reaches for when
    binning is too coarse; included as the estimator extension and used by
    tests as an independent cross-check that the B-spline estimator tracks
    dependence strength.  ``O(m^2)`` brute-force neighbor search — intended
    for validation-scale inputs, not whole genomes.
    """
    from scipy.special import digamma

    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    m = x.size
    if k < 1 or k >= m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dz = np.maximum(dx, dy)  # Chebyshev metric in the joint space
    np.fill_diagonal(dz, np.inf)
    # Distance to the k-th neighbor in the joint space.
    eps = np.partition(dz, k - 1, axis=1)[:, k - 1]
    # Count strictly-closer neighbors in each marginal.
    np.fill_diagonal(dx, np.inf)
    np.fill_diagonal(dy, np.inf)
    nx = np.count_nonzero(dx < eps[:, None], axis=1)
    ny = np.count_nonzero(dy < eps[:, None], axis=1)
    mi = digamma(k) + digamma(m) - np.mean(digamma(nx + 1) + digamma(ny + 1))
    return float(max(mi, 0.0))
