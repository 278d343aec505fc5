"""Permutation testing for MI significance (TINGe's statistical engine).

An MI estimate is never exactly zero for finite samples, so TINGe keeps an
edge only if its MI exceeds what chance produces: permute one gene's samples
(destroying any real dependence while preserving both marginals) and compare.

Two facts make this affordable at whole-genome scale:

1. **Shared permutations.**  The same ``q`` permutations are applied to
   every gene, so each gene's weight matrix is permuted once
   (:func:`permuted_weights` just reindexes rows — the B-spline weights of a
   permuted gene are the permuted weights), instead of re-deriving weights
   per pair x permutation.
2. **A pooled null.**  After the rank transform every gene has the identical
   marginal distribution, so the null MI distribution is the *same for
   every pair*.  One pooled sample of null MIs — ``q`` permutations of a few
   hundred random pairs — yields a single global threshold ``I_alpha``
   applied to all ``n(n-1)/2`` pairs.  This is the difference between an
   O(n^2 m q) and an O(n^2 m + q * s * m) algorithm.

The pooled null runs on the MI phase's own sparse kernel
(:func:`repro.core.mi.mi_tile_sparse_packed`): the sampled genes are packed
once, and each sampled pair ``(x, y)`` is one ``1 x q`` tile whose row is
``y`` and whose ``q`` columns are ``x``'s packed rows gathered under each
permutation.  Every null value is therefore, bit for bit, the sparse MI of
``(W[y], W[x][pi])`` — the null is computed by the same code as the
observed MI it is compared against.  Spline orders the packing cannot hold
take the dense :func:`repro.core.mi.mi_tile` on the gathered slabs instead.

Both the pooled-threshold fast path (the paper's) and the exact per-pair
p-value path are implemented; tests cross-validate them on small inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    TileWorkspace,
    batched_pair_mi,
    mi_bspline_pair,
    mi_tile,
    mi_tile_sparse_packed,
)
from repro.core.sparsekernel import pack_slab, sparse_backend
from repro.stats.pvalues import empirical_pvalues
from repro.stats.quantile import upper_tail_threshold
from repro.stats.random import as_rng, permutation_matrix, sample_pairs

__all__ = [
    "NullDistribution",
    "permuted_weights",
    "pair_nulls",
    "pooled_null",
    "null_threshold",
    "per_pair_pvalues",
]


def permuted_weights(weights: np.ndarray, permutation: np.ndarray) -> np.ndarray:
    """Weight matrix (or tensor) of the sample-permuted gene(s).

    Because weights are a per-sample function of the expression value,
    permuting samples of a gene permutes the *rows* of its weight matrix —
    no basis re-evaluation needed.  Accepts ``(m, b)`` or ``(n, m, b)``.
    """
    weights = np.asarray(weights)
    permutation = np.asarray(permutation, dtype=np.intp)
    if permutation.ndim != 1:
        raise ValueError("permutation must be 1-D")
    m = weights.shape[0] if weights.ndim == 2 else weights.shape[1]
    if permutation.shape[0] != m:
        raise ValueError(
            f"permutation length {permutation.shape[0]} != sample count {m}"
        )
    if sorted(set(permutation.tolist())) != list(range(m)):
        raise ValueError("not a permutation of range(m)")
    if weights.ndim == 2:
        return weights[permutation]
    if weights.ndim == 3:
        return weights[:, permutation]
    raise ValueError(f"expected (m, b) or (n, m, b) weights, got shape {weights.shape}")


@dataclass
class NullDistribution:
    """A pooled null MI sample plus the metadata needed to threshold it.

    Attributes
    ----------
    mis:
        1-D array of null MI values (size ``q * n_pairs_sampled``).
    n_permutations, n_pairs_sampled:
        How the pool was built.
    base:
        Entropy log base the null was computed in (must match the observed
        MI matrix it is compared against).
    route:
        The kernel that computed ``mis``: ``"sparse:<backend>"`` (the
        packed scatter kernel and the backend it ran on), ``"dense"``, or
        empty for a pool built outside :func:`pooled_null`.
    """

    mis: np.ndarray
    n_permutations: int
    n_pairs_sampled: int
    base: str = "nat"
    route: str = ""

    @property
    def size(self) -> int:
        return int(self.mis.size)

    def threshold(self, alpha: float, n_tests: int, correction: str = "bonferroni") -> float:
        """Global significance threshold ``I_alpha`` for ``n_tests`` pairs."""
        return null_threshold(self, alpha, n_tests, correction)

    def pvalues(self, observed: np.ndarray) -> np.ndarray:
        """Pooled-null empirical p-values for observed MI values."""
        return empirical_pvalues(observed, self.mis)


# Sampled pairs per null task.  Fixed, so the split of the work (and with
# it every bit of the pool) is the same on every engine and worker count.
NULL_CHUNK = 8


@dataclass(frozen=True)
class _NullOperands:
    """The sampled genes, prepared once for every null evaluation.

    On the sparse route ``rows``/``first``/``span`` are the float64
    :func:`~repro.core.sparsekernel.pack_slab` of the genes; on the dense
    route (spline orders ``pack_slab`` cannot pack) ``rows`` is their
    dense weight slab and ``first`` is ``None``.  ``h`` holds their
    marginal entropies: a permutation leaves a gene's marginal unchanged,
    so the permuted gene's entropy is passed in rather than recomputed.
    """

    rows: np.ndarray
    first: "np.ndarray | None"
    span: int
    bins: int
    h: np.ndarray
    base: str


def _null_chunk(ops: _NullOperands, perms: np.ndarray, local: np.ndarray,
                start: int) -> np.ndarray:
    """Null MIs of pairs ``local[start:start + NULL_CHUNK]``, ``(chunk, q)``.

    Pair ``(x, y)`` (indices into the operand genes) is one ``1 x q`` tile:
    the row is ``y``, the ``q`` columns are ``x`` gathered under each
    permutation.  The unit of work every null builder dispatches, so serial
    loops, engines and the distributed ranks produce the same bits.
    """
    q, m = perms.shape
    chunk = local[start:start + NULL_CHUNK]
    out = np.empty((len(chunk), q))
    ws = TileWorkspace()
    # The gathered columns of every pair reuse one buffer per chunk.  The
    # indices are checked in pair_nulls, so "clip" never moves one; it only
    # spares np.take the temporary that mode="raise" makes for out=.
    cols = np.empty((q,) + ops.rows.shape[1:], dtype=ops.rows.dtype)
    if ops.first is not None:
        cols_first = np.empty((q, m), dtype=ops.first.dtype)
    for k, (x, y) in enumerate(chunk):
        h_x = np.full(q, ops.h[x])
        h_y = ops.h[y:y + 1]
        np.take(ops.rows[x], perms, axis=0, out=cols, mode="clip")
        if ops.first is None:
            out[k] = mi_tile(ops.rows[y:y + 1], cols, h_i=h_y, h_j=h_x,
                             base=ops.base)[0]
        else:
            np.take(ops.first[x], perms, axis=0, out=cols_first, mode="clip")
            mi_tile_sparse_packed(
                ops.rows[y:y + 1], ops.first[y:y + 1], cols, cols_first,
                ops.span, ops.bins, m, h_i=h_y, h_j=h_x,
                base=ops.base, workspace=ws, out=out[k:k + 1])
    return out


def pair_nulls(
    weights: np.ndarray,
    pairs: np.ndarray,
    perms: np.ndarray,
    base: str = "nat",
    engine=None,
) -> "tuple[np.ndarray, str]":
    """Null MIs ``I(x_pi; y)`` of every pair under every permutation.

    Returns ``(mis, route)``: ``mis[p, r]`` is pair ``p`` under
    ``perms[r]``, bitwise the MI kernel on ``(W[y], W[x][perms[r]])``;
    ``route`` names that kernel (``"sparse:<backend>"``, or ``"dense"``
    for spline orders the sparse packing cannot hold).  Only the genes the
    pairs name are prepared, so the cost is independent of ``n``.  Pairs
    dispatch through ``engine.map`` in chunks of :data:`NULL_CHUNK`; each
    pair is evaluated on its own, so the bits do not depend on the engine.
    """
    weights = np.asarray(weights)
    pairs = np.asarray(pairs, dtype=np.intp)
    perms = np.asarray(perms, dtype=np.intp)
    m = weights.shape[1]
    if perms.ndim != 2 or perms.shape[1] != m:
        raise ValueError(f"perms must be a (q, {m}) array, got shape {perms.shape}")
    if perms.size and not 0 <= perms.min() <= perms.max() < m:
        raise ValueError(f"perms hold indices outside [0, {m})")
    genes = np.unique(pairs)
    slab = weights[genes]
    h = marginal_entropies(slab, base=base)
    try:
        rows, first, span = pack_slab(slab, np.float64)
    except ValueError:  # rows wider than PACK_LANES: order > MAX_COMPILED_ORDER
        rows, first, span = slab, None, 0
    del slab  # the sparse route keeps only the packed copy
    ops = _NullOperands(rows, first, span, weights.shape[2], h, base)
    route = "dense" if first is None else f"sparse:{sparse_backend()}"
    local = np.searchsorted(genes, pairs)
    # functools.partial, not a lambda, so the task pickles and the null
    # dispatches through remote (elastic) engines too.
    task = functools.partial(_null_chunk, ops, perms, local)
    starts = list(range(0, len(local), NULL_CHUNK))
    blocks = [task(s) for s in starts] if engine is None else engine.map(task, starts)
    mis = np.concatenate(blocks) if blocks else np.empty((0, perms.shape[0]))
    return mis, route


def pooled_null(
    weights: np.ndarray,
    n_permutations: int = 30,
    n_pairs: int = 200,
    seed=None,
    base: str = "nat",
    engine=None,
) -> NullDistribution:
    """Build the pooled permutation null from a random pair subsample.

    For each sampled pair ``(x, y)`` and each shared permutation ``pi``,
    computes ``I(x_pi; y)`` (:func:`pair_nulls`).  Pool size is
    ``n_permutations * n_pairs``; the effective resolution of the
    resulting threshold is ``1/size``, so size it against the corrected
    alpha (the pipeline does this check).

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor of *rank-transformed* genes — pooling is
        statistically valid only when marginals are identical, which the
        pipeline guarantees by rank-transforming first.
    engine:
        Optional execution engine (:mod:`repro.parallel.engine`).  The
        sampled pairs are independent, so they dispatch through
        ``engine.map``, which removes the null phase as the serial
        (Amdahl) bottleneck once the MI phase is parallel.  All randomness
        is drawn *before* dispatch, so the pool is bit-identical with and
        without an engine.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight tensor, got shape {weights.shape}")
    n, m, b = weights.shape
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = as_rng(seed)
    pairs = sample_pairs(n, n_pairs, rng)
    perms = permutation_matrix(n_permutations, m, rng)
    mis, route = pair_nulls(weights, pairs, perms, base, engine)
    return NullDistribution(
        # Permutation-major: mis[r * n_pairs + p] is pair p under perms[r].
        mis=mis.T.ravel(),
        n_permutations=n_permutations,
        n_pairs_sampled=n_pairs,
        base=base,
        route=route,
    )


def null_threshold(
    null: NullDistribution,
    alpha: float,
    n_tests: int,
    correction: str = "bonferroni",
) -> float:
    """Significance threshold from a pooled null (see
    :func:`repro.stats.quantile.upper_tail_threshold`)."""
    return upper_tail_threshold(null.mis, alpha, n_tests=n_tests, correction=correction)


def per_pair_pvalues(
    weights: np.ndarray,
    pairs: np.ndarray,
    n_permutations: int = 100,
    seed=None,
    base: str = "nat",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pair permutation test (the slow path).

    For each pair, builds its own null of ``n_permutations`` MIs and returns
    ``(observed_mi, pvalues)``.  Cost is ``q`` times the pair MI cost — this
    is the path the pooled null exists to avoid; provided for validation and
    for small candidate sets (e.g. re-testing the edges that survived the
    pooled threshold).

    The permutation dimension is vectorized: all ``q`` permuted copies of
    ``Wx`` are gathered into a ``(q, m, b)`` tensor with one ``np.take``
    and the ``q`` joint matrices come from one batched matmul.  Each batch
    slice performs the identical GEMM and entropy reductions as the old
    one-permutation-at-a-time loop, so results are bit-identical (the
    regression test holds the old loop as reference).
    """
    weights = np.asarray(weights)
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"expected (P, 2) pair array, got shape {pairs.shape}")
    n, m, b = weights.shape
    rng = as_rng(seed)
    perms = permutation_matrix(n_permutations, m, rng)
    observed = np.empty(pairs.shape[0], dtype=np.float64)
    pvals = np.empty(pairs.shape[0], dtype=np.float64)
    for idx, (i, j) in enumerate(pairs):
        wx = weights[i]
        wy = weights[j]
        observed[idx] = mi_bspline_pair(wx, wy, base=base)
        wx_perms = np.take(wx, perms, axis=0)  # (q, m, b)
        joint = np.matmul(wx_perms.transpose(0, 2, 1), wy).astype(np.float64, copy=False) / m
        null = batched_pair_mi(joint, base=base)
        exceed = int(np.count_nonzero(null >= observed[idx]))
        pvals[idx] = (1.0 + exceed) / (1.0 + n_permutations)
    return observed, pvals
