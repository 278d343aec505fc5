"""E26 — result transport: pickle-return vs write-in-place engines.

The paper's whole-genome runs work because all 240 Phi threads write
disjoint blocks of the MI matrix in place.  `ProcessEngine.map_supervised`
instead ships every tile block back to the parent through a pipe (pickle,
copy, and a parent-side reassembly loop);
`SharedMemoryEngine.map_into_supervised` has workers attach a `SharedArray`
output via its `handle()` and write their blocks directly, so only task
indices cross the pipe.  These are the two fork-engine paths the tile
executor dispatches through.  This bench measures both
backends on (a) a transport-dominated synthetic workload and (b) the real
tiled MI matrix, and reports the result bytes each backend moves through
the pipe — zero for the shared-memory backend, by construction.
"""

import time

import numpy as np
import pytest

from repro.bench.reporting import format_seconds
from repro.core.mi_matrix import mi_matrix
from repro.parallel.engine import ProcessEngine, SharedMemoryEngine
from repro.parallel.sharedmem import SharedArray

N_BLOCKS = 24
EDGE = 256  # one synthetic result block: 256x256 float64 = 512 KiB
WORKER_COUNTS = [1, 2, 4]


def _block(k: int) -> np.ndarray:
    # Deliberately cheap compute: the workload is transport-dominated, so
    # the gap between the backends *is* the per-block transport cost.
    return np.full((EDGE, EDGE), float(k + 1))


def _return_block(k: int) -> np.ndarray:
    return _block(k)


def _write_block(out: np.ndarray, k: int) -> None:
    out[k * EDGE : (k + 1) * EDGE, :] = _block(k)


def _timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time (min filters single-core scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_transport_synthetic(report):
    expected = np.concatenate([_block(k) for k in range(N_BLOCKS)], axis=0)
    block_bytes = N_BLOCKS * EDGE * EDGE * 8
    rows = []
    for n_workers in WORKER_COUNTS:
        proc = ProcessEngine(n_workers=n_workers)
        shm = SharedMemoryEngine(n_workers=n_workers)

        out_proc = np.zeros((N_BLOCKS * EDGE, EDGE))

        def via_pickle():
            blocks, failures = proc.map_supervised(_return_block, list(range(N_BLOCKS)))
            assert not failures
            for k, blk in enumerate(blocks):  # the reassembly loop
                out_proc[k * EDGE : (k + 1) * EDGE, :] = blk

        out_shm = SharedArray.create((N_BLOCKS * EDGE, EDGE), "float64")

        def in_place():
            assert not shm.map_into_supervised(
                _write_block, list(range(N_BLOCKS)), out_shm)

        try:
            t_proc = _timed(via_pickle)
            t_shm = _timed(in_place)
            assert np.array_equal(out_proc, expected)
            assert np.array_equal(out_shm.array, expected)
        finally:
            out_shm.close()
            out_shm.unlink()
        rows.append({
            "workers": n_workers,
            "pickle-return": format_seconds(t_proc),
            "write-in-place": format_seconds(t_shm),
            "speedup": f"{t_proc / t_shm:.2f}x",
            "piped result MB (pickle)": f"{block_bytes / 1e6:.0f}",
            "piped result MB (shm)": "0",
        })
    report("E26", f"result transport, {N_BLOCKS} blocks of {EDGE}x{EDGE} float64", rows)


def test_mi_matrix_end_to_end(report, bench_weights):
    tile = 8
    reference = mi_matrix(bench_weights, tile=tile)
    n = reference.mi.shape[0]
    # Every tile block the pickle path returns crosses the pipe; the
    # shared-memory path moves none of them.
    from repro.core.tiling import tile_grid

    piped = sum(t.rows * t.cols * 8 for t in tile_grid(n, tile))
    rows = []
    for n_workers in WORKER_COUNTS:
        t_proc = _timed(lambda: mi_matrix(
            bench_weights, tile=tile, engine=ProcessEngine(n_workers=n_workers)))
        t_shm = _timed(lambda: mi_matrix(
            bench_weights, tile=tile, engine=SharedMemoryEngine(n_workers=n_workers)))
        rows.append({
            "workers": n_workers,
            "ProcessEngine": format_seconds(t_proc),
            "SharedMemoryEngine": format_seconds(t_shm),
            "speedup": f"{t_proc / t_shm:.2f}x",
            "piped result KB": f"{piped / 1e3:.0f} vs 0",
        })
    shm_mi = mi_matrix(bench_weights, tile=tile,
                       engine=SharedMemoryEngine(n_workers=2)).mi
    assert np.array_equal(shm_mi, reference.mi)
    report("E26b", f"mi_matrix {n} genes, tile={tile}: pickle-return vs write-in-place", rows)


def test_transport_cost_is_eliminated(benchmark):
    """The headline number: one write-in-place pass, measured."""
    shm = SharedMemoryEngine(n_workers=2)
    out = SharedArray.create((N_BLOCKS * EDGE, EDGE), "float64")
    try:
        benchmark(lambda: shm.map_into_supervised(
            _write_block, list(range(N_BLOCKS)), out))
        assert np.array_equal(
            out.array, np.concatenate([_block(k) for k in range(N_BLOCKS)], axis=0))
    finally:
        out.close()
        out.unlink()
