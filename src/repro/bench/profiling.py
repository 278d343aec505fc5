"""Profiling helpers: measure before optimizing.

The optimization loop behind this reproduction (and the one the coding
guides prescribe) starts with a profile, not a hunch.  These wrappers make
the two standard profiles one-liners: a hotspot table from ``cProfile``
for any callable, and a phase/throughput summary for the pipeline — so the
answer to "where does the time go?" is always a function call away.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys
from dataclasses import dataclass

__all__ = ["ProfileReport", "profile_callable", "profile_pipeline"]


@dataclass(frozen=True)
class ProfileReport:
    """Outcome of a profiled call.

    Attributes
    ----------
    result:
        Whatever the profiled callable returned.
    total_seconds:
        Wall time under the profiler (includes profiling overhead).
    hotspots:
        ``(function, cumulative_seconds)`` pairs, heaviest first.  Functions
        are named by their module's path from its import root, e.g.
        ``repro/core/mi.py:736(mi_tile_sparse_packed)``.
    text:
        Full ``pstats`` table (cumulative order) for printing.
    """

    result: object
    total_seconds: float
    hotspots: list
    text: str


def profile_callable(fn, *args, top: int = 15, **kwargs) -> ProfileReport:
    """Run ``fn(*args, **kwargs)`` under cProfile and summarize.

    Profiling slows numpy-light code noticeably; use the report's
    *relative* weights, not its absolute times.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream).sort_stats("cumulative")
    stats.print_stats(top)
    total = stats.total_tt
    roots = sorted({os.path.abspath(p or os.curdir) for p in sys.path},
                   key=len, reverse=True)
    hotspots = []
    for (filename, lineno, name), row in stats.stats.items():  # type: ignore[attr-defined]
        cumulative = row[3]
        hotspots.append((f"{_import_path(filename, roots)}:{lineno}({name})", cumulative))
    hotspots.sort(key=lambda kv: kv[1], reverse=True)
    return ProfileReport(
        result=result,
        total_seconds=float(total),
        hotspots=hotspots[:top],
        text=stream.getvalue(),
    )


def _import_path(filename: str, roots: list) -> str:
    """``filename`` relative to the longest import root holding it
    (``repro/core/mi.py``); the basename when no root does."""
    for root in roots:
        if filename.startswith(root + os.sep):
            return filename[len(root) + 1:].replace(os.sep, "/")
    return os.path.basename(filename)


def profile_pipeline(data, genes=None, config=None, top: int = 10) -> ProfileReport:
    """Profile one full reconstruction; the pipeline result is in
    ``report.result`` (its ``timings`` give the phase view; the hotspot
    table gives the function view)."""
    from repro.core.pipeline import reconstruct_network

    return profile_callable(reconstruct_network, data, genes, config, top=top)
