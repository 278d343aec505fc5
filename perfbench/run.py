"""Pinned benchmark of TINGe network reconstruction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload genome-slice --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
resolved plan and host are printed just before it and written, with every
sample, to ``perfbench/out/``; a traced run also writes its spans there.
The workloads, metrics and layers are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CACHE = BENCH / ".cache"


def _configure() -> None:
    """Point the program's caches into the benchmark's own directory (it
    must never write to ``~/.cache``) and make the sources importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC}; run from a full checkout")
    os.environ["REPRO_CC_CACHE"] = str(CACHE / "cc")
    os.environ["REPRO_AUTOTUNE_CACHE"] = str(CACHE / "autotune_tiles.json")
    sys.path.insert(0, str(SRC))


def metric_names() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_once(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns ``(result line, record)``."""
    from workloads import Run

    run = Run(workload, seed, seconds, trace, SRC)
    run.execute()
    kind = "per_layer" if trace else "end_to_end"
    values = run.per_layer() if trace else run.end_to_end()
    metrics = {}
    for m in metric_names()[kind]:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "plan": run.plan(ROOT),
        # Computed from the shapes and the tile plan, not measured.
        "computed_metrics": ["bspline.weight_tensor_bytes", "kernel.ops",
                             "kernel.bytes", "kernel.ops_per_byte"],
        "failed_frac": run.failed / run.attempted,
        "samples": run.samples,
        "main_walls": run.walls,
        "values": values,
        "problems": run.problems,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        run.trace.write(OUT / f"{stem}.spans.jsonl")
    return result, record


def self_test() -> int:
    """Tiny shapes of every workload: every metric of BENCHMARK.json is
    emitted by both runs, and the correctness gates trip on corrupted MI."""
    import dataclasses

    import numpy as np

    import workloads as W

    tiny = {"genome-slice": (40, 200), "wide-panel": (60, 64),
            "stream-update": (40, 120), "elastic-panel": (48, 64)}
    names = metric_names()
    for name, wl in W.WORKLOADS.items():
        n, m = tiny[name]
        wl = dataclasses.replace(wl, n=n, m=m, extra=min(wl.extra, 4))
        for trace in (False, True):
            result, _ = run_once(wl, seed=3, seconds=0.01, trace=trace)
            want = {x["name"] for x in names["per_layer" if trace else "end_to_end"]}
            assert set(result["metrics"]) == want, (name, trace)
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (name, result)

        data = W.make_input(wl, 3)
        base = data[:, :m]
        run = W.Run(wl, 3, 0.01, False, SRC)
        res, _wall = run.reconstruct(base)
        assert res is not None and run.failed == 0
        rng = np.random.default_rng(0)
        assert not W.check_reconstruct(res.mi, res.network, [], base, run.cfg, rng)
        # One corrupted entry breaks symmetry; a symmetric corruption on
        # an oracle pair is caught by the oracle.
        bad = res.mi.copy()
        bad[0, 1] += 1e-9
        assert W.check_reconstruct(bad, res.network, [], base, run.cfg, rng)
        bad = res.mi.copy()
        bad[:, :] += 1e-9
        np.fill_diagonal(bad, 0.0)
        assert W.check_reconstruct(bad, res.network, [], base, run.cfg, rng)
        # A symmetric corruption that lifts a non-edge over I_alpha
        # changes the edge set the network should have.
        i, j = np.argwhere(~res.network.adjacency & ~np.eye(n, dtype=bool))[0]
        bad = res.mi.copy()
        bad[i, j] = bad[j, i] = res.network.threshold + 1.0
        assert W.check_reconstruct(bad, res.network, [], base, run.cfg, rng)
        if wl.main == "update":
            updater = W.NetworkUpdater.from_result(res, base)
            ok, _wall = run.update(updater, data[:, : m + 1])
            ref, _wall = run.reconstruct(data[:, : m + 1])
            net = updater.network
            assert ok and not W.check_same_network(net, ref.network)
            net.weights[net.adjacency] += 1e-12
            assert W.check_same_network(net, ref.network)
        print(f"self-test {name}: ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    _configure()
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, record = run_once(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    print("plan " + json.dumps(record["plan"], default=str))
    print(f"samples {json.dumps(record['samples'])} failed_frac "
          f"{record['failed_frac']:.4g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
