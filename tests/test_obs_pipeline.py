"""Integration tests: observability wired through engines, drivers, pipeline, CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.bspline import weight_tensor
from repro.core.checkpoint import mi_matrix_checkpointed
from repro.core.exact import exact_mi_pvalues
from repro.core.mi_matrix import mi_matrix
from repro.core.outofcore import build_weight_store, mi_matrix_outofcore
from repro.core.pipeline import TingeConfig, TingePipeline
from repro.obs import (
    Tracer,
    counter_total,
    load_events,
    pairs_per_second,
    phase_breakdown,
    span_events,
    worker_task_counts,
    write_jsonl,
)
from repro.parallel.engine import (
    ProcessEngine,
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
)
from repro.parallel.sharedmem import SharedArray


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(11)
    return weight_tensor(rng.normal(size=(24, 90)), bins=8, order=3)


def _engines():
    return [
        SerialEngine(),
        ThreadEngine(n_workers=2),
        ProcessEngine(n_workers=2),
        SharedMemoryEngine(n_workers=2),
    ]


class TestEngineWorkerMetrics:
    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: type(e).__name__)
    def test_map_stats_account_for_every_task(self, engine):
        tracer = Tracer()
        engine.tracer = tracer
        results = engine.map(lambda x: x * x, list(range(7)))
        assert results == [x * x for x in range(7)]
        stats = engine.last_map_stats
        assert stats.n_tasks == 7
        assert sum(stats.task_counts().values()) == 7
        assert 1 <= stats.n_workers <= 2
        assert stats.busy_seconds >= 0.0
        spans = tracer.find_spans("engine_map")
        assert len(spans) == 1
        assert spans[0].metadata["worker_tasks"] == stats.task_counts()
        assert tracer.counters["engine_tasks"] == 7.0

    @pytest.mark.parametrize(
        "engine",
        [e for e in _engines() if hasattr(e, "map_into_supervised")],
        ids=lambda e: type(e).__name__,
    )
    def test_map_into_stats(self, engine):
        tracer = Tracer()
        engine.tracer = tracer
        out = SharedArray.create((5,), "float64")
        try:
            out.array[:] = 0.0
            engine.map_into_supervised(
                lambda arr, i: arr.__setitem__(i, float(i)), range(5), out)
            assert np.array_equal(out.array, np.arange(5.0))
        finally:
            out.close()
            out.unlink()
        assert engine.last_map_stats.n_tasks == 5
        assert sum(engine.last_map_stats.task_counts().values()) == 5
        (span,) = tracer.find_spans("engine_map")
        assert span.metadata["kind"] == "map_into"
        assert span.metadata["result_bytes"] == 0

    def test_process_engine_counts_transported_bytes(self):
        engine = ProcessEngine(n_workers=2)
        tracer = Tracer()
        engine.tracer = tracer
        blocks = engine.map(lambda i: np.zeros((4, 4)), range(3))
        assert len(blocks) == 3
        assert tracer.counters["bytes_transported"] == 3 * 4 * 4 * 8


class TestMiMatrixObservability:
    @pytest.mark.parametrize("engine", [None] + _engines(),
                             ids=lambda e: type(e).__name__ if e else "none")
    def test_counters_and_result_invariant(self, weights, engine):
        ref = mi_matrix(weights, tile=6)
        tracer = Tracer()
        calls = []
        res = mi_matrix(weights, tile=6, engine=engine, tracer=tracer,
                        progress=lambda d, t: calls.append((d, t)))
        assert np.array_equal(res.mi, ref.mi)
        assert tracer.counters["tiles_done"] == res.n_tiles
        assert tracer.counters["pairs_done"] == res.n_pairs
        assert calls[-1] == (res.n_tiles, res.n_tiles)
        # Progress is cumulative and strictly increasing.
        assert all(calls[i][0] < calls[i + 1][0] for i in range(len(calls) - 1))
        in_process = engine is None or getattr(engine, "in_process", False)
        if in_process:
            assert len(calls) == res.n_tiles  # per-tile reporting
        assert len(tracer.find_spans("mi_matrix")) == 1


class TestExactObservability:
    def test_counters_and_result_invariant(self, weights):
        ref = exact_mi_pvalues(weights, n_permutations=5, tile=6, seed=3)
        for engine in (None, ThreadEngine(n_workers=2), ProcessEngine(n_workers=2)):
            tracer = Tracer()
            calls = []
            res = exact_mi_pvalues(weights, n_permutations=5, tile=6, seed=3,
                                   engine=engine, tracer=tracer,
                                   progress=lambda d, t: calls.append((d, t)))
            assert np.array_equal(res.pvalues, ref.pvalues)
            assert np.array_equal(res.mi, ref.mi)
            assert tracer.counters["tiles_done"] > 0
            assert calls[-1][0] == calls[-1][1]
            assert len(tracer.find_spans("exact_mi")) == 1


class TestDriverObservability:
    def test_checkpoint_progress_and_counters(self, weights, tmp_path):
        tracer = Tracer()
        calls = []
        mi = mi_matrix_checkpointed(weights, tmp_path / "ck", tile=6,
                                    progress=lambda d, t: calls.append((d, t)),
                                    tracer=tracer)
        assert np.array_equal(mi, mi_matrix(weights, tile=6).mi)
        assert calls[-1][0] == calls[-1][1] == len(calls)
        assert tracer.counters["rows_done"] == len(calls)
        assert len(tracer.find_spans("checkpoint_row")) == len(calls)

    def test_checkpoint_resume_reports_done_rows(self, weights, tmp_path):
        ck = tmp_path / "ck"
        assert mi_matrix_checkpointed(weights, ck, tile=6,
                                      interrupt_after_rows=1) is None
        calls = []
        mi = mi_matrix_checkpointed(weights, ck, tile=6,
                                    progress=lambda d, t: calls.append((d, t)))
        assert mi is not None
        assert calls[0][0] == 1  # the resumed row counts as already done

    def test_outofcore_counters(self, weights, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(16, 60))
        wpath = build_weight_store(data, tmp_path / "w", bins=7)
        tracer = Tracer()
        calls = []
        out = mi_matrix_outofcore(wpath, tmp_path / "mi", tile=5, tracer=tracer,
                                  progress=lambda d, t: calls.append((d, t)))
        mi = np.load(out)
        assert mi.shape == (16, 16)
        assert tracer.counters["tiles_done"] == calls[-1][1]
        assert calls[-1][0] == calls[-1][1]
        assert len(tracer.find_spans("mi_outofcore")) == 1


class TestPipelineTracing:
    def test_timings_equal_span_walls(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 80))
        pipe = TingePipeline(TingeConfig(n_permutations=5, n_null_pairs=30))
        result = pipe.run(data)
        assert set(result.timings) == {"preprocess", "weights", "null", "mi",
                                       "threshold"}
        for phase, seconds in result.timings.items():
            spans = pipe.tracer.find_spans(phase)
            assert len(spans) == 1
            assert abs(spans[0].wall - seconds) <= 1e-3
        assert len(pipe.tracer.find_spans("reconstruct")) == 1

    def test_engine_inherits_pipeline_tracer(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(16, 70))
        engine = ThreadEngine(n_workers=2)
        pipe = TingePipeline(TingeConfig(n_permutations=5, n_null_pairs=20),
                             engine=engine)
        pipe.run(data)
        assert engine.tracer is pipe.tracer
        assert pipe.tracer.counters["engine_tasks"] > 0

    def test_exact_mode_traced(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(12, 60))
        pipe = TingePipeline(TingeConfig(testing="exact", n_permutations=10,
                                         correction="none"))
        result = pipe.run(data)
        assert set(result.timings) == {"preprocess", "weights", "mi", "threshold"}
        for phase, seconds in result.timings.items():
            assert abs(pipe.tracer.find_spans(phase)[0].wall - seconds) <= 1e-3

    def test_trace_file_reconstructs_run(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 90))
        tracer = Tracer()
        pipe = TingePipeline(TingeConfig(n_permutations=5, n_null_pairs=30),
                             engine=ThreadEngine(n_workers=2), tracer=tracer)
        result = pipe.run(data)
        events = load_events(write_jsonl(tracer, tmp_path / "run.jsonl"))

        breakdown = phase_breakdown(events)
        assert set(breakdown) == set(result.timings)
        for phase, seconds in result.timings.items():
            assert breakdown[phase] == pytest.approx(seconds, abs=1e-3)
        assert pairs_per_second(events) > 0
        assert counter_total(events, "pairs_done") == 30 * 29 / 2
        workers = worker_task_counts(events)
        assert sum(workers.values()) > 0
        # Engine map spans nest under traced phases.
        spans = {s["id"]: s for s in span_events(events)}
        for em in span_events(events, "engine_map"):
            assert em["parent"] in spans


class TestCliTrace:
    def test_reconstruct_writes_trace_artifacts(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        assert main(["generate", "--genes", "25", "--samples", "70",
                     "--out", str(ds)]) == 0
        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "run_chrome.json"
        rc = main(["reconstruct", str(ds), "--out", str(tmp_path / "edges.tsv"),
                   "--permutations", "5", "--null-pairs", "30",
                   "--trace", str(trace), "--chrome-trace", str(chrome),
                   "--progress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "chrome trace:" in out
        events = load_events(trace)
        assert set(phase_breakdown(events)) == {"preprocess", "weights", "null",
                                                "mi", "threshold"}
        assert pairs_per_second(events) > 0
        assert chrome.exists()
