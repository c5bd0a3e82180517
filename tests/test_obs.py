"""Tests for the observability layer (repro.obs) and its wiring."""

import json

import numpy as np
import pytest

import repro
import repro.parallel.mp_backend as mpb
from repro.datasets import density_wedge, mri_brain
from repro.obs import (
    COUNTERS,
    PHASES,
    CounterSample,
    FrameTimeline,
    MetricsRegistry,
    RingReader,
    Span,
    SpanRecorder,
    Stopwatch,
    assemble_timelines,
    busy_spread,
    export_chrome_trace,
    load_chrome_trace,
    metrics_from_timelines,
    ring_bytes,
    summarize_trace,
    validate_chrome_trace,
)
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function

from .conftest import assert_frames_identical


class TestRing:
    def test_span_and_counter_round_trip(self):
        rec = SpanRecorder.in_memory(capacity=16, epoch=0.0)
        rec.span(3, "composite", 0.5, 0.75)
        rec.count(3, "rows", 42)
        rec.span(4, "warp", 0.8, 0.9)
        reader = RingReader(rec.cursor, rec.records, pid=7)
        got = reader.drain()
        assert got == [
            Span(7, 3, "composite", 0.5, 0.75),
            CounterSample(7, 3, "rows", 42.0),
            Span(7, 4, "warp", 0.8, 0.9),
        ]
        assert reader.dropped == 0
        assert reader.drain() == []  # incremental: nothing new

    def test_zero_counter_skipped(self):
        rec = SpanRecorder.in_memory(capacity=8)
        rec.count(0, "cache_hits", 0)
        assert rec.written() == 0

    def test_wraparound_reports_dropped(self):
        rec = SpanRecorder.in_memory(capacity=4, epoch=0.0)
        reader = RingReader(rec.cursor, rec.records, pid=0)
        for f in range(10):
            rec.span(f, "decode", float(f), float(f) + 0.5)
        got = reader.drain()
        # Only the newest `capacity` records survive; the loss is counted.
        assert [s.frame for s in got] == [6, 7, 8, 9]
        assert reader.dropped == 6

    def test_shared_buffer_layout_round_trip(self):
        buf = bytearray(2 * ring_bytes(8))
        w0 = SpanRecorder.over(buf, 0, 8)
        w1 = SpanRecorder.over(buf, 1, 8)
        w0.span(0, "composite", 0.0, 1.0)
        w1.count(0, "cache_misses", 5)
        r1 = RingReader.over(buf, 1, 8)
        assert r1.drain() == [CounterSample(1, 0, "cache_misses", 5.0)]

    def test_every_phase_and_counter_encodes(self):
        rec = SpanRecorder.in_memory(capacity=32, epoch=0.0)
        for ph in PHASES:
            rec.span(0, ph, 0.0, 1.0)
        for name in COUNTERS:
            rec.count(0, name, 1)
        got = RingReader(rec.cursor, rec.records, pid=0).drain()
        assert [s.phase for s in got[:len(PHASES)]] == list(PHASES)
        assert [c.name for c in got[len(PHASES):]] == list(COUNTERS)


class TestMetrics:
    def test_busy_spread_values(self):
        assert busy_spread([]) == 0.0
        assert busy_spread([0.0, 0.0]) == 0.0
        assert busy_spread([2.0, 2.0, 2.0]) == 0.0
        assert busy_spread([1.0, 3.0]) == pytest.approx(1.0)  # (3-1)/2

    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.seconds > 0

    def test_registry_histogram_and_gauge(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("phase/composite").observe(v)
        reg.gauge("pool/queue_depth").set(2)
        reg.gauge("pool/queue_depth").set(1)
        reg.counter("frames").inc()
        snap = reg.snapshot()
        assert snap["histograms"]["phase/composite"]["mean"] == 2.0
        assert snap["gauges"]["pool/queue_depth"]["value"] == 1
        assert snap["gauges"]["pool/queue_depth"]["max"] == 2
        assert snap["counters"]["frames"] == 1
        assert "phase/composite" in reg.format_table()

    def test_merge_folds_one_registry_into_another(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        b.counter("only_b").inc()
        for v in (4, 1):
            a.gauge("g").set(v)
        for v in (3, 2):
            b.gauge("g").set(v)
        b.gauge("only_b").set(-1)
        a.merge(b)
        snap = a.snapshot()
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["total"] == 4.0
        assert snap["counters"] == {"c": 7, "only_b": 1}
        # No common clock orders "last": the larger value, the larger
        # high-water mark.
        assert snap["gauges"]["g"] == {"value": 2, "max": 4}
        assert snap["gauges"]["only_b"] == {"value": -1, "max": -1}
        # ``b`` is read, not adopted: writing to the merged gauge
        # leaves the source alone.
        a.gauge("only_b").set(9)
        assert b.gauge("only_b").value == -1

    def test_metrics_from_timelines(self):
        tl = FrameTimeline(0)
        tl.add(Span(0, 0, "composite", 0.0, 2.0))
        tl.add(Span(1, 0, "composite", 0.0, 1.0))
        tl.add(Span(0, 0, "warp", 2.0, 2.5))
        tl.add(Span(1, 0, "warp", 1.0, 1.5))
        tl.add(CounterSample(0, 0, "rows", 10))
        reg = metrics_from_timelines([tl])
        snap = reg.snapshot()
        assert snap["histograms"]["phase/composite"]["count"] == 2
        assert snap["counters"]["rows"] == 10
        # busy: pid0 = 2.5, pid1 = 1.5 -> spread = 1/2
        assert snap["histograms"]["frame/busy_spread"]["mean"] == pytest.approx(0.5)


class TestTraceExport:
    def _timelines(self):
        tl = FrameTimeline(0)
        tl.add(Span(0, 0, "decode", 0.0, 0.1))
        tl.add(Span(0, 0, "composite", 0.1, 0.6))
        tl.add(Span(0, 0, "profile", 0.3, 0.4))  # nested inside composite
        tl.add(Span(0, 0, "warp", 0.6, 0.8))
        tl.add(CounterSample(0, 0, "rows", 12))
        return [tl]

    def test_round_trip_and_validate(self, tmp_path):
        path = tmp_path / "t.json"
        export_chrome_trace(str(path), self._timelines(), metadata={"k": 1})
        trace = load_chrome_trace(str(path))
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"] == {"k": 1}
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        # Sorted by start time: the nested profile span follows the
        # composite span that encloses it, despite later ring order.
        assert names == ["decode", "composite", "profile", "warp"]

    def test_summarize(self, tmp_path):
        path = tmp_path / "t.json"
        export_chrome_trace(str(path), self._timelines())
        s = summarize_trace(load_chrome_trace(str(path)))
        assert s["n_tracks"] == 1
        assert s["phases"]["composite"]["total_s"] == pytest.approx(0.5)
        assert s["frames"][0][0] == pytest.approx(0.7)  # composite + warp

    def test_validate_rejects_garbage(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or empty"]
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        bad_ts = {
            "traceEvents": [
                {"name": "composite", "ph": "X", "pid": 1, "tid": 0,
                 "ts": 5.0, "dur": 1.0},
                {"name": "warp", "ph": "X", "pid": 1, "tid": 0,
                 "ts": 2.0, "dur": 1.0},
            ]
        }
        assert any("regresses" in p for p in validate_chrome_trace(bad_ts))


class TestMPTracing:
    def _views(self, renderer, n):
        return [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n)]

    def test_traced_animation_exports_valid_trace(self, renderer, tmp_path,
                                                  banded):
        # Banded frames, so both workers trace every frame.
        views = self._views(renderer, 3)
        with repro.open_pool(renderer, n_procs=2, trace=True) as pool:
            results = [pool.result(pool.submit(v)) for v in views]
            assert len(pool.timelines) == 3
            assert [tl.frame for tl in pool.timelines] == [0, 1, 2]
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
            snap = pool.metrics.snapshot()
        trace = load_chrome_trace(str(path))
        assert validate_chrome_trace(trace) == []
        # One named thread track per worker, plus the supervisor's
        # track (n_procs) carrying the parent-side dispatch spans.
        tracks = {e["tid"] for e in trace["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert tracks == {0, 1, 2}
        assert any(e["ph"] == "X" and e["name"] == "dispatch"
                   for e in trace["traceEvents"])
        # Both workers recorded composite and warp spans on every frame.
        for tl in results:
            busy = tl.timeline.busy_by_pid()
            assert set(busy) == {0, 1}
            assert all(b > 0 for b in busy.values())
        # Metrics: phase histograms saw every frame, rows were counted,
        # and the pool-health gauges were set.
        assert snap["histograms"]["phase/composite"]["count"] == 6
        assert snap["histograms"]["phase/warp"]["count"] == 6
        assert snap["counters"]["rows"] > 0
        assert "pool/queue_depth" in snap["gauges"]
        assert "pool/buffer_occupancy" in snap["gauges"]

    @pytest.mark.parametrize("backend", ["mp", "thread"])
    def test_decode_us_counter_follows_cache_misses(self, backend, tmp_path,
                                                    capsys):
        """The slice decodes sit inside the ``composite`` span; the
        ``decode_us`` counter is what makes them visible: present on a
        cold-cache frame, absent once every lookup hits."""
        import repro

        # A fresh renderer, so no worker inherits warm slice caches —
        # and one worker, so no band moves to another process's cache
        # between the two frames (by the partition the first frame's
        # profile cuts for the second).
        cold = ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())
        view = cold.view_from_angles(20, 30, 0)
        with repro.open_pool(cold, n_procs=1, backend=backend,
                             trace=True) as pool:
            first = pool.result(pool.submit(view)).timeline
            second = pool.result(pool.submit(view)).timeline
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
        totals = first.counter_totals()
        assert totals["cache_misses"] > 0
        assert 0 < totals["decode_us"] < 1e6 * first.phase_seconds()["composite"]
        assert "cache_misses" not in second.counter_totals()
        assert "decode_us" not in second.counter_totals()
        summary = summarize_trace(load_chrome_trace(str(path)))
        assert summary["counters"]["decode_us"] == pytest.approx(totals["decode_us"])
        from repro.cli import main

        assert main(["stats", str(path)]) == 0
        assert "decode_us" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["mp", "thread"])
    @pytest.mark.parametrize("phantom, shape", [
        (mri_brain, (64, 64, 64)),
        # Taller bands, over a hundred rows a worker.
        (density_wedge, (64, 216, 64)),
    ])
    def test_kernel_calls_stay_logarithmic_in_rows(self, backend, phantom,
                                                   shape, tmp_path, capsys):
        """The regression guard for one call a band, as a count instead
        of a timing: a worker enters the block kernel once for its band
        of a banded frame, however tall — the bound the name once gave
        (about ``log2(rows / grain)`` guided claims) is now 1."""
        import repro
        from repro.cli import main

        big = ShearWarpRenderer(phantom(shape), mri_transfer_function())
        views = [big.view_from_angles(20, 30 + 5 * i, 0) for i in range(4)]
        with repro.open_pool(big, n_procs=2, backend=backend,
                             trace=True) as pool:
            # One frame at a time, so each meets an idle pool and is
            # banded (a batch, or a frame sent while another is out,
            # would be dealt whole, unsplit).
            results = [pool.render(v) for v in views]
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
        total = 0
        for res in results:
            bands = np.diff(res.boundaries)
            # Zero counts are not recorded: an empty band has none.
            per_worker: dict[int, dict[str, float]] = {0: {}, 1: {}}
            for c in res.timeline.counters:
                per_worker[c.pid][c.name] = c.value
            for pid, got in per_worker.items():
                assert got.get("rows", 0) == bands[pid]
                assert got.get("kernel_calls", 0) == (bands[pid] > 0)
            total += np.count_nonzero(bands)
        if shape[1] > 64:
            assert bands.max() > 100
        summary = summarize_trace(load_chrome_trace(str(path)))
        assert summary["counters"]["kernel_calls"] == total
        assert main(["stats", str(path)]) == 0
        assert "kernel_calls" in capsys.readouterr().out

    def test_tracing_is_bit_identical_to_disabled(self, renderer):
        """The acceptance criterion: tracing must not change the images."""
        views = self._views(renderer, 2)
        def run(trace):
            with repro.open_pool(renderer, n_procs=2, trace=trace) as pool:
                return [pool.result(pool.submit(v)) for v in views]
        traced, plain = run(True), run(False)
        assert_frames_identical(traced, plain)
        for t, p in zip(traced, plain):
            assert t.timeline is not None
            assert p.timeline is None

    def test_one_shot_trace(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, trace=True) as pool:
            res = pool.render(view)
        assert res.timeline is not None
        assert res.timeline.phase_seconds().keys() >= {"composite", "warp"}
        assert res.busy_spread is not None and res.busy_spread >= 0

    def test_untraced_pool_still_has_metrics(self, renderer):
        with repro.open_pool(renderer, n_procs=2) as pool:
            pool.render(renderer.view_from_angles(20, 30, 0))
            assert pool.timelines == []
            assert "pool/queue_depth" in pool.metrics.snapshot()["gauges"]

    def test_export_requires_trace(self, renderer, tmp_path):
        with repro.open_pool(renderer, n_procs=1) as pool:
            with pytest.raises(RuntimeError, match="trace=True"):
                pool.export_chrome_trace(str(tmp_path / "t.json"))

    def test_trace_capacity_is_not_an_option(self, renderer):
        """Rings hold ``obs.recorder.DEFAULT_RING_CAPACITY`` records."""
        with pytest.raises(TypeError, match="trace_capacity"):
            repro.PoolConfig(trace_capacity=1)
        with pytest.raises(TypeError, match="trace_capacity"):
            repro.open_pool(renderer, n_procs=1, trace_capacity=1)


class TestPoolTeardown:
    def test_failed_init_leaks_no_shm(self, renderer, monkeypatch):
        """A pool whose construction dies mid-way must unlink every shm
        segment it already allocated (and not raise from close)."""
        real = mpb.shared_memory.SharedMemory
        made = []
        calls = {"n": 0}

        class Flaky:
            def __new__(cls, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("injected shm allocation failure")
                seg = real(*args, **kwargs)
                made.append(seg.name)
                return seg

        monkeypatch.setattr(mpb.shared_memory, "SharedMemory", Flaky)
        with pytest.raises(OSError, match="injected"):
            repro.open_pool(renderer, n_procs=2)
        assert len(made) == 1
        monkeypatch.undo()
        from multiprocessing import shared_memory as sm
        with pytest.raises(FileNotFoundError):
            sm.SharedMemory(name=made[0])  # already unlinked

    def test_double_close_is_safe(self, renderer):
        pool = repro.open_pool(renderer, n_procs=1)
        pool.close()
        pool.close()
        pool.__del__()


class TestRendererRecorders:
    def test_serial_render_records_spans(self, renderer):
        rec = SpanRecorder.in_memory()
        ref = renderer.render(renderer.view_from_angles(20, 30, 0))
        got = renderer.render(renderer.view_from_angles(20, 30, 0),
                              recorder=rec, obs_frame=5)
        tls = assemble_timelines([RingReader(rec.cursor, rec.records, pid=0)])
        assert [tl.frame for tl in tls] == [5]
        assert tls[0].phase_seconds().keys() == {"decode", "composite", "warp"}
        assert tls[0].counter_totals()["rows"] == got.intermediate.n_v
        assert_frames_identical([got], [ref])

    def test_render_fast_records_spans(self, renderer):
        from repro.render.fast import render_fast

        rec = SpanRecorder.in_memory()
        view = renderer.view_from_angles(20, 30, 0)
        ref = render_fast(renderer, view)
        got = render_fast(renderer, view, recorder=rec)
        tls = assemble_timelines([RingReader(rec.cursor, rec.records, pid=0)])
        assert tls[0].phase_seconds().keys() == {"decode", "composite", "warp"}
        assert_frames_identical([got], [ref])

    def test_traced_frames_harness(self):
        """A recorder threads through the simulator's frame factories as
        it does through the serial renderer: one timeline per recorded
        frame, with that algorithm's phases."""
        from repro.analysis.harness import DEFAULT_VIEW, ROTATION_STEP, get_renderer
        from repro.core import NewParallelShearWarp, OldParallelShearWarp, ProfileSchedule

        renderer = get_renderer("mri128", 0.1)
        rx, ry, rz = DEFAULT_VIEW
        views = [renderer.view_from_angles(rx, ry + i * ROTATION_STEP, rz)
                 for i in range(2)]

        def traced(factory_cls, n_frames, **kw):
            rec = SpanRecorder.in_memory()
            factory = factory_cls(renderer, 2, recorder=rec, **kw)
            frames = [factory.render_frame(v) for v in views[:n_frames]]
            reader = RingReader(rec.cursor, rec.records, pid=0)
            return frames, assemble_timelines([reader])

        frames, tls = traced(NewParallelShearWarp, 2,
                             profile_schedule=ProfileSchedule(period=1))
        assert len(frames) == 2
        assert [tl.frame for tl in tls] == [0, 1]
        phases = tls[0].phase_seconds()
        assert phases.keys() >= {"decode", "composite", "profile", "warp"}
        frames_old, tls_old = traced(OldParallelShearWarp, 1)
        assert "composite" in tls_old[0].phase_seconds()


class TestCLITracing:
    def test_render_trace_out_and_stats(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.json"
        rc = main(["render", "--dataset", "mri128", "--scale", "0.1",
                   "--procs", "2", "--frames", "3",
                   "--trace-out", str(path)])
        assert rc == 0
        assert validate_chrome_trace(load_chrome_trace(str(path))) == []
        rc = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "composite" in out and "warp" in out
        assert "busy-spread" in out

    def test_serial_trace_out(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "serial.json"
        rc = main(["render", "--dataset", "mri128", "--scale", "0.1",
                   "--trace-out", str(path)])
        assert rc == 0
        assert validate_chrome_trace(load_chrome_trace(str(path))) == []

    def test_stats_rejects_invalid(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main(["stats", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
