"""Tests for ``repro.movie`` — time-varying volumes and the movie pipeline.

The hard contract under test: every movie frame is bit-identical to the
per-timestep serial render, on every backend (mp, thread, shard fleet),
at every shard count, including across a mid-movie worker kill.  Around
it: the beating_heart phantom's shape/motion properties, the slice-cache
residency rule over ``(timestep, axis)`` encodings, the
profile loop's behavior when the wedge moves between frames, and the
deterministic PNG/NPZ encoders.
"""

import json
import random
import sys
import threading
import time
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import beating_heart
from repro.movie import (
    MoviePipeline,
    TimeVaryingRenderer,
    TimeVaryingVolume,
    beating_heart_renderer,
    encode_png,
    movie_frame_specs,
    to_gray8,
)
from repro.parallel.backend import FrameSpec
from repro.render.fast import render_fast
from repro.render.serial import RESIDENT_ENCODINGS
from repro.volume import mri_transfer_function

from .conftest import assert_frames_identical, serial_refs

SHAPE = (20, 20, 16)
T = 3


@pytest.fixture(scope="module")
def renderer():
    return TimeVaryingRenderer(
        beating_heart(SHAPE, timesteps=T), mri_transfer_function()
    )


def _specs(renderer, n, timesteps=T):
    return movie_frame_specs(renderer, n, timesteps=timesteps)


class TestBeatingHeartPhantom:
    def test_shapes_dtype_and_timestep_count(self):
        vols = beating_heart(SHAPE, timesteps=T)
        assert len(vols) == T
        assert all(v.shape == SHAPE and v.dtype == np.uint8 for v in vols)

    def test_timesteps_differ_but_share_texture(self):
        vols = beating_heart(SHAPE, timesteps=4)
        # The wedge moves: consecutive timesteps disagree somewhere.
        assert any(
            not np.array_equal(vols[t], vols[t + 1]) for t in range(3)
        )
        # Same rng draw everywhere: voxels occupied at both timesteps
        # keep their texture value (motion moves the wedge, not the noise).
        a, b = vols[0], vols[2]
        both = (a > 0) & (b > 0)
        assert both.any()
        assert np.array_equal(a[both], b[both])

    def test_wedge_centre_moves_between_timesteps(self):
        vols = beating_heart(SHAPE, timesteps=4, swing=0.9)
        centroids = []
        for v in vols:
            ys = np.nonzero(v)[1]
            centroids.append(ys.mean())
        assert max(centroids) - min(centroids) > 1.0

    def test_rejects_zero_timesteps(self):
        with pytest.raises(ValueError):
            beating_heart(SHAPE, timesteps=0)


class TestTimeVaryingVolume:
    def test_precomputes_all_encodings(self):
        tvv = TimeVaryingVolume(
            beating_heart(SHAPE, timesteps=T), mri_transfer_function()
        )
        assert tvv.n_timesteps == T and tvv.shape == SHAPE
        assert all(set(enc) == {0, 1, 2} for enc in tvv.encodings)

    def test_rejects_mismatched_shapes_and_empty(self):
        tf = mri_transfer_function()
        with pytest.raises(ValueError):
            TimeVaryingVolume([], tf)
        with pytest.raises(ValueError):
            TimeVaryingVolume(
                [np.zeros(SHAPE, np.uint8), np.zeros((8, 8, 8), np.uint8)], tf
            )


def _holding(r):
    """The ``(timestep, axis)`` keys whose encodings hold decoded planes."""
    return {
        (t, axis)
        for t, by_axis in enumerate(r.timeline.encodings)
        for axis, rle in by_axis.items()
        if len(rle.slice_cache)
    }


def _on_axis(axis):
    """A stand-in factorization: ``rle_for`` reads only its axis."""
    return SimpleNamespace(axis=axis)


class TestSliceCacheInvalidation:
    """Decoded planes stay with a renderer's ``min(T, RESIDENT_ENCODINGS)``
    most recently used ``(timestep, axis)`` encodings."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_planes_live_in_the_last_capacity_keys(self, data):
        """For any lookup sequence, the encodings holding planes are the
        last ``capacity`` distinct keys used (each lookup here decodes a
        slice, so none of them is empty); ``T == 1`` is the static
        renderer's axis-switch rule."""
        n_t = data.draw(st.integers(1, 6), label="T")
        keys = data.draw(st.lists(
            st.tuples(st.integers(0, n_t - 1), st.integers(0, 2)),
            min_size=1, max_size=24), label="keys")
        r = TimeVaryingRenderer(beating_heart((8, 8, 8), timesteps=n_t),
                                mri_transfer_function())
        capacity = min(n_t, RESIDENT_ENCODINGS)
        recent = []
        for t, axis in keys:
            r.rle_for(_on_axis(axis), timestep=t).decode_slice(0)
            recent = [k for k in recent if k != (t, axis)] + [(t, axis)]
            assert _holding(r) == set(recent[-capacity:])
        assert r.timestep_switches == sum(
            a[0] != b[0] for a, b in zip(keys, keys[1:]))

    def test_concurrent_lookups_keep_the_bound(self):
        """The thread pool's planner and workers call ``rle_for`` on one
        renderer at the same time.  Every encoding starts with planes;
        eight threads then look up every key and 2000 random ones each,
        switching every microsecond.  No lookup raises, and afterwards
        at most ``capacity`` encodings hold planes: every key that fell
        out of the LRU was cleared."""
        n_t = 6
        r = TimeVaryingRenderer(beating_heart((8, 8, 8), timesteps=n_t),
                                mri_transfer_function())
        keys = [(t, axis) for t in range(n_t) for axis in range(3)]
        for t, axis in keys:
            r.timeline.encodings[t][axis].decode_slice(0)
        errors = []
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def hammer(seed):
            rng = random.Random(seed)
            order = keys + [rng.choice(keys) for _ in range(2000)]
            rng.shuffle(order)
            barrier.wait()
            try:
                for t, axis in order:
                    r.rle_for(_on_axis(axis), timestep=t)
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(_holding(r)) <= min(n_t, RESIDENT_ENCODINGS)

    def test_a_second_cycle_of_timesteps_decodes_nothing(self):
        """An mp worker keeps all four timesteps' planes, so the second
        pass of a movie over them misses no slice.  (One worker, so no
        band moves to another worker's caches between the passes.)"""
        r = TimeVaryingRenderer(
            beating_heart(SHAPE, timesteps=4), mri_transfer_function()
        )
        view = r.view_from_angles(20, 30, 0)
        specs = [FrameSpec(view, timestep=i % 4) for i in range(8)]
        with repro.open_pool(r, n_procs=1, trace=True) as pool:
            results = [pool.result(f) for f in pool.submit_batch(specs)]
        totals = [res.timeline.counter_totals() for res in results]
        assert all(t.get("cache_misses", 0) > 0 for t in totals[:4])
        for t in totals[4:]:
            assert t.get("cache_hits", 0) > 0
            assert t.get("cache_misses", 0) == 0
            assert t.get("decode_us", 0) == 0
        assert_frames_identical(results, serial_refs(r, specs))

    def test_no_stale_slice_across_timesteps(self):
        """A decoded plane never leaks from timestep t to t' — rendering
        t, then t', then t again gives the same bits as fresh renders."""
        r = TimeVaryingRenderer(
            beating_heart(SHAPE, timesteps=T), mri_transfer_function()
        )
        view = r.view_from_angles(20, 30, 0)
        seq = [0, 1, 0, 2, 1]
        got = [render_fast(r, view, timestep=t) for t in seq]
        fresh = TimeVaryingRenderer(
            beating_heart(SHAPE, timesteps=T), mri_transfer_function()
        )
        for t, res in zip(seq, got):
            ref = render_fast(fresh, view, timestep=t)
            assert np.array_equal(res.final.color, ref.final.color)

    def test_hit_miss_counters_survive_clears(self):
        """``SliceCache.clear`` keeps stats, so switch-heavy movies
        still report consistent hit+miss totals (hits+misses only grow)."""
        r = TimeVaryingRenderer(
            beating_heart(SHAPE, timesteps=2), mri_transfer_function()
        )
        view = r.view_from_angles(20, 30, 0)
        fact = r.factorize_view(view)
        caches = [r.rle_for(fact, timestep=t).slice_cache for t in (0, 1)]
        before = [(c.hits, c.misses) for c in caches]
        for t in (0, 1, 0, 1):
            render_fast(r, view, timestep=t)
        after = [(c.hits, c.misses) for c in caches]
        for (h0, m0), (h1, m1) in zip(before, after):
            assert h1 >= h0 and m1 >= m0
        # Every decode either hit or missed; the clears lost nothing.
        assert sum(h + m for h, m in after) > sum(h + m for h, m in before)

    def test_none_timestep_is_timestep_zero(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        a = render_fast(renderer, view, timestep=None)
        b = render_fast(renderer, view, timestep=0)
        assert np.array_equal(a.final.color, b.final.color)

    def test_timestep_wraps_modulo(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        a = render_fast(renderer, view, timestep=1)
        b = render_fast(renderer, view, timestep=1 + T)
        assert np.array_equal(a.final.color, b.final.color)


class TestMovieBitIdentity:
    """Frames == per-timestep serial render through a worker kill (on
    every backend without one: ``tests/test_conformance.py``'s
    ``test_timesteps`` and ``test_movie_pipeline``)."""

    N_FRAMES = 5

    def test_mp_backend_survives_mid_movie_kill(self, renderer, monkeypatch):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 2, "kill", "composite"))
        specs = _specs(renderer, self.N_FRAMES)
        with repro.open_pool(renderer, n_procs=2) as pool:
            results = [pool.result(f) for f in pool.submit_batch(specs)]
            counters = pool.fault_counters()
        assert counters["worker_restarts"] >= 1
        assert counters["degraded_frames"] == 0
        assert_frames_identical(results, serial_refs(renderer, specs))


class TestProfileLoopAcrossTimesteps:
    """The band-time prediction is keyed on (axis, perm) only — a
    timestep switch keeps the prediction live (that is the workload
    beating_heart stresses), and the run stays bit-identical regardless
    of how wrong the moving wedge makes the prediction."""

    def test_profile_survives_timestep_switches(self, renderer):
        switches_before = renderer.timestep_switches
        specs = _specs(renderer, 6)
        with repro.open_pool(renderer, n_procs=2, backend="thread") as pool:
            results = [pool.render(s.view, timestep=s.timestep) for s in specs]
        # The timestep moved underneath the feedback loop, every frame
        # still reported its band times, and no pixel changed.
        assert renderer.timestep_switches > switches_before
        assert all(r.costs is not None for r in results)
        assert_frames_identical(results, serial_refs(renderer, specs))

    def test_wedge_swing_moves_partition_boundary(self):
        """A big slow wedge really does shift work between frames: the
        band-time balanced row partition differs across timesteps."""
        r = beating_heart_renderer(0.75, timesteps=2)
        specs = movie_frame_specs(r, 4, timesteps=2)
        with repro.open_pool(r, n_procs=2, backend="thread") as pool:
            results = [pool.render(s.view, timestep=s.timestep) for s in specs]
        bounds = {
            tuple(res.boundaries)
            for res in results[1:]
            if res.boundaries is not None
        }
        if len(bounds) < 2:
            pytest.skip("wedge too small to move the boundary on this host")


class TestMoviePipeline:
    def test_png_sequence_matches_reference_encoder(self, renderer, tmp_path):
        specs = _specs(renderer, 4)
        with repro.open_pool(
            renderer, n_procs=1, backend="thread"
        ) as pool:
            pipe = MoviePipeline(pool, str(tmp_path), fmt="png")
            manifest = pipe.run(specs)
        refs = serial_refs(renderer, specs)
        for i, ref in enumerate(refs):
            blob = (tmp_path / f"frame_{i:04d}.png").read_bytes()
            assert blob == encode_png(to_gray8(np.asarray(ref.final.color)))
        assert manifest["n_frames"] == 4
        ov = manifest["stage_overlap"]
        assert ov["wall_s"] > 0 and ov["encode_s"] > 0
        assert ov["overlapped_encode_s"] <= ov["encode_s"]

    def test_png_sequence_through_a_fleet_survives_a_worker_kill(
            self, renderer, tmp_path, monkeypatch):
        """CI's retired movie smoke, as an assertion: worker 1 of every
        shard's pool — the one each pool deals frame 1 to — SIGKILLs
        itself on frame 1, the pools recover, and every PNG is still
        the serial reference's bytes."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 1, "kill", "composite"))
        specs = _specs(renderer, 4)
        with repro.open_pool(renderer, n_procs=2, shards=2) as fleet:
            MoviePipeline(fleet, str(tmp_path), fmt="png").run(specs)
            counters = fleet.fault_counters()
        assert counters["worker_restarts"] >= 2
        assert counters["degraded_frames"] == 0
        for i, ref in enumerate(serial_refs(renderer, specs)):
            blob = (tmp_path / f"frame_{i:04d}.png").read_bytes()
            assert blob == encode_png(to_gray8(np.asarray(ref.final.color)))

    def test_npz_sequence_is_lossless(self, renderer, tmp_path):
        specs = _specs(renderer, 2)
        with repro.open_pool(
            renderer, n_procs=1, backend="thread"
        ) as pool:
            MoviePipeline(pool, str(tmp_path), fmt="npz").run(specs)
        for i, ref in enumerate(serial_refs(renderer, specs)):
            with np.load(tmp_path / f"frame_{i:04d}.npz") as z:
                assert np.array_equal(z["color"], ref.final.color)
                assert np.array_equal(z["alpha"], ref.final.alpha)

    def test_metrics_snapshot_counts_frames(self, renderer, tmp_path):
        specs = _specs(renderer, 3)
        with repro.open_pool(
            renderer, n_procs=1, backend="thread"
        ) as pool:
            pipe = MoviePipeline(pool, str(tmp_path))
            pipe.run(specs)
            snap = pipe.metrics_snapshot()
        assert snap["counters"]["movie/frames_encoded"] == 3
        assert snap["kind"] == "repro-metrics"
        json.dumps(snap)  # wire/disk-safe

    def test_encode_spans_land_on_their_own_track(self, renderer, tmp_path):
        specs = _specs(renderer, 3)
        with repro.open_pool(
            renderer, n_procs=2, backend="thread",
            trace=True,
        ) as pool:
            pipe = MoviePipeline(pool, str(tmp_path), trace=True)
            pipe.run(specs)
            trace_path = tmp_path / "movie_trace.json"
            pipe.export_chrome_trace(str(trace_path))
        with open(trace_path) as f:
            trace = json.load(f)
        encode_tracks = {
            e["tid"] for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "encode"
        }
        other_tracks = {
            e["tid"] for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") != "encode"
        }
        assert len(encode_tracks) == 1
        assert encode_tracks.isdisjoint(other_tracks)

    @pytest.mark.parametrize("overrides", [
        dict(n_procs=2, backend="thread"),
        dict(n_procs=2),
        dict(n_procs=1, shards=2),
    ], ids=["thread", "mp", "shard2"])
    def test_encode_follows_the_warp_that_fed_it(self, renderer, tmp_path,
                                                 overrides):
        """One timebase: the encode track runs on the backend's trace
        epoch, so in the exported trace a frame's ``encode`` starts
        after that frame's last ``warp`` ended — however long after the
        pool the pipeline was built."""
        specs = _specs(renderer, 3)
        trace_path = tmp_path / "movie_trace.json"
        with repro.open_pool(renderer, trace=True,
                             **overrides) as pool:
            # A clock started with the pipeline would run this far
            # behind the pool's.
            time.sleep(0.05)
            pipe = MoviePipeline(pool, str(tmp_path), trace=True)
            manifest = pipe.run(specs)
            pipe.export_chrome_trace(str(trace_path))
        with open(trace_path) as f:
            spans = [e for e in json.load(f)["traceEvents"]
                     if e.get("ph") == "X"]
        for entry in manifest["frames"]:
            (encode,) = [e for e in spans if e["name"] == "encode"
                         and e["args"]["frame"] == entry["index"]]
            warp_end = max(e["ts"] + e["dur"] for e in spans
                           if e["name"] == "warp"
                           and e["args"]["frame"] == entry["frame_id"])
            assert encode["ts"] >= warp_end

    def test_rejects_unknown_format(self, renderer, tmp_path):
        with pytest.raises(ValueError):
            MoviePipeline(object(), str(tmp_path), fmt="gif")


class TestPngEncoder:
    def test_valid_png_structure(self):
        gray = np.arange(35, dtype=np.uint8).reshape(5, 7)
        blob = encode_png(gray)
        assert blob.startswith(b"\x89PNG\r\n\x1a\n")
        assert blob.rstrip().endswith(b"IEND\xaeB`\x82")
        w = int.from_bytes(blob[16:20], "big")
        h = int.from_bytes(blob[20:24], "big")
        assert (w, h) == (7, 5)

    def test_idat_roundtrips_pixels(self):
        gray = (np.arange(24, dtype=np.uint8) * 10).reshape(4, 6)
        blob = encode_png(gray)
        start = blob.index(b"IDAT") + 4
        length = int.from_bytes(blob[start - 8:start - 4], "big")
        raw = zlib.decompress(blob[start:start + length])
        rows = [
            raw[r * 7 + 1:(r + 1) * 7] for r in range(4)  # skip filter byte
        ]
        assert np.array_equal(
            np.frombuffer(b"".join(rows), np.uint8).reshape(4, 6), gray
        )

    def test_to_gray8_clips_and_scales(self):
        plane = np.array([[-1.0, 0.0], [0.5, 2.0]], np.float32)
        assert np.array_equal(
            to_gray8(plane), np.array([[0, 0], [128, 255]], np.uint8)
        )

    def test_encoding_is_deterministic(self):
        gray = np.random.default_rng(3).integers(
            0, 255, (9, 9), dtype=np.uint8
        )
        assert encode_png(gray) == encode_png(gray.copy())
