"""Per-layer probes of the traced run.

Each probe times calls into one module's public functions, from the
outside, on the workload's own renderer and views — so a layer has a
number on every workload, also where the workload's timed loop never
enters it (the pool of ``serve_hit_128`` is idle, yet the probe says
what a pool frame of those views costs).  Metrics are named
``<module>.<metric>``; ``README.md`` says which end-to-end metric each
one should move, and on which workload.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

import repro
from repro.core.partition import contiguous_partition
from repro.datasets import beating_heart
from repro.movie import encode_png, to_gray8
from repro.render.block import composite_scanline_block
from repro.render.fast import warp_frame_fast
from repro.render.image import FinalImage, IntermediateImage
from repro.serve import CachedFrame, FrameCache, canonical_identity, request_key
from repro.serve.protocol import (
    decode_plane,
    encode_plane,
    pack_message,
    unpack_messages,
)
from repro.shard.merge import (
    ShardFramebuffer,
    TileOwnershipMap,
    merge_framebuffers,
)
from repro.volume import mri_transfer_function
from repro.volume.rle import encode_all_axes
from repro.volume.volume import ClassifiedVolume

from workloads import (
    DATASET,
    ROT_X,
    WARMUP_FRAMES,
    MovieWorkload,
    ServeWorkload,
    drive_pool,
)

__all__ = ["probe_all"]

#: Views per pool probe, strided over the workload's own sequence so the
#: principal-axis switch is among them.
PROBE_FRAMES = 24
#: Views the thread and shard backends render (thread P=2 costs ~0.5 s
#: a frame at 128^3).
BASELINE_FRAMES = 10
#: Rows per call when compositing in chunks, as the stealing pool does.
CHUNK_ROWS = 8


def _median_call(fn, reps: int, scale: float) -> float:
    """Median wall time of ``fn()`` over ``reps`` calls, times ``scale``."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times)) * scale


def _strided(specs, n: int) -> list:
    return list(specs[:: max(1, len(specs) // n)][:n])


def _encodings(renderer) -> list:
    timeline = getattr(renderer, "timeline", None)
    per_step = timeline.encodings if timeline else [renderer.rle_by_axis]
    return [enc for by_axis in per_step for enc in by_axis.values()]


def probe_volume(renderer, specs, stages: dict) -> dict:
    """``datasets`` / ``volume.classify`` / ``volume.rle``."""
    out = dict(stages)
    if not out:
        # The time-varying renderer builds in one call; redo its stages
        # on the same shapes (all timesteps).
        tf = mri_transfer_function()
        t0 = perf_counter()
        volumes = beating_heart(renderer.shape, timesteps=renderer.n_timesteps)
        t1 = perf_counter()
        classified = [ClassifiedVolume.classify(v, tf) for v in volumes]
        t2 = perf_counter()
        for cv in classified:
            encode_all_axes(cv)
        out = {
            "datasets.load_s": t1 - t0,
            "volume.classify.classify_s": t2 - t1,
            "volume.rle.encode_s": perf_counter() - t2,
        }
    out["volume.rle.encoded_mb"] = sum(
        enc.encoded_bytes for enc in _encodings(renderer)) / 1e6

    spec = specs[0]
    rle = renderer.rle_for(renderer.factorize_view(spec.view),
                           timestep=spec.timestep)
    rle.clear_slice_cache()
    cold = []
    for k in range(rle.nk):
        t0 = perf_counter()
        rle.decode_slice_padded(k)
        cold.append(perf_counter() - t0)
    out["volume.rle.decode_slice_us"] = float(np.median(cold)) * 1e6
    return out


def probe_frame_path(renderer, specs) -> dict:
    """``transforms`` / ``render.image`` / ``render.block`` / ``render.fast``
    on five views spread over the sequence, slice cache warm."""
    picks = _strided(specs, 5)
    factorize, alloc, whole, chunked, warp = [], [], [], [], []
    for spec in picks:
        factorize.append(_median_call(
            lambda: renderer.factorize_view(spec.view), 20, 1e6))
        fact = renderer.factorize_view(spec.view)
        alloc.append(_median_call(
            lambda: (IntermediateImage(fact.intermediate_shape),
                     FinalImage(fact.final_shape)), 20, 1e6))
        rle = renderer.rle_for(fact, timestep=spec.timestep)
        img = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(img, 0, img.n_v, rle, fact)  # warm the cache

        def composite(rows: int) -> float:
            target = IntermediateImage(fact.intermediate_shape)
            t0 = perf_counter()
            for lo in range(0, target.n_v, rows):
                composite_scanline_block(target, lo, lo + rows, rle, fact)
            return (perf_counter() - t0) * 1e3

        whole.append(composite(img.n_v))
        chunked.append(composite(CHUNK_ROWS))
        warp.append(_median_call(
            lambda: warp_frame_fast(FinalImage(fact.final_shape), img, fact),
            3, 1e3))
    whole_ms, chunked_ms = float(np.median(whole)), float(np.median(chunked))
    return {
        "transforms.factorization.factorize_us": float(np.median(factorize)),
        "render.image.alloc_us": float(np.median(alloc)),
        "render.block.composite_ms": whole_ms,
        "render.block.composite_chunked_ms": chunked_ms,
        "render.block.chunk_overhead_x": chunked_ms / whole_ms,
        "render.fast.warp_ms": float(np.median(warp)),
    }


def _pool_pass(renderer, specs, single: bool, **config):
    """Open a pool, warm it, time one pass: ``(open_s, samples, stats, pool
    gauges)``."""
    t0 = perf_counter()
    with repro.open_pool(renderer, **config) as pool:
        open_s = perf_counter() - t0
        drive_pool(pool, specs[:WARMUP_FRAMES // 2], single=single)
        samples, _, _, stats = drive_pool(pool, specs, single=single)
        gauges = pool.metrics.snapshot()["gauges"]
    return open_s, samples, stats, gauges


def probe_pools(renderer, specs, single: bool, n_procs: int,
                serial_ms: float) -> dict:
    """``parallel.mp_backend`` (default, traced, and one worker),
    ``core.partition``, ``obs``, and the slice-cache hit ratio the traced
    workers counted."""
    specs = _strided(specs, PROBE_FRAMES)
    open_s, plain, stats, _ = _pool_pass(renderer, specs, single,
                                         n_procs=n_procs)
    _, traced, tstats, gauges = _pool_pass(renderer, specs, single,
                                           n_procs=n_procs, trace=True)
    _, solo, _, _ = _pool_pass(renderer, specs, single, n_procs=1)
    n = stats.frames
    p50 = float(np.median(plain))
    lookups = tstats.cache_hits + tstats.cache_misses
    out = {
        "parallel.mp_backend.open_s": open_s,
        "parallel.mp_backend.submit_ms_per_frame": stats.submit_s * 1e3 / n,
        "parallel.mp_backend.result_wait_ms": stats.wait_s * 1e3 / n,
        "parallel.mp_backend.overhead_ms": p50 - serial_ms,
        "parallel.mp_backend.p1_frame_ms": float(np.median(solo)),
        "parallel.mp_backend.busy_ms_per_frame": stats.busy_s * 1e3 / n,
        "parallel.mp_backend.busy_spread": (
            float(np.median(stats.spreads)) if stats.spreads else 0.0),
        "parallel.mp_backend.steals_per_frame": stats.steals / n,
        "parallel.mp_backend.steal_rows_per_frame": stats.steal_rows / n,
        "parallel.mp_backend.retries": float(stats.retries),
        "parallel.mp_backend.degraded_frames": float(stats.degraded),
        "volume.rle.slice_cache_hit_ratio": (
            tstats.cache_hits / lookups if lookups else 0.0),
        "obs.trace_overhead_ratio": float(np.median(traced)) / p50,
        "obs.dropped_spans": gauges.get(
            "trace/dropped_records", {}).get("value", 0.0),
    }
    for phase in ("wait", "decode", "composite", "barrier", "warp"):
        out[f"parallel.mp_backend.phase.{phase}_ms"] = (
            tstats.phase_s.get(phase, 0.0) * 1e3 / tstats.frames)
    costs, v_lo = stats.profile if stats.profile else (np.ones(64), 0)
    out["core.partition.partition_us"] = _median_call(
        lambda: contiguous_partition(costs, n_procs, v_lo), 50, 1e6)
    return out


def probe_other_backends(renderer, specs) -> dict:
    """Thread pool, shard fleet and merge tree: no end-to-end metric
    moves with them while mp is the default; kept as the baseline a
    backend-default change will be read against."""
    specs = _strided(specs, BASELINE_FRAMES)
    out = {}
    for name, config in (
        ("parallel.thread_backend.frame_ms", dict(n_procs=2, backend="thread")),
        ("shard.service.frame_ms", dict(n_procs=1, shards=2)),
    ):
        with repro.open_pool(renderer, **config) as pool:
            samples, _, _, _ = drive_pool(pool, specs)
        out[name] = float(np.median(samples))

    fact = renderer.factorize_view(specs[0].view)
    n_v = fact.intermediate_shape[0]
    tiles = TileOwnershipMap(fact, np.arange(n_v) * 2 // n_v)
    final = FinalImage(fact.final_shape)
    fbs = [ShardFramebuffer(fact.final_shape) for _ in range(2)]
    try:
        for fb in fbs:
            fb.load(final)
        out["shard.merge.merge_ms"] = _median_call(
            lambda: merge_framebuffers(fbs, tiles, fact.final_shape), 10, 1e3)
    finally:
        for fb in fbs:
            fb.close()
    return out


def probe_serve(color: np.ndarray, alpha: np.ndarray) -> dict:
    """``serve.protocol`` and ``serve.cache`` on one delivered frame."""
    frame = CachedFrame.from_planes(color, alpha)

    def encode() -> bytes:
        return pack_message({
            "status": "ok", "op": "render", "cached": True,
            "coalesced": False, "elapsed_ms": 0.0,
            "frames": [{"sha256": frame.sha256,
                        "color": encode_plane(frame.color),
                        "alpha": encode_plane(frame.alpha)}],
        })

    wire = encode()

    def decode() -> None:
        (msg,), _ = unpack_messages(wire)
        for f in msg["frames"]:
            decode_plane(f["color"])
            decode_plane(f["alpha"])

    def key() -> str:
        return request_key(canonical_identity(
            DATASET, 1.0, "mri", (ROT_X, 30.0, 0.0), "block"))

    cache = FrameCache()
    cached_key = key()
    cache.put(cached_key, frame)
    return {
        "serve.protocol.encode_ms": _median_call(encode, 20, 1e3),
        "serve.protocol.decode_ms": _median_call(decode, 20, 1e3),
        "serve.protocol.wire_bytes_per_frame": float(len(wire)),
        "serve.protocol.request_key_us": _median_call(key, 200, 1e6),
        "serve.cache.get_us": _median_call(
            lambda: cache.get(cached_key), 200, 1e6),
        "serve.cache.put_us": _median_call(
            lambda: cache.put("probe", frame), 200, 1e6),
        "serve.cache.from_planes_ms": _median_call(
            lambda: CachedFrame.from_planes(color, alpha), 20, 1e3),
    }


def probe_movie(renderer, specs, color: np.ndarray) -> dict:
    """``movie.encode`` on one delivered frame; ``movie.timevary`` on the
    workload's own timestep sequence (a static renderer never switches)."""
    png = encode_png(to_gray8(color))
    facts = [renderer.factorize_view(s.view) for s in specs]
    switches0 = getattr(renderer, "timestep_switches", 0)
    times = []
    for spec, fact in zip(specs, facts):
        t0 = perf_counter()
        renderer.rle_for(fact, timestep=spec.timestep)
        times.append(perf_counter() - t0)
    switches = getattr(renderer, "timestep_switches", 0) - switches0
    return {
        "movie.encode.png_ms": _median_call(
            lambda: encode_png(to_gray8(color)), 10, 1e3),
        "movie.encode.png_bytes": float(len(png)),
        "movie.timevary.timestep_switches_per_frame": switches / len(specs),
        "movie.timevary.rle_for_switch_us": float(np.median(times)) * 1e6,
    }


def probe_other_loops(workload) -> dict:
    """``movie.pipeline`` and ``serve.server`` / ``serve.cache.hit_ratio`` /
    ``serve.admission`` where the workload's own laps do not run them:
    one short lap of a movie (12 frames) and of never-repeating serve
    requests (one client, 8 requests) over the workload's renderer,
    reference-checked like any other lap."""
    renderer, n_procs = workload.renderer, workload.n_procs
    out = {}
    for mini in (
        MovieWorkload(0.0, WARMUP_FRAMES, 15.0, n_procs, renderer=renderer),
        ServeWorkload(False, 1.0, 8, random.Random(0), 15.0, 1, n_procs,
                      renderer=renderer),
    ):
        if type(mini) is type(workload):
            continue
        mini.setup()
        try:
            mini.make_references()
            lap = mini.lap()
        finally:
            mini.teardown()
        if lap.failed:
            raise RuntimeError(
                f"{type(mini).__name__} probe: {lap.failed} of "
                f"{lap.attempted} frames differ from render_fast")
        out.update(lap.layer)
    return out


def probe_all(workload, serial_ms: float) -> dict:
    """Every probe, on ``workload``'s renderer and views (call after the
    workload is torn down: the probes open pools of their own)."""
    renderer, specs = workload.renderer, workload.specs
    color, alpha = next(iter(workload.refs.planes.values()))
    out = {}
    out.update(probe_volume(renderer, specs, workload.stages))
    out.update(probe_frame_path(renderer, specs))
    out.update(probe_pools(renderer, specs, workload.single,
                           workload.n_procs, serial_ms))
    out.update(probe_other_backends(renderer, specs))
    out.update(probe_serve(color, alpha))
    out.update(probe_movie(renderer, specs, color))
    out.update(probe_other_loops(workload))
    return out
