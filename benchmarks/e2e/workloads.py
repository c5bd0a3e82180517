"""The five workloads: what is set up, what one lap drives, what is checked.

Every workload is a closed loop (each caller waits for its reply) over
the system's **default** configuration — ``open_pool(renderer,
n_procs=2)`` and ``ServeConfig()`` — and exposes the same five methods:

``setup(rec)``        build the system under test and run the untimed
                      warm-up; everything ``setup_s`` pays for.
``make_references()`` serial ``render_fast`` planes (PNG bytes for the
                      movie) of every view, the bit-identity gate.
``lap(rec)``          one timed repetition; returns a :class:`Lap`.
``teardown()``        close pools / server, so set-up can run again.
``renderer`` / ``specs`` / ``single``
                      what the per-layer probes run on, and whether the
                      workload hands the pool one-frame batches.

The seed only chooses the inputs (start angle, client offsets); the
program under test sees the generated views and nothing else.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.datasets import load
from repro.movie import (
    MoviePipeline,
    beating_heart_renderer,
    encode_png,
    movie_frame_specs,
    to_gray8,
)
from repro.parallel.backend import FrameSpec
from repro.parallel.mp_backend import MPPoolError
from repro.render.fast import render_fast
from repro.render.serial import ShearWarpRenderer
from repro.serve import RenderClient, RenderServer, ServeConfig, response_frames
from repro.serve.protocol import ProtocolError
from repro.volume import mri_transfer_function
from repro.volume.volume import ClassifiedVolume

from spans import NULL

__all__ = ["WORKLOADS", "Lap", "PoolStats", "MovieWorkload", "ServeWorkload",
           "drive_pool", "make_workload", "tree_cpu_s", "OUT_DIR"]

HERE = os.path.dirname(os.path.abspath(__file__))
#: Everything the benchmark writes (traces, reports, movie frames) goes
#: here, inside the checkout and git-ignored.
OUT_DIR = os.path.join(HERE, "out")

DATASET = "mri128"
ROT_X = 20.0
#: Frames of the untimed warm-up: past two profile periods, so the
#: partition feedback loop and the workers' slice caches are live.
WARMUP_FRAMES = 12
#: A serve reply slower than this counts as a failed (timed-out) frame.
REQUEST_TIMEOUT_S = 30.0


def tree_cpu_s() -> float:
    """User + system CPU seconds of this process and its pool workers,
    read from ``/proc/<pid>/stat`` (fields 14 and 15)."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # a worker that exited between the two reads
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def build_static(scale: float) -> tuple[ShearWarpRenderer, dict[str, float]]:
    """``ShearWarpRenderer(load(...), tf)`` in its three stages, timed."""
    t0 = perf_counter()
    raw = load(DATASET, scale)
    t1 = perf_counter()
    classified = ClassifiedVolume.classify(raw, mri_transfer_function())
    t2 = perf_counter()
    renderer = ShearWarpRenderer.from_classified(classified)
    t3 = perf_counter()
    return renderer, {
        "datasets.load_s": t1 - t0,
        "volume.classify.classify_s": t2 - t1,
        "volume.rle.encode_s": t3 - t2,
    }


@dataclass
class PoolStats:
    """What a pool's results say about the frames it delivered."""

    frames: int = 0
    submit_s: float = 0.0
    wait_s: float = 0.0
    busy_s: float = 0.0
    spreads: list[float] = field(default_factory=list)
    steals: int = 0
    steal_rows: int = 0
    retries: int = 0
    degraded: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    #: (costs, v_lo) of the first profiled frame: a real cost profile.
    profile: tuple | None = None

    def add(self, res) -> None:
        self.frames += 1
        if res.busy_s is not None:
            self.busy_s += float(np.sum(res.busy_s))
            self.spreads.append(float(res.busy_spread))
        self.steals += res.steals
        self.steal_rows += res.steal_rows
        self.retries += res.retries
        self.degraded += bool(res.degraded)
        if self.profile is None and res.costs is not None:
            self.profile = (res.costs, res.costs_v_lo)
        if res.timeline is not None:
            for phase, s in res.timeline.phase_seconds().items():
                self.phase_s[phase] = self.phase_s.get(phase, 0.0) + float(s)
            totals = res.timeline.counter_totals()
            self.cache_hits += totals.get("cache_hits", 0.0)
            self.cache_misses += totals.get("cache_misses", 0.0)


@dataclass
class Lap:
    """One timed repetition of a workload."""

    wall_s: float
    cpu_s: float
    samples_ms: list[float]
    attempted: int
    failed: int
    #: Layer numbers the lap itself observed (serve counters, manifest).
    layer: dict[str, float] = field(default_factory=dict)


def drive_pool(pool, specs, rec=NULL, check=None, single=False):
    """Submit ``specs`` and collect them in order, timing each delivery.

    One batch, or — ``single`` — one-frame batches as the serve layer
    issues them.  A sample is the gap since the previous delivery (the
    first one since ``submit_batch`` was called).  Returns ``(samples_ms,
    wall_s, failed, PoolStats)``.
    """
    stats = PoolStats()
    samples: list[float] = []
    failed = 0
    batches = [[s] for s in specs] if single else [list(specs)]
    t_start = last = perf_counter()
    index = 0
    for batch in batches:
        t0 = perf_counter()
        with rec.span("parallel.mp_backend.submit_batch", frames=len(batch)):
            ids = pool.submit_batch(batch)
        stats.submit_s += perf_counter() - t0
        for fid in ids:
            t0 = perf_counter()
            try:
                with rec.span("parallel.mp_backend.result", frame=index):
                    res = pool.result(fid)
            except MPPoolError:
                res = None
            now = perf_counter()
            stats.wait_s += now - t0
            samples.append((now - last) * 1e3)
            last = now
            if res is None:
                failed += 1
            else:
                stats.add(res)
                if check is not None and not check(
                    index, res.final.color, res.final.alpha
                ):
                    failed += 1
            index += 1
    return samples, last - t_start, failed, stats


class References:
    """Serial ``render_fast`` planes per view: the bit-identity gate."""

    def __init__(self, renderer) -> None:
        self.renderer = renderer
        self.planes: dict = {}
        #: Per-view ``render_fast`` wall time — the single-threaded
        #: baseline every pool number is read against.
        self.render_ms: list[float] = []

    def add(self, key, spec: FrameSpec, rec=NULL):
        t0 = perf_counter()
        with rec.span("render.fast.render_fast"):
            res = render_fast(self.renderer, spec.view, timestep=spec.timestep)
        self.render_ms.append((perf_counter() - t0) * 1e3)
        self.planes[key] = (res.final.color, res.final.alpha)
        return res

    def check(self, key, color, alpha) -> bool:
        ref = self.planes.get(key)
        return (
            ref is not None
            and np.array_equal(ref[0], color)
            and np.array_equal(ref[1], alpha)
        )


class AnimWorkload:
    """One rotation batch through the default pool, collected in order."""

    single = False

    def __init__(self, scale: float, n_frames: int, step: float,
                 ry0: float, n_procs: int) -> None:
        self.scale, self.n_frames, self.step = scale, n_frames, step
        self.ry0, self.n_procs = ry0, n_procs
        self.stages: dict[str, float] = {}

    def setup(self, rec=NULL) -> None:
        with rec.span("bench.build_renderer"):
            self.renderer, self.stages = build_static(self.scale)
        self.specs = [
            FrameSpec(self.renderer.view_from_angles(
                ROT_X, self.ry0 + i * self.step, 0.0))
            for i in range(self.n_frames)
        ]
        with rec.span("parallel.mp_backend.open_pool"):
            self.pool = repro.open_pool(self.renderer, n_procs=self.n_procs)
        with rec.span("bench.warmup"):
            drive_pool(self.pool, self.specs[:WARMUP_FRAMES], rec)

    def make_references(self, rec=NULL) -> None:
        self.refs = References(self.renderer)
        for i, spec in enumerate(self.specs):
            self.refs.add(i, spec, rec)

    def lap(self, rec=NULL) -> Lap:
        cpu0 = tree_cpu_s()
        with rec.span("bench.measure"):
            samples, wall, failed, _ = drive_pool(
                self.pool, self.specs, rec, self.refs.check
            )
        return Lap(wall, tree_cpu_s() - cpu0, samples, len(self.specs), failed)

    def teardown(self) -> None:
        self.pool.close()


class MovieWorkload:
    """A time-varying movie through ``MoviePipeline`` to PNGs on disk."""

    single = False

    def __init__(self, scale: float, n_frames: int, ry0: float,
                 n_procs: int, renderer=None) -> None:
        self.scale, self.n_frames = scale, n_frames
        self.ry0, self.n_procs = ry0, n_procs
        #: A renderer to film instead of the beating heart (layer probes).
        self.given = renderer
        self.stages: dict[str, float] = {}

    def setup(self, rec=NULL) -> None:
        with rec.span("bench.build_renderer"):
            self.renderer = self.given or beating_heart_renderer(
                scale=self.scale, timesteps=4)
        self.specs = movie_frame_specs(
            self.renderer, self.n_frames, rot_x=ROT_X, rot_y=self.ry0,
            step_y=1.5,
        )
        with rec.span("parallel.mp_backend.open_pool"):
            self.pool = repro.open_pool(self.renderer, n_procs=self.n_procs)
        with rec.span("bench.warmup"):
            self._run(self.specs[:WARMUP_FRAMES], rec)

    def make_references(self, rec=NULL) -> None:
        self.refs = References(self.renderer)
        self.ref_png: list[bytes] = []
        for i, spec in enumerate(self.specs):
            res = self.refs.add(i, spec, rec)
            with rec.span("movie.encode.encode_png"):
                self.ref_png.append(encode_png(to_gray8(res.final.color)))

    def _run(self, specs, rec) -> tuple[dict, list[bytes]]:
        """One pipeline run into a scratch directory; returns the
        manifest and the bytes of every PNG it wrote."""
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="movie_", dir=OUT_DIR)
        try:
            with rec.span("movie.pipeline.run", frames=len(specs)):
                manifest = MoviePipeline(self.pool, tmp, fmt="png").run(specs)
            blobs = []
            for frame in manifest["frames"]:
                with open(frame["path"], "rb") as f:
                    blobs.append(f.read())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return manifest, blobs

    def lap(self, rec=NULL) -> Lap:
        n = len(self.specs)
        cpu0 = tree_cpu_s()
        t0 = perf_counter()
        try:
            with rec.span("bench.measure"):
                manifest, blobs = self._run(self.specs, rec)
        except MPPoolError:
            # The pipeline delivers a movie or nothing.
            return Lap(perf_counter() - t0, tree_cpu_s() - cpu0, [], n, n)
        cpu_s = tree_cpu_s() - cpu0
        frames, overlap = manifest["frames"], manifest["stage_overlap"]
        failed = sum(got != ref for got, ref in zip(blobs, self.ref_png))
        failed += n - len(blobs)
        encode_s = overlap["encode_s"]
        layer = {
            "movie.pipeline.dispatch_ms_per_frame": overlap["dispatch_s"] * 1e3 / n,
            "movie.pipeline.wait_ms_per_frame": overlap["wait_s"] * 1e3 / n,
            "movie.pipeline.encode_ms_per_frame": encode_s * 1e3 / n,
            "movie.pipeline.overlapped_encode_share": (
                overlap["overlapped_encode_s"] / encode_s if encode_s else 0.0
            ),
        }
        samples = [(f["wait_s"] + f["encode_s"]) * 1e3 for f in frames]
        return Lap(overlap["wall_s"], cpu_s, samples, n, failed, layer)

    def teardown(self) -> None:
        self.pool.close()


class ServeWorkload:
    """Closed-loop clients against an in-process ``RenderServer``.

    ``hit``: every client walks one orbit that set-up already rendered,
    so each request is a frame-cache hit and the pool stays idle.
    Otherwise every request names a view nobody asked for before: no
    hit, no coalescing, one one-frame pool batch per request.
    """

    single = True
    #: Views of the orbit the hit workload walks.
    ORBIT = 24
    #: Degrees between the never-repeating views of the miss workload.
    MISS_STEP = 0.25

    def __init__(self, hit: bool, scale: float, per_client: int,
                 rng: random.Random, ry0: float, n_clients: int,
                 n_procs: int, renderer=None) -> None:
        self.hit, self.scale, self.per_client = hit, scale, per_client
        self.ry0, self.n_clients, self.n_procs = ry0, n_clients, n_procs
        #: A renderer to serve instead of building one (layer probes).
        self.given = renderer
        self.orbit = [ry0 + i * 360.0 / self.ORBIT for i in range(self.ORBIT)]
        self.offsets = [rng.randrange(self.ORBIT) for _ in range(n_clients)]
        self.stages: dict[str, float] = {}
        self.sent = 0  # requests each client has sent in timed laps

    # -- views ---------------------------------------------------------------

    def _lap_views(self) -> list[list[float]]:
        """The angles each client requests in the next lap."""
        ns = range(self.sent, self.sent + self.per_client)
        if self.hit:
            return [
                [self.orbit[(off + n) % len(self.orbit)] for n in ns]
                for off in self.offsets
            ]
        # Interleaved on one grid: every (client, n) pair is a new angle.
        return [
            [self.ry0 + (n * self.n_clients + c) * self.MISS_STEP for n in ns]
            for c in range(self.n_clients)
        ]

    def _spec(self, ry: float) -> FrameSpec:
        return FrameSpec(self.renderer.view_from_angles(ROT_X, ry, 0.0))

    def _payload(self, ry: float, client: int) -> dict:
        return {"op": "render", "dataset": DATASET, "scale": self.scale,
                "rx": ROT_X, "ry": ry, "client": f"c{client}"}

    # -- lifecycle -----------------------------------------------------------

    def _build(self, dataset, scale, classification):
        """``renderer_factory``: the default construction, kept so the
        references render from the very volume the server serves."""
        if self.given is not None:
            self.renderer = self.given
        else:
            self.renderer, self.stages = build_static(scale)
        return self.renderer

    def setup(self, rec=NULL) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup(rec))
        views = self.orbit if self.hit else self._lap_views()[0]
        self.specs = [self._spec(ry) for ry in views]

    async def _setup(self, rec) -> None:
        with rec.span("serve.server.start"):
            # ServeConfig() as it is; n_procs differs from its default
            # of 2 only on a one-CPU host.
            config = ServeConfig()
            config = config.replace(
                pool=config.pool.replace(n_procs=self.n_procs))
            self.server = RenderServer(config, renderer_factory=self._build)
            await self.server.start()
        host, port = self.server.address
        self.clients = [
            await RenderClient.connect(host, port)
            for _ in range(self.n_clients)
        ]
        # Hit: render the orbit once.  Miss: a few angles below ry0,
        # which no timed request will ever name.
        warm = self.orbit if self.hit else [
            self.ry0 - (k + 1) * self.MISS_STEP for k in range(4)
        ]
        with rec.span("bench.warmup"):
            for ry in warm:
                with rec.span("serve.client.request"):
                    resp = await self.clients[0].request(self._payload(ry, 0))
                if resp.get("status") != "ok":
                    raise RuntimeError(f"warm-up request failed: {resp}")

    def make_references(self, rec=NULL) -> None:
        self.refs = References(self.renderer)
        if self.hit:
            for ry in self.orbit:
                self.refs.add(ry, self._spec(ry), rec)

    def teardown(self) -> None:
        async def close() -> None:
            for client in self.clients:
                await client.close()
            await self.server.close()

        self.loop.run_until_complete(close())
        self.loop.close()

    # -- one lap -------------------------------------------------------------

    def lap(self, rec=NULL) -> Lap:
        views = self._lap_views()
        if not self.hit:
            # This lap's references only: the sequence never repeats.
            self.refs.planes.clear()
            for ry in (ry for per_client in views for ry in per_client):
                self.refs.add(ry, self._spec(ry))
        lap = self.loop.run_until_complete(self._lap(views, rec))
        self.sent += self.per_client
        return lap

    async def _counters(self) -> dict:
        resp = await self.clients[0].request({"op": "stats"})
        return resp["metrics"]["counters"]

    async def _lap(self, views, rec) -> Lap:
        samples: list[float] = []
        elapsed: list[float] = []
        transport: list[float] = []
        failed = 0

        async def drive(ci: int) -> None:
            nonlocal failed
            client = self.clients[ci]
            with rec.span("bench.measure", track=ci + 1):
                for n, ry in enumerate(views[ci]):
                    t0 = perf_counter()
                    try:
                        with rec.span("serve.client.request", request=n):
                            async with asyncio.timeout(REQUEST_TIMEOUT_S):
                                resp = await client.request(
                                    self._payload(ry, ci))
                        with rec.span("serve.client.response_frames"):
                            frames = response_frames(resp)
                    except (TimeoutError, ConnectionError, ProtocolError):
                        # The connection is out of step with its replies:
                        # what this client had left to ask is lost too.
                        failed += len(views[ci]) - n
                        return
                    latency = (perf_counter() - t0) * 1e3
                    samples.append(latency)
                    if (
                        resp.get("status") == "ok"
                        and len(frames) == 1
                        and self.refs.check(ry, *frames[0])
                    ):
                        elapsed.append(resp["elapsed_ms"])
                        transport.append(latency - resp["elapsed_ms"])
                    else:
                        failed += 1  # refused (ServerBusy), error, wrong bits

        before = await self._counters()
        cpu0 = tree_cpu_s()
        t0 = perf_counter()
        await asyncio.gather(*(drive(ci) for ci in range(self.n_clients)))
        wall = perf_counter() - t0
        cpu_s = tree_cpu_s() - cpu0
        after = await self._counters()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        lookups = delta("serve/cache_hits") + delta("serve/cache_misses")
        layer = {
            "serve.cache.hit_ratio": (
                delta("serve/cache_hits") / lookups if lookups else 0.0
            ),
            "serve.server.elapsed_ms_p50": float(np.median(elapsed)) if elapsed else 0.0,
            "serve.server.transport_ms_p50": float(np.median(transport)) if transport else 0.0,
            "serve.server.pool_renders": delta("serve/pool_renders"),
            "serve.server.coalesced": delta("serve/coalesced"),
            "serve.admission.rejected": delta("serve/rejected"),
        }
        attempted = sum(len(v) for v in views)
        return Lap(wall, cpu_s, samples, attempted, failed, layer)


@dataclass(frozen=True)
class WorkloadSpec:
    """How to build a workload; why it exists is in ``BENCHMARK.json``."""

    #: Laps every run makes at least, so p90 has >= 10 samples beyond it.
    min_laps: int
    #: ``(seed_rng, ry0, n, smoke) -> workload``; ``n`` caps pool workers
    #: and clients alike.
    build: object


def _anim(scale, smoke_scale, frames, step):
    return lambda rng, ry0, n, smoke: AnimWorkload(
        smoke_scale if smoke else scale, frames, step, ry0, n)


WORKLOADS: dict[str, WorkloadSpec] = {
    # Three laps: on the build host two successive 5 s laps of this one
    # differ by up to 16 %, and the median of three sheds the odd one.
    "anim_static_128": WorkloadSpec(
        3, _anim(1.0, 0.25, 60, 1.0)),
    "anim_overhead_32": WorkloadSpec(
        1, _anim(0.25, 0.125, 300, 0.2)),
    "movie_timevary_96": WorkloadSpec(
        3, lambda rng, ry0, n, smoke: MovieWorkload(
            0.5 if smoke else 2.0, 40, ry0, n)),
    "serve_hit_128": WorkloadSpec(
        1, lambda rng, ry0, n, smoke: ServeWorkload(
            True, 0.25 if smoke else 1.0, 100 if smoke else 800,
            rng, ry0, n, n)),
    "serve_miss_64": WorkloadSpec(
        1, lambda rng, ry0, n, smoke: ServeWorkload(
            False, 0.125 if smoke else 0.5, 60, rng, ry0, n, n)),
}


def make_workload(name: str, seed: int, smoke: bool = False):
    """Build workload ``name`` from ``seed`` (same seed, same inputs)."""
    rng = random.Random(seed)
    ry0 = 15.0 + rng.random()
    # Never more pool workers or clients than CPUs.
    n = min(2, os.cpu_count() or 1)
    return WORKLOADS[name].build(rng, ry0, n, smoke)
