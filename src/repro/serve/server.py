"""``repro.serve`` — render-as-a-service over the persistent pools.

An asyncio front end that owns one or more :func:`repro.open_pool`
instances and serves single-view and animation renders to many
concurrent clients over the length-prefixed JSON protocol of
:mod:`repro.serve.protocol`.  Three mechanisms keep a small pool honest
under many clients:

* **Admission control** (:class:`~repro.serve.admission.AdmissionController`)
  bounds the renders in flight; excess requests are rejected immediately
  with a typed ``ServerBusy`` instead of queueing without bound.
* **Request coalescing** — identical in-flight requests (same canonical
  ``(dataset, classification, view)`` identity) await *one* pool render
  and share its frame, byte for byte.  Every pool composites with the
  one block kernel, so a request names no kernel (a ``kernel`` field is
  ignored).
* **A content-addressed whole-frame LRU**
  (:class:`~repro.serve.cache.FrameCache`) returns repeated views
  without touching a pool at all.

The event loop never renders: pool work runs on one executor thread per
pool (a pool is driven by a single thread; concurrency across clients
comes from the cache, coalescing and — with several datasets — several
pools), which is MovieMaker's stage split applied to serving: the loop
thread does admission/assembly/IO while the pool threads overlap
compositing, exactly like the movie pipeline's render stage overlapping
its encode stage.

Protocol operations (all request/response dicts):

``{"op": "ping"}``
    Liveness check; returns the server version.
``{"op": "render", "dataset": ..., "rx": ..., "ry": ..., ...}``
    One frame; response carries base64 float32 ``color``/``alpha``
    planes, their ``sha256``, and ``cached``/``coalesced`` flags.
``{"op": "animate", ..., "frames": N, "ry_step": d}``
    N frames rotating about y — the batch-movie path; rendered through
    ``pool.render_animation`` (one pipelined batch) and cached per
    frame.
``{"op": "stats"}``
    A metrics snapshot (serve counters merged with every pool's).
``{"op": "shutdown"}``
    Stop the server (when ``ServeConfig.allow_shutdown``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..parallel.poolcore import MPPoolError, PoolConfig
from .admission import AdmissionController, ServerBusy
from .cache import DEFAULT_FRAME_CACHE_CAPACITY, CachedFrame, FrameCache
from .protocol import (
    ProtocolError,
    canonical_identity,
    encode_plane,
    pack_message,
    read_message,
    request_key,
)

__all__ = ["ServeConfig", "RenderServer", "run_server"]

#: Marker carried by metrics-snapshot files so ``repro stats`` can tell
#: them apart from Chrome traces.
SNAPSHOT_KIND = "repro-metrics"

#: Timesteps baked into the ``beating_heart`` renderer the default
#: factory builds; ``movie`` requests with more frames wrap around it.
DEFAULT_MOVIE_TIMESTEPS = 4

#: The ``kernel`` element of every request identity: the pools'
#: one compositing kernel, kept in the key so cache keys stay the ones
#: :func:`~repro.serve.protocol.request_key` has always produced.
_KERNEL = "block"


@dataclass(frozen=True)
class ServeConfig:
    """Every render-server knob, validated in one place (the serve-layer
    sibling of :class:`~repro.parallel.poolcore.PoolConfig`).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`RenderServer.address`).
    max_inflight:
        Bound on admitted-but-unfinished render jobs; requests beyond
        it get a typed ``ServerBusy``.  Cache hits and coalesced
        followers bypass admission (they add no pool work).
    cache_frames:
        Capacity of the whole-frame LRU, in frames.
    default_dataset / default_scale / default_classification:
        Request defaults (a client may override any of them per
        request).
    pool:
        The :class:`PoolConfig` every pool is built from, as is: one
        pool per dataset, scale and classification.  ``profile_period``
        defaults to 0 here — service traffic has no frame-to-frame
        coherence for the profile loop to exploit.  ``pool.shards > 1``
        makes every lazily-created "pool" a sharded fleet
        (:class:`~repro.shard.ShardedRenderService`) — the server drives
        it through the identical API and never knows the difference.
    idle_pool_s:
        Evict a pool once it has sat idle (no render in flight, none
        finished) this many seconds: its executor is drained, the pool
        closed and its shm segments unlinked, so a server that saw a
        burst of distinct datasets does not hold their worker fleets
        forever.  The next request for that identity simply re-creates
        the pool.  ``None`` (default) never evicts.
    allow_shutdown:
        Honor the ``shutdown`` protocol op (on by default: the server
        binds loopback unless configured otherwise).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    cache_frames: int = DEFAULT_FRAME_CACHE_CAPACITY
    default_dataset: str = "mri128"
    default_scale: float = 0.12
    default_classification: str = "mri"
    pool: PoolConfig = field(
        default_factory=lambda: PoolConfig(n_procs=2, profile_period=0)
    )
    idle_pool_s: float | None = None
    allow_shutdown: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.cache_frames < 1:
            raise ValueError("cache_frames must be >= 1")
        if self.idle_pool_s is not None and self.idle_pool_s <= 0:
            raise ValueError("idle_pool_s must be positive (or None)")

    def replace(self, **changes) -> "ServeConfig":
        return dataclasses.replace(self, **changes)


def _default_renderer_factory(dataset: str, scale: float, classification):
    """Build a classified + encoded renderer for one request identity."""
    from ..datasets import load
    from ..render.serial import ShearWarpRenderer
    from ..volume import (
        binary_transfer_function,
        ct_transfer_function,
        mri_transfer_function,
    )

    if classification == "mri":
        tf = mri_transfer_function()
    elif classification == "ct":
        tf = ct_transfer_function()
    elif (
        isinstance(classification, (list, tuple))
        and classification
        and classification[0] == "binary"
    ):
        tf = binary_transfer_function(*[float(x) for x in classification[1:]])
    else:
        raise ValueError(f"unknown classification spec {classification!r}")
    if dataset == "beating_heart":
        # The time-varying phantom: ``scale`` shrinks the base grid
        # linearly (it is not in the paper-dataset registry).
        from ..movie import beating_heart_renderer

        return beating_heart_renderer(
            float(scale), timesteps=DEFAULT_MOVIE_TIMESTEPS, tf=tf
        )
    return ShearWarpRenderer(load(dataset, float(scale)), tf)


class RenderServer:
    """The async render service (see the module docstring).

    Parameters
    ----------
    config:
        A :class:`ServeConfig`; keyword overrides refine it the same way
        :func:`repro.open_pool` refines a :class:`PoolConfig`.
    renderer_factory:
        ``(dataset, scale, classification) -> renderer`` — injection
        point for tests and embedders; defaults to the paper datasets
        through :func:`repro.datasets.load`.
    render_fn:
        ``(pool, views) -> [(color, alpha), ...]`` executed on the
        pool's executor thread.  Tests inject gates here; the default
        drives ``pool.render`` / ``pool.render_animation``.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 renderer_factory=None, render_fn=None, **overrides) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.metrics = MetricsRegistry()
        self.cache = FrameCache(config.cache_frames, metrics=self.metrics)
        self.admission = AdmissionController(config.max_inflight, self.metrics)
        self._renderer_factory = renderer_factory or _default_renderer_factory
        self._render_fn = render_fn or self._pool_render
        self._renderers: dict[tuple, object] = {}
        #: pool key -> (pool, single-thread executor driving it)
        self._pools: dict[tuple, tuple[object, ThreadPoolExecutor]] = {}
        #: pool key -> renders in flight / last time one finished, for
        #: idle eviction (both only touched on the event-loop thread).
        self._pool_busy: dict[tuple, int] = {}
        self._pool_last_used: dict[tuple, float] = {}
        self._evict_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Actual bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "RenderServer":
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        if self.config.idle_pool_s is not None:
            self._evict_task = asyncio.get_running_loop().create_task(
                self._evict_idle_pools()
            )
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`close` or a client's ``shutdown`` op."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()

    async def close(self) -> None:
        """Stop accepting, drain the pools, release every shm segment."""
        if self._closed:
            return
        self._closed = True
        self._shutdown.set()
        if self._evict_task is not None:
            self._evict_task.cancel()
            try:
                await self._evict_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._conns):
            writer.close()
        # Finish in-executor renders before pool teardown: each executor
        # is the only thread driving its pool, so shutdown(wait=True)
        # guarantees no render is mid-flight when close() unlinks shm.
        pools = list(self._pools.values())
        self._pools.clear()
        for pool, executor in pools:
            await asyncio.get_running_loop().run_in_executor(
                None, executor.shutdown
            )
            pool.close()

    async def __aenter__(self) -> "RenderServer":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            while True:
                try:
                    msg = await read_message(reader)
                except ProtocolError as exc:
                    writer.write(pack_message(
                        {"status": "error", "error": "ProtocolError",
                         "detail": str(exc)}
                    ))
                    await writer.drain()
                    break
                if msg is None or self._closed:
                    break
                resp = await self._dispatch(msg)
                writer.write(pack_message(resp))
                await writer.drain()
                if msg.get("op") == "shutdown" and resp["status"] == "ok":
                    self._shutdown.set()
                    break
        except ConnectionError:
            pass  # client went away mid-response
        except asyncio.CancelledError:
            pass  # loop teardown with the client still connected
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        self.metrics.counter("serve/requests").inc()
        try:
            if op == "ping":
                from .. import __version__

                return {"status": "ok", "op": "ping", "version": __version__}
            if op == "stats":
                return {"status": "ok", "op": "stats",
                        "metrics": self.metrics_snapshot()}
            if op == "shutdown":
                if not self.config.allow_shutdown:
                    raise PermissionError("shutdown is disabled on this server")
                return {"status": "ok", "op": "shutdown"}
            if op == "render":
                return await self._handle_render(msg, n_frames=1)
            if op == "animate":
                n = int(msg.get("frames", 0))
                if n < 1:
                    raise ValueError("animate needs frames >= 1")
                return await self._handle_render(msg, n_frames=n)
            if op == "movie":
                n = int(msg.get("frames", 0))
                if n < 1:
                    raise ValueError("movie needs frames >= 1")
                return await self._handle_render(msg, n_frames=n, movie=True)
            raise ValueError(f"unknown op {op!r}")
        except MPPoolError as exc:
            # Typed serve/pool errors keep their class name on the wire
            # (ServerBusy is the one clients must branch on).
            return {"status": "error", "error": type(exc).__name__,
                    "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - bad request, not a crash
            return {"status": "error", "error": type(exc).__name__,
                    "detail": str(exc)}

    def _identities(
        self, msg: dict, n_frames: int, movie: bool = False
    ) -> list[dict]:
        cfg = self.config
        dataset = str(msg.get("dataset", cfg.default_dataset))
        scale = float(msg.get("scale", cfg.default_scale))
        cls_spec = msg.get("classification", cfg.default_classification)
        rx = float(msg.get("rx", 20.0))
        ry = float(msg.get("ry", 30.0))
        rz = float(msg.get("rz", 0.0))
        step = float(msg.get("ry_step", 3.0))
        if movie:
            # A movie frame's identity carries its timestep as a 4th
            # view element, so the cache/coalescing machinery keys on it
            # and timestep t at angle a never aliases timestep t' at a.
            timesteps = int(msg.get("timesteps", DEFAULT_MOVIE_TIMESTEPS))
            if timesteps < 1:
                raise ValueError("movie needs timesteps >= 1")
            return [
                canonical_identity(dataset, scale, cls_spec,
                                   (rx, ry + i * step, rz, i % timesteps),
                                   _KERNEL)
                for i in range(n_frames)
            ]
        return [
            canonical_identity(dataset, scale, cls_spec,
                               (rx, ry + i * step, rz), _KERNEL)
            for i in range(n_frames)
        ]

    async def _handle_render(
        self, msg: dict, n_frames: int, movie: bool = False
    ) -> dict:
        t0 = time.perf_counter()
        identities = self._identities(msg, n_frames, movie=movie)
        keys = [request_key(i) for i in identities]
        frames, cached, coalesced = await self._resolve(identities, keys)
        elapsed = time.perf_counter() - t0
        if movie:
            # Every movie frame leaves this server wire-encoded, whether
            # it was freshly rendered or served from the cache.
            self.metrics.counter("movie/frames_encoded").inc(len(frames))
        self.metrics.histogram("serve/latency_s").observe(elapsed)
        client = str(msg.get("client", "anon"))
        self.metrics.histogram(f"serve/latency_s/{client}").observe(elapsed)
        return {
            "status": "ok",
            "op": msg["op"],
            "cached": cached,
            "coalesced": coalesced,
            "elapsed_ms": elapsed * 1e3,
            "frames": [
                {"sha256": f.sha256,
                 "color": encode_plane(f.color),
                 "alpha": encode_plane(f.alpha)}
                for f in frames
            ],
        }

    async def _resolve(
        self, identities: list[dict], keys: list[str]
    ) -> tuple[list[CachedFrame], bool, bool]:
        """Frames for ``keys``: cache, then coalesce, then render.

        Returns ``(frames, all_cached, coalesced)``.  A multi-frame
        request coalesces as a unit (its identity is the frame-key
        list); its rendered frames still land in the cache
        individually, so later single-view requests hit.
        """
        hits = [self.cache.get(k) for k in keys]
        if all(f is not None for f in hits):
            self.metrics.counter("serve/served_from_cache").inc(len(keys))
            return hits, True, False

        job_key = keys[0] if len(keys) == 1 else request_key(
            {"batch": keys}
        )
        pending = self._pending.get(job_key)
        if pending is not None:
            self.metrics.counter("serve/coalesced").inc()
            return list(await asyncio.shield(pending)), False, True

        # This request renders: claim an admission slot for the job.
        self.admission.acquire()
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        # A lone render's failure is re-raised to its own client; the
        # callback marks the exception retrieved for the no-follower case.
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._pending[job_key] = fut
        try:
            pool_key = self._pool_key(identities[0])
            pool, executor = self._pool_for(identities[0])
            # Busy before the first await: the eviction sweep runs on
            # this same loop thread and never closes a busy pool.
            self._pool_busy[pool_key] = self._pool_busy.get(pool_key, 0) + 1
            try:
                views = [i["view"] for i in identities]
                self.metrics.counter("serve/pool_renders").inc()
                self.metrics.counter("serve/pool_frames").inc(len(views))
                planes = await loop.run_in_executor(
                    executor, self._render_fn, pool, views
                )
            finally:
                self._pool_busy[pool_key] -= 1
                self._pool_last_used[pool_key] = time.monotonic()
            frames = [CachedFrame.from_planes(c, a) for c, a in planes]
            for key, frame in zip(keys, frames):
                self.cache.put(key, frame)
            fut.set_result(frames)
            return frames, False, False
        except Exception as exc:
            fut.set_exception(exc)
            raise
        finally:
            self._pending.pop(job_key, None)
            self.admission.release()

    # -- pools ---------------------------------------------------------------

    @staticmethod
    def _pool_key(identity: dict) -> tuple:
        """Pool-map key: everything that forks different renderer state
        into the workers — dataset, scale, classification."""
        return (
            identity["dataset"], identity["scale"],
            json.dumps(identity["classification"]),
        )

    def _pool_for(self, identity: dict) -> tuple[object, ThreadPoolExecutor]:
        """The pool (and its driver thread) for one request identity.

        Created lazily on the event-loop thread so the pool map needs no
        lock; an idle-evicted pool is simply re-created here on its next
        request.
        """
        key = self._pool_key(identity)
        entry = self._pools.get(key)
        if entry is None:
            import repro

            renderer = self._renderers.get(key)
            if renderer is None:
                renderer = self._renderer_factory(
                    identity["dataset"], identity["scale"],
                    identity["classification"],
                )
                self._renderers[key] = renderer
            pool = repro.open_pool(renderer, config=self.config.pool)
            executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-pool-{len(self._pools)}"
            )
            entry = self._pools[key] = (pool, executor)
            self._pool_last_used[key] = time.monotonic()
            self.metrics.gauge("serve/pools").set(len(self._pools))
        return entry

    async def _evict_idle_pools(self) -> None:
        """Close pools idle longer than ``idle_pool_s`` (loop-thread task).

        A pool is idle when no render is in flight on it and its last
        render finished more than ``idle_pool_s`` ago.  Eviction mirrors
        :meth:`close` for one pool: drain the executor (off-loop — it is
        the only thread driving the pool), close the pool, unlink its
        shm.  Note an evicted pool's metrics leave the stats snapshot
        with it.
        """
        idle_s = self.config.idle_pool_s
        loop = asyncio.get_running_loop()
        while not self._closed:
            await asyncio.sleep(max(0.01, idle_s / 4))
            now = time.monotonic()
            for key in list(self._pools):
                if self._pool_busy.get(key, 0) > 0:
                    continue
                if now - self._pool_last_used.get(key, now) < idle_s:
                    continue
                pool, executor = self._pools.pop(key)
                self._pool_busy.pop(key, None)
                self._pool_last_used.pop(key, None)
                # Count at pop time: the await below yields to the loop,
                # and an observer must never see the pool gone from
                # ``_pools`` while the eviction counter still reads 0.
                self.metrics.counter("serve/pools_evicted").inc()
                self.metrics.gauge("serve/pools").set(len(self._pools))
                await loop.run_in_executor(None, executor.shutdown)
                pool.close()

    @staticmethod
    def _pool_render(pool, views) -> list[tuple[np.ndarray, np.ndarray]]:
        """Default render path (runs on the pool's executor thread).

        Drives the pool purely through the :class:`~repro.parallel.
        backend.RenderBackend` protocol (``submit_batch`` / ``result``),
        so mp pools, thread pools and shard fleets are interchangeable
        here.  A view is ``(rx, ry, rz)`` angles, optionally followed by
        a timestep (the ``movie`` op's 4th identity element).
        """
        import numpy as _np

        from ..parallel.backend import FrameSpec

        def spec(v):
            timestep = int(v[3]) if len(v) > 3 else None
            return FrameSpec(
                view=pool.renderer.view_from_angles(*v[:3]),
                timestep=timestep,
            )

        ids = pool.submit_batch([spec(v) for v in views])
        results = [pool.result(fid) for fid in ids]
        return [
            (_np.array(r.final.color), _np.array(r.final.alpha))
            for r in results
        ]

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """One JSON-ready snapshot: serve metrics merged with every
        pool's registry (``repro stats`` renders these files)."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for pool, _ in self._pools.values():
            merged.merge(pool.metrics)
        snap = merged.snapshot()
        snap["kind"] = SNAPSHOT_KIND
        snap["config"] = {
            "max_inflight": self.config.max_inflight,
            "cache_frames": self.config.cache_frames,
            "n_procs": self.config.pool.n_procs,
            "backend": self.config.pool.backend,
            "shards": self.config.pool.shards,
        }
        return snap


async def run_server(
    config: ServeConfig,
    *,
    metrics_out: str | None = None,
    ready=None,
) -> dict:
    """Start a :class:`RenderServer`, serve until shutdown, snapshot.

    The CLI entry point: prints nothing itself — ``ready`` (if given) is
    called with the bound ``(host, port)`` once accepting, the final
    metrics snapshot is returned and, when ``metrics_out`` is set, also
    written there as JSON for ``repro stats``.
    """
    server = RenderServer(config)
    await server.start()
    if ready is not None:
        ready(server.address)
    try:
        await server.serve_forever()
    finally:
        snap = server.metrics_snapshot()
        await server.close()
        if metrics_out:
            with open(metrics_out, "w") as f:
                json.dump(snap, f, indent=2)
                f.write("\n")
    return snap
