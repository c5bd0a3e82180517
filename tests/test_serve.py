"""Tests for ``repro.serve`` — the async render-as-a-service front end.

The server-level tests drive a real :class:`RenderServer` over loopback
TCP with :class:`RenderClient` connections, using the tiny ``mri128``
proxy and the thread backend (no fork cost) except where the point *is*
the mp backend's shared memory (the shutdown/no-leak test).  Renders
that must stay in flight deterministically go through a gated
``render_fn`` — the server's injection point — so coalescing and
backpressure are asserted, not raced.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro.parallel.poolcore import MPPoolError, PoolConfig
from repro.serve import (
    AdmissionController,
    CachedFrame,
    FrameCache,
    RenderClient,
    RenderServer,
    ServeConfig,
    ServerBusy,
    canonical_identity,
    request_key,
    response_frames,
)
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_plane,
    encode_plane,
    pack_message,
    read_message,
    read_message_sync,
    unpack_messages,
)

#: Cheapest real workload: tiny proxy volume, one thread-backend worker.
TINY = dict(default_dataset="mri128", default_scale=0.08)


def thread_config(**overrides) -> ServeConfig:
    return ServeConfig(
        pool=PoolConfig(n_procs=1, backend="thread", profile_period=0),
        **TINY,
        **overrides,
    )


def run(coro, timeout=60.0):
    """Drive one async test body with a hang guard."""
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


class GatedRender:
    """A ``render_fn`` that blocks on the pool's executor thread until
    released — keeps a render in flight for as long as a test needs."""

    def __init__(self):
        self.calls = 0
        self.release = threading.Event()

    def __call__(self, pool, views):
        self.calls += 1
        assert self.release.wait(30.0), "test forgot to release the gate"
        return RenderServer._pool_render(pool, views)


class TestProtocol:
    def test_roundtrip_across_chunk_boundaries(self):
        msgs = [{"op": "ping"}, {"op": "render", "ry": 30.0, "n": [1, 2]}]
        blob = b"".join(pack_message(m) for m in msgs)
        # Feed the stream one byte at a time: framing must never depend
        # on message boundaries aligning with reads.
        buf = bytearray()
        seen = []
        for i in range(len(blob)):
            buf += blob[i:i + 1]
            got, buf = unpack_messages(buf)
            seen.extend(got)
        assert seen == msgs

    def test_rejects_oversized_frame(self):
        header = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            unpack_messages(bytearray(header))

    @pytest.mark.parametrize("sent", [0, 1, 2, 3])
    def test_truncated_length_prefix_is_not_a_clean_eof(self, sent):
        """A stream that ends between messages is EOF (``None``); one
        that ends inside the 4-byte length prefix is a protocol error —
        in the blocking and the asyncio reader alike."""
        head = pack_message({"op": "ping"})[:sent]

        def sync_read():
            ours, theirs = socket.socketpair()
            with ours, theirs:
                theirs.sendall(head)
                theirs.shutdown(socket.SHUT_WR)
                return read_message_sync(ours)

        async def async_read():
            reader = asyncio.StreamReader()
            reader.feed_data(head)
            reader.feed_eof()
            return await read_message(reader)

        for read in (sync_read, lambda: run(async_read())):
            if sent == 0:
                assert read() is None
            else:
                with pytest.raises(ProtocolError, match="mid-message"):
                    read()

    def test_plane_roundtrip_is_exact_and_readonly(self):
        plane = np.random.default_rng(0).random((7, 5)).astype(np.float32)
        out = decode_plane(encode_plane(plane))
        assert out.dtype == np.float32 and out.shape == plane.shape
        assert np.array_equal(out, plane)
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    def test_request_key_is_canonical(self):
        a = canonical_identity("mri128", 0.12, ["binary", 60, 0.8],
                              (20.0, 30.0, 0.0), "block")
        b = canonical_identity("mri128", 0.12, ("binary", 60.0, 0.8),
                              (20, 30, 0), "block")
        assert request_key(a) == request_key(b)
        c = canonical_identity("mri128", 0.12, "mri",
                              (20.0, 30.0, 0.0), "block")
        assert request_key(c) != request_key(a)


class TestAdmission:
    def test_bounds_inflight_with_typed_rejection(self):
        adm = AdmissionController(2)
        adm.acquire()
        adm.acquire()
        with pytest.raises(ServerBusy):
            adm.acquire()
        # ServerBusy slots into the pool's typed-error hierarchy so
        # clients catch it alongside FrameFailed and friends.
        assert issubclass(ServerBusy, MPPoolError)
        adm.release()
        adm.acquire()  # slot freed


class TestFrameCache:
    def _frame(self, seed):
        rng = np.random.default_rng(seed)
        return CachedFrame.from_planes(
            rng.random((4, 4)).astype(np.float32),
            rng.random((4, 4)).astype(np.float32),
        )

    def test_content_address_distinguishes_frames(self):
        a, b = self._frame(0), self._frame(1)
        assert a.sha256 != b.sha256
        again = CachedFrame.from_planes(np.array(a.color), np.array(a.alpha))
        assert again.sha256 == a.sha256
        with pytest.raises(ValueError):
            a.color[0, 0] = 1.0

    def test_lru_eviction_and_counters(self):
        cache = FrameCache(capacity=2)
        f = {k: self._frame(k) for k in range(3)}
        cache.put("a", f[0])
        cache.put("b", f[1])
        assert cache.get("a") is f[0]  # "a" now most recent
        cache.put("c", f[2])  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is f[0] and cache.get("c") is f[2]
        assert cache.hits == 3 and cache.misses == 1


class TestServer:
    def test_coalescing_is_bit_identical(self):
        """Identical in-flight requests share ONE pool render."""
        gate = GatedRender()
        server = RenderServer(thread_config(), render_fn=gate)

        async def body():
            async with server:
                host, port = server.address
                c1 = await RenderClient.connect(host, port)
                c2 = await RenderClient.connect(host, port)
                req = {"op": "render", "ry": 30.0}
                t1 = asyncio.ensure_future(c1.request(dict(req)))
                # Leader registered: any identical request now coalesces.
                while not server._pending:
                    await asyncio.sleep(0.005)
                t2 = asyncio.ensure_future(c2.request(dict(req)))
                while server.metrics.counter("serve/coalesced").value < 1:
                    await asyncio.sleep(0.005)
                gate.release.set()
                r1, r2 = await asyncio.gather(t1, t2)
                await c1.close()
                await c2.close()
                return r1, r2

        r1, r2 = run(body())
        assert r1["status"] == r2["status"] == "ok"
        assert gate.calls == 1
        assert server.metrics.counters["serve/pool_renders"].value == 1
        assert sorted([r1["coalesced"], r2["coalesced"]]) == [False, True]
        assert r1["frames"][0]["sha256"] == r2["frames"][0]["sha256"]
        (c1_, a1), = response_frames(r1)
        (c2_, a2), = response_frames(r2)
        assert np.array_equal(c1_, c2_) and np.array_equal(a1, a2)

    def test_backpressure_rejects_with_server_busy(self):
        """Beyond max_inflight, a *distinct* request is rejected
        immediately with the typed error name on the wire."""
        gate = GatedRender()
        server = RenderServer(thread_config(max_inflight=1),
                              render_fn=gate)

        async def body():
            async with server:
                host, port = server.address
                c1 = await RenderClient.connect(host, port)
                c2 = await RenderClient.connect(host, port)
                t1 = asyncio.ensure_future(
                    c1.request({"op": "render", "ry": 30.0}))
                while not server._pending:
                    await asyncio.sleep(0.005)
                # Different identity: no coalesce, no cache — must render,
                # and the only admission slot is taken.
                busy = await c2.request({"op": "render", "ry": 99.0})
                gate.release.set()
                ok = await t1
                await c1.close()
                await c2.close()
                return ok, busy

        ok, busy = run(body())
        assert ok["status"] == "ok"
        assert busy["status"] == "error"
        assert busy["error"] == "ServerBusy"
        assert server.metrics.counters["serve/rejected"].value == 1

    def test_cache_keys_include_classification(self):
        """Same view, different transfer function: distinct frames and
        no false cache hit; repeats of each are served from cache."""
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                mri = {"op": "render", "ry": 30.0, "classification": "mri"}
                binary = {"op": "render", "ry": 30.0,
                          "classification": ["binary", 60.0, 0.8]}
                r_mri = await c.request(mri)
                r_bin = await c.request(binary)
                r_mri2 = await c.request(dict(mri))
                r_bin2 = await c.request(dict(binary))
                await c.close()
                return r_mri, r_bin, r_mri2, r_bin2

        r_mri, r_bin, r_mri2, r_bin2 = run(body())
        assert all(r["status"] == "ok"
                   for r in (r_mri, r_bin, r_mri2, r_bin2))
        assert not r_mri["cached"] and not r_bin["cached"]
        # The classification reaches the cache key: different pixels.
        assert r_mri["frames"][0]["sha256"] != r_bin["frames"][0]["sha256"]
        assert r_mri2["cached"] and r_bin2["cached"]
        assert r_mri2["frames"][0]["sha256"] == r_mri["frames"][0]["sha256"]
        assert r_bin2["frames"][0]["sha256"] == r_bin["frames"][0]["sha256"]
        (c_a, _), = response_frames(r_mri)
        (c_b, _), = response_frames(r_mri2)
        assert np.array_equal(c_a, c_b)

    def test_animation_frames_cache_individually(self):
        """An animate batch fills the frame cache one frame at a time, so
        a later single-view request for any of its frames hits."""
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                anim = await c.request({"op": "animate", "frames": 3,
                                        "ry": 30.0, "ry_step": 3.0})
                # Frame 1 of the animation == ry 33.0 as a single view.
                single = await c.request({"op": "render", "ry": 33.0})
                await c.close()
                return anim, single

        anim, single = run(body())
        assert anim["status"] == "ok" and len(anim["frames"]) == 3
        assert single["cached"] is True
        assert single["frames"][0]["sha256"] == anim["frames"][1]["sha256"]
        assert server.metrics.counters["serve/pool_renders"].value == 1

    def test_a_kernel_field_names_the_same_frame(self):
        """Pools have one kernel, so a request's ``kernel`` field is not
        part of what it asks for: after a plain request, the same one
        naming the scanline kernel is a cache hit with the same bytes,
        and no second pool is opened.  The frame sits under the key a
        ``"block"`` identity has always hashed to."""
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                plain = await c.request({"op": "render", "ry": 30.0})
                named = await c.request({"op": "render", "ry": 30.0,
                                         "kernel": "scanline"})
                await c.close()
                return plain, named, len(server._pools)

        plain, named, n_pools = run(body())
        assert not plain["cached"] and named["cached"] is True
        assert named["frames"] == plain["frames"]
        assert n_pools == 1
        assert server.metrics.counters["serve/pool_renders"].value == 1
        key = request_key(canonical_identity(
            "mri128", 0.08, "mri", (20.0, 30.0, 0.0), "block"))
        assert server.cache.get(key).sha256 == plain["frames"][0]["sha256"]

    def test_movie_op_serves_timestepped_frames(self):
        """The movie op weaves a timestep into each frame identity, the
        frames match the per-timestep serial reference bit for bit, and
        the encoded-frame counter ticks."""
        server = RenderServer(ServeConfig(
            pool=PoolConfig(n_procs=1, backend="thread", profile_period=0),
            default_dataset="beating_heart", default_scale=0.5,
        ))

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                movie = await c.request({"op": "movie", "frames": 4,
                                         "timesteps": 2, "ry": 30.0,
                                         "ry_step": 0.0})
                again = await c.request({"op": "movie", "frames": 4,
                                         "timesteps": 2, "ry": 30.0,
                                         "ry_step": 0.0})
                await c.close()
                return movie, again

        movie, again = run(body())
        assert movie["status"] == "ok" and len(movie["frames"]) == 4
        shas = [f["sha256"] for f in movie["frames"]]
        # ry_step 0: every frame shares the view, timesteps alternate
        # 0,1,0,1 — so neighbors differ (the timestep reaches the
        # pixels) and frames two apart are the same volume again.
        assert shas[0] != shas[1]
        assert shas[0] == shas[2] and shas[1] == shas[3]
        # The timestep reaches the cache key too, so the repeat hits.
        assert again["cached"] is True
        assert server.metrics.counters["movie/frames_encoded"].value == 8

        from repro.movie import beating_heart_renderer
        from repro.render.fast import render_fast
        from repro.serve.server import DEFAULT_MOVIE_TIMESTEPS

        r = beating_heart_renderer(0.5, timesteps=DEFAULT_MOVIE_TIMESTEPS)
        view = r.view_from_angles(20.0, 30.0, 0.0)
        for i, (color, alpha) in enumerate(response_frames(movie)):
            ref = render_fast(r, view, timestep=i % 2)
            assert np.array_equal(color, ref.final.color)
            assert np.array_equal(alpha, ref.final.alpha)

    def test_render_matches_serial_reference(self):
        """What comes off the wire is the renderer's own image."""
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                resp = await c.request({"op": "render", "rx": 20.0,
                                        "ry": 30.0, "rz": 0.0})
                await c.close()
                return resp

        resp = run(body())
        (color, alpha), = response_frames(resp)
        from repro.serve.server import _default_renderer_factory

        renderer = _default_renderer_factory("mri128", 0.08, "mri")
        ref = renderer.render(renderer.view_from_angles(20.0, 30.0, 0.0))
        assert np.allclose(color, ref.final.color, atol=1e-5)
        assert np.allclose(alpha, ref.final.alpha, atol=1e-5)

    def test_bad_requests_get_typed_errors_not_disconnects(self):
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                bad_op = await c.request({"op": "explode"})
                bad_cls = await c.request({"op": "render",
                                           "classification": "nope"})
                ping = await c.request({"op": "ping"})  # conn still alive
                await c.close()
                # Two bytes of a length prefix, then a half-close: the
                # server says what was wrong before it hangs up.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(pack_message({"op": "ping"})[:2])
                writer.write_eof()
                cut = await read_message(reader)
                writer.close()
                return bad_op, bad_cls, ping, cut

        bad_op, bad_cls, ping, cut = run(body())
        assert bad_op["status"] == "error"
        assert bad_cls["status"] == "error"
        assert bad_cls["error"] == "ValueError"
        assert ping["status"] == "ok"
        assert cut["status"] == "error" and cut["error"] == "ProtocolError"

    def test_shutdown_op_can_be_disabled(self):
        server = RenderServer(thread_config(allow_shutdown=False))

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                resp = await c.request({"op": "shutdown"})
                await c.close()
                return resp

        resp = run(body())
        assert resp["status"] == "error"
        assert resp["error"] == "PermissionError"


class TestIdlePoolEviction:
    def test_validation(self):
        with pytest.raises(ValueError, match="idle_pool_s"):
            thread_config(idle_pool_s=0.0)

    def test_idle_pool_is_evicted_and_rebuilt(self):
        """A pool idle past ``idle_pool_s`` is closed and forgotten; the
        next request for its identity transparently rebuilds it."""
        server = RenderServer(thread_config(idle_pool_s=0.05))

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                r1 = await c.request({"op": "render", "ry": 30.0})
                assert r1["status"] == "ok" and server._pools
                # The sweeper runs every idle_pool_s / 4: the idle pool
                # must disappear without any further requests.
                for _ in range(400):
                    if not server._pools:
                        break
                    await asyncio.sleep(0.01)
                evicted = server.metrics.counter("serve/pools_evicted").value
                pools_gone = not server._pools
                # A distinct view (cache miss) forces a fresh pool.
                r2 = await c.request({"op": "render", "ry": 33.0})
                await c.close()
                return pools_gone, evicted, r2

        pools_gone, evicted, r2 = run(body())
        assert pools_gone
        assert evicted >= 1
        assert r2["status"] == "ok"
        assert server.metrics.counters["serve/pool_renders"].value == 2

    def test_busy_pool_survives_the_sweeper(self):
        """A pool with a render in flight is never evicted, no matter
        how long the render outlives ``idle_pool_s``."""
        gate = GatedRender()
        server = RenderServer(thread_config(idle_pool_s=0.05),
                              render_fn=gate)

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                t = asyncio.ensure_future(
                    c.request({"op": "render", "ry": 30.0}))
                while not server._pools:
                    await asyncio.sleep(0.005)
                # Several sweep periods pass while the render is gated.
                await asyncio.sleep(0.3)
                still_there = bool(server._pools)
                evicted = server.metrics.counter("serve/pools_evicted").value
                gate.release.set()
                resp = await t
                await c.close()
                return still_there, evicted, resp

        still_there, evicted, resp = run(body())
        assert still_there
        assert evicted == 0
        assert resp["status"] == "ok"


class TestShardedServe:
    def test_server_drives_a_shard_fleet(self):
        """``pool.shards > 1`` makes the server's pool a shard fleet;
        nothing else about the serving path changes."""
        cfg = ServeConfig(
            pool=PoolConfig(n_procs=1, backend="thread", shards=2,
                            profile_period=0),
            **TINY,
        )
        server = RenderServer(cfg)
        from repro.shard import ShardedRenderService

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                resp = await c.request({"op": "render", "rx": 20.0,
                                        "ry": 30.0, "rz": 0.0})
                kinds = [type(pool) for pool, _ in server._pools.values()]
                await c.close()
                return resp, kinds

        resp, kinds = run(body())
        assert resp["status"] == "ok"
        assert kinds == [ShardedRenderService]
        (color, alpha), = response_frames(resp)
        from repro.serve.server import _default_renderer_factory

        renderer = _default_renderer_factory("mri128", 0.08, "mri")
        ref = renderer.render(renderer.view_from_angles(20.0, 30.0, 0.0))
        assert np.allclose(color, ref.final.color, atol=1e-5)
        assert np.allclose(alpha, ref.final.alpha, atol=1e-5)


class TestShutdownNoLeak:
    def test_close_releases_every_shm_segment(self):
        """The mp pools' shared-memory segments are unlinked by
        ``server.close()`` — no leak even with a client connected."""
        cfg = ServeConfig(
            pool=PoolConfig(n_procs=2, profile_period=0), **TINY
        )
        server = RenderServer(cfg)

        async def body():
            await server.start()
            host, port = server.address
            c = await RenderClient.connect(host, port)
            resp = await c.request({"op": "render", "ry": 30.0})
            assert resp["status"] == "ok"
            names = []
            for pool, _ in server._pools.values():
                names += [pool._shm_i.name, pool._shm_f.name]
            # Deliberately close the server with the client still
            # connected: teardown must not depend on polite clients.
            await server.close()
            await c.close()
            return names

        names = run(body())
        assert names, "the render must have created an mp pool"
        from multiprocessing import shared_memory as sm

        for name in names:
            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)
