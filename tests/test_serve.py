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
import hashlib
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.parallel.poolcore as poolcore
from repro.parallel import RenderBackend
from repro.parallel.poolcore import MPPoolError, PoolConfig
from repro.render.fast import render_fast
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
    request_once,
    response_frames,
)
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_plane,
    encode_plane,
    pack_message,
    pack_sections,
    read_message,
    read_message_sync,
    unpack_messages,
)
from repro.serve.server import _default_renderer_factory

#: Cheapest real workload: tiny proxy volume, one thread-backend worker.
TINY = dict(default_dataset="mri128", default_scale=0.08)


def thread_config(**overrides) -> ServeConfig:
    return ServeConfig(
        pool=PoolConfig(n_procs=1, backend="thread"),
        **TINY,
        **overrides,
    )


def run(coro, timeout=60.0):
    """Drive one async test body with a hang guard."""
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


class GatedRender:
    """A ``render_fn`` that blocks on its render-executor thread until
    released — keeps a render in flight for as long as a test needs.
    ``calls`` counts the renders that have entered, concurrent ones
    included."""

    def __init__(self):
        self.calls = 0
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, pool, views):
        with self._lock:
            self.calls += 1
        assert self.release.wait(30.0), "test forgot to release the gate"
        return RenderServer._pool_render(pool, views)


def read_sync(blob: bytes) -> list[dict]:
    """Every message ``read_message_sync`` finds in ``blob`` before a
    clean EOF (the socket times out rather than hang)."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.settimeout(10.0)
        theirs.sendall(blob)
        theirs.shutdown(socket.SHUT_WR)
        out = []
        while (msg := read_message_sync(ours)) is not None:
            out.append(msg)
        return out


def read_async(blob: bytes) -> list[dict]:
    """The same through ``read_message`` on an asyncio stream."""
    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        out = []
        while (msg := await read_message(reader)) is not None:
            out.append(msg)
        return out

    return run(body(), timeout=10.0)


STREAM_READERS = [read_sync, read_async]


def plane_header(a: np.ndarray, section) -> dict:
    return {"shape": list(a.shape), "dtype": "float32", "section": section}


def reply(pairs) -> tuple[dict, list[np.ndarray]]:
    """A render reply for ``(color, alpha)`` pairs, and its sections."""
    frames = [
        {"sha256": "", "color": plane_header(c, 2 * k),
         "alpha": plane_header(a, 2 * k + 1)}
        for k, (c, a) in enumerate(pairs)
    ]
    return {"status": "ok", "frames": frames}, [p for pair in pairs for p in pair]


def wire(resp: dict, sections) -> bytes:
    return b"".join(pack_sections(resp, sections))


#: Small float32 planes (any bits, NaNs included: compared as bytes).
PLANE = hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2,
                                                min_side=1, max_side=6))
PAIRS = st.lists(st.tuples(PLANE, PLANE), min_size=1, max_size=3)


def as_bytes(pairs) -> list[tuple[bytes, bytes]]:
    return [(c.tobytes(), a.tobytes()) for c, a in pairs]


class TestSections:
    """Planes as raw sections after the JSON header, through all three
    readers — and framing fuzz: every bad input ends in a
    ``ProtocolError`` (or a clean ``None`` at EOF), never in another
    exception or a hang."""

    def test_a_message_without_sections_is_unchanged(self):
        msg = {"status": "ok", "op": "ping", "version": "x"}
        assert pack_sections(msg, []) == [pack_message(msg)]

    @settings(max_examples=40, deadline=None)
    @given(pairs=PAIRS)
    def test_planes_roundtrip_through_every_reader(self, pairs):
        """Bytes in, same bytes out, read-only, with the framing in step:
        the message after the reply is read intact."""
        resp, sections = reply(pairs)
        blob = wire(resp, sections) + pack_message({"op": "ping"})
        (got, ping), tail = unpack_messages(blob)
        streams = [read(blob) for read in STREAM_READERS]
        for msgs in [[got, ping]] + streams:
            assert msgs[1] == {"op": "ping"}
            assert len(msgs[0]["sections"]) == 2 * len(pairs)
            frames = response_frames(msgs[0])
            assert as_bytes(frames) == as_bytes(pairs)
            assert [(c.shape, a.shape) for c, a in frames] == \
                [(c.shape, a.shape) for c, a in pairs]
            assert not any(x.flags.writeable for f in frames for x in f)
        assert tail == b""

    @settings(max_examples=40, deadline=None)
    @given(pairs=PAIRS, data=st.data())
    def test_a_cut_message_is_a_protocol_error(self, pairs, data):
        """Cut inside the header or inside the sections: the stream
        readers say so; ``unpack_messages`` keeps waiting for the rest."""
        blob = wire(*reply(pairs))
        head = 4 + int.from_bytes(blob[:4], "big")
        cut = data.draw(st.one_of(st.integers(1, head - 1),
                                  st.integers(head, len(blob) - 1)))
        part = blob[:cut]
        for read in STREAM_READERS:
            with pytest.raises(ProtocolError, match="mid-message"):
                read(part)
        assert unpack_messages(part) == ([], part)

    @settings(max_examples=60, deadline=None)
    @given(body=st.one_of(
        st.binary(max_size=48),
        st.sampled_from([b"[]", b"3", b'"x"', b"null", b"{", b"\xff{}"]),
    ))
    def test_a_header_that_is_not_a_json_object_is_a_protocol_error(self, body):
        try:
            assume(not isinstance(json.loads(body.decode("utf-8")), dict))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        blob = len(body).to_bytes(4, "big") + body
        for read in STREAM_READERS:
            with pytest.raises(ProtocolError):
                read(blob)
        with pytest.raises(ProtocolError):
            unpack_messages(blob)

    @settings(max_examples=60, deadline=None)
    @given(table=st.one_of(
        st.lists(st.integers(max_value=-1), min_size=1, max_size=3),
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.text(max_size=3), st.booleans(), st.none(),
                           st.lists(st.integers(0, 9), max_size=2)),
                 min_size=1, max_size=3),
        st.one_of(st.integers(), st.text(max_size=3), st.booleans(),
                  st.none(), st.dictionaries(st.text(max_size=2),
                                             st.integers(), max_size=2)),
    ))
    def test_a_malformed_section_table_is_a_protocol_error(self, table):
        blob = pack_message({"status": "ok", "sections": table})
        for read in STREAM_READERS:
            with pytest.raises(ProtocolError, match="section table"):
                read(blob)
        with pytest.raises(ProtocolError, match="section table"):
            unpack_messages(blob)

    @settings(max_examples=30, deadline=None)
    @given(table=st.lists(st.integers(0, 2**40), min_size=1, max_size=4)
           .filter(lambda t: sum(t) >= MAX_MESSAGE_BYTES))
    def test_a_section_table_past_the_size_limit_is_refused_unread(self, table):
        """Refused from the header alone: nothing is allocated and no
        section byte is waited for (the stream has none)."""
        blob = pack_message({"status": "ok", "sections": table})
        for read in STREAM_READERS:
            with pytest.raises(ProtocolError, match="exceeds limit"):
                read(blob)
        with pytest.raises(ProtocolError, match="exceeds limit"):
            unpack_messages(blob)

    @settings(max_examples=60, deadline=None)
    @given(pairs=PAIRS, fault=st.sampled_from(
        ["section", "dtype", "shape", "missing"]), data=st.data())
    def test_a_plane_that_disagrees_with_its_section_is_a_protocol_error(
        self, pairs, fault, data
    ):
        """Framing is fine, the plane header is not: the message reads,
        and ``response_frames`` refuses it."""
        resp, sections = reply(pairs)
        k = data.draw(st.integers(0, len(pairs) - 1))
        name = data.draw(st.sampled_from(["color", "alpha"]))
        plane = resp["frames"][k][name]
        if fault == "section":
            plane["section"] = data.draw(st.one_of(
                st.integers(max_value=-1), st.integers(min_value=len(sections)),
                st.floats(), st.text(max_size=2), st.none()))
        elif fault == "dtype":
            plane["dtype"] = data.draw(st.sampled_from(
                ["float64", "uint8", "<f4", "", None, 4]))
        elif fault == "shape":
            nbytes = sections[plane["section"]].nbytes
            shape = data.draw(st.one_of(
                st.lists(st.integers(-3, 40), max_size=3),
                st.lists(st.floats(0, 9), min_size=1, max_size=2),
                st.integers(), st.none()))
            assume(not (isinstance(shape, list)
                        and all(type(n) is int and n >= 0 for n in shape)
                        and int(np.prod(shape)) * 4 == nbytes))
            plane["shape"] = shape
        else:
            del plane[data.draw(st.sampled_from(["section", "dtype", "shape"]))]
        blob = wire(resp, sections)
        msgs = [unpack_messages(blob)[0]] + [read(blob) for read in STREAM_READERS]
        for (msg,) in msgs:
            with pytest.raises(ProtocolError):
                response_frames(msg)


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
        for read in STREAM_READERS:
            if sent == 0:
                assert read(head) == []
            else:
                with pytest.raises(ProtocolError, match="mid-message"):
                    read(head)

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

    @settings(max_examples=50)
    @given(shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                  max_side=6),
           order=st.sampled_from("CF"), dtype=st.sampled_from(
               [np.float32, np.float64]))
    def test_the_digest_hashes_the_planes_bytes(self, shape, order, dtype):
        """Hashing the contiguous planes in place gives the digest of
        their copied bytes, whatever layout and dtype they came in."""
        rng = np.random.default_rng(sum(shape))
        color, alpha = (np.asarray(rng.random(shape), dtype=dtype, order=order)
                        for _ in range(2))
        digest = hashlib.sha256()
        for plane in (color, alpha):
            digest.update(np.ascontiguousarray(plane, np.float32).tobytes())
        assert CachedFrame.from_planes(color, alpha).sha256 == digest.hexdigest()

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

    def test_two_misses_on_one_pool_render_at_once(self):
        """Two clients' distinct misses on one pool are both inside the
        render at once — two frames in the pool, counted once as an
        overlap — and both are the serial fast path's frames."""
        gate = GatedRender()
        server = RenderServer(thread_config(), render_fn=gate)
        angles = [(20.0, 30.0, 0.0), (20.0, 40.0, 0.0)]

        async def body():
            async with server:
                host, port = server.address
                clients = [await RenderClient.connect(host, port)
                           for _ in angles]
                tasks = [asyncio.ensure_future(c.request(
                    {"op": "render", "rx": rx, "ry": ry, "rz": rz}))
                    for c, (rx, ry, rz) in zip(clients, angles)]
                for _ in range(500):
                    if gate.calls == 2:
                        break
                    await asyncio.sleep(0.01)
                both_inside = gate.calls == 2
                gate.release.set()
                resps = await asyncio.gather(*tasks)
                for c in clients:
                    await c.close()
                return both_inside, resps

        both_inside, resps = run(body())
        assert both_inside, "the second miss waited for the first render"
        assert server.metrics.counter("serve/overlapped_renders").value == 1
        renderer = _default_renderer_factory("mri128", 0.08, "mri")
        for resp, angle in zip(resps, angles):
            assert resp["status"] == "ok", resp
            (color, alpha), = response_frames(resp)
            ref = render_fast(renderer, renderer.view_from_angles(*angle))
            assert np.array_equal(color, ref.final.color)
            assert np.array_equal(alpha, ref.final.alpha)

    def test_a_miss_behind_a_frame_out_goes_solo(self, monkeypatch):
        """Each render submits, then blocks on a gate before ``result``,
        and the workers hold their first composite until the gate opens:
        the first client's frame is out, whole on worker 0, when the
        second client's miss reaches the two-worker pool, so that one
        goes whole to worker 1, the least loaded.  Both replies are the serial
        fast path's frames."""
        release = threading.Event()
        composite_range = poolcore.composite_range

        def held(*args, **kwargs):
            assert release.wait(30.0), "test forgot to release the gate"
            return composite_range(*args, **kwargs)

        monkeypatch.setattr(poolcore, "composite_range", held)
        submitted = []

        def render_fn(pool, views):
            ids = pool.submit_batch(
                [pool.renderer.view_from_angles(*v) for v in views])
            submitted.append(ids)
            assert release.wait(30.0), "test forgot to release the gate"
            return [(r.final.color, r.final.alpha)
                    for r in map(pool.result, ids)]

        server = RenderServer(ServeConfig(
            pool=PoolConfig(n_procs=2, backend="thread"), **TINY),
            render_fn=render_fn)
        angles = [(20.0, 30.0, 0.0), (20.0, 40.0, 0.0)]

        async def body():
            async with server:
                clients = [await RenderClient.connect(*server.address)
                           for _ in angles]
                tasks = []
                for c, (rx, ry, rz) in zip(clients, angles):
                    # One at a time: the second miss finds the first out.
                    tasks.append(asyncio.ensure_future(c.request(
                        {"op": "render", "rx": rx, "ry": ry, "rz": rz})))
                    for _ in range(500):
                        if len(submitted) == len(tasks):
                            break
                        await asyncio.sleep(0.01)
                both_out = submitted == [[0], [1]]
                release.set()
                resps = await asyncio.gather(*tasks)
                stats = await clients[0].request({"op": "stats"})
                for c in clients:
                    await c.close()
                return both_out, resps, stats

        both_out, resps, stats = run(body())
        assert both_out, "the second miss did not reach the pool in time"
        assert stats["metrics"]["counters"]["pool/solo_frames"] == 2
        renderer = _default_renderer_factory("mri128", 0.08, "mri")
        for resp, angle in zip(resps, angles):
            assert resp["status"] == "ok", resp
            (color, alpha), = response_frames(resp)
            ref = render_fast(renderer, renderer.view_from_angles(*angle))
            assert np.array_equal(color, ref.final.color)
            assert np.array_equal(alpha, ref.final.alpha)

    def test_one_executor_drives_every_pool(self):
        """Three pools, one render executor of ``max_inflight`` threads,
        no thread of a pool's own; the pool map holds the backends."""
        server = RenderServer(thread_config(max_inflight=1))

        async def body():
            async with server:
                c = await RenderClient.connect(*server.address)
                resps = [await c.request({"op": "render", "scale": scale})
                         for scale in (0.06, 0.07, 0.08)]
                await c.close()
                names = [t.name for t in threading.enumerate()]
                return resps, list(server._pools.values()), names

        resps, pools, names = run(body())
        assert all(r["status"] == "ok" for r in resps)
        assert len(pools) == 3
        assert all(isinstance(p, RenderBackend) for p in pools)
        assert sum(n.startswith("serve-render") for n in names) == 1
        assert not any(n.startswith("serve-pool") for n in names)
        # Present at 0: these renders came one after another.
        snap = server.metrics_snapshot()
        assert snap["counters"]["serve/overlapped_renders"] == 0

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
            pool=PoolConfig(n_procs=1, backend="thread"),
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
        assert np.array_equal(color, ref.final.color)
        assert np.array_equal(alpha, ref.final.alpha)

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

    @pytest.mark.parametrize("table", [[-1], "3", [1.5], [MAX_MESSAGE_BYTES]])
    def test_a_bad_section_table_is_answered_and_others_are_served(self, table):
        """A request whose header declares a bad section table gets the
        typed error and its connection is closed; a second client's
        cache hit is served all the same."""
        server = RenderServer(thread_config())

        async def body():
            async with server:
                host, port = server.address
                good = await RenderClient.connect(host, port)
                first = await good.request({"op": "render", "ry": 30.0})
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(pack_message({"op": "render", "sections": table}))
                bad = await read_message(reader)
                after = await read_message(reader)
                writer.close()
                hit = await good.request({"op": "render", "ry": 30.0})
                await good.close()
                return first, bad, after, hit

        first, bad, after, hit = run(body())
        assert bad["status"] == "error" and bad["error"] == "ProtocolError"
        assert after is None
        assert hit["status"] == "ok" and hit["cached"] is True
        assert as_bytes(response_frames(hit)) == as_bytes(response_frames(first))

    def test_the_blocking_client_reads_the_same_planes(self):
        """``request_once`` (``read_message_sync``) returns the planes
        ``RenderClient`` does, read-only."""
        server = RenderServer(thread_config())
        req = {"op": "render", "ry": 30.0}

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                via_async = await c.request(dict(req))
                await c.close()
                via_sync = await asyncio.to_thread(
                    request_once, host, port, dict(req))
                return via_async, via_sync

        via_async, via_sync = run(body())
        assert via_sync["cached"] is True
        frames = response_frames(via_sync)
        assert as_bytes(frames) == as_bytes(response_frames(via_async))
        (color, alpha), = frames
        assert color.shape == alpha.shape and color.ndim == 2
        assert not color.flags.writeable and not alpha.flags.writeable

    def test_multi_frame_replies_are_two_sections_a_frame(self):
        """An ``animate`` of 3 (read by the blocking client) and a
        ``movie`` of 3 (by the asyncio client) carry 6 sections each,
        and every frame is serial ``render_fast``'s, bit for bit."""
        server = RenderServer(thread_config())
        anim_req = {"op": "animate", "frames": 3, "ry": 30.0, "ry_step": 3.0}
        movie_req = {"op": "movie", "frames": 3, "timesteps": 2,
                     "dataset": "beating_heart", "scale": 0.5,
                     "ry": 30.0, "ry_step": 5.0}

        async def body():
            async with server:
                host, port = server.address
                anim = await asyncio.to_thread(
                    request_once, host, port, anim_req)
                c = await RenderClient.connect(host, port)
                movie = await c.request(movie_req)
                await c.close()
                return anim, movie

        anim, movie = run(body())
        for resp in (anim, movie):
            assert resp["status"] == "ok" and len(resp["sections"]) == 6
        mri = _default_renderer_factory("mri128", 0.08, "mri")
        heart = _default_renderer_factory("beating_heart", 0.5, "mri")
        for i, ((ca, aa), (cm, am)) in enumerate(
            zip(response_frames(anim), response_frames(movie))
        ):
            ref = render_fast(mri, mri.view_from_angles(20.0, 30.0 + 3 * i, 0.0))
            assert np.array_equal(ca, ref.final.color)
            assert np.array_equal(aa, ref.final.alpha)
            ref = render_fast(heart, heart.view_from_angles(
                20.0, 30.0 + 5 * i, 0.0), timestep=i % 2)
            assert np.array_equal(cm, ref.final.color)
            assert np.array_equal(am, ref.final.alpha)

    def test_bytes_sent_counts_a_hit_exactly(self):
        """``serve/bytes_sent`` grows by exactly what a hit puts on the
        wire — length prefix, header, the two planes — and the ``stats``
        op reports it."""
        server = RenderServer(thread_config())
        req = {"op": "render", "ry": 30.0}

        async def body():
            async with server:
                host, port = server.address
                c = await RenderClient.connect(host, port)
                miss = await c.request(dict(req))
                before = server.metrics.counter("serve/bytes_sent").value
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(pack_message(dict(req)))
                n = int.from_bytes(await reader.readexactly(4), "big")
                header = json.loads(await reader.readexactly(n))
                await reader.readexactly(sum(header["sections"]))
                after = server.metrics.counter("serve/bytes_sent").value
                writer.close()
                stats = await c.request({"op": "stats"})
                await c.close()
                return miss, header, n, after - before, stats

        miss, header, n, sent, stats = run(body())
        assert header["cached"] is True
        (color, alpha), = response_frames(miss)
        assert header["sections"] == [color.nbytes, alpha.nbytes]
        assert sent == 4 + n + color.nbytes + alpha.nbytes
        assert stats["metrics"]["counters"]["serve/bytes_sent"] >= sent

    def test_stats_counts_the_frames_dealt_whole(self):
        """An ``animate`` is one pool batch, dealt whole ("solo") to a
        two-worker pool's workers, and a ``render`` miss into the idle
        pool goes whole to one worker too.  The live ``stats`` op
        reports the exact ``pool/solo_frames`` count: every frame the
        pool rendered."""
        server = RenderServer(ServeConfig(
            pool=PoolConfig(n_procs=2, backend="thread"), **TINY))

        async def body():
            async with server:
                c = await RenderClient.connect(*server.address)
                before = await c.request({"op": "stats"})
                anim = await c.request({"op": "animate", "frames": 3,
                                        "ry": 30.0, "ry_step": 4.0})
                miss = await c.request({"op": "render", "ry": 80.0})
                after = await c.request({"op": "stats"})
                await c.close()
                return before, anim, miss, after

        before, anim, miss, after = run(body())
        assert anim["status"] == miss["status"] == "ok"
        assert "pool/solo_frames" not in before["metrics"]["counters"]
        counters = after["metrics"]["counters"]
        assert counters["pool/solo_frames"] == counters["serve/pool_frames"] == 4

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
            pool=PoolConfig(n_procs=1, backend="thread", shards=2),
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
                kinds = [type(pool) for pool in server._pools.values()]
                await c.close()
                return resp, kinds

        resp, kinds = run(body())
        assert resp["status"] == "ok"
        assert kinds == [ShardedRenderService]
        (color, alpha), = response_frames(resp)
        from repro.serve.server import _default_renderer_factory

        renderer = _default_renderer_factory("mri128", 0.08, "mri")
        ref = renderer.render(renderer.view_from_angles(20.0, 30.0, 0.0))
        assert np.array_equal(color, ref.final.color)
        assert np.array_equal(alpha, ref.final.alpha)


class TestShutdownNoLeak:
    def test_close_releases_every_shm_segment(self):
        """The mp pools' shared-memory segments are unlinked by
        ``server.close()`` — no leak even with a client connected."""
        cfg = ServeConfig(
            pool=PoolConfig(n_procs=2), **TINY
        )
        server = RenderServer(cfg)

        async def body():
            await server.start()
            host, port = server.address
            c = await RenderClient.connect(host, port)
            resp = await c.request({"op": "render", "ry": 30.0})
            assert resp["status"] == "ok"
            names = []
            for pool in server._pools.values():
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
