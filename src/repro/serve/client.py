"""Clients for the render service: an asyncio client and a blocking
one-shot helper.

:class:`RenderClient` is what the load-generator benchmark and the
tests drive (one connection, many requests); :func:`request_once` is
the blocking convenience for scripts and shell one-liners.  Both return
the response header with its raw sections attached (see
:mod:`repro.serve.protocol`); :func:`response_frames` turns a render
response's sections into image planes without copying them.
"""

from __future__ import annotations

import asyncio
import math
import socket

import numpy as np

from .protocol import ProtocolError, pack_message, read_message, read_message_sync

__all__ = ["RenderClient", "request_once", "response_frames"]


def _plane(d: dict, sections: list) -> np.ndarray:
    """One plane of a response: a read-only ``float32`` view of the
    section it names, once the section, dtype and shape agree."""
    i, shape, dtype = d["section"], d["shape"], d["dtype"]
    if type(i) is not int or not 0 <= i < len(sections):
        raise ProtocolError(f"plane names section {i!r} of {len(sections)}")
    if dtype != "float32":
        raise ProtocolError(f"plane dtype {dtype!r} is not float32")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ProtocolError(f"bad plane shape {shape!r}")
    if math.prod(shape) * 4 != sections[i].nbytes:
        raise ProtocolError(
            f"plane of shape {shape} does not fill its "
            f"{sections[i].nbytes}-byte section")
    return np.frombuffer(sections[i], dtype=np.float32).reshape(shape)


def response_frames(resp: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """A render/animate/movie response's frames as ``(color, alpha)``
    read-only arrays over the response's own sections."""
    sections = resp.get("sections", [])
    try:
        return [
            (_plane(f["color"], sections), _plane(f["alpha"], sections))
            for f in resp.get("frames", [])
        ]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad frame entry in response: {exc!r}") from exc


class RenderClient:
    """One connection to a :class:`~repro.serve.server.RenderServer`.

    Usage::

        client = await RenderClient.connect(host, port)
        resp = await client.request({"op": "render", "ry": 30.0})
        (color, alpha), = response_frames(resp)
        await client.close()

    Requests on one client are serialized (the protocol is strict
    request/response per connection); concurrency comes from opening
    one client per logical user, as the benchmark does.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "RenderClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        async with self._lock:
            self._writer.write(pack_message(payload))
            await self._writer.drain()
            resp = await read_message(self._reader)
        if resp is None:
            raise ConnectionError("server closed the connection")
        return resp

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def request_once(host: str, port: int, payload: dict,
                 timeout: float = 30.0) -> dict:
    """Blocking one-shot: connect, send one request, return the response."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(pack_message(payload))
        resp = read_message_sync(sock)
    if resp is None:
        raise ConnectionError("server closed the connection")
    return resp
