"""Wire protocol of the render service: length-prefixed JSON messages.

One message = a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  JSON keeps the protocol transparent (every request and
response is printable) and the length prefix keeps framing trivial for
both asyncio streams and blocking sockets; image planes travel inside
the JSON as base64-encoded raw ``float32`` bytes, so responses are
byte-for-byte comparable — the property the coalescing and caching
tests pin down.

Request identity
----------------
Two requests are *the same render* when their canonical identity dicts
match: dataset, proxy scale, classification spec and viewing angles.
The identity also names a compositing kernel; the server always passes
``"block"``, the pools' one kernel, so keys keep their historical
bytes.  :func:`request_key` hashes the canonical JSON of
that identity — the content address used by both the in-flight
coalescing map and the whole-frame cache.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import socket
import struct

import numpy as np

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "pack_message",
    "unpack_messages",
    "read_message",
    "read_message_sync",
    "canonical_identity",
    "request_key",
    "encode_plane",
    "decode_plane",
]

#: Refuse messages larger than this (a corrupt length prefix must not
#: make the server allocate gigabytes).
MAX_MESSAGE_BYTES = 64 << 20

_LEN = struct.Struct(">I")


class ProtocolError(ValueError):
    """Malformed frame or message (bad length, bad JSON, bad payload)."""


def pack_message(obj: dict) -> bytes:
    """Serialize one message: 4-byte big-endian length + UTF-8 JSON."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(body)} bytes exceeds limit")
    return _LEN.pack(len(body)) + body


def _parse_body(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message body: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("message body must be a JSON object")
    return obj


def unpack_messages(buf: bytes) -> tuple[list[dict], bytes]:
    """Split a byte buffer into complete messages plus the unconsumed tail."""
    out: list[dict] = []
    while len(buf) >= _LEN.size:
        (n,) = _LEN.unpack_from(buf)
        if n > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"declared message length {n} exceeds limit")
        if len(buf) < _LEN.size + n:
            break
        out.append(_parse_body(buf[_LEN.size:_LEN.size + n]))
        buf = buf[_LEN.size + n:]
    return out, buf


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one message from an asyncio stream; ``None`` on clean EOF
    (the stream ends *between* messages — a cut length prefix is not)."""
    try:
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-message") from exc
        return None
    except ConnectionError:
        return None
    (n,) = _LEN.unpack(head)
    if n > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {n} exceeds limit")
    try:
        body = await reader.readexactly(n)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ProtocolError("connection closed mid-message") from exc
    return _parse_body(body)


def read_message_sync(sock: socket.socket) -> dict | None:
    """Blocking-socket twin of :func:`read_message` (used by the CLI
    one-shot client and the CI smoke)."""
    head = _recv_exact(sock, _LEN.size)
    if not head:
        return None
    if len(head) < _LEN.size:
        raise ProtocolError("connection closed mid-message")
    (n,) = _LEN.unpack(head)
    if n > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {n} exceeds limit")
    body = _recv_exact(sock, n)
    if len(body) < n:
        raise ProtocolError("connection closed mid-message")
    return _parse_body(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """The next ``n`` bytes — fewer only if the peer closed first."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            break
        chunks.extend(chunk)
    return bytes(chunks)


# -- request identity ---------------------------------------------------------


def canonical_identity(
    dataset: str,
    scale: float,
    classification,
    view: tuple[float, float, float],
    kernel: str,
) -> dict:
    """The canonical form of what makes two render requests identical.

    ``classification`` is a transfer-function spec: a preset name
    (``"mri"``, ``"ct"``) or ``["binary", threshold, opacity]``.  Floats
    are round-tripped through ``float()`` so JSON canonicalization is
    stable regardless of the caller's numeric types.
    """
    if isinstance(classification, str):
        cls_spec: object = classification
    else:
        cls_spec = [classification[0]] + [float(x) for x in classification[1:]]
    return {
        "dataset": str(dataset),
        "scale": float(scale),
        "classification": cls_spec,
        "view": [float(a) for a in view],
        "kernel": str(kernel),
    }


def request_key(identity: dict) -> str:
    """Content address of a render request (sha256 of canonical JSON)."""
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- image payloads -----------------------------------------------------------


def encode_plane(a: np.ndarray) -> dict:
    """Base64-wrap one float32 image plane for a JSON response."""
    a = np.ascontiguousarray(a, dtype=np.float32)
    return {
        "shape": list(a.shape),
        "dtype": "float32",
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_plane(d: dict) -> np.ndarray:
    """Inverse of :func:`encode_plane` (returns a read-only array)."""
    try:
        raw = base64.b64decode(d["data"])
        a = np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad image plane payload: {exc}") from exc
    a.setflags(write=False)
    return a
