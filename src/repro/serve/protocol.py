"""Wire protocol of the render service: length-prefixed JSON headers,
optionally followed by raw byte sections.

One message = a 4-byte big-endian length, that many bytes of UTF-8 JSON
(the *header*), then — only when the header has ``"sections": [n0, n1,
…]`` — that many raw bytes, section after section.  JSON keeps the
protocol transparent (every header is printable) and the length prefix
keeps framing trivial for both asyncio streams and blocking sockets.  A
message without a ``sections`` key is exactly the JSON message it has
always been, so requests, ``ping``, ``stats`` and errors never carry
sections.

Image planes travel as sections: a response names each plane as
``{"shape", "dtype": "float32", "section": i}`` and section *i* holds its
raw C-order ``float32`` bytes.  The server writes a cached frame's
read-only planes as they are (:func:`pack_sections` hands ``writelines``
the header and a ``memoryview`` per plane — no encoding on a cache hit),
and every reader here hands the sections back as read-only
``memoryview`` objects in place of the header's byte counts, which
:func:`~repro.serve.client.response_frames` wraps with
``np.frombuffer``.  A section table that is not a list of non-negative
ints, or whose total with the header exceeds :data:`MAX_MESSAGE_BYTES`,
is a :class:`ProtocolError`, raised before anything is allocated.

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
import itertools
import json
import socket
import struct

import numpy as np

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "pack_message",
    "pack_sections",
    "unpack_messages",
    "read_message",
    "read_message_sync",
    "canonical_identity",
    "request_key",
    "encode_plane",
    "decode_plane",
]

#: Refuse messages larger than this, header and sections together (a
#: corrupt length prefix or section table must not make the server
#: allocate gigabytes).
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


def pack_sections(obj: dict, sections) -> list:
    """One message with raw byte sections after its header, as the parts
    to hand ``writelines``: ``[length + header, *sections]``.

    ``sections`` are C-contiguous buffers (a cached frame's read-only
    planes), sent as they are: only the header is encoded, and it gains
    their byte counts as its ``"sections"`` table.  With no sections the
    one part is :func:`pack_message`'s message, byte for byte.
    """
    views = [memoryview(s).cast("B") for s in sections]
    if not views:
        return [pack_message(obj)]
    head = pack_message({**obj, "sections": [v.nbytes for v in views]})
    total = len(head) - _LEN.size + sum(v.nbytes for v in views)
    if total > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {total} bytes exceeds limit")
    return [head, *views]


def _parse_header(body) -> tuple[dict, list[int] | None]:
    """The header as a dict, and its validated section table (``None``
    when it has none)."""
    try:
        obj = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message body: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("message body must be a JSON object")
    if "sections" not in obj:
        return obj, None
    sizes = obj["sections"]
    if not isinstance(sizes, list) or not all(
        type(n) is int and n >= 0 for n in sizes
    ):
        raise ProtocolError("section table must be a list of non-negative ints")
    total = len(body) + sum(sizes)
    if total > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {total} exceeds limit")
    return obj, sizes


def _attach_sections(obj: dict, data, sizes: list[int]) -> None:
    """Replace the header's byte counts with read-only views of ``data``."""
    view = memoryview(data).toreadonly()
    starts = itertools.accumulate(sizes, initial=0)
    obj["sections"] = [view[a:a + n] for a, n in zip(starts, sizes)]


def unpack_messages(buf: bytes) -> tuple[list[dict], bytes]:
    """Split a byte buffer into complete messages plus the unconsumed tail
    (a message's sections are sliced, so copied, out of ``buf``)."""
    out: list[dict] = []
    while len(buf) >= _LEN.size:
        (n,) = _LEN.unpack_from(buf)
        if n > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"declared message length {n} exceeds limit")
        end = _LEN.size + n
        if len(buf) < end:
            break
        obj, sizes = _parse_header(buf[_LEN.size:end])
        if sizes is not None:
            start, end = end, end + sum(sizes)
            if len(buf) < end:
                break
            _attach_sections(obj, buf[start:end], sizes)
        out.append(obj)
        buf = buf[end:]
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
        obj, sizes = _parse_header(body)
        if sizes is not None:
            _attach_sections(obj, await reader.readexactly(sum(sizes)), sizes)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ProtocolError("connection closed mid-message") from exc
    return obj


def read_message_sync(sock: socket.socket) -> dict | None:
    """Blocking-socket twin of :func:`read_message` (used by the
    one-shot client :func:`~repro.serve.client.request_once`); the
    sections are received into one preallocated buffer."""
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
    obj, sizes = _parse_header(body)
    if sizes is not None:
        total = sum(sizes)
        data = _recv_exact(sock, total)
        if len(data) < total:
            raise ProtocolError("connection closed mid-message")
        _attach_sections(obj, data, sizes)
    return obj


def _recv_exact(sock: socket.socket, n: int) -> memoryview:
    """The next ``n`` bytes, received into one buffer of that size —
    fewer only if the peer closed first."""
    view = memoryview(bytearray(n))
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            break
        got += k
    return view[:got]


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
    """Base64-wrap one float32 image plane as a JSON dict.

    No server or client path uses this: planes travel as raw sections
    (:func:`pack_sections`).  It stays, with :func:`decode_plane`, for
    the layer probe of ``benchmarks/e2e/layers.py``, which still times
    the base64 encoding the wire format no longer takes.
    """
    a = np.ascontiguousarray(a, dtype=np.float32)
    return {
        "shape": list(a.shape),
        "dtype": "float32",
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_plane(d: dict) -> np.ndarray:
    """Inverse of :func:`encode_plane` (returns a read-only array); like
    it, used by no server or client path."""
    try:
        raw = base64.b64decode(d["data"])
        a = np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad image plane payload: {exc}") from exc
    a.setflags(write=False)
    return a
