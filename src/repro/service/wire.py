"""Length-prefixed wire format shared by workers, servers, and clients.

One frame = a fixed 12-byte header followed by a pickled payload::

    +------+---------+-----------------+----------------+
    | RPRO | version | payload length  | pickle payload |
    | 4 B  | 2 B BE  | 4 B BE unsigned | length bytes   |
    +------+---------+-----------------+----------------+

Every frame carries the protocol version, and a receiver accepts exactly
:data:`WIRE_VERSION`, so a peer from another build is detected on the
*first* message rather than by a mid-stream unpickling crash.

**Versioning rule:** workers, servers and clients deploy from one build.
Any change to a message's layout or meaning bumps :data:`WIRE_VERSION`;
new message types need no bump (unknown types get an ``("error", ...)``
reply).  Each request message has one arity, and the dialer's metadata
dict is always present:

- ``("shard", func, task, rng, meta)`` (worker): ``meta`` may carry
  ``deadline_s`` (the request's remaining budget in seconds — monotonic
  clocks do not transfer between hosts), ``trace_id``,
  ``parent_span_id`` and ``backend`` (a non-numpy kernel backend);
- ``("register", address, meta)`` (server): ``meta["backends"]`` lists the
  worker's kernel backends;
- ``("submit", request, targets, batch, timeout, meta)`` (server):
  ``meta`` may carry ``trace_id``.

A frame of any other shape gets the standard ``("error", ...)`` reply.
Receivers read the meta keys they know and ignore the rest.

Payloads are pickles: compact, and numpy generators/arrays round-trip with
bit-exact state, which is what keeps remote shard execution bit-identical
to the in-process path.  Pickle also means frames can execute code on the
receiver — both ends of every connection must be trusted (see the package
docstring).
"""

from __future__ import annotations

import asyncio
import io
import pickle
import socket
import struct

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "WireError",
    "ConnectionClosed",
    "send_frame",
    "recv_frame",
    "send_frame_async",
    "recv_frame_async",
]

#: Protocol version — bump on any change to a message's layout or meaning
#: (see module docstring).
WIRE_VERSION = 5

#: Frame magic: identifies the stream as the repro shard protocol.
MAGIC = b"RPRO"

#: Header: magic, version, payload byte length.
_HEADER = struct.Struct(">4sHI")

#: Upper bound on one frame's payload (1 GiB) — a corrupted or hostile
#: length field must not trigger a giant allocation.
MAX_FRAME_BYTES = 1 << 30


class WireError(RuntimeError):
    """Malformed frame: bad magic, version mismatch, or oversized payload."""


class ConnectionClosed(WireError):
    """The peer closed the stream (mid-frame or between frames)."""


def _encode(payload: object) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame payload of {len(body)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte bound")
    return _HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body


def _check_header(header: bytes) -> int:
    magic, version, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (not a repro peer?)")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks v{version}, this process "
            f"speaks v{WIRE_VERSION} (deploy both ends from one build)"
        )
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame announces {length} bytes, above the "
                        f"{MAX_FRAME_BYTES}-byte bound")
    return length


def _decode(body: bytes) -> object:
    try:
        return pickle.loads(body)
    except Exception as exc:
        # A frame whose header decoded but whose payload does not unpickle
        # (corruption in transit, chaos injection) is a *transport*
        # failure: surface it as WireError so dialers requeue the shard
        # instead of treating it as a deterministic shard error.
        raise WireError(
            f"undecodable frame payload ({type(exc).__name__}: {exc})"
        ) from exc


# ------------------------------------------------------------- blocking I/O

def send_frame(sock: socket.socket, payload: object) -> None:
    """Serialise *payload* and write one frame to a blocking socket."""
    sock.sendall(_encode(payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {n} bytes unread"
            )
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def recv_frame(sock: socket.socket) -> object:
    """Read one frame from a blocking socket and return its payload.

    Raises:
        ConnectionClosed: the peer hung up (cleanly or mid-frame).
        WireError: bad magic, another wire version, or oversized frame.
    """
    length = _check_header(_recv_exact(sock, _HEADER.size))
    return _decode(_recv_exact(sock, length))


# -------------------------------------------------------------- asyncio I/O

async def send_frame_async(writer: asyncio.StreamWriter,
                           payload: object) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(_encode(payload))
    await writer.drain()


async def recv_frame_async(reader: asyncio.StreamReader) -> object:
    """Read one frame from an asyncio stream and return its payload."""
    try:
        length = _check_header(await reader.readexactly(_HEADER.size))
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosed("peer closed the connection mid-frame") from exc
    return _decode(body)
