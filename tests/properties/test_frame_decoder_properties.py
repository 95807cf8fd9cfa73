"""The wire's frame decoder on arbitrary and hostile bytes.

:func:`repro.service.wire.recv_frame` (blocking, fed through a
``socketpair``) and :func:`~repro.service.wire.recv_frame_async` (fed
through ``StreamReader.feed_data`` and ``feed_eof``) read the same
12-byte header.  Whatever bytes arrive before the peer hangs up, each
must either return the payload of a well-formed frame or raise
:class:`~repro.service.wire.WireError` (``ConnectionClosed`` included),
and never anything else.  A header that announces the largest allowed
frame must not make the decoder allocate for it before the bytes come.
"""

import asyncio
import pickle
import socket
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire

HEADER = struct.Struct(">4sHI")

#: Payloads a peer might send: plain data, nested.
payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def frame(payload, *, magic=wire.MAGIC, version=None, length=None) -> bytes:
    """One frame of *payload*, its header fields overridable."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    version = wire.WIRE_VERSION if version is None else version
    length = len(body) if length is None else length
    return HEADER.pack(magic, version, length) + body


def decode_blocking(data: bytes):
    """Send *data*, hang up, and read one frame off the other end."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(data)
        theirs.shutdown(socket.SHUT_WR)
        ours.settimeout(5)
        return wire.recv_frame(ours)


def decode_async(data: bytes):
    """Feed *data* and end-of-stream to a reader and read one frame."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.recv_frame_async(reader)

    return asyncio.run(main())


DECODERS = pytest.mark.parametrize("decode", [decode_blocking, decode_async],
                                   ids=["blocking", "async"])


def outcome(decode, data: bytes):
    """``("ok", payload)`` or ``("wire-error", exc)``; anything else raises."""
    try:
        return "ok", decode(data)
    except wire.WireError as exc:
        return "wire-error", exc


def well_formed(data: bytes) -> bool:
    if len(data) < HEADER.size:
        return False
    magic, version, length = HEADER.unpack_from(data)
    return (magic == wire.MAGIC and version == wire.WIRE_VERSION
            and length <= wire.MAX_FRAME_BYTES
            and len(data) >= HEADER.size + length)


@DECODERS
@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes(decode, data):
    kind, value = outcome(decode, data)
    if kind == "ok":
        assert well_formed(data)


@DECODERS
@settings(max_examples=100, deadline=None)
@given(payload=payloads, trailing=st.binary(max_size=16))
def test_well_formed_frames_round_trip(decode, payload, trailing):
    assert decode(frame(payload) + trailing) == payload


@DECODERS
@settings(max_examples=100, deadline=None)
@given(payload=payloads, magic=st.binary(min_size=4, max_size=4).filter(
    lambda m: m != wire.MAGIC))
def test_bad_magic(decode, payload, magic):
    with pytest.raises(wire.WireError, match="magic"):
        decode(frame(payload, magic=magic))


@DECODERS
@settings(max_examples=100, deadline=None)
@given(payload=payloads,
       version=st.integers(0, 0xFFFF).filter(lambda v: v != wire.WIRE_VERSION))
def test_other_versions(decode, payload, version):
    with pytest.raises(wire.WireError, match="version mismatch"):
        decode(frame(payload, version=version))


@DECODERS
@settings(max_examples=100, deadline=None)
@given(payload=payloads,
       length=st.integers(wire.MAX_FRAME_BYTES + 1, 0xFFFFFFFF))
def test_lengths_above_the_bound(decode, payload, length):
    with pytest.raises(wire.WireError, match="bound"):
        decode(frame(payload, length=length))


@DECODERS
@settings(max_examples=150, deadline=None)
@given(payload=payloads, data=st.data())
def test_truncated_headers_and_bodies(decode, payload, data):
    whole = frame(payload)
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    with pytest.raises(wire.ConnectionClosed):
        decode(whole[:cut])


@DECODERS
@settings(max_examples=100, deadline=None)
@given(payload=payloads, data=st.data())
def test_bodies_that_do_not_unpickle(decode, payload, data):
    # The header is sound and the body is the announced length, but its
    # bytes are cut from a pickle: a transport fault, not a shard error.
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    cut = data.draw(st.integers(0, len(body) - 1), label="cut")
    truncated = frame(payload, length=cut)[:HEADER.size + cut]
    kind, value = outcome(decode, truncated)
    assert kind == "wire-error" or value == pickle.loads(body[:cut])


@DECODERS
def test_announced_maximum_allocates_only_what_arrives(decode):
    data = HEADER.pack(wire.MAGIC, wire.WIRE_VERSION,
                       wire.MAX_FRAME_BYTES) + bytes(100)
    tracemalloc.start()
    try:
        with pytest.raises(wire.ConnectionClosed):
            decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Nothing sizes a buffer by the announced 1 GiB, and the blocking
    # decoder's receives are small enough that what it holds tracks what
    # arrived.
    assert peak < 128 << 10, peak
