"""Frame-level tests of the length-prefixed wire format."""

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.service import wire


def _socketpair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestRoundTrip:
    @pytest.mark.parametrize(
        "payload",
        [
            ("ping",),
            {"nested": [1, 2.5, "x"]},
            ("result", list(range(1000))),
        ],
    )
    def test_objects_round_trip(self, payload):
        a, b = _socketpair()
        try:
            wire.send_frame(a, payload)
            assert wire.recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_numpy_round_trips_bit_exact(self):
        a, b = _socketpair()
        try:
            arr = np.random.default_rng(7).standard_normal(257)
            wire.send_frame(a, arr)
            out = wire.recv_frame(b)
            assert out.dtype == arr.dtype and np.array_equal(out, arr)
        finally:
            a.close()
            b.close()

    def test_generator_state_round_trips(self):
        """RNG streams must survive the wire with bit-exact state — the
        foundation of remote/local result identity."""
        a, b = _socketpair()
        try:
            rng = np.random.default_rng(123)
            rng.standard_normal(10)  # advance to a nontrivial state
            wire.send_frame(a, rng)
            clone = wire.recv_frame(b)
            assert np.array_equal(
                clone.standard_normal(16), rng.standard_normal(16)
            )
        finally:
            a.close()
            b.close()

    def test_many_frames_pipeline(self):
        a, b = _socketpair()
        try:
            for i in range(50):
                wire.send_frame(a, ("n", i))
            assert [wire.recv_frame(b) for _ in range(50)] == [
                ("n", i) for i in range(50)
            ]
        finally:
            a.close()
            b.close()


class TestFailureModes:
    def test_peer_close_between_frames(self):
        a, b = _socketpair()
        a.close()
        try:
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_peer_close_mid_frame(self):
        a, b = _socketpair()
        try:
            frame = wire._encode(("result", list(range(100))))
            a.sendall(frame[: len(frame) // 2])
            a.close()
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_bad_magic_rejected(self):
        a, b = _socketpair()
        try:
            a.sendall(struct.pack(">4sHI", b"EVIL", wire.WIRE_VERSION, 4) + b"ABCD")
            with pytest.raises(wire.WireError, match="magic"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_version_mismatch_rejected(self):
        a, b = _socketpair()
        try:
            a.sendall(
                struct.pack(">4sHI", b"RPRO", wire.WIRE_VERSION + 1, 4) + b"ABCD"
            )
            with pytest.raises(wire.WireError, match="version mismatch"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = _socketpair()
        try:
            a.sendall(struct.pack(">4sHI", b"RPRO", wire.WIRE_VERSION,
                                  wire.MAX_FRAME_BYTES + 1))
            with pytest.raises(wire.WireError, match="bound"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()


class TestAsyncio:
    def test_async_round_trip(self):
        import asyncio

        async def main():
            server_got = []

            async def handler(reader, writer):
                server_got.append(await wire.recv_frame_async(reader))
                await wire.send_frame_async(writer, ("ack", server_got[-1]))
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            await wire.send_frame_async(writer, {"q": 1})
            reply = await wire.recv_frame_async(reader)
            writer.close()
            server.close()
            await server.wait_closed()
            return server_got, reply

        import asyncio as aio

        got, reply = aio.run(main())
        assert got == [{"q": 1}]
        assert reply == ("ack", {"q": 1})


def _raw_frame(payload, version: int) -> bytes:
    """A frame as another build would write it: same layout, other
    version."""
    body = pickle.dumps(payload)
    return struct.pack(">4sHI", wire.MAGIC, version, len(body)) + body


def _send_raw(address, frame: bytes):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(frame)
        return wire.recv_frame(sock)


def _ask(address, message):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        wire.send_frame(sock, message)
        return wire.recv_frame(sock)


def _with_server(registry, scenario):
    """Run ``scenario(address)`` in a thread against a live SearchServer."""
    import asyncio

    from repro.engine import SearchEngine
    from repro.service.scheduler import SearchService
    from repro.service.server import SearchServer

    async def main():
        async with SearchService(SearchEngine()) as service:
            server = SearchServer(service, registry=registry)
            await server.start()
            try:
                return await asyncio.to_thread(scenario, server.address)
            finally:
                await server.stop()

    return asyncio.run(main())


class TestOneVersion:
    """A receiver accepts exactly WIRE_VERSION: a peer from another build
    is told so on its first frame."""

    def test_previous_version_rejected_by_both_receivers(self):
        import asyncio

        a, b = _socketpair()
        try:
            a.sendall(_raw_frame(("ping",), wire.WIRE_VERSION - 1))
            with pytest.raises(wire.WireError, match="version mismatch"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

        async def read_async():
            reader = asyncio.StreamReader()
            reader.feed_data(_raw_frame(("ping",), wire.WIRE_VERSION - 1))
            reader.feed_eof()
            return await wire.recv_frame_async(reader)

        with pytest.raises(wire.WireError, match="version mismatch"):
            asyncio.run(read_async())

    def test_worker_and_server_answer_with_the_mismatch(self):
        from repro.service.worker import WorkerServer

        old_ping = _raw_frame(("ping",), wire.WIRE_VERSION - 1)
        with WorkerServer() as worker:
            reply = _send_raw(worker.address, old_ping)
        assert reply[0] == "error"
        assert reply[1].startswith("wire version mismatch")
        reply = _with_server(None, lambda addr: _send_raw(addr, old_ping))
        assert reply[0] == "error"
        assert reply[1].startswith("wire version mismatch")

    def test_dialer_retires_a_lane_whose_worker_speaks_another_version(self):
        from repro.resilience import RetryPolicy
        from repro.service._testing import echo_shard
        from repro.service.executor import RemoteExecutor

        srv = socket.create_server(("127.0.0.1", 0))
        srv.settimeout(0.05)
        stop = threading.Event()
        connections = []

        def serve_other_build():
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socket.timeout:
                    continue
                connections.append(conn)
                conn.recv(1 << 16)
                conn.sendall(_raw_frame(("result", "x"),
                                        wire.WIRE_VERSION - 1))

        thread = threading.Thread(target=serve_other_build, daemon=True)
        thread.start()
        try:
            ex = RemoteExecutor(
                [srv.getsockname()[:2]], fallback_local=True, timeout=5.0,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01,
                                  max_delay=0.02),
            )
            assert ex.run_shards(echo_shard, [1, 2]) == [1, 2]
        finally:
            stop.set()
            thread.join(timeout=5.0)
            srv.close()
            for conn in connections:
                conn.close()
        assert len(connections) == 1
        assert ex.last_run["retries"] == 0
        assert ex.last_run["local_fallback_shards"] == 2
        (dead,) = ex.last_run["dead_workers"]
        assert "wire version mismatch" in dead["error"]


class TestOneArityPerMessage:
    """Each request message has one shape; any other gets an error reply."""

    def test_four_tuple_shard_is_an_error(self):
        from repro.service._testing import echo_shard
        from repro.service.worker import WorkerServer

        with WorkerServer() as worker:
            reply = _ask(worker.address, ("shard", echo_shard, 1, None))
            assert reply[0] == "error"
            assert "(shard, func, task, rng, meta)" in reply[1]
            assert worker.shards_served == 0

    def test_two_tuple_register_and_five_tuple_submit_are_errors(self):
        from repro.engine import SearchRequest
        from repro.service.registry import WorkerRegistry

        registry = WorkerRegistry()

        def scenario(address):
            return (
                _ask(address, ("register", "127.0.0.1:7737")),
                _ask(address, ("submit", SearchRequest(n_items=16,
                                                       n_blocks=4),
                               None, False, None)),
            )

        register, submit = _with_server(registry, scenario)
        assert register[0] == "error"
        assert "(register, 'host:port', meta)" in register[1]
        assert len(registry) == 0
        assert submit[0] == "error"
        assert "timeout, meta)" in submit[1]
