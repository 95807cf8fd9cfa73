"""Cache peering unit tests: digest verification, probe fallback order,
peer timeouts, and the cluster-wide single-flight wait."""

import socket
import threading
import time

import pytest

from repro.cluster import (
    CachePeers,
    ClusterMembership,
    PeerPayloadError,
    decode_cached_report,
    encode_cached_report,
)
from repro.service.wire import recv_frame, send_frame


class TestDigest:
    def test_round_trip(self):
        body, digest = encode_cached_report({"report": [1, 2, 3]})
        assert decode_cached_report(body, digest) == {"report": [1, 2, 3]}

    def test_tampered_payload_rejected(self):
        body, digest = encode_cached_report({"report": [1, 2, 3]})
        tampered = bytes([body[0] ^ 0xFF]) + body[1:]
        with pytest.raises(PeerPayloadError, match="digest mismatch"):
            decode_cached_report(tampered, digest)

    def test_wrong_digest_rejected(self):
        body, _ = encode_cached_report("x")
        _, other = encode_cached_report("y")
        with pytest.raises(PeerPayloadError):
            decode_cached_report(body, other)


class _FakePeer:
    """A one-connection-at-a-time fake cache peer with a scripted reply."""

    def __init__(self, reply=None, *, delay=0.0):
        self.reply = reply
        self.delay = delay
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                try:
                    conn.settimeout(5.0)
                    self.requests.append(recv_frame(conn))
                    if self.delay:
                        # Interruptible, so close() never waits out a hung
                        # peer's delay.
                        self._stop.wait(self.delay)
                    if self.reply is not None:
                        send_frame(conn, self.reply)
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self._sock.close()
        self._thread.join(timeout=5)


def _membership_with_peers(*addresses) -> ClusterMembership:
    m = ClusterMembership("self:1")
    for i, address in enumerate(addresses):
        m.merge({address: {"heartbeat": 1 + i, "workers": [], "load": 0}})
    return m


class TestCachePeers:
    def test_hit_from_first_peer_with_entry(self):
        body, digest = encode_cached_report({"answer": 42})
        peer = _FakePeer(("cache-found", body, digest))
        try:
            peers = CachePeers(_membership_with_peers(peer.address))
            assert peers.fetch("key-1") == {"answer": 42}
            assert peers.stats()["hits"] == 1
            assert peer.requests == [("cache-peek", "key-1",
                                      peers.inflight_wait)]
        finally:
            peer.close()

    def test_miss_everywhere_returns_none(self):
        peer = _FakePeer(("cache-none",))
        try:
            peers = CachePeers(_membership_with_peers(peer.address))
            assert peers.fetch("key-1") is None
            assert peers.stats()["misses"] == 1
        finally:
            peer.close()

    def test_uncacheable_key_short_circuits(self):
        peers = CachePeers(_membership_with_peers("127.0.0.1:1"))
        assert peers.fetch(None) is None

    def test_corrupt_payload_rejected_not_served(self):
        """A lone corrupt peer yields a miss, never a poisoned report."""
        body, digest = encode_cached_report({"answer": 42})
        bad = _FakePeer(("cache-found", body[:-1] + b"X", digest))
        try:
            peers = CachePeers(_membership_with_peers(bad.address))
            assert peers.fetch("k") is None
            assert peers.stats()["mismatches"] == 1
            assert peers.stats()["hits"] == 0
        finally:
            bad.close()

    def test_unpicklable_payload_counts_as_mismatch_not_crash(self):
        """A version-skewed peer whose payload does not even unpickle must
        cost a counted mismatch, not an exception out of the probe."""
        import pickle

        body = pickle.dumps("placeholder")
        import hashlib

        garbage = b"\x80\x05not-a-pickle."
        digest = hashlib.sha256(garbage).hexdigest()
        bad = _FakePeer(("cache-found", garbage, digest))
        try:
            peers = CachePeers(_membership_with_peers(bad.address))
            assert peers.fetch("k") is None
            assert peers.stats()["mismatches"] == 1
        finally:
            bad.close()

    def test_corrupt_peer_does_not_block_good_peer(self):
        """With probes now concurrent, a corrupt peer alongside a good one
        still yields the verified report (whichever probe lands first)."""
        body, digest = encode_cached_report({"answer": 42})
        bad = _FakePeer(("cache-found", body[:-1] + b"X", digest))
        good = _FakePeer(("cache-found", body, digest))
        try:
            peers = CachePeers(
                _membership_with_peers(bad.address, good.address)
            )
            assert peers.fetch("k") == {"answer": 42}
            assert peers.stats()["hits"] == 1
            peers.close()
        finally:
            bad.close()
            good.close()

    def test_dead_peer_falls_through_to_next(self):
        body, digest = encode_cached_report("value")
        live = _FakePeer(("cache-found", body, digest))
        probe = socket.create_server(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        try:
            peers = CachePeers(
                _membership_with_peers(dead, live.address),
                connect_timeout=0.5,
            )
            assert peers.fetch("k") == "value"
            assert peers.stats()["hits"] == 1
            # Probes run concurrently: the dead peer's error may land just
            # after fetch returned with the live peer's hit.
            for _ in range(200):
                if peers.stats()["errors"] == 1:
                    break
                time.sleep(0.01)
            assert peers.stats()["errors"] == 1
            peers.close()
        finally:
            live.close()

    def test_hung_peer_times_out_within_budget(self):
        """A peer that accepts but never answers must cost one bounded
        timeout and a miss — the caller then computes locally."""
        hung = _FakePeer(reply=None, delay=30.0)
        try:
            peers = CachePeers(
                _membership_with_peers(hung.address),
                connect_timeout=0.5, reply_timeout=0.3, inflight_wait=0.2,
                total_budget=2.0,
            )
            start = time.monotonic()
            assert peers.fetch("k") is None
            assert time.monotonic() - start < 2.5
            assert peers.stats()["errors"] == 1
            assert peers.stats()["misses"] == 1
        finally:
            hung.close()

    def test_total_budget_bounds_a_rack_of_hung_peers(self):
        hung = [_FakePeer(reply=None, delay=30.0) for _ in range(3)]
        try:
            peers = CachePeers(
                _membership_with_peers(*(p.address for p in hung)),
                connect_timeout=0.5, reply_timeout=5.0, inflight_wait=5.0,
                total_budget=0.8,
            )
            start = time.monotonic()
            assert peers.fetch("k") is None
            # Probes run concurrently and as_completed gives up at the
            # total budget, so three hung peers cost one budget, not three.
            assert time.monotonic() - start < 2.0
            peers.close()
        finally:
            for p in hung:
                p.close()
