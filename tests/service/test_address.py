"""The shared address grammar: one parser for every dialable endpoint."""

import pytest

from repro.service.address import format_address, parse_address


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("worker-3:7737") == ("worker-3", 7737)

    def test_ipv4_string(self):
        assert parse_address("10.1.2.3:80") == ("10.1.2.3", 80)

    def test_bracketed_ipv6(self):
        assert parse_address("[::1]:9000") == ("::1", 9000)
        assert parse_address("[fe80::2%eth0]:7737") == ("fe80::2%eth0", 7737)

    def test_tuple_passthrough(self):
        assert parse_address(("localhost", 7737)) == ("localhost", 7737)
        assert parse_address(("localhost", "7737")) == ("localhost", 7737)

    def test_tuple_host_brackets_stripped(self):
        assert parse_address(("[::1]", 9000)) == ("::1", 9000)

    def test_portless_rejected(self):
        with pytest.raises(ValueError, match="has no port"):
            parse_address("localhost")

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError, match="has no port"):
            parse_address(":7737")
        with pytest.raises(ValueError, match="empty host"):
            parse_address("[]:7737")

    def test_unbracketed_ipv6_rejected_with_fix_hint(self):
        with pytest.raises(ValueError, match=r"bracket IPv6 hosts as "
                                             r"'\[::1\]:9000'"):
            parse_address("::1:9000")

    def test_non_numeric_port_rejected(self):
        with pytest.raises(ValueError, match="non-numeric port"):
            parse_address("host:http")

    def test_out_of_range_port_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_address("host:70000")
        with pytest.raises(ValueError, match="out of range"):
            parse_address(("host", -1))

    def test_junk_rejected(self):
        with pytest.raises(ValueError, match="not 'host:port'"):
            parse_address(7737)


class TestFormatAddress:
    def test_plain_host(self):
        assert format_address("worker-3", 7737) == "worker-3:7737"

    def test_ipv6_host_bracketed(self):
        assert format_address("::1", 9000) == "[::1]:9000"

    def test_round_trip(self):
        for text in ("worker-3:7737", "[::1]:9000", "10.0.0.1:1"):
            assert format_address(*parse_address(text)) == text


class TestSharedAcrossTheStack:
    def test_remote_executor_accepts_bracketed_ipv6(self):
        """The executor must parse (not dial) a bracketed IPv6 endpoint —
        construction-time validation only."""
        from repro.service.executor import RemoteExecutor

        ex = RemoteExecutor(["[::1]:9000"])
        assert ex.workers.addresses == [("::1", 9000)]

    def test_remote_executor_rejects_portless(self):
        from repro.service.executor import RemoteExecutor

        with pytest.raises(ValueError, match="has no port"):
            RemoteExecutor(["localhost"])

    def test_membership_normalises_seeds(self):
        from repro.cluster.membership import ClusterMembership

        membership = ClusterMembership(
            "[::1]:7000", seeds=[("127.0.0.1", 7001), "[::2]:7002"]
        )
        assert membership.self_address == "[::1]:7000"
        assert membership.seeds == ("127.0.0.1:7001", "[::2]:7002")

    def test_membership_rejects_typoed_seed_at_boot(self):
        from repro.cluster.membership import ClusterMembership

        with pytest.raises(ValueError, match="has no port"):
            ClusterMembership("127.0.0.1:7000", seeds=["localhost"])
