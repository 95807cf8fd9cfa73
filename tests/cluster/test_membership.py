"""Unit tests of the gossip membership table: heartbeat merges, suspicion
expiry, worker propagation, and the exported wire form."""

import pytest

from repro.cluster import ClusterMembership, MemberState


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestIdentity:
    def test_bind_is_first_wins(self):
        m = ClusterMembership()
        m.bind("10.0.0.1:7736")
        m.bind("10.0.0.2:7736")  # later bind must not change identity
        assert m.self_address == "10.0.0.1:7736"

    def test_bump_requires_bind(self):
        with pytest.raises(RuntimeError, match="bound"):
            ClusterMembership().bump()

    def test_bind_discards_stale_self_entry(self):
        """An entry for our own address relayed by a peer before we bound
        must not shadow the authoritative self entry."""
        m = ClusterMembership()
        m.merge({"10.0.0.1:7736": {"heartbeat": 99, "workers": [], "load": 0}})
        m.bind("10.0.0.1:7736")
        m.bump()
        assert m.snapshot()["10.0.0.1:7736"].heartbeat == 1

    def test_bump_advances_heartbeat_and_refreshes_self(self):
        m = ClusterMembership("a:1")
        assert m.bump(workers=["w:1"], load=2) == 1
        assert m.bump(workers=["w:1", "w:2"], load=0) == 2
        state = m.snapshot()["a:1"]
        assert state.heartbeat == 2
        assert state.workers == ("w:1", "w:2")
        assert state.load == 0


class TestMerge:
    def test_newer_heartbeat_wins_stale_loses(self):
        m = ClusterMembership("a:1")
        assert m.merge(
            {"b:1": {"heartbeat": 5, "workers": ["w:1"], "load": 1}}
        ) == ["b:1"]
        # A stale relay (same or older heartbeat) must not regress state.
        m.merge({"b:1": {"heartbeat": 4, "workers": [], "load": 9}})
        m.merge({"b:1": {"heartbeat": 5, "workers": [], "load": 9}})
        assert m.snapshot()["b:1"].workers == ("w:1",)
        m.merge({"b:1": {"heartbeat": 6, "workers": ["w:2"], "load": 0}})
        assert m.snapshot()["b:1"].workers == ("w:2",)

    def test_own_entry_is_never_overwritten(self):
        m = ClusterMembership("a:1")
        m.bump(load=0)
        m.merge({"a:1": {"heartbeat": 99, "workers": ["evil"], "load": 9}})
        assert m.snapshot()["a:1"].heartbeat == 1
        assert m.snapshot()["a:1"].workers == ()

    def test_malformed_entries_are_skipped(self):
        m = ClusterMembership("a:1")
        m.merge({
            "b:1": {"heartbeat": "NaN-ish", "workers": [], "load": 0},
            "c:1": {"no-heartbeat": True},
            "d:1": {"heartbeat": 3, "workers": ["w:3"], "load": 0},
        })
        assert m.peers() == ["d:1"]

    def test_merge_returns_only_newly_learned(self):
        m = ClusterMembership("a:1")
        assert m.merge({"b:1": {"heartbeat": 1, "workers": [], "load": 0}}) == ["b:1"]
        assert m.merge({"b:1": {"heartbeat": 2, "workers": [], "load": 0}}) == []


class TestExpiry:
    def test_stalled_heartbeats_age_out(self):
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.bump()
        m.merge({"b:1": {"heartbeat": 1, "workers": [], "load": 0}})
        clock.now += 9.0
        assert m.drop_expired() == []
        clock.now += 2.0
        assert m.drop_expired() == ["b:1"]
        assert m.peers() == []
        assert m.stats()["expiries"] == 1

    def test_refreshed_members_survive(self):
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.merge({"b:1": {"heartbeat": 1, "workers": [], "load": 0}})
        clock.now += 8.0
        m.merge({"b:1": {"heartbeat": 2, "workers": [], "load": 0}})
        clock.now += 8.0
        assert m.drop_expired() == []

    def test_expired_member_is_not_resurrected_by_relayed_echo(self):
        """Regression: survivors keep relaying a dead member's last entry
        to each other; without a tombstone the drop + relayed re-add would
        oscillate forever and the corpse would never leave the cluster."""
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.bump()
        m.merge({"x:1": {"heartbeat": 50, "workers": ["w:x"], "load": 0}})
        clock.now += 11.0
        assert m.drop_expired() == ["x:1"]
        # Another survivor still carries X's last entry and relays it.
        m.merge({"x:1": {"heartbeat": 50, "workers": ["w:x"], "load": 0}})
        m.merge({"x:1": {"heartbeat": 49, "workers": ["w:x"], "load": 0}})
        assert m.peers() == []
        assert "x:1" in m.stats()["tombstones"]

    def test_direct_contact_clears_the_tombstone(self):
        """A restarted member's heartbeat restarts below its death value —
        only direct contact (it gossips to us itself) can prove it back."""
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.merge({"x:1": {"heartbeat": 50, "workers": [], "load": 0}})
        clock.now += 11.0
        m.drop_expired()
        # Relayed echo of the restart is still blocked (1 <= 50)...
        m.merge({"x:1": {"heartbeat": 1, "workers": [], "load": 0}})
        assert m.peers() == []
        # ...but the member contacting us directly clears the tombstone.
        m.merge({"x:1": {"heartbeat": 1, "workers": [], "load": 0}},
                direct_from="x:1")
        assert m.peers() == ["x:1"]
        assert m.stats()["tombstones"] == []

    def test_direct_contact_supersedes_live_stale_entry(self):
        """A member that restarts *inside* the suspicion window (no
        tombstone yet) re-announces with a heartbeat below its old entry;
        direct contact must replace the stale state immediately instead of
        freezing the member at its pre-restart worker list for a window."""
        m = ClusterMembership("a:1")
        m.merge({"b:1": {"heartbeat": 500, "workers": ["w:old"], "load": 0}})
        # Relayed low heartbeat still loses...
        m.merge({"b:1": {"heartbeat": 1, "workers": ["w:new"], "load": 0}})
        assert m.snapshot()["b:1"].workers == ("w:old",)
        # ...but B itself gossiping to us is authoritative.
        m.merge({"b:1": {"heartbeat": 1, "workers": ["w:new"], "load": 0}},
                direct_from="b:1")
        assert m.snapshot()["b:1"].workers == ("w:new",)
        assert m.snapshot()["b:1"].heartbeat == 1

    def test_heartbeat_above_tombstone_also_revives(self):
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.merge({"x:1": {"heartbeat": 50, "workers": [], "load": 0}})
        clock.now += 11.0
        m.drop_expired()
        m.merge({"x:1": {"heartbeat": 51, "workers": [], "load": 0}})
        assert m.peers() == ["x:1"]

    def test_tombstones_themselves_expire(self):
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=10.0, clock=clock)
        m.merge({"x:1": {"heartbeat": 50, "workers": [], "load": 0}})
        clock.now += 11.0
        m.drop_expired()
        assert m.stats()["tombstones"] == ["x:1"]
        clock.now += 4 * 10.0
        m.drop_expired()
        assert m.stats()["tombstones"] == []

    def test_self_entry_never_expires(self):
        clock = FakeClock()
        m = ClusterMembership("a:1", suspicion_timeout=1.0, clock=clock)
        m.bump()
        clock.now += 100.0
        assert m.drop_expired() == []
        assert "a:1" in m.snapshot()


class TestTargetsAndExport:
    def test_gossip_targets_are_peers_plus_seeds_minus_self(self):
        m = ClusterMembership("a:1", seeds=["seed:1", "a:1"])
        m.merge({"b:1": {"heartbeat": 1, "workers": [], "load": 0}})
        assert m.gossip_targets() == ["b:1", "seed:1"]
        assert m.peers() == ["b:1"]

    def test_export_round_trips_through_merge(self):
        a = ClusterMembership("a:1")
        a.bump(workers=["w:1"], load=3)
        a.merge({"c:1": {"heartbeat": 7, "workers": ["w:7"], "load": 0}})
        b = ClusterMembership("b:1")
        b.merge(a.export())
        assert sorted(b.peers()) == ["a:1", "c:1"]
        assert b.snapshot()["a:1"].workers == ("w:1",)
        assert b.snapshot()["c:1"].heartbeat == 7

    def test_cluster_workers_dedupe_prefers_least_loaded_owner(self):
        m = ClusterMembership("a:1")
        m.bump(workers=["w:shared", "w:a"], load=5)
        m.merge({"b:1": {"heartbeat": 1,
                         "workers": ["w:shared", "w:b"], "load": 1}})
        owners = m.cluster_workers()
        assert owners["w:shared"] == "b:1"  # load 1 beats load 5
        assert owners["w:a"] == "a:1" and owners["w:b"] == "b:1"

    def test_member_state_export_is_wire_shaped(self):
        state = MemberState(address="x:1", heartbeat=4, workers=("w:1",),
                            load=2, last_refresh=123.0)
        assert state.export() == {"heartbeat": 4, "workers": ["w:1"],
                                  "load": 2}

    def test_validation(self):
        with pytest.raises(ValueError, match="suspicion_timeout"):
            ClusterMembership(suspicion_timeout=0.0)
