"""ClusterWorkers: cluster-wide worker resolution, least-loaded ranking,
and local fallback when the fleet is empty or gone."""

import socket

from repro.cluster import ClusterMembership, ClusterWorkers
from repro.resilience import BreakerRegistry
from repro.service._testing import echo_shard
from repro.service.executor import RemoteExecutor
from repro.service.registry import WorkerRegistry
from repro.service.worker import WorkerServer


def _addr(worker: WorkerServer) -> str:
    return f"{worker.address[0]}:{worker.address[1]}"


class TestWorkerResolution:
    def test_empty_cluster_runs_locally(self):
        ex = RemoteExecutor(
            ClusterWorkers(ClusterMembership("a:1"), WorkerRegistry()),
            fallback_local=True,
        )
        assert ex.run_shards(echo_shard, [1, 2, 3]) == [1, 2, 3]
        assert ex.last_run == {"addresses": [], "local": True,
                               "quarantined": []}
        assert ex.describe()["executor"] == "cluster"

    def test_local_registry_workers_are_used(self):
        reg = WorkerRegistry()
        ex = RemoteExecutor(ClusterWorkers(ClusterMembership("a:1"), reg),
                            fallback_local=True, timeout=30.0)
        with WorkerServer() as worker:
            reg.add(_addr(worker))
            assert ex.run_shards(echo_shard, list(range(4))) == list(range(4))
            assert worker.shards_served == 4
            assert ex.last_run["local"] is False

    def test_gossiped_workers_of_other_members_are_used(self):
        """The acceptance-path half: a worker registered at a *different*
        replica (known only through membership state) executes shards
        submitted here."""
        membership = ClusterMembership("a:1")
        with WorkerServer() as worker:
            membership.merge({
                "b:1": {"heartbeat": 1, "workers": [_addr(worker)], "load": 0}
            })
            ex = RemoteExecutor(
                ClusterWorkers(membership, WorkerRegistry()),
                fallback_local=True, timeout=30.0,
            )
            assert ex.run_shards(echo_shard, [5, 6]) == [5, 6]
            assert worker.shards_served == 2
            assert ex.last_run["addresses"] == [_addr(worker)]

    def test_ranking_least_loaded_member_first_and_capped_at_shards(self):
        membership = ClusterMembership("a:1")
        membership.merge({
            "busy:1": {"heartbeat": 1, "workers": ["w:90", "w:91"], "load": 9},
            "idle:1": {"heartbeat": 1, "workers": ["w:10", "w:11"], "load": 0},
        })
        assert ClusterWorkers(membership, None).ranked() \
            == ["w:10", "w:11", "w:90", "w:91"]
        # With fewer shards than workers, only the least-loaded lanes open.
        with WorkerServer() as worker:
            membership.merge({
                "idle:1": {"heartbeat": 2, "workers": [_addr(worker)],
                           "load": 0},
                "busy:1": {"heartbeat": 2, "workers": ["127.0.0.1:9"],
                           "load": 9},
            })
            ex = RemoteExecutor(ClusterWorkers(membership, None),
                                fallback_local=True, timeout=30.0)
            assert ex.run_shards(echo_shard, [1]) == [1]
            assert ex.last_run["addresses"] == [_addr(worker)]
            assert worker.shards_served == 1

    def test_local_registry_ranks_ahead_of_gossip_and_dedupes(self):
        reg = WorkerRegistry()
        reg.add("w:1")
        membership = ClusterMembership("a:1")
        membership.bump(workers=["w:1"], load=0)  # own entry repeats w:1
        membership.merge({
            "b:1": {"heartbeat": 1, "workers": ["w:1", "w:2"], "load": 0}
        })
        assert ClusterWorkers(membership, reg).ranked() == ["w:1", "w:2"]

    def test_half_open_endpoints_rank_behind_closed_ones(self):
        now = [0.0]
        breakers = BreakerRegistry(failure_threshold=1, reset_timeout=1.0,
                                   clock=lambda: now[0])
        with WorkerServer() as a, WorkerServer() as b:
            membership = ClusterMembership("a:1")
            membership.merge({"idle:1": {
                "heartbeat": 1, "workers": [_addr(a), _addr(b)], "load": 0,
            }})
            first, second = ClusterWorkers(membership, None).ranked()
            breakers.get(first).record_failure()
            now[0] = 2.0  # quarantine over: the load leader is half-open
            assert breakers.state(first) == "half-open"
            # One shard opens one lane, on the closed worker — for the
            # cluster source and for a static fleet alike.
            for workers in (ClusterWorkers(membership, None), [first, second]):
                ex = RemoteExecutor(workers, fallback_local=True,
                                    breakers=breakers, timeout=30.0)
                assert ex.run_shards(echo_shard, [1]) == [1]
                assert ex.last_run["addresses"] == [second]
            assert a.shards_served + b.shards_served == 2
            assert breakers.state(first) == "half-open"

    def test_dead_fleet_degrades_to_local_compute(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        membership = ClusterMembership("a:1")
        membership.merge({"b:1": {"heartbeat": 1, "workers": [dead], "load": 0}})
        ex = RemoteExecutor(ClusterWorkers(membership, None),
                            fallback_local=True, timeout=5.0,
                            connect_timeout=0.5)
        assert ex.run_shards(echo_shard, [7, 8]) == [7, 8]
        assert ex.last_run["local_fallback_shards"] == 2
