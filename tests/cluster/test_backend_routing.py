"""Kernel-backend-aware shard routing across a mixed worker fleet.

A fleet upgrades one worker at a time, so capability skew is the normal
state: some workers advertise the ``numba`` tier, others only the numpy
baseline.  These tests pin the two routing layers — the registry/membership
capability filter that keeps a non-numpy batch off incapable workers *up
front*, and the shard-meta ``("unavailable", ...)`` reply that requeues a
shard when a stale capability view routed it wrong anyway.
"""

import pytest

from repro.cluster import ClusterMembership, ClusterWorkers
from repro.kernels import ExecutionPolicy, register_kernel_backend
from repro.kernels import backends as backends_mod
from repro.kernels.backends import NumpyBackend
from repro.service._testing import echo_shard
from repro.service.executor import RemoteExecutor
from repro.service.registry import WorkerRegistry
from repro.service.worker import WorkerServer


def _addr(worker: WorkerServer) -> str:
    return f"{worker.address[0]}:{worker.address[1]}"


@pytest.fixture
def mockjit():
    """A stand-in accelerated tier (delegates to numpy) so the routing
    paths are testable on hosts without numba installed."""

    class MockJit(NumpyBackend):
        name = "mockjit"
        description = "numpy delegate standing in for an optional JIT tier"

    register_kernel_backend(MockJit())
    try:
        yield "mockjit"
    finally:
        backends_mod._REGISTRY.pop("mockjit", None)


class TestRegistryCapabilityFilter:
    def test_snapshot_filters_by_backend(self):
        reg = WorkerRegistry()
        reg.add("a:1", backends=("numpy", "fused"))
        reg.add("b:2", backends=("numpy", "fused", "numba"), calibrated="numba")
        reg.add("c:3")  # no advertised backends: numpy-only default
        assert reg.snapshot() == ["a:1", "b:2", "c:3"]
        assert reg.snapshot(backend="numba") == ["b:2"]
        assert reg.snapshot(backend="fused") == ["a:1", "b:2"]
        assert reg.worker_backends()["c:3"] == ("numpy",)
        stats = reg.stats()
        assert stats["backends"]["b:2"] == ["numpy", "fused", "numba"]
        assert stats["calibrated"] == {"b:2": "numba"}

    def test_membership_filter_defaults_unknown_workers_to_numpy(self):
        # Gossip is peer input: an entry without the worker_backends key
        # must degrade its workers to the numpy-only default rather than
        # send them shards they may not be able to run.
        membership = ClusterMembership("a:1")
        membership.merge({
            "b:1": {"heartbeat": 1, "workers": ["jit:1"], "load": 0,
                    "worker_backends": {"jit:1": ["numpy", "numba"]}},
            "c:1": {"heartbeat": 1, "workers": ["old:1"], "load": 0},
        })
        workers = ClusterWorkers(membership, None)
        assert workers.ranked() == ["jit:1", "old:1"]
        assert workers.ranked(backend="numba") == ["jit:1"]


class TestMixedFleetRouting:
    def test_registry_executor_routes_past_incapable_workers(self, mockjit):
        reg = WorkerRegistry()
        ex = RemoteExecutor(reg, fallback_local=True, timeout=30.0)
        with WorkerServer(backends=("numpy", "fused")) as plain, \
                WorkerServer(backends=("numpy", "fused", mockjit)) as jit:
            reg.add(_addr(plain), backends=plain.backends)
            reg.add(_addr(jit), backends=jit.backends)
            tasks = [(i, ExecutionPolicy(backend=mockjit)) for i in range(4)]
            results = ex.run_shards(echo_shard, tasks, workers=2)
            assert results == tasks
            # The capability filter excluded the plain worker up front.
            assert ex.last_run["addresses"] == [_addr(jit)]
            assert jit.shards_served == 4
            assert plain.shards_served == 0

    def test_numpy_batches_use_the_whole_fleet(self, mockjit):
        reg = WorkerRegistry()
        ex = RemoteExecutor(reg, fallback_local=True, timeout=30.0)
        with WorkerServer(backends=("numpy", "fused")) as plain, \
                WorkerServer(backends=("numpy", "fused", mockjit)) as jit:
            reg.add(_addr(plain), backends=plain.backends)
            reg.add(_addr(jit), backends=jit.backends)
            tasks = [(i, ExecutionPolicy()) for i in range(4)]
            assert ex.run_shards(echo_shard, tasks, workers=2) == tasks
            assert sorted(ex.last_run["addresses"]) == sorted(
                [_addr(plain), _addr(jit)]
            )

    def test_stale_capability_view_requeues_via_unavailable(self, mockjit):
        # The backstop: the registry *claims* the plain worker has the JIT
        # tier (stale view), so the filter admits it — the worker's
        # ("unavailable", ...) reply must requeue the shards on the worker
        # that really advertises it, not fail the batch.
        reg = WorkerRegistry()
        ex = RemoteExecutor(reg, fallback_local=True, timeout=30.0)
        with WorkerServer(backends=("numpy",)) as plain, \
                WorkerServer(backends=("numpy", mockjit)) as jit:
            reg.add(_addr(plain), backends=("numpy", mockjit))  # a lie
            reg.add(_addr(jit), backends=jit.backends)
            tasks = [(i, ExecutionPolicy(backend=mockjit)) for i in range(4)]
            results = ex.run_shards(echo_shard, tasks, workers=2)
            assert results == tasks
            assert jit.shards_served == 4
            assert plain.shards_served == 0

    @pytest.mark.cluster
    def test_cluster_executor_mixed_fleet_lands_on_capable_workers(
        self, mockjit
    ):
        # The acceptance path: a gossiped mixed fleet (capabilities known
        # only through membership state) routes a JIT batch exclusively to
        # the workers that advertised the tier.
        membership = ClusterMembership("a:1")
        with WorkerServer(backends=("numpy", "fused")) as plain, \
                WorkerServer(backends=("numpy", "fused", mockjit)) as jit:
            membership.merge({
                "b:1": {
                    "heartbeat": 1, "load": 0,
                    "workers": [_addr(plain), _addr(jit)],
                    "worker_backends": {
                        _addr(plain): list(plain.backends),
                        _addr(jit): list(jit.backends),
                    },
                },
            })
            ex = RemoteExecutor(
                ClusterWorkers(membership, WorkerRegistry()),
                fallback_local=True, timeout=30.0,
            )
            tasks = [(i, ExecutionPolicy(backend=mockjit)) for i in range(4)]
            results = ex.run_shards(echo_shard, tasks, workers=2)
            assert results == tasks
            assert ex.last_run["addresses"] == [_addr(jit)]
            assert jit.shards_served == 4
            assert plain.shards_served == 0
