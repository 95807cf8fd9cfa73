"""Executor-layer tests: transport round-trips and every fault path.

The load-bearing invariant — results bit-identical to
:class:`LocalExecutor` whatever dies — holds because shard boundaries and
every random draw are fixed before dispatch; these tests kill workers
mid-shard, wedge them past the timeout, and exhaust them entirely to check
the invariant survives requeueing.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.parameters import plan_schedule
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.engine.plan import run_grk_batch_sharded
from repro.resilience import FaultPlan, FaultSpec
from repro.service.executor import (
    LocalExecutor,
    RemoteExecutor,
    ShardExecutionError,
    WorkerUnavailable,
)
from repro.service.worker import WorkerServer


class HungWorker:
    """Accepts connections and never replies — a wedged worker."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        self._conns = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._conns.append(conn)  # read nothing, reply never

    def close(self):
        self._stop.set()
        for c in self._conns:
            c.close()
        self._sock.close()


class TestLocalExecutor:
    def test_runs_every_task_in_order(self, fake_shard):
        ex = LocalExecutor()
        assert ex.run_shards([1, 2, 3]) == [2, 4, 6]
        assert ex.run_shards([]) == []
        assert [call.task for call in fake_shard] == [1, 2, 3]

    def test_checks_the_deadline_before_every_shard(self, fake_shard):
        # The clock passes the deadline once the first shard has run: the
        # run stops there instead of computing shards nobody awaits.
        from repro.resilience import Deadline, DeadlineExceeded, deadline_scope

        def clock():
            return 2.0 if fake_shard else 0.0

        with pytest.raises(DeadlineExceeded):
            LocalExecutor().run_shards([1, 2, 3],
                                       deadline=Deadline(1.0, clock=clock))
        assert [call.task for call in fake_shard] == [1]
        # The ambient deadline counts the same.
        fake_shard.clear()
        with deadline_scope(Deadline(1.0, clock=clock)), \
                pytest.raises(DeadlineExceeded):
            LocalExecutor().run_shards([1, 2, 3])
        assert [call.task for call in fake_shard] == [1]

    def test_describe(self):
        assert LocalExecutor().describe() == {"executor": "local"}


@pytest.mark.usefixtures("fake_shard")
class TestRemoteExecutorHappyPath:
    def test_round_trip_order_preserved(self):
        with WorkerServer() as w:
            ex = RemoteExecutor([w.address])
            assert ex.run_shards(list(range(10))) == [
                2 * i for i in range(10)
            ]

    def test_two_workers_share_the_queue(self):
        with WorkerServer() as w1, WorkerServer() as w2:
            ex = RemoteExecutor([w1.address, w2.address])
            assert ex.run_shards(list(range(20))) == [
                2 * i for i in range(20)
            ]
            assert w1.shards_served + w2.shards_served == 20

    def test_concurrent_one_shard_runs_take_turns(self):
        # Every run on the executor advances one shared start cursor: under
        # concurrent runs and a short switch interval no turn is lost or
        # repeated, so 32 one-shard runs serve 16 on each worker.
        import sys

        with WorkerServer() as w1, WorkerServer() as w2:
            ex = RemoteExecutor([w1.address, w2.address], timeout=30.0)
            results = []

            def runs(first):
                for task in range(first, first + 4):
                    results.extend(ex.run_shards([task]))

            threads = [threading.Thread(target=runs, args=(4 * i,))
                       for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert sorted(results) == [2 * i for i in range(32)]
            assert (w1.shards_served, w2.shards_served) == (16, 16)

    def test_worker_prunes_closed_connections(self):
        """A long-lived worker must not accumulate state for finished
        connections (one RemoteExecutor run = one connection per lane)."""
        with WorkerServer() as w:
            for _ in range(5):
                ex = RemoteExecutor([w.address])
                ex.run_shards([1, 2])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (w._conns or w._threads):
                time.sleep(0.02)
            assert not w._conns and not w._threads

    def test_address_strings_accepted(self):
        with WorkerServer() as w:
            ex = RemoteExecutor([f"{w.address[0]}:{w.address[1]}"])
            assert ex.run_shards(["x"]) == ["xx"]

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError):
            RemoteExecutor(["nonsense"])
        with pytest.raises(ValueError):
            RemoteExecutor([])


@pytest.mark.usefixtures("fake_shard")
class TestFaultPaths:
    def test_worker_death_mid_shard_requeues_to_survivor(self):
        """A worker that dies after computing (but before replying) loses
        the connection; its shard is requeued and the survivor's results
        are identical to an all-healthy run."""
        with WorkerServer(chaos=FaultPlan.worker_crash(1)) as dying, WorkerServer() as healthy:
            ex = RemoteExecutor([dying.address, healthy.address])
            out = ex.run_shards(list(range(12)))
            assert out == [2 * i for i in range(12)]
            assert ex.last_run["requeued"] >= 1
            assert len(ex.last_run["dead_workers"]) == 1

    def test_immediate_death_requeues_everything(self):
        with WorkerServer(chaos=FaultPlan.worker_crash(0)) as dead, WorkerServer() as healthy:
            ex = RemoteExecutor([dead.address, healthy.address])
            assert ex.run_shards([5, 6, 7]) == [10, 12, 14]
            assert healthy.shards_served == 3

    def test_timeout_requeues_to_healthy_worker(self):
        hung = HungWorker()
        try:
            with WorkerServer() as healthy:
                ex = RemoteExecutor(
                    [hung.address, healthy.address], timeout=0.5
                )
                assert ex.run_shards(list(range(6))) == [
                    2 * i for i in range(6)
                ]
                dead = ex.last_run["dead_workers"]
                assert any("timed out" in d["error"] or "timeout" in d["error"]
                           for d in dead)
        finally:
            hung.close()

    def test_all_workers_dead_raises(self):
        with WorkerServer(chaos=FaultPlan.worker_crash(0)) as dead:
            ex = RemoteExecutor([dead.address])
            with pytest.raises(WorkerUnavailable):
                ex.run_shards([1, 2])

    def test_unreachable_worker_raises(self):
        # Grab a port and close it so nothing listens there.
        probe = socket.create_server(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()
        ex = RemoteExecutor([addr], connect_timeout=0.5)
        with pytest.raises(WorkerUnavailable):
            ex.run_shards([1])

    def test_fallback_local_completes_the_batch(self):
        with WorkerServer(chaos=FaultPlan.worker_crash(2)) as dying:
            ex = RemoteExecutor([dying.address], fallback_local=True)
            assert ex.run_shards(list(range(8))) == [
                2 * i for i in range(8)
            ]
            assert ex.last_run["local_fallback_shards"] > 0

    def test_shard_exception_is_fatal_not_retried(self, fake_shard):
        raising = FaultPlan(
            [FaultSpec(site="worker.shard", kind="raise", count=None)]
        )
        with WorkerServer(chaos=raising) as w:
            ex = RemoteExecutor([w.address])
            with pytest.raises(ShardExecutionError,
                               match="injected deterministic failure"):
                ex.run_shards([1, 2, 3])
        assert raising.fired("worker.shard") == 1
        assert fake_shard == []

    def test_slow_shard_within_timeout_succeeds(self):
        slow = FaultPlan(
            [FaultSpec(site="worker.shard", kind="slow", delay_s=0.05)]
        )
        with WorkerServer(chaos=slow) as w:
            ex = RemoteExecutor([w.address], timeout=10.0)
            assert ex.run_shards([1]) == [2]
        assert slow.fired("worker.shard") == 1


class TestBitIdentityUnderFaults:
    """The satellite requirement: executor fault paths must leave results
    bit-identical to LocalExecutor."""

    N, K = 256, 4
    POLICY = ShardPolicy(max_rows=16)  # 16 shards of 16 rows

    def _local_reference(self):
        schedule = plan_schedule(self.N, self.K)
        targets = np.arange(self.N)
        return run_grk_batch_sharded(
            schedule.program, targets, "kernels", self.POLICY,
            executor=LocalExecutor(),
        )

    def _remote(self, executor):
        schedule = plan_schedule(self.N, self.K)
        targets = np.arange(self.N)
        return run_grk_batch_sharded(
            schedule.program, targets, "kernels", self.POLICY,
            executor=executor,
        )

    def test_worker_death_bit_identical(self):
        success, guesses, _ = self._local_reference()
        with WorkerServer(chaos=FaultPlan.worker_crash(3)) as dying, WorkerServer() as healthy:
            ex = RemoteExecutor([dying.address, healthy.address])
            r_success, r_guesses, _ = self._remote(ex)
        assert np.array_equal(success, r_success)
        assert np.array_equal(guesses, r_guesses)
        assert ex.last_run["requeued"] >= 1

    def test_timeout_bit_identical(self):
        success, guesses, _ = self._local_reference()
        hung = HungWorker()
        try:
            with WorkerServer() as healthy:
                ex = RemoteExecutor([hung.address, healthy.address], timeout=1.0)
                r_success, r_guesses, _ = self._remote(ex)
        finally:
            hung.close()
        assert np.array_equal(success, r_success)
        assert np.array_equal(guesses, r_guesses)

    def test_local_fallback_bit_identical(self):
        success, guesses, _ = self._local_reference()
        with WorkerServer(chaos=FaultPlan.worker_crash(5)) as dying:
            ex = RemoteExecutor([dying.address], fallback_local=True)
            r_success, r_guesses, _ = self._remote(ex)
        assert np.array_equal(success, r_success)
        assert np.array_equal(guesses, r_guesses)
        assert ex.last_run["local_fallback_shards"] > 0

    def test_stochastic_method_bit_identical_remote(self):
        """naive-blocks draws every row's left-out block before dispatch,
        so even a seeded stochastic batch survives worker death with
        identical results."""
        request = SearchRequest(
            n_items=64, n_blocks=4, method="naive-blocks", rng=42,
            shards=ShardPolicy(max_rows=8),
        )
        local = SearchEngine().search_batch(request)
        with WorkerServer(chaos=FaultPlan.worker_crash(2)) as dying, WorkerServer() as healthy:
            engine = SearchEngine(
                executor=RemoteExecutor([dying.address, healthy.address])
            )
            remote = engine.search_batch(request)
        assert np.array_equal(local.success_probabilities,
                              remote.success_probabilities)
        assert np.array_equal(local.block_guesses, remote.block_guesses)
        assert np.array_equal(local.queries, remote.queries)
        assert remote.execution["executor"] == "remote"


def _addr(worker: WorkerServer) -> str:
    return f"{worker.address[0]}:{worker.address[1]}"


def _dead_endpoints(n: int) -> list[str]:
    """*n* distinct local ports with nothing listening on them."""
    probes = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    endpoints = [f"127.0.0.1:{p.getsockname()[1]}" for p in probes]
    for p in probes:
        p.close()
    return endpoints


@pytest.mark.usefixtures("fake_shard")
class TestSpareHandover:
    """Lanes are capped at one per shard; the remaining candidates wait as
    spares, and a lane whose worker dies hands over to one instead of
    retiring — whatever the worker source."""

    @pytest.mark.parametrize("source", ["static", "registry"])
    def test_dying_first_worker_hands_its_shard_to_a_spare(self, source):
        from repro.resilience import RetryPolicy
        from repro.service.registry import WorkerRegistry

        with WorkerServer() as a, WorkerServer() as b:
            # The registry dispatches in sorted order: make the worker that
            # sorts first the dying one, so the only lane opens on it.
            dying, healthy = sorted([a, b], key=_addr)
            dying.chaos = FaultPlan.worker_crash(0)
            if source == "static":
                workers = [dying.address, healthy.address]
            else:
                workers = WorkerRegistry()
                workers.add(_addr(dying))
                workers.add(_addr(healthy))
            ex = RemoteExecutor(
                workers, fallback_local=True,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  max_delay=0.02),
            )
            assert ex.run_shards([21]) == [42]
            assert ex.last_run["local_fallback_shards"] == 0
            assert healthy.shards_served == 1
            assert dying.chaos.fired("worker.shard") == 1

    def test_two_dead_workers_ahead_of_a_healthy_one(self):
        """Default policies: each dead worker gets one try before the spare
        behind them serves the shard, well inside its attempt bound."""
        with WorkerServer() as healthy:
            ex = RemoteExecutor([*_dead_endpoints(2), healthy.address],
                                connect_timeout=0.5)
            assert ex.run_shards([21]) == [42]
            assert healthy.shards_served == 1
            assert ex.last_run["local_fallback_shards"] == 0
            assert ex.last_run["retries"] == 0
            assert len(ex.last_run["dead_workers"]) == 2

    def test_registry_of_dead_workers_falls_back_to_local(self):
        """A registered fleet that died since it was last seen degrades to
        local compute; the shard is not mistaken for a poison shard."""
        from repro.service.registry import WorkerRegistry

        registry = WorkerRegistry()
        for endpoint in _dead_endpoints(2):
            registry.add(endpoint)
        ex = RemoteExecutor(registry, fallback_local=True, connect_timeout=0.5)
        assert ex.run_shards([21]) == [42]
        assert ex.last_run["local_fallback_shards"] == 1
        assert len(ex.last_run["dead_workers"]) == 2

    def test_hung_worker_hands_over_after_one_timeout(self):
        hung = HungWorker()
        try:
            with WorkerServer() as healthy:
                ex = RemoteExecutor([hung.address, healthy.address],
                                    timeout=0.5)
                assert ex.run_shards([7]) == [14]
                assert healthy.shards_served == 1
                assert ex.last_run["retries"] == 0
        finally:
            hung.close()
