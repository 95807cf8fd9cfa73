"""The seeded chaos suite (``pytest -m chaos``).

Drives the resilience layer end-to-end against live loopback workers under
deterministic :class:`FaultPlan` schedules.  The acceptance contract under
test, from the package docstring: fault handling may change *where and
when* a shard runs, never *what it computes* — under every plan a
surviving fleet returns results bit-identical to the fault-free run,
deadline-bound requests fail within their budget, and breakers walk
closed -> open -> half-open -> closed.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.parameters import plan_schedule
from repro.engine import ShardPolicy
from repro.engine.plan import run_grk_batch_sharded
from repro.resilience import (
    BreakerRegistry,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    deadline_scope,
)
from repro.service._testing import (
    deadline_probe_shard,
    double_shard,
    echo_shard,
    slow_shard,
)
from repro.service.executor import (
    LocalExecutor,
    RemoteExecutor,
    WorkerUnavailable,
)
from repro.service.wire import recv_frame, send_frame
from repro.service.worker import WorkerServer

pytestmark = pytest.mark.chaos


def _addr(worker: WorkerServer) -> str:
    return f"{worker.address[0]}:{worker.address[1]}"


def _free_port() -> int:
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestBitIdentityUnderChaosPlans:
    """Every plan here leaves at least one worker standing; the report must
    be byte-for-byte the fault-free one, and the plan must actually fire
    (a chaos test whose fault never triggers tests nothing)."""

    N, K = 256, 4
    POLICY = ShardPolicy(max_rows=16)  # 16 shards of 16 rows

    def _run(self, executor):
        schedule = plan_schedule(self.N, self.K)
        targets = np.arange(self.N)
        return run_grk_batch_sharded(
            schedule.program, targets, "kernels", self.POLICY,
            executor=executor,
        )

    def _assert_bit_identical(self, executor):
        success, guesses, _ = self._run(LocalExecutor())
        r_success, r_guesses, _ = self._run(executor)
        assert np.array_equal(success, r_success)
        assert np.array_equal(guesses, r_guesses)

    def test_worker_crash_loop(self):
        crash_plan = FaultPlan.worker_crash(2, seed=11)
        with WorkerServer(chaos=crash_plan) as dying, \
                WorkerServer() as survivor:
            ex = RemoteExecutor([dying.address, survivor.address])
            self._assert_bit_identical(ex)
        assert crash_plan.fired("worker.shard") == 1
        assert ex.last_run["requeued"] >= 1

    def test_corrupted_reply_frames(self):
        corrupt_plan = FaultPlan(
            [FaultSpec(site="worker.send", kind="corrupt", count=2)], seed=3
        )
        with WorkerServer(chaos=corrupt_plan) as flaky, \
                WorkerServer() as healthy:
            ex = RemoteExecutor([flaky.address, healthy.address])
            self._assert_bit_identical(ex)
        # At least one corrupt frame fired and cost a requeue; the second
        # only fires if the flaky lane wins another shard before the
        # healthy lane drains the queue.
        assert corrupt_plan.fired("worker.send") >= 1
        assert ex.last_run["requeued"] >= 1

    def test_seeded_probabilistic_connection_drops(self):
        drop_plan = FaultPlan(
            [FaultSpec(site="worker.recv", kind="drop", count=3,
                       probability=0.5)],
            seed=7,
        )
        with WorkerServer(chaos=drop_plan) as flaky, \
                WorkerServer() as healthy:
            ex = RemoteExecutor([flaky.address, healthy.address])
            self._assert_bit_identical(ex)
        assert drop_plan.fired("worker.recv") >= 1

    def test_executor_side_refused_dials(self):
        refuse_plan = FaultPlan(
            [FaultSpec(site="executor.connect", kind="refuse", count=2)],
            seed=5,
        )
        with WorkerServer() as w1, WorkerServer() as w2:
            ex = RemoteExecutor(
                [w1.address, w2.address], chaos=refuse_plan,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01,
                                  max_delay=0.05),
            )
            self._assert_bit_identical(ex)
        assert refuse_plan.fired("executor.connect") == 2

    def test_same_plan_same_seed_is_replayable(self):
        """The debugging contract: re-running a failing chaos schedule
        injects the identical fault sequence."""
        def run_once():
            plan = FaultPlan(
                [FaultSpec(site="worker.send", kind="drop", count=4,
                           probability=0.5)],
                seed=21,
            )
            # Every shard goes through the flaky worker alone, so the
            # fault site's visit sequence depends only on the seed, never
            # on how shards split between lanes.
            with WorkerServer(chaos=plan) as flaky:
                ex = RemoteExecutor(
                    [flaky.address],
                    retry=RetryPolicy(max_attempts=6, base_delay=0.001,
                                      max_delay=0.005),
                )
                out = ex.run_shards(double_shard, list(range(12)))
            return out, plan.describe()["faults"][0]["fired"]

        (out_a, fired_a), (out_b, fired_b) = run_once(), run_once()
        assert out_a == out_b == [2 * i for i in range(12)]
        assert fired_a == fired_b == 4


class TestDeadlineBoundsSlowWorkers:
    SLOW_PLAN = {"faults": [{"site": "worker.shard", "kind": "slow",
                             "delay_s": 2.0, "count": None}]}

    def test_slow_worker_fails_within_budget(self):
        with WorkerServer(chaos=FaultPlan.from_json(self.SLOW_PLAN)) as w:
            ex = RemoteExecutor([w.address], timeout=30.0)
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                ex.run_shards(echo_shard, [1, 2, 3],
                              deadline=Deadline.after(0.75))
            elapsed = time.monotonic() - start
        # Without deadline->timeout conversion the first reply alone would
        # take 2s; the run must give up as soon as the budget is gone.
        assert elapsed < 1.9

    def test_ambient_deadline_scope_reaches_the_executor(self):
        """The service sets the deadline contextvar in the engine's pool
        thread; executors must pick it up with no explicit argument."""
        with WorkerServer(chaos=FaultPlan.from_json(self.SLOW_PLAN)) as w:
            ex = RemoteExecutor([w.address], timeout=30.0)
            with deadline_scope(Deadline.after(0.75)):
                with pytest.raises(DeadlineExceeded):
                    ex.run_shards(echo_shard, [1, 2, 3])

    def test_worker_rebuilds_a_deadline_scope_per_shard(self):
        with WorkerServer() as w:
            ex = RemoteExecutor([w.address])
            out = ex.run_shards(deadline_probe_shard, [0, 1],
                                deadline=Deadline.after(30.0))
        for task, had_deadline, remaining in out:
            assert had_deadline is True
            assert 0.0 < remaining <= 30.0


class TestExpiredShardsNeverExecute:
    def test_spent_budget_is_refused_without_computing(self):
        with WorkerServer() as w:
            with socket.create_connection(w.address, timeout=5.0) as sock:
                sock.settimeout(5.0)
                send_frame(sock, ("shard", echo_shard, 1, None,
                                  {"deadline_s": -0.5}))
                reply = recv_frame(sock)
            assert reply[0] == "expired"
            assert "deadline spent" in reply[1]
            assert w.shards_served == 0
            assert w.shards_expired == 1
            # ...and the ping surface reports it.
            with socket.create_connection(w.address, timeout=5.0) as sock:
                sock.settimeout(5.0)
                send_frame(sock, ("ping",))
                pong = recv_frame(sock)
            assert pong[1]["shards_expired"] == 1

    def test_executor_marks_the_run_expired(self):
        """Dialer side of the same contract: an already-expired deadline
        stops dispatch before any network traffic."""
        with WorkerServer() as w:
            ex = RemoteExecutor([w.address])
            with pytest.raises(DeadlineExceeded):
                ex.run_shards(echo_shard, [1, 2],
                              deadline=Deadline.after(-1.0))
            assert w.shards_served == 0


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBreakerLifecycleEndToEnd:
    def test_open_half_open_close_through_the_executor(self):
        clock = FakeClock()
        registry = BreakerRegistry(failure_threshold=2, reset_timeout=10.0,
                                   clock=clock)
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        port = _free_port()
        flappy = f"127.0.0.1:{port}"

        # Rounds 1-2: the endpoint is down; each run's refused dial feeds
        # the shared registry until the run of failures trips the breaker.
        with WorkerServer() as healthy:
            for _ in range(2):
                ex = RemoteExecutor([flappy, _addr(healthy)], retry=retry,
                                    breakers=registry, connect_timeout=0.3)
                assert ex.run_shards(echo_shard, list(range(6))) \
                    == list(range(6))
        assert registry.state(flappy) == "open"

        # Round 3: still down, but now nobody pays a connect timeout — the
        # quarantined lane is skipped before dialing.
        with WorkerServer() as healthy:
            ex = RemoteExecutor([flappy, _addr(healthy)], retry=retry,
                                breakers=registry, connect_timeout=0.3)
            assert ex.run_shards(echo_shard, list(range(4))) == list(range(4))
            assert ex.last_run["breaker_skips"] == [flappy]

        # Quarantine elapses -> half-open; the endpoint comes back and the
        # trial dispatch closes the breaker.
        clock.advance(10.0)
        assert registry.state(flappy) == "half-open"
        with WorkerServer("127.0.0.1", port) as revived:
            ex = RemoteExecutor([flappy], retry=retry, breakers=registry)
            assert ex.run_shards(double_shard, [1, 2]) == [2, 4]
            assert revived.shards_served == 2
        assert registry.state(flappy) == "closed"

    def test_half_open_relapse_reopens(self):
        clock = FakeClock()
        registry = BreakerRegistry(failure_threshold=2, reset_timeout=10.0,
                                   clock=clock)
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        port = _free_port()
        flappy = f"127.0.0.1:{port}"
        with WorkerServer() as healthy:
            for _ in range(2):  # trip it
                ex = RemoteExecutor([flappy, _addr(healthy)], retry=retry,
                                    breakers=registry, connect_timeout=0.3)
                ex.run_shards(echo_shard, [1, 2, 3])
            clock.advance(10.0)  # half-open, endpoint still dead
            ex = RemoteExecutor([flappy, _addr(healthy)], retry=retry,
                                breakers=registry, connect_timeout=0.3)
            assert ex.run_shards(echo_shard, [4, 5]) == [4, 5]
        assert registry.state(flappy) == "open"  # the trial failed


class TestPoisonShards:
    def test_attempt_bound_raises_with_history(self):
        """A shard whose reply is lost on every attempt must fail the run
        with its paper trail instead of cycling forever — even when
        fallback_local would otherwise mop up."""
        drop_all = FaultPlan(
            [FaultSpec(site="worker.send", kind="drop", count=None)], seed=1
        )
        with WorkerServer(chaos=drop_all) as w:
            ex = RemoteExecutor(
                [w.address], max_attempts=2, fallback_local=True,
                retry=RetryPolicy(max_attempts=10, base_delay=0.01,
                                  max_delay=0.02),
                retry_budget=10,
            )
            with pytest.raises(WorkerUnavailable,
                               match="exhausted its 2-attempt bound") as info:
                ex.run_shards(echo_shard, [42])
        history = info.value.attempt_history
        assert len(history[0]) == 2
        assert all(_addr(w) == h["address"] for h in history[0])


class TestWorkerDrain:
    def test_drain_finishes_in_flight_and_refuses_new_shards(self):
        with WorkerServer() as w:
            in_flight = socket.create_connection(w.address, timeout=10.0)
            in_flight.settimeout(10.0)
            send_frame(in_flight, ("shard", slow_shard, 1.0, None, {}))
            time.sleep(0.2)  # the shard is computing
            drainer = threading.Thread(target=w.drain,
                                       kwargs={"timeout": 10.0})
            drainer.start()
            try:
                time.sleep(0.2)  # drain is now waiting on the slow shard
                with socket.create_connection(w.address,
                                              timeout=5.0) as late:
                    late.settimeout(5.0)
                    send_frame(late, ("shard", echo_shard, "nope", None, {}))
                    refused = recv_frame(late)
                assert refused[0] == "unavailable"
                assert "draining" in refused[1]
                # The in-flight shard still completes — drain never aborts
                # accepted work.
                assert recv_frame(in_flight) == ("result", 1.0)
            finally:
                in_flight.close()
                drainer.join(timeout=10.0)
            assert not drainer.is_alive()
            # Fully stopped: nothing accepts anymore.
            with pytest.raises(OSError):
                socket.create_connection(w.address, timeout=0.5)

    def test_executor_requeues_from_draining_worker(self):
        """A dialer that hits a draining worker must requeue elsewhere and
        note the drain — not abort or retry the drained endpoint."""
        with WorkerServer() as draining, WorkerServer() as healthy:
            hold = socket.create_connection(draining.address, timeout=10.0)
            hold.settimeout(10.0)
            send_frame(hold, ("shard", slow_shard, 1.5, None, {}))
            time.sleep(0.2)
            drainer = threading.Thread(target=draining.drain,
                                       kwargs={"timeout": 10.0})
            drainer.start()
            try:
                time.sleep(0.2)
                ex = RemoteExecutor([draining.address, healthy.address])
                assert ex.run_shards(double_shard, list(range(6))) == [
                    2 * i for i in range(6)
                ]
                dead = ex.last_run["dead_workers"]
                assert any("draining" in d["error"] for d in dead)
                assert healthy.shards_served == 6
            finally:
                hold.close()
                drainer.join(timeout=10.0)
