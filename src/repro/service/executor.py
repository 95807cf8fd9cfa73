"""The remote side of the executor seam: shards run on other hosts.

:meth:`repro.engine.SearchEngine.search_batch` splits a batch into shards
(:func:`repro.engine.plan.plan_shards`) and then hands the shard list to a
:class:`ShardExecutor`.  The contract is deliberately tiny —
``run_shards(tasks)`` returning :func:`repro.engine.plan.run_shard`'s
results *in task order* — because everything that matters for
reproducibility is decided before dispatch:
shard boundaries come from the plan, and every random draw (naive-blocks'
per-row left-out blocks) happens in the engine before dispatch, so no RNG
stream ships inside a task.  A task is plain data: a program, its
targets, a backend name and an execution policy.  Any executor that runs
every task exactly once therefore returns bit-identical results, whatever
the host, scheduling order, or retry history.

Two executors ship today:

- :class:`LocalExecutor` — the default: the shards one after another in
  the calling thread, the deadline checked before each; row threads
  inside a shard are the only local parallelism.  It lives in
  :mod:`repro.engine.plan` with :class:`ShardExecutor` and
  :func:`default_executor`, so an in-process batch imports none of this
  package; this module re-exports all three.
- :class:`RemoteExecutor` — fans shards out to ``repro-worker`` processes
  (:mod:`repro.service.worker`) over the length-prefixed TCP protocol of
  :mod:`repro.service.wire`, with requeue-on-failure plus the resilience
  layer (:mod:`repro.resilience`): transient transport failures are
  retried with backoff under a per-run retry budget, per-endpoint circuit
  breakers quarantine flapping workers, and the request deadline — read
  from :func:`repro.resilience.current_deadline` or passed explicitly —
  rides each shard frame and bounds each reply wait.  It reads its fleet
  from a *worker source* on every run: :class:`StaticWorkers` (a fixed
  address list), a :class:`~repro.service.registry.WorkerRegistry` (the
  workers that announced themselves with the wire's ``register`` message)
  or a :class:`~repro.cluster.ClusterWorkers` (every worker the gossiped
  cluster knows, least-loaded first).

Future scaling work (new transports, cluster schedulers) plugs in here by
subclassing :class:`ShardExecutor` or writing a worker source; the engine
and the method adapters do not change.
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import queue
import random
import socket
import threading
import time
from typing import Sequence

from repro.engine.plan import LocalExecutor, ShardExecutor, default_executor
from repro.observability.spans import Span, current_recorder, span
from repro.resilience import (
    BreakerRegistry,
    Deadline,
    DeadlineExceeded,
    RetryBudget,
    RetryPolicy,
    current_deadline,
)
from repro.service.address import format_address, parse_address
from repro.service.wire import (
    ConnectionClosed,
    WireError,
    recv_frame,
    send_frame,
)

__all__ = [
    "ShardExecutor",
    "LocalExecutor",
    "RemoteExecutor",
    "StaticWorkers",
    "ShardExecutionError",
    "WorkerUnavailable",
    "default_executor",
]


class ShardExecutionError(RuntimeError):
    """A shard function raised on a worker — retrying cannot help."""


class WorkerUnavailable(RuntimeError):
    """No worker could complete the remaining shards (dead/unreachable).

    Attributes:
        attempt_history: per-shard list of ``{"address", "error"}`` dicts
            for the shards that exhausted their attempt bound (a poison
            shard's paper trail), when that is why the run failed.
    """

    def __init__(self, message: str, *, attempt_history=None):
        super().__init__(message)
        self.attempt_history = attempt_history or {}


def _is_permanent_transport(exc: Exception) -> bool:
    """True for transport failures retrying cannot fix: a peer that is not
    speaking the repro protocol at all (bad magic — a stray service on a
    stale registered port), or one from another build (another wire
    version).  Undecodable payloads and closed connections stay retriable
    — they can be transient (corruption, a worker restart)."""
    if not isinstance(exc, WireError) or isinstance(exc, ConnectionClosed):
        return False
    text = str(exc)
    return "bad frame magic" in text or "wire version mismatch" in text


class StaticWorkers:
    """A fixed worker fleet: the source a plain address list becomes.

    A worker source is what :class:`RemoteExecutor` reads its fleet from on
    every run.  It has ``candidates()`` (the dialable addresses, best
    first), ``describe()`` (merged into the executor's provenance), a
    ``kind`` name (reported as ``describe()["executor"]``) and
    ``load_ranked``: False when its order is only a listing, so the
    executor starts each run one worker further along it.  The other
    sources are :class:`~repro.service.registry.WorkerRegistry` and
    :class:`~repro.cluster.ClusterWorkers`.

    Args:
        addresses: worker endpoints, each ``"host:port"``, ``"[v6]:port"``,
            or ``(host, port)``; validated here, so a typo fails at
            construction rather than on every dial.
    """

    kind = "remote"
    load_ranked = False

    def __init__(self, addresses: Sequence):
        self.addresses = [parse_address(a) for a in addresses]
        if not self.addresses:
            raise ValueError("RemoteExecutor needs at least one worker address")

    def candidates(self) -> list[str]:
        return [format_address(h, p) for h, p in self.addresses]

    def describe(self) -> dict:
        return {"workers": self.candidates()}


class RemoteExecutor(ShardExecutor):
    """Fan shards out to ``repro-worker`` processes over TCP.

    Each run reads the fleet from the worker source, drops endpoints whose
    circuit breaker is open, ranks half-open ones behind the rest, and
    opens at most one dispatch lane per shard on the best candidates; the
    other dialable candidates wait as spares.  Unless the source ranks its
    workers by load, each run starts one worker further along the source's
    order than the last, so one-shard batches take turns across the fleet.
    A lane pulls shards off a shared queue, ships each as a
    ``("shard", task, meta)`` frame (``meta`` carries the remaining
    deadline budget and the trace context), and waits for the
    ``("result", value)`` reply.  Failure handling:

    - **transport failure** (connection refused/reset, worker death
      mid-shard, per-shard timeout, an undecodable frame): the shard is
      requeued immediately so any lane can pick it up, and the endpoint's
      circuit breaker records the failure.  While a spare is left the lane
      hands over to it at once, so every worker gets one try before any
      gets a second; after that the lane retries *its own* worker with
      decorrelated-jitter backoff while the per-run
      :class:`~repro.resilience.RetryBudget` lasts.  Because tasks carry
      their randomness, a requeued shard reproduces the exact result the
      dead worker would have returned.
    - **worker gone** (retries exhausted, a peer from another build, an
      open breaker, or an ``unavailable`` reply from a draining worker):
      the lane hands over to the next spare worker, and retires when none
      is left.
    - **shard function error** (the worker ran the shard and it raised):
      deterministic — no retry; the whole run aborts with
      :class:`ShardExecutionError`.
    - **deadline exhaustion**: dispatch stops and the run raises
      :class:`~repro.resilience.DeadlineExceeded` (workers likewise skip
      shards whose shipped budget arrives spent).

    A shard is attempted at most ``max_attempts`` times; a shard that
    exceeds the bound (a *poison* shard crashing worker after worker) fails
    the run with :class:`WorkerUnavailable` carrying the full per-attempt
    history instead of cycling forever.  With an empty fleet, or with
    shards outstanding after every lane retired, the run computes them
    through :meth:`LocalExecutor.run_shards` when ``fallback_local=True``,
    else raises :class:`WorkerUnavailable`; quarantined endpoints are
    recorded either way.

    Args:
        workers: a worker source (see :class:`StaticWorkers`), or a list of
            worker addresses, which becomes a :class:`StaticWorkers`.
        timeout: per-shard reply ceiling in seconds (covers send + compute +
            receive on one worker); the live deadline can only tighten it.
        connect_timeout: TCP connect timeout per worker.
        max_attempts: per-shard attempt bound; ``None`` = one try per
            dialable candidate plus the retry headroom.
        fallback_local: compute in-process instead of raising when no
            worker can take the remaining shards.
        retry: transient-failure :class:`~repro.resilience.RetryPolicy`
            (``None`` = the default policy).
        retry_budget: retry tokens per :meth:`run_shards` call shared by all
            lanes; ``None`` sizes it as ``max(4, len(tasks))``.
        breakers: shared :class:`~repro.resilience.BreakerRegistry`
            (``None`` = a private registry, persistent across runs).
        chaos: optional :class:`~repro.resilience.FaultPlan` consulted at
            ``executor.connect`` (dial faults for tests).
    """

    def __init__(
        self,
        workers,
        *,
        timeout: float = 300.0,
        connect_timeout: float = 5.0,
        max_attempts: int | None = None,
        fallback_local: bool = False,
        retry: RetryPolicy | None = None,
        retry_budget: int | None = None,
        breakers: BreakerRegistry | None = None,
        chaos=None,
    ):
        if not hasattr(workers, "candidates"):
            workers = StaticWorkers(workers)
        self.workers = workers
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_attempts = max_attempts
        self.fallback_local = fallback_local
        self.retry = retry if retry is not None else RetryPolicy()
        self.retry_budget = retry_budget
        self.breakers = breakers if breakers is not None else BreakerRegistry()
        self.chaos = chaos
        #: Stats of the most recent :meth:`run_shards` call: the lanes'
        #: ``addresses``, ``local`` and ``quarantined`` always; a run with
        #: any candidate adds requeues, retries, dead workers, breaker
        #: skips and the local-fallback shard count.
        self.last_run: dict = {}
        #: Advanced once per run (not per ``candidates()`` read: ``lanes()``
        #: reads the fleet too): where the next run starts in the fleet.
        self._runs = itertools.count()

    # ------------------------------------------------------------ internals
    def _connect(self, address: tuple[str, int]) -> socket.socket:
        if self.chaos is not None:
            spec = self.chaos.apply(self.chaos.visit("executor.connect"))
            if spec is not None and spec.kind == "refuse":
                raise ConnectionRefusedError(
                    f"chaos: connection to {format_address(*address)} refused"
                )
        sock = socket.create_connection(address, timeout=self.connect_timeout)
        sock.settimeout(self.timeout)
        return sock

    def _record_failure(self, state, index, endpoint, exc) -> None:
        with state["lock"]:
            state["requeued"] += 1
            state["history"][index].append(
                {"address": endpoint, "error": f"{type(exc).__name__}: {exc}"}
            )

    @staticmethod
    def _skip_quarantined(state, endpoint) -> None:
        with state["lock"]:
            state["breaker_skips"].append(endpoint)
        # A quarantined worker never dials, but the trace should still
        # show *why* it contributed nothing.
        with span("shard.breaker_open", endpoint=endpoint):
            pass

    @staticmethod
    def _take_spare(state) -> str | None:
        with state["lock"]:
            if not state["spares"]:
                return None
            endpoint = state["spares"].pop(0)
            state["addresses"].append(endpoint)
            return endpoint

    def _serve_lane(self, endpoint, state) -> None:
        """One dispatch lane: serve shards from *endpoint*; when that
        worker fails, drains or is quarantined, take the next spare worker
        and go on, until the run is over or no spare is left."""
        while endpoint is not None:
            endpoint = self._lane_loop(endpoint, state)

    def _lane_loop(self, endpoint, state) -> str | None:
        """Pull shards for one worker until every shard is done or the
        worker is gone.  A transport failure requeues the in-flight shard
        immediately (any lane can pick it up) and records it on the
        endpoint's breaker.  While a spare is left the worker is then
        gone; otherwise — while the run's retry budget lasts — the lane
        backs off and retries this worker, until its consecutive failures
        reach the retry policy's bound.  An idle lane keeps waiting while
        another lane has a shard in flight — that shard may yet be
        requeued and need picking up.

        Returns the spare that takes the lane over when the worker is
        gone, None when the run is over or no spare is left.
        """
        from repro.gateway.tracing import current_trace_id

        address = parse_address(endpoint)
        breaker = self.breakers.get(endpoint)
        deadline: Deadline | None = state["deadline"]
        # The lane runs in a copy of the dispatch context (run_shards), so
        # the request's trace ID and recorder are ambient here.
        trace_id = current_trace_id()
        recorder = current_recorder()
        jitter = random.Random(hash((endpoint, len(state["tasks"]))))
        lane_failures = 0
        lane_error: str | None = None  # last unrecovered transport failure
        last_delay = 0.0
        sock = None

        if not breaker.allow():
            self._skip_quarantined(state, endpoint)
            return self._take_spare(state)

        def halt(reason_key, value) -> None:
            with state["lock"]:
                if state[reason_key] is None:
                    state[reason_key] = value

        def gone(error: str, spare: str | None = None) -> str | None:
            with state["lock"]:
                state["dead"].append({"address": endpoint, "error": error})
            return spare or self._take_spare(state)

        try:
            while state["fatal"] is None and state["poisoned"] is None \
                    and not state["expired"]:
                # Pop and mark in-flight under ONE lock hold: a sibling
                # lane's idle check (queue empty AND nothing in flight)
                # must never interleave between the two, or it could retire
                # while this lane still holds a shard that may be requeued.
                with state["lock"]:
                    try:
                        index = state["pending"].get_nowait()
                    except queue.Empty:
                        if state["in_flight"] == 0:
                            # Nothing queued and nothing in flight anywhere:
                            # either all done, or no lane will requeue again.
                            # A lane that *ends* in a failing state goes on
                            # the dead list.
                            if lane_error is not None:
                                state["dead"].append(
                                    {"address": endpoint, "error": lane_error}
                                )
                            return None
                        index = None
                    else:
                        state["in_flight"] += 1
                        state["attempts"][index] += 1
                        exhausted = (
                            state["attempts"][index] > state["max_attempts"]
                        )
                if index is None:
                    time.sleep(0.02)  # idle: await a possible requeue
                    continue

                def release(requeue: bool) -> None:
                    with state["lock"]:
                        state["in_flight"] -= 1
                        if requeue:
                            state["pending"].put(index)

                if exhausted:
                    # Poison shard: it has crashed or timed out every
                    # attempt it was given.  Fail the run with its history
                    # — requeueing again would cycle forever.
                    halt("poisoned", index)
                    release(requeue=False)
                    return None
                if deadline is not None and deadline.expired:
                    halt("expired", True)
                    release(requeue=True)
                    return None
                # Each dispatch attempt is its own span (so retries show
                # as siblings), with the wire leg as a child; the worker
                # parents its compute span on this attempt's ID, shipped
                # in the shard meta.
                with span("shard.attempt", shard=index, endpoint=endpoint,
                          attempt=state["attempts"][index]) as att:
                    try:
                        if sock is None:
                            sock = self._connect(address)
                        message = self._shard_message(
                            state["tasks"][index], deadline, trace_id,
                            att.span_id,
                        )
                        if deadline is not None:
                            sock.settimeout(
                                min(self.timeout, deadline.budget(0.001))
                            )
                        with span("wire.roundtrip", endpoint=endpoint):
                            send_frame(sock, message)
                            reply = recv_frame(sock)
                    except (OSError, WireError) as exc:
                        # Worker death mid-shard, refused connection,
                        # timeout, or an undecodable/corrupt frame: requeue
                        # for any lane (this one included), tell the
                        # breaker, and hand over to a spare — or, with none
                        # left, retry this worker with backoff while the
                        # run's budget lasts.  An unusable worker must
                        # degrade the fleet, never abort the batch.
                        # (ConnectionClosed is a WireError subclass.)
                        att.status = "error"
                        att.attrs["outcome"] = (
                            f"transport-failure:{type(exc).__name__}"
                        )
                        self._close(sock)
                        sock = None
                        breaker.record_failure()
                        self._record_failure(state, index, endpoint, exc)
                        release(requeue=True)
                        lane_failures += 1
                        lane_error = f"{type(exc).__name__}: {exc}"
                        spare = self._take_spare(state)
                        if spare is not None \
                                or _is_permanent_transport(exc) \
                                or lane_failures >= self.retry.max_attempts \
                                or not breaker.allow() \
                                or not state["budget"].take():
                            return gone(lane_error, spare)
                        with state["lock"]:
                            state["retries"] += 1
                        last_delay = self.retry.next_delay(last_delay, jitter)
                        if deadline is not None:
                            last_delay = min(last_delay, deadline.budget(0.0))
                        att.attrs["backoff_s"] = round(last_delay, 4)
                        time.sleep(last_delay)
                        continue
                if not isinstance(reply, tuple) or not reply:
                    att.status = "error"
                    att.attrs["outcome"] = "malformed-reply"
                    halt("fatal", f"malformed worker reply: {reply!r}")
                    release(requeue=True)
                    return None
                att.attrs["outcome"] = str(reply[0])
                detail = reply[1] if len(reply) > 1 else ""
                if reply[0] == "unavailable":
                    # The worker is draining: requeue elsewhere without
                    # charging the breaker — a graceful goodbye is not a
                    # failure.
                    with state["lock"]:
                        state["requeued"] += 1
                    release(requeue=True)
                    return gone(f"draining: {detail}")
                if reply[0] == "expired":
                    # The worker refused a shard whose budget arrived spent
                    # — the whole run is past its deadline.
                    halt("expired", True)
                    release(requeue=True)
                    return None
                if reply[0] == "error":
                    att.status = "error"
                    halt("fatal", detail or "error")
                    release(requeue=True)
                    return None
                if reply[0] != "result":
                    halt("fatal", f"unexpected reply type {reply[0]!r}")
                    release(requeue=True)
                    return None
                state["results"][index] = reply[1]
                state["done"][index] = True
                # Traced shards reply ("result", value, {"spans": [...]}):
                # stitch the worker-side spans (already parented on this
                # attempt's ID) into the request's recorder.
                if recorder is not None and len(reply) > 2 \
                        and isinstance(reply[2], dict):
                    shipped = reply[2].get("spans") or ()
                    recorder.extend(
                        [Span.from_dict(d) for d in shipped
                         if isinstance(d, dict)]
                    )
                release(requeue=False)
                breaker.record_success()
                lane_failures = 0
                lane_error = None
                last_delay = 0.0
            return None
        finally:
            self._close(sock)

    @staticmethod
    def _shard_message(task, deadline, trace_id=None,
                       parent_span_id=None) -> tuple:
        """The shard frame, plain data: the task and a meta dict that
        ships the remaining budget and, when the request is traced, its
        trace ID and the dispatch-attempt span ID the worker parents its
        compute span on."""
        meta = {}
        if deadline is not None:
            meta["deadline_s"] = deadline.remaining()
        if trace_id is not None:
            meta["trace_id"] = trace_id
            if parent_span_id is not None:
                meta["parent_span_id"] = parent_span_id
        return ("shard", task, meta)

    @staticmethod
    def _close(sock) -> None:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _dialable(self) -> tuple[list[str], list[str]]:
        """The fleet as ``(dialable, quarantined)``, for both :meth:`lanes`
        and :meth:`run_shards`: an open breaker means "recently kept
        failing"; half-open endpoints stay dialable to earn their way back."""
        return self.breakers.partition(self.workers.candidates())

    # -------------------------------------------------------------- public
    def lanes(self) -> int:
        """The dialable workers, as :meth:`run_shards` opens lanes on."""
        return len(self._dialable()[0])

    def run_shards(self, tasks, *,
                   deadline: Deadline | None = None) -> list:
        tasks = list(tasks)
        if not tasks:
            return []
        if deadline is None:
            deadline = current_deadline()
        with span("dispatch.resolve") as resolve:
            dialable, quarantined = self._dialable()
            if dialable and not self.workers.load_ranked:
                turn = next(self._runs) % len(dialable)
                dialable = dialable[turn:] + dialable[:turn]
            # Half-open endpoints rank behind every closed one (a stable
            # sort keeps the run's order within each class).
            ranked = sorted(
                dialable, key=lambda a: self.breakers.state(a) != "closed"
            )
            resolve.attrs["candidates"] = len(dialable) + len(quarantined)
            resolve.attrs["quarantined"] = len(quarantined)
        if not dialable and not quarantined:
            self.last_run = {"addresses": [], "local": True,
                             "quarantined": []}
            if not self.fallback_local:
                raise WorkerUnavailable(
                    "no worker to dispatch to: the fleet is empty"
                )
            return default_executor().run_shards(tasks, deadline=deadline)
        # One lane per shard is the useful maximum: extra lanes would only
        # hold idle connections.  The rest wait as spares for a lane whose
        # worker goes away.  With every candidate quarantined no lane
        # opens, and the leftover shards run locally or fail the run.
        lanes, spares = ranked[:len(tasks)], ranked[len(tasks):]
        # The rank picks the lanes and the order spares take over; the
        # lanes themselves start in the run's order.  A half-open
        # endpoint that won a lane thus does not start last and find the
        # queue drained — it gets the trial shard its breaker admits.
        lanes.sort(key=dialable.index)
        budget = self.retry_budget
        state = {
            "tasks": tasks,
            "results": [None] * len(tasks),
            "done": [False] * len(tasks),
            "attempts": [0] * len(tasks),
            "max_attempts": self.max_attempts
            or len(dialable) + self.retry.max_attempts,
            "history": collections.defaultdict(list),
            "pending": queue.Queue(),
            "lock": threading.Lock(),
            "addresses": list(lanes),
            "spares": spares,
            "quarantined": quarantined,
            "in_flight": 0,
            "requeued": 0,
            "retries": 0,
            "dead": [],
            "breaker_skips": [],
            "fatal": None,
            "poisoned": None,
            "expired": False,
            "deadline": deadline,
            "budget": RetryBudget(
                max(4, len(tasks)) if budget is None else budget
            ),
        }
        for i in range(len(tasks)):
            state["pending"].put(i)

        # The dispatch span brackets the whole fan-out; failures raised
        # below mark it errored on the way out.  Each lane starts in its
        # own copy of this context (one thread cannot enter a copy another
        # is running), so attempt spans become children of "dispatch" and
        # the lane reads the request's trace ID and recorder.
        with span("dispatch", executor="remote", shards=len(tasks),
                  lanes=len(lanes)):
            for endpoint in quarantined:
                self._skip_quarantined(state, endpoint)
            threads = [
                threading.Thread(
                    target=contextvars.copy_context().run,
                    args=(self._serve_lane, endpoint, state),
                    daemon=True,
                )
                for endpoint in lanes
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return self._finish_run(tasks, state, deadline)

    def _finish_run(self, tasks, state, deadline) -> list:
        self.last_run = {
            "addresses": list(state["addresses"]),
            "local": not state["addresses"],
            "quarantined": state["quarantined"],
            "requeued": state["requeued"],
            "retries": state["retries"],
            "dead_workers": list(state["dead"]),
            "breaker_skips": list(state["breaker_skips"]),
            "local_fallback_shards": 0,
        }
        if state["fatal"] is not None:
            raise ShardExecutionError(
                f"shard function failed on a worker: {state['fatal']}"
            )
        if state["poisoned"] is not None:
            index = state["poisoned"]
            history = {i: list(h) for i, h in state["history"].items()}
            raise WorkerUnavailable(
                f"shard {index} exhausted its {state['max_attempts']}-attempt "
                f"bound (a poison shard?); attempts: {history.get(index, [])}",
                attempt_history=history,
            )
        if state["expired"] or (deadline is not None and deadline.expired):
            unfinished = sum(1 for ok in state["done"] if not ok)
            if unfinished:
                raise DeadlineExceeded(
                    f"request deadline exhausted with {unfinished} shard(s) "
                    f"undispatched"
                )
        leftover = [i for i, ok in enumerate(state["done"]) if not ok]
        if leftover:
            if not self.fallback_local:
                raise WorkerUnavailable(
                    f"{len(leftover)} shard(s) unfinished after all worker "
                    f"lanes failed: {state['dead'] or state['breaker_skips']}",
                    attempt_history={
                        i: list(h) for i, h in state["history"].items()
                    },
                )
            computed = default_executor().run_shards(
                [tasks[i] for i in leftover], deadline=deadline
            )
            for i, result in zip(leftover, computed):
                state["results"][i] = result
            self.last_run["local_fallback_shards"] = len(leftover)
        return state["results"]

    def describe(self) -> dict:
        return {
            "executor": self.workers.kind,
            **self.workers.describe(),
            "timeout_s": self.timeout,
            "retry": self.retry.describe(),
        }
