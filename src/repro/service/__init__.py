"""repro.service — distributed shard execution and async serving.

Two layers grow the single-machine engine into a serving system:

1. **Executor layer** (:mod:`repro.service.executor`): the
   :class:`ShardExecutor` seam :meth:`repro.engine.SearchEngine.search_batch`
   dispatches its shards through.  :class:`LocalExecutor` runs them
   in-process, one after another (row threads inside a shard are the
   only local parallelism); it and the seam live in
   :mod:`repro.engine.plan`, so an in-process batch imports nothing from
   this package, and are re-exported here.  :class:`RemoteExecutor`
   speaks a small length-prefixed TCP protocol (:mod:`repro.service.wire`) to
   ``repro-worker`` processes (:mod:`repro.service.worker`) on other
   hosts, reading its fleet per
   batch from a worker source: a static address list
   (:class:`StaticWorkers`), or a :class:`WorkerRegistry` that workers join
   by announcing themselves (``repro-worker --register``) and the server
   health-checks.  Shard boundaries and every random draw are fixed
   *before* dispatch, so every executor returns bit-identical results.

2. **Serving layer** (:mod:`repro.service.scheduler` /
   :mod:`repro.service.server`): an :mod:`asyncio`-based
   :class:`SearchService` with a bounded job queue, backpressure, per-request
   timeouts, and a TTL result cache keyed by each request's structural
   fingerprint, exposed over TCP by :class:`SearchServer` and driven by the
   ``repro serve`` / ``repro submit`` CLI (:mod:`repro.service.cli`).

Above both sits :mod:`repro.cluster`: gossip membership that federates
several ``repro serve`` replicas (``--join``), cache peering between their
TTL caches, and cluster-wide scheduling over every member's registered
workers.

Trust model: frames carry pickled payloads, so workers and servers must only
be exposed to trusted hosts (a cluster-internal network), never the open
internet.  The wire format is versioned, and a receiver accepts exactly its
own :data:`repro.service.wire.WIRE_VERSION`: deploy workers, servers and
clients from one build.
"""

from repro.service.cache import TTLCache, request_fingerprint
from repro.service.executor import (
    LocalExecutor,
    RemoteExecutor,
    ShardExecutionError,
    ShardExecutor,
    StaticWorkers,
    WorkerUnavailable,
)
from repro.service.registry import WorkerRegistry
from repro.service.scheduler import SearchService, ServiceOverloaded, ServiceStats
from repro.service.server import SearchServer, cluster_status, submit_remote
from repro.service.worker import WorkerServer, register_with_server
from repro.service.wire import WIRE_VERSION, ConnectionClosed, WireError

__all__ = [
    "TTLCache",
    "request_fingerprint",
    "ShardExecutor",
    "LocalExecutor",
    "RemoteExecutor",
    "StaticWorkers",
    "WorkerRegistry",
    "ShardExecutionError",
    "WorkerUnavailable",
    "SearchService",
    "ServiceOverloaded",
    "ServiceStats",
    "SearchServer",
    "submit_remote",
    "cluster_status",
    "WorkerServer",
    "register_with_server",
    "WIRE_VERSION",
    "WireError",
    "ConnectionClosed",
]
