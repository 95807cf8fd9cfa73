"""Serving & distribution in one self-contained loopback demo.

Three acts, all on this machine (no network setup needed):

1. spin up two ``repro-worker`` servers and fan a sharded all-targets
   batch across them with :class:`RemoteExecutor` — results bit-identical
   to the in-process path;
2. kill one worker mid-batch (fault injection) and watch the shards
   requeue onto the survivor, still bit-identical;
3. run the asyncio :class:`SearchService` with ten concurrent clients,
   a bounded queue, and the TTL cache deduplicating repeat requests.
"""

import asyncio

import numpy as np

from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.resilience import FaultPlan
from repro.service import RemoteExecutor, SearchService
from repro.service.worker import WorkerServer

N_ITEMS, N_BLOCKS = 1024, 4
REQUEST = SearchRequest(
    n_items=N_ITEMS, n_blocks=N_BLOCKS, shards=ShardPolicy(max_rows=64)
)

# --- Act 1: distributed shards, bit-identical results ---------------------
local = SearchEngine().search_batch(REQUEST)
with WorkerServer() as w1, WorkerServer() as w2:
    engine = SearchEngine(executor=RemoteExecutor([w1.address, w2.address]))
    remote = engine.search_batch(REQUEST)
    shares = (w1.shards_served, w2.shards_served)
identical = bool(
    np.array_equal(local.success_probabilities, remote.success_probabilities)
    and np.array_equal(local.block_guesses, remote.block_guesses)
)
print(f"all-targets batch: {remote.n_rows} rows in "
      f"{remote.execution['n_shards']} shards across 2 workers "
      f"({shares[0]}+{shares[1]})")
print(f"remote results bit-identical to local: {identical}")

# --- Act 2: worker death mid-batch, requeued, still identical -------------
with WorkerServer(chaos=FaultPlan.worker_crash(3)) as dying, \
        WorkerServer() as survivor:
    engine = SearchEngine(executor=RemoteExecutor([dying.address, survivor.address]))
    after_death = engine.search_batch(REQUEST)
    requeued = engine.executor.last_run["requeued"]
identical_after_death = bool(
    np.array_equal(local.success_probabilities, after_death.success_probabilities)
)
print(f"worker died mid-batch: {requeued} shard(s) requeued, "
      f"results still bit-identical: {identical_after_death}")


# --- Act 3: async serving with backpressure and a TTL cache ---------------
async def serve_demo():
    async with SearchService(max_pending=32, max_workers=4,
                             cache_size=16, cache_ttl=60.0) as service:
        async def client(c):
            # Every client asks for the same two searches: single-flight
            # coalescing plus the cache turn 20 submissions into 2
            # executions.
            for target in (42, 641):
                await service.submit(
                    SearchRequest(n_items=N_ITEMS, n_blocks=N_BLOCKS,
                                  target=target)
                )
        await asyncio.gather(*[client(c) for c in range(10)])
        return service.stats_snapshot()


stats = asyncio.run(serve_demo())
executions = (stats["completed"] - stats["cache_hits"] - stats["coalesced"])
print(f"service: {stats['completed']} requests from 10 concurrent clients -> "
      f"{executions} executions ({stats['coalesced']} coalesced in flight, "
      f"{stats['cache_hits']} cache hits, "
      f"cache size {stats['cache']['size']}/{stats['cache']['maxsize']})")
