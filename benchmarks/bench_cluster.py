"""Cluster cache-peering benchmark: peer-fetch vs recompute latency.

Boots two clustered ``SearchServer`` replicas on loopback (gossip-joined,
cache peering on), drives a batch-request workload through replica A (cold:
every request computes), then replays the identical workload through
replica B (warm: every request should be served from A's cache over the
peering protocol), and records:

- the **cluster cache hit ratio** on the replayed workload,
- median **recompute** latency (replica A, cold) vs median **peer-fetch**
  latency (replica B, warm) with the speedup between them,
- a digest/bit-identity check of every peered report against its original.

Results merge into ``BENCH_simulator.json`` as a ``cluster`` section (the
other sections are left untouched), with ``delta_vs_baseline`` expressing
peer-fetch time against the recompute time it replaces — the quantity a
serving fleet buys by federating its caches.

``--chaos`` runs the resilience-overhead benchmark instead: the same
sharded batch through two loopback workers fault-free (full resilience
stack enabled — retry policy, breaker registry, deadline plumbing), then
under a seeded crash-loop ``FaultPlan``, asserting the chaos report stays
bit-identical to the local run, plus a breaker-gate microbenchmark.
Results land as a ``resilience`` section with ``delta_vs_baseline``
expressing the chaos run against the fault-free dispatch it degrades.

Run from the repo root (``python benchmarks/bench_cluster.py``;
``--quick`` shrinks the workload for CI smoke).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import statistics
import time

import numpy as np

from repro.cluster import (
    CachePeers,
    ClusterCoordinator,
    ClusterExecutor,
    ClusterMembership,
)
from repro.engine import SearchEngine, SearchRequest
from repro.service.registry import WorkerRegistry
from repro.service.scheduler import SearchService
from repro.service.server import SearchServer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_simulator.json"

CONFIGS = {
    "full": {"n_items": 4096, "n_blocks": 4, "requests": 12},
    "quick": {"n_items": 1024, "n_blocks": 4, "requests": 6},
}


class _Replica:
    def __init__(self):
        self.membership = ClusterMembership(suspicion_timeout=600.0)
        self.registry = WorkerRegistry()
        self.coordinator = ClusterCoordinator(
            self.membership, gossip_interval=600.0
        )
        self.peering = CachePeers(self.membership, total_budget=120.0,
                                  reply_timeout=120.0)
        engine = SearchEngine(
            executor=ClusterExecutor(self.membership, self.registry)
        )
        self.service = SearchService(engine, peering=self.peering,
                                     request_timeout=600.0,
                                     cache_size=1024)
        self.server = SearchServer(self.service, registry=self.registry,
                                   health_interval=600.0,
                                   cluster=self.coordinator)

    @property
    def address(self) -> str:
        host, port = self.server.address
        return f"{host}:{port}"


def _workload(config: dict) -> list[tuple[SearchRequest, np.ndarray]]:
    """Distinct cacheable batch requests: disjoint target stripes of one
    instance, so every request fingerprints (and computes) differently."""
    n, k, m = config["n_items"], config["n_blocks"], config["requests"]
    stripe = n // m
    return [
        (
            SearchRequest(n_items=n, n_blocks=k),
            np.arange(i * stripe, (i + 1) * stripe, dtype=np.intp),
        )
        for i in range(m)
    ]


async def _run_cluster(config: dict) -> dict:
    a, b = _Replica(), _Replica()
    await a.server.start()
    await b.server.start()
    try:
        a.membership.seeds = (b.address,)
        await a.coordinator.gossip_once()
        await b.coordinator.gossip_once()
        assert a.membership.peers() and b.membership.peers(), "join failed"

        workload = _workload(config)
        recompute_times, cold_reports = [], []
        for request, targets in workload:
            t0 = time.perf_counter()
            report = await a.service.submit(request, targets=targets,
                                            batch=True)
            recompute_times.append(time.perf_counter() - t0)
            cold_reports.append(report)

        peer_times = []
        for (request, targets), cold in zip(workload, cold_reports):
            t0 = time.perf_counter()
            report = await b.service.submit(request, targets=targets,
                                            batch=True)
            peer_times.append(time.perf_counter() - t0)
            np.testing.assert_array_equal(
                report.success_probabilities, cold.success_probabilities,
                err_msg="peered report must be bit-identical to the original",
            )

        hits = b.service.stats.peer_hits
        recompute_s = statistics.median(recompute_times)
        peer_fetch_s = statistics.median(peer_times)
        return {
            "n_items": config["n_items"],
            "n_blocks": config["n_blocks"],
            "requests": len(workload),
            "cluster_hit_ratio": hits / len(workload),
            "peer_hits": hits,
            "recompute_s": recompute_s,
            "peer_fetch_s": peer_fetch_s,
            "speedup_peer_fetch_vs_recompute": recompute_s / peer_fetch_s,
            "outbound_peering": b.peering.stats(),
            "delta_vs_baseline": {
                "peer_fetch_vs_recompute_s": {
                    "before_s": recompute_s,
                    "after_s": peer_fetch_s,
                    "ratio": peer_fetch_s / recompute_s,
                },
            },
        }
    finally:
        await a.server.stop()
        await b.server.stop()
        a.service.close()
        b.service.close()


CHAOS_CONFIGS = {
    "full": {"n_items": 1024, "n_blocks": 4, "max_rows": 64, "repeats": 5},
    "quick": {"n_items": 256, "n_blocks": 4, "max_rows": 16, "repeats": 3},
}


def _run_chaos(config: dict) -> dict:
    """Resilience overhead: fault-free dispatch with the full stack on vs a
    seeded crash-loop chaos run, both bit-identical to the local run."""
    from repro.core.parameters import plan_schedule
    from repro.engine import ShardPolicy
    from repro.engine.plan import run_grk_batch_sharded
    from repro.resilience import (
        BreakerRegistry,
        CircuitBreaker,
        FaultPlan,
        RetryPolicy,
    )
    from repro.service.executor import LocalExecutor, RemoteExecutor
    from repro.service.worker import WorkerServer

    schedule = plan_schedule(config["n_items"], config["n_blocks"])
    targets = np.arange(config["n_items"])
    policy = ShardPolicy(max_rows=config["max_rows"])

    def run(executor):
        t0 = time.perf_counter()
        result = run_grk_batch_sharded(schedule.program, targets, "kernels",
                                       policy, executor=executor)
        return time.perf_counter() - t0, result

    def fleet_executor(*addresses):
        return RemoteExecutor(
            list(addresses),
            retry=RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.1),
            breakers=BreakerRegistry(),
        )

    _, (success, guesses, _) = run(LocalExecutor())

    fault_free_times = []
    for _ in range(config["repeats"]):
        with WorkerServer() as w1, WorkerServer() as w2:
            elapsed, (r_success, r_guesses, _) = run(
                fleet_executor(w1.address, w2.address)
            )
        np.testing.assert_array_equal(r_success, success)
        np.testing.assert_array_equal(r_guesses, guesses)
        fault_free_times.append(elapsed)

    chaos_times, faults_fired, requeued = [], 0, 0
    for seed in range(config["repeats"]):
        plan = FaultPlan.worker_crash(2, seed=seed)
        with WorkerServer(chaos=plan) as dying, WorkerServer() as survivor:
            ex = fleet_executor(dying.address, survivor.address)
            elapsed, (r_success, r_guesses, _) = run(ex)
        np.testing.assert_array_equal(
            r_success, success,
            err_msg="chaos report must be bit-identical to the local run",
        )
        np.testing.assert_array_equal(r_guesses, guesses)
        chaos_times.append(elapsed)
        faults_fired += plan.fired("worker.shard")
        requeued += ex.last_run.get("requeued", 0)

    # The per-dispatch cost of the breaker gate every lane pays even when
    # nothing is failing: one allow() claim + one record_success().
    breaker, gate_rounds = CircuitBreaker(), 100_000
    t0 = time.perf_counter()
    for _ in range(gate_rounds):
        breaker.allow()
        breaker.record_success()
    breaker_gate_ns = (time.perf_counter() - t0) / gate_rounds * 1e9

    fault_free_s = statistics.median(fault_free_times)
    chaos_s = statistics.median(chaos_times)
    return {
        "n_items": config["n_items"],
        "n_blocks": config["n_blocks"],
        "shard_rows": config["max_rows"],
        "repeats": config["repeats"],
        "fault_free_dispatch_s": fault_free_s,
        "chaos_crash_loop_s": chaos_s,
        "chaos_overhead_ratio": chaos_s / fault_free_s,
        "faults_fired": faults_fired,
        "shards_requeued": requeued,
        "bit_identical_under_chaos": True,
        "breaker_gate_ns_per_dispatch": breaker_gate_ns,
        "delta_vs_baseline": {
            "chaos_vs_fault_free_s": {
                "before_s": fault_free_s,
                "after_s": chaos_s,
                "ratio": chaos_s / fault_free_s,
            },
        },
    }


def main_chaos(mode: str = "full") -> dict:
    config = CHAOS_CONFIGS[mode]
    section = _run_chaos(config)
    section["mode"] = mode

    # Every chaos run crashed a worker mid-shard (the plan fired) and the
    # executor requeued the lost shard — otherwise the bench measured
    # nothing.  Bit-identity is asserted inline above.
    assert section["faults_fired"] == config["repeats"], section
    assert section["shards_requeued"] >= config["repeats"], section

    existing = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    existing["resilience"] = section
    OUTPUT.write_text(json.dumps(existing, indent=2) + "\n")
    print(json.dumps(section, indent=2))
    print(f"\nwrote resilience section -> {OUTPUT}")
    return section


def main(mode: str = "full") -> dict:
    config = CONFIGS[mode]
    section = asyncio.run(_run_cluster(config))
    section["mode"] = mode

    # The hit ratio is the bench's acceptance: a replayed workload that is
    # not (almost) fully served by peering means the fingerprint or the
    # peer protocol regressed.
    assert section["cluster_hit_ratio"] == 1.0, section
    assert section["speedup_peer_fetch_vs_recompute"] > 1.0, section

    existing = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    existing["cluster"] = section
    OUTPUT.write_text(json.dumps(existing, indent=2) + "\n")
    print(json.dumps(section, indent=2))
    print(f"\nwrote cluster section -> {OUTPUT}")
    return section


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced CI smoke configuration")
    parser.add_argument("--chaos", action="store_true",
                        help="run the resilience-overhead benchmark "
                             "(writes the 'resilience' section) instead of "
                             "the cache-peering one")
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"
    main_chaos(mode) if args.chaos else main(mode)
