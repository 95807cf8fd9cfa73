"""Benchmark the closed-form analytic tier: latency that is flat in N.

Three measurements, merged into ``BENCH_simulator.json`` as an
``analytic`` section (the artifact the simulator/cluster/gateway benches
already share):

1. **Closed-form latency** — p50/p95 of ``SearchEngine.search`` with
   ``engine="analytic"`` at ``N = 2**20``, ``2**40`` and ``2**60``.  The
   whole point of the tier is that these three numbers are the same
   number: evaluation is O(1) trigonometry after a once-per-geometry
   cached schedule plan, so a ``2**60``-item "database" answers as fast
   as a ``2**20``-item one — sizes where the statevector tier would need
   exabytes of RAM answer in microseconds.

2. **Closed-loop serving hit ratio** — a ``SearchService`` workload of
   probability-class requests over a small pool of geometries (repeats
   included, as real tenants produce).  Every request must be served
   either from the TTL cache or by a closed-form evaluation — the
   ``cache_or_closed_form_hit_ratio`` is the fraction that never touched
   a statevector, and the acceptance gate pins it at 1.0.

3. **Batch cost per row** — the median microseconds per row of one
   ``2**14``-row ``engine="analytic"`` batch per method at ``N = 2**20``,
   ``K = 8`` (analytic-sweep's batch shape).  A batch is one closed-form
   evaluation per geometry plus numpy arithmetic on the targets, so the
   gate holds every method to :data:`BATCH_US_PER_ROW_MAX`; a per-row
   Python loop costs 3-14 us per row and fails it.

Usage::

    PYTHONPATH=src python benchmarks/bench_analytic.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_simulator.json"

#: Full vs --quick: (latency repetitions, serving requests per geometry,
#: timed batches per method).
CONFIGS = {
    "full": {"reps": 400, "serving_rounds": 40, "batch_reps": 50},
    "quick": {"reps": 60, "serving_rounds": 8, "batch_reps": 10},
}

#: The latency grid: the exponents the ISSUE pins, well past any simulator.
SIZE_EXPONENTS = (20, 40, 60)

#: The batch measurement's geometry and size.
BATCH_N, BATCH_K, BATCH_ROWS = 1 << 20, 8, 1 << 14

#: Acceptance ceiling on an analytic batch's cost per row, in microseconds.
BATCH_US_PER_ROW_MAX = 0.5


def _request(n_exp: int, *, target: int | None = 12345, method: str = "grk"):
    from repro.engine import SearchRequest

    return SearchRequest(
        n_items=1 << n_exp,
        n_blocks=16,
        method=method,
        target=target,
        wants="probability",
        engine="analytic",
    )


def bench_latency(cfg: dict) -> dict:
    """p50/p95 closed-form search latency per size (warm caches)."""
    from repro.engine import SearchEngine

    engine = SearchEngine()
    rows = {}
    for n_exp in SIZE_EXPONENTS:
        request = _request(n_exp)
        report = engine.search(request)  # warm the schedule-plan cache
        assert report.backend == "analytic", report.backend
        samples = []
        for _ in range(cfg["reps"]):
            t0 = time.perf_counter()
            engine.search(request)
            samples.append((time.perf_counter() - t0) * 1e3)
        samples.sort()
        rows[f"n_2**{n_exp}"] = {
            "n_items": 1 << n_exp,
            "p50_ms": round(statistics.median(samples), 6),
            "p95_ms": round(samples[int(0.95 * (len(samples) - 1))], 6),
            "queries": int(report.queries),
            "success_probability": float(report.success_probability),
        }
    return rows


def bench_batch(cfg: dict) -> dict:
    """Median microseconds per row of one analytic batch, per method."""
    import numpy as np

    from repro.analytic import available_models
    from repro.engine import SearchEngine, SearchRequest

    engine = SearchEngine()
    targets = np.random.default_rng(0).choice(BATCH_N, BATCH_ROWS,
                                              replace=False)
    us_per_row = {}
    for method in available_models():
        request = SearchRequest(n_items=BATCH_N, n_blocks=BATCH_K,
                                method=method, wants="probability",
                                engine="analytic")
        report = engine.search_batch(request, targets=targets)  # warm plans
        assert report.backend == "analytic", report.backend
        assert report.n_rows == BATCH_ROWS, report.n_rows
        samples = []
        for _ in range(cfg["batch_reps"]):
            t0 = time.perf_counter()
            engine.search_batch(request, targets=targets)
            samples.append(time.perf_counter() - t0)
        us_per_row[method] = round(
            statistics.median(samples) / BATCH_ROWS * 1e6, 6
        )
    return {
        "n_items": BATCH_N,
        "n_blocks": BATCH_K,
        "rows": BATCH_ROWS,
        "us_per_row": us_per_row,
    }


async def _serve_workload(cfg: dict) -> dict:
    from repro.service.scheduler import SearchService

    # A small pool of distinct geometries, requested repeatedly — the
    # closed-loop shape a dashboard polling a few instances produces.
    pool = [
        _request(n_exp, target=target, method=method)
        for n_exp in (20, 30, 40)
        for target in (1, 999)
        for method in ("grk", "grk-simplified")
    ]
    served_analytic = 0
    async with SearchService(max_workers=2) as service:
        for _ in range(cfg["serving_rounds"]):
            for request in pool:
                report = await service.submit(request)
                if report.backend == "analytic":
                    served_analytic += 1
        stats = service.stats.snapshot()
    total = cfg["serving_rounds"] * len(pool)
    # Every request either hit the TTL cache or was answered closed-form;
    # cache hits return the analytic report too, so the two counts
    # together must cover the workload exactly once each.
    hits = stats["cache_hits"]
    fresh = total - hits
    return {
        "requests": total,
        "distinct_geometries": len(pool),
        "cache_hits": hits,
        "closed_form_evaluations": fresh,
        "served_analytic": served_analytic,
        "cache_or_closed_form_hit_ratio": served_analytic / total,
    }


def main(mode: str = "full") -> dict:
    cfg = CONFIGS[mode]
    latency = bench_latency(cfg)
    serving = asyncio.run(_serve_workload(cfg))
    batch = bench_batch(cfg)
    section = {
        "mode": mode,
        "description": (
            "closed-form engine tier: O(1) search latency at statevector-"
            "impossible sizes, the serving-stack guarantee that "
            "probability-class requests never simulate, and the cost per "
            "row of a closed-form batch"
        ),
        "latency": latency,
        "serving": serving,
        "batch": batch,
    }

    # Acceptance: latency is flat in N (2**60 within 5x of 2**20 — both
    # are microsecond-scale, so the ratio bounds noise, not physics), the
    # absolute cost stays interactive, the closed loop never touched a
    # statevector, and no method's batch falls back to a per-row loop.
    p50_small = latency["n_2**20"]["p50_ms"]
    p50_huge = latency["n_2**60"]["p50_ms"]
    assert p50_huge <= 5.0, f"2**60 p50 {p50_huge} ms is not interactive"
    assert p50_huge <= max(5 * p50_small, p50_small + 1.0), (p50_small, p50_huge)
    assert serving["cache_or_closed_form_hit_ratio"] == 1.0, serving
    assert max(batch["us_per_row"].values()) <= BATCH_US_PER_ROW_MAX, batch

    existing = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    existing["analytic"] = section
    OUTPUT.write_text(json.dumps(existing, indent=2) + "\n")
    print(json.dumps(section, indent=2))
    print(f"\nwrote analytic section -> {OUTPUT}")
    return section


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced configuration for the CI smoke job",
    )
    cli = parser.parse_args()
    main("quick" if cli.quick else "full")
