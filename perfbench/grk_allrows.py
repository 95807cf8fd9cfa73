"""``grk-allrows``: all-targets GRK-family batches on the simulator.

In-process ``SearchEngine.search_batch(engine="simulate")`` over every
target, for grk, grk-simplified, grk-sure-success and grk-cwb on two
geometries, under the default policy (complex128, numpy kernels,
``LocalExecutor``, one worker):

- ``n1024``: N=1024, K=4, a 16 MiB slab in one shard;
- ``n4096``: N=4096, K=8, a 256 MiB batch split into shards near the
  128 MiB budget.

One *round* runs every (method, geometry) batch once, in a seeded order,
with a ``harness.HostProbe`` tick before each batch.  The run repeats
rounds until ``--seconds`` have passed (at least one).

Each (method, geometry) batch is timed by its fastest run: on the shared
host the same batch takes up to 1.5x longer from one round to the next
while neighbours load it, and the slower repeats measure them, not the
program.  Those best times are scaled by the probe's fast end, its p10
tick (best against best), which takes out the slower swings that last a
whole run.  Throughput is rows over the sum of the scaled times.  Latency
is row-weighted (a row waits for its whole batch), so p50 lands in the
n4096 grk/grk-simplified batches and p90 in the n4096 sure-success/CWB
ones.
"""

from __future__ import annotations

import time

import harness

GEOMETRIES = {"n1024": (1024, 4), "n4096": (4096, 8)}
METHODS = ("grk", "grk-simplified", "grk-sure-success", "grk-cwb")
#: Targets in the cold first pass of each (method, geometry).
SETUP_TARGETS = 16
#: Rows per (method, geometry) checked against the analytic model.
SAMPLE_ROWS = 8
#: Row traversals per query in the computed kernel-bytes model: each
#: iteration's oracle touches one entry, and its diffusion reads the row
#: for the mean, then reads and writes it once more.
PASSES_PER_QUERY = 3
#: Methods whose batches run on the kernel sweeps (the other two loop a
#: single-state runner per row).
SWEPT = ("grk", "grk-simplified")
TOLERANCE = 1e-9


def request(method: str, n: int, k: int):
    from repro.engine import SearchRequest

    return SearchRequest(n_items=n, n_blocks=k, method=method, engine="simulate")


def _combos(rng):
    combos = [(m, g) for g in GEOMETRIES for m in METHODS]
    rng.shuffle(combos)
    return combos


class Checker:
    """Reference answers for sampled rows, from the analytic tier."""

    def __init__(self, engine, rng):
        from repro.engine import SearchRequest

        self.samples = {}
        for geometry, (n, k) in GEOMETRIES.items():
            for method in METHODS:
                rows = sorted(rng.sample(range(n), SAMPLE_ROWS))
                refs = []
                for t in rows:
                    rep = engine.search(SearchRequest(
                        n_items=n, n_blocks=k, method=method, target=t,
                        wants="probability", engine="analytic",
                    ))
                    refs.append((t, rep.success_probability, rep.block_guess,
                                 rep.queries))
                self.samples[(method, geometry)] = refs

    def wrong(self, method: str, geometry: str, report) -> int:
        """0 if the batch is right, else 1 (one wrong answer per batch)."""
        if not report.all_correct or report.n_rows != GEOMETRIES[geometry][0]:
            return 1
        for t, success, guess, queries in self.samples[(method, geometry)]:
            if abs(float(report.success_probabilities[t]) - success) > TOLERANCE \
                    or int(report.block_guesses[t]) != guess \
                    or int(report.queries[t]) != queries:
                return 1
        return 0


def _warm(engine, rng) -> Checker:
    for geometry, (n, k) in GEOMETRIES.items():
        for method in METHODS:
            engine.search_batch(request(method, n, k), targets=range(SETUP_TARGETS))
    return Checker(engine, rng)


def measure(seconds: float, rng) -> dict:
    """The untraced run: rounds of all-targets batches for *seconds*."""
    from repro.engine import SearchEngine

    engine = SearchEngine()
    checker = _warm(engine, rng)
    probe = harness.HostProbe()
    times: dict = {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        for method, geometry in _combos(rng):
            n, k = GEOMETRIES[geometry]
            probe.tick()
            t0 = time.perf_counter()
            report = engine.search_batch(request(method, n, k))
            times.setdefault((method, geometry), []).append(time.perf_counter() - t0)
            attempted += 1
            failed += checker.wrong(method, geometry, report)
        if time.perf_counter() - started >= seconds:
            break
    best = {c: min(v) for c, v in times.items()}
    scale = probe.scale(10.0)
    rows = sum(GEOMETRIES[g][0] for _, g in best)
    # Row-weighted: each row waits for its whole batch, so a batch's
    # time counts once per row it answers.
    latencies = [t for (_, g), t in best.items() for _ in range(GEOMETRIES[g][0])]
    lat = harness.summarize(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(next(iter(times.values()))),
        "rows_per_s": rows / sum(best.values()) / scale,
        "latency": {"n": lat["n"], "p50_ms": lat["p50"] * 1e3 * scale,
                    "p90_ms": lat["p90"] * 1e3 * scale,
                    "beyond_p90": lat["beyond_p90"]},
        "batch_s": {f"{m}.{g}": ts for (m, g), ts in sorted(times.items())},
        "probe": probe.summary(),
        "unscaled": {"rows_per_s": rows / sum(best.values()),
                     "latency_p50_ms": lat["p50"] * 1e3,
                     "latency_p90_ms": lat["p90"] * 1e3},
    }


# ----------------------------------------------------------------- traced
INSTRUMENTED = (
    ("repro.core.batch", "execute_batch_rows", "core.batch"),
    ("repro.core.simplified", "execute_simplified_batch_rows", "core.batch"),
    ("repro.core.sure_success", "run_sure_success_partial_search", "core.row"),
    ("repro.core.cwb", "run_cwb_partial_search", "core.row"),
    ("repro.kernels", "sweep_row_slabs", "kernels.sweep"),
)


def traced(rng) -> tuple[dict, dict]:
    """One traced round.  Returns ``(per_layer_metrics, detail)``."""
    from repro.engine import SearchEngine

    engine = SearchEngine()
    checker = _warm(engine, rng)
    traces, calls = [], []
    attempted = failed = 0
    with harness.instrument(INSTRUMENTED):
        for method, geometry in _combos(rng):
            n, k = GEOMETRIES[geometry]
            report, spans = harness.recorded(
                lambda: engine.search_batch(request(method, n, k)),
                "bench.search_batch",
            )
            attempted += 1
            failed += checker.wrong(method, geometry, report)
            traces.append(spans)
            calls.append((method, geometry, report, spans))

    n_calls = len(calls)
    breakdown = harness.stage_breakdown(traces)
    metrics = {
        "engine.plan_ms": _sum_dur(traces, "shards.plan") / n_calls * 1e3,
        "engine.dispatch_self_ms": breakdown["stages"].get("dispatch", 0.0)
        / n_calls * 1e3,
        "engine.merge_ms": _sum_dur(traces, "merge") / n_calls * 1e3,
        "engine.shards": sum(int(r.execution["n_shards"]) for *_, r, _ in calls),
    }
    sweep_s = _sum_dur(traces, "kernels.sweep")
    total_s = sum(s["duration_s"] for t in traces for s in t
                  if s["name"] == "bench.search_batch")
    oracle_calls = 0
    bytes_moved = 0.0
    sweep_n4096 = 0.0
    for method, geometry, report, spans in calls:
        core_s = sum(s["duration_s"] for s in spans
                     if s["name"] in ("core.batch", "core.row"))
        metrics[f"core.{method}.{geometry}.batch_s"] = core_s
        if method in SWEPT:
            n = GEOMETRIES[geometry][0]
            queries = int(report.queries[0])
            oracle_calls += report.n_rows * queries
            if geometry == "n4096":
                bytes_moved += report.n_rows * n * 8 * PASSES_PER_QUERY * queries
                sweep_n4096 += sum(s["duration_s"] for s in spans
                                   if s["name"] == "kernels.sweep")
    metrics["kernels.sweep_s"] = sweep_s
    metrics["kernels.share"] = sweep_s / total_s
    metrics["kernels.oracle_calls"] = oracle_calls
    metrics["kernels.bytes_gb"] = bytes_moved / 1e9
    metrics["kernels.gbps"] = bytes_moved / 1e9 / sweep_n4096
    metrics["trace.grk-allrows.unattributed_share"] = breakdown["unattributed_share"]
    detail = {
        "attempted": attempted,
        "failed": failed,
        "stages_s": breakdown["stages"],
        "total_s": breakdown["total_s"],
        "kernels_bytes_model": f"rows x N x 8 B (float64 rows) x "
                               f"{PASSES_PER_QUERY} passes x queries, "
                               "n4096 grk + grk-simplified sweeps (computed)",
    }
    return metrics, detail


def _sum_dur(traces, name: str) -> float:
    return sum(s["duration_s"] for s in harness.spans_named(traces, name))
