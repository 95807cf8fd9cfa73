"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see each module's docstring):

- ``grk-allrows``   all-targets GRK-family batches on the simulator;
- ``analytic-sweep`` the paper's (N, K) sweep from the closed-form tier;
- ``gateway-mix``   the out-of-process gateway + worker stack under an
  open-loop request mix, then a closed-loop capacity phase.

``BENCHMARK.json`` lists the first two.  ``gateway-mix`` runs by hand: its
millisecond latencies across four processes on two vCPUs move 2-2.5x
with the host's slow phases, more than a run-to-run bound allows.  The
per-layer survey still measures the gateway and service layers on it.

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics.  The two in-process workloads scale their times by
``harness.HostProbe``, a fixed reference computation ticked between the
measured calls, so the host's own speed swings cancel out (each
workload's docstring says which statistics it pairs); set-up is scaled
by the median of ticks taken around its children.  The unscaled figures
are in the detail line.  gateway-mix stays unscaled: its work runs in
the daemons, not in the probing process.

``--trace 1`` runs the per-layer survey instead: one traced pass
of every workload (span trees from ``repro.observability`` in process,
``GET /v1/trace/{id}`` from the gateway), fresh-interpreter probes of the
cold paths, and a host memory-bandwidth probe.  Per-layer metrics each
belong to one workload's traffic, so the survey reports all of them
whichever workload is named.

Every answer is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 1 if any answer was wrong.  The lines above it print each metric
with its unit, the workload-specific figures (per-class latency, SLO and
error ratios, generator lateness) and the provenance of the run; the same
record is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import harness

WORKLOADS = ("grk-allrows", "analytic-sweep", "gateway-mix")
SETUP_REPEATS = 3

END_TO_END = {
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.plan_ms": "ms",
    "engine.dispatch_self_ms": "ms",
    "engine.merge_ms": "ms",
    "engine.shards": "count",
    **{f"core.{m}.{g}.batch_s": "s"
       for g in ("n1024", "n4096")
       for m in ("grk", "grk-simplified", "grk-sure-success", "grk-cwb")},
    "core.plan_cold_s": "s",
    "kernels.sweep_s": "s",
    "kernels.share": "ratio",
    "kernels.oracle_calls": "count",
    "kernels.bytes_gb": "GB",
    "kernels.gbps": "GB/s",
    "host.memcpy_gbps": "GB/s",
    "kernels.bandwidth_fraction": "ratio",
    "analytic.eval_us": "us",
    "analytic.batch_us_per_row": "us",
    "analytic.phase_solves": "count",
    "analytic.phase_solve_s": "s",
    "analytic.served_ratio": "ratio",
    "analytic.fallthroughs": "count",
    "gateway.parse_ms": "ms",
    "gateway.self_ms": "ms",
    "gateway.rejected": "count",
    "service.cache_hit_ratio": "ratio",
    "service.cache_lookup_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.engine_execute_ms": "ms",
    "service.wire_roundtrip_ms": "ms",
    "service.worker_compute_ms": "ms",
    "service.wire_overhead_ms": "ms",
    "service.shard_attempts": "count",
    "service.shard_retries": "count",
    "startup.import_engine_s": "s",
    "startup.import_cli_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.grk-allrows.unattributed_share": "ratio",
    "trace.analytic-sweep.unattributed_share": "ratio",
    "trace.gateway-mix.unattributed_share": "ratio",
}


def _end_to_end(name: str, seed: int, seconds: float):
    """Untraced run of one workload: ``(metrics, detail, attempted, failed)``."""
    rng = random.Random(f"{name}/{seed}")
    if name == "gateway-mix":
        import gateway_mix

        r = gateway_mix.measure(seconds, rng, SETUP_REPEATS)
        capacity = r["capacity"]
        r["rows_per_s"] = capacity["rows_per_s"]
        setup = r["setup_s"]
        attempted = (r["attempted"] + capacity["attempted"]
                     + len(gateway_mix.SHARES) * SETUP_REPEATS)
        failed = r["failed"] + r["wrong"] + r["setup_wrong"] + capacity["failed"]
        rss = r["peak_rss_mb"]
        extra = {k: r[k] for k in ("class_p50_ms", "class_n", "slo_ratio",
                                   "error_ratio", "lateness", "rejected",
                                   "rate_per_s", "connections", "capacity")}
    else:
        module = __import__(name.replace("-", "_"))
        setup_probe = harness.HostProbe()
        setup, setup_reports = harness.setup_times(name, SETUP_REPEATS,
                                                   setup_probe)
        r = module.measure(seconds, rng)
        attempted, failed = r["attempted"], r["failed"]
        rss = harness.self_peak_rss_mb()
        extra = {k: v for k, v in r.items()
                 if k not in ("attempted", "failed", "rows_per_s", "latency")}
        extra["setup_children"] = setup_reports
        extra["setup_probe"] = setup_probe.summary()
        extra["error_ratio"] = failed / attempted
        extra["setup_samples_unscaled_s"] = setup
        setup = [t * setup_probe.scale() for t in setup]
    metrics = {
        "rows_per_s": r["rows_per_s"],
        "latency_p50_ms": r["latency"]["p50_ms"],
        "latency_p90_ms": r["latency"]["p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    detail = {"latency_samples": r["latency"]["n"],
              "latency_beyond_p90": r["latency"]["beyond_p90"],
              "setup_samples_s": setup, **extra}
    return metrics, detail, attempted, failed


def _survey(seed: int, seconds: float):
    """The traced per-layer survey: ``(metrics, detail, attempted, failed)``."""
    import analytic_sweep
    import gateway_mix
    import grk_allrows

    detail = {}
    metrics = {}
    copy = harness.memcpy_bandwidth()
    detail["memcpy"] = copy
    metrics["host.memcpy_gbps"] = copy["gbps"]

    imports = {}
    for module in ("repro.engine", "repro.service.cli"):
        imports[module] = [harness.run_child(["import", module])[1]["import_s"]
                           for _ in range(SETUP_REPEATS)]
    metrics["startup.import_engine_s"] = statistics.median(imports["repro.engine"])
    metrics["startup.import_cli_s"] = statistics.median(imports["repro.service.cli"])
    _, plans = harness.run_child(["plans"])
    metrics["core.plan_cold_s"] = plans["total_s"]
    detail["startup"] = {"import_s": imports, "plans": plans}

    attempted = failed = 0
    parts = (
        ("grk-allrows", lambda rng: grk_allrows.traced(rng)),
        ("analytic-sweep", lambda rng: analytic_sweep.traced(seconds / 5, rng)),
        ("gateway-mix", lambda rng: gateway_mix.traced(seconds / 4, rng)),
    )
    for name, run in parts:
        part_metrics, part_detail = run(random.Random(f"{name}/{seed}/trace"))
        metrics.update(part_metrics)
        detail[name] = part_detail
        attempted += part_detail["attempted"]
        failed += part_detail["failed"]
    metrics["kernels.bandwidth_fraction"] = (
        metrics["kernels.gbps"] / metrics["host.memcpy_gbps"]
    )
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_sources()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.trace:
        metrics, detail, attempted, failed = _survey(args.seed, args.seconds)
        units = PER_LAYER
    else:
        metrics, detail, attempted, failed = _end_to_end(
            args.workload, args.seed, args.seconds)
        units = END_TO_END
    if set(metrics) != set(units):
        raise harness.BenchError(
            f"metric set mismatch: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}")
    harness.check_metric_names(units, units.values())

    record = {
        "provenance": harness.provenance(args.workload, args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "detail": detail,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    harness.OUT.mkdir(exist_ok=True)
    out = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"provenance": record["provenance"], "detail": detail},
                     default=str))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
