"""Wall-time + memory trajectory for the circuit backends.

Run as a script (``python benchmarks/bench_compiled_simulator.py``) from the
repo root; it writes ``BENCH_simulator.json`` there so every PR carries a
comparable perf snapshot.  Four measurements:

- ``single``: the 12-address-qubit GRK partial-search circuit (13 wires,
  the paper-planned schedule for ``N = 4096, K = 4``) executed once —
  gate-by-gate naive simulator vs the compiled program (steady-state run
  time; one-off compile time reported separately).
- ``batched``: the all-targets sweep at 10 address qubits (``B = N =
  1024``) — one parametric compiled program over the whole batch vs a
  Python loop of single runs (naive loop extrapolated from a sample;
  compiled loop measured in full).
- ``sharded``: the engine's memory-bounded all-targets batch at 12 address
  qubits — a ``(4096, 8192)`` complex state (~0.5 GB) unsharded — executed
  under the default 128 MiB shard budget, with the tracemalloc peak of the
  sharded vs unsharded runs and a bit-identity check between them.
- ``kernels_batched``: the structured-kernels all-targets batch (one
  shard) under every :class:`~repro.kernels.ExecutionPolicy` variant —
  the complex128 baseline, ``dtype="complex64"``, ``row_threads``, and
  both — with per-variant speedups and the complex64 tolerance check, in
  a fresh interpreter.
- ``kernels_sweep``: the program sweep against the composed reference
  iteration on the same batched workload, at both dtypes — complex128
  checked bit-identical, complex64 within tolerance, with the speedups.
- ``baselines``: all-targets engine batches of the paper's baselines
  (grover-full plain and exact, seeded naive-blocks, classical) beside
  grk's at the same geometry, each with its ratio to grk.
- ``acceptance``: the PR gate — compiled >= 5x naive on the single
  circuit, batched >= 10x the single-run loop, the sharded batch
  bit-identical under its budget, at least one policy knob buying
  throughput on the batched kernels, the sweep clearing its complex64
  speedup floor over the reference, and every quantum baseline batch
  within 8x of grk's (they run as programs on the same sweep; a
  per-target loop costs 15-60x).

``--quick`` runs a reduced configuration (fewer qubits, smaller budgets,
relaxed speedup floors) for the CI smoke job; the JSON records which mode
produced it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import statistics
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.circuits import partial_search_circuit, run_circuit
from repro.circuits.compiler import compile_circuit
from repro.core.parameters import plan_schedule
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest, ShardPolicy
from repro.kernels import COMPLEX64_SUCCESS_ATOL

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_simulator.json"

N_BLOCK_BITS = 2  # K = 4

#: Full vs --quick configurations: (single qubits, batch qubits, naive-loop
#: sample size, sharded qubits, shard budget bytes, speedup floors).
CONFIGS = {
    "full": {
        "single_address_qubits": 12,  # N = 4096, 13 wires with the ancilla
        "batch_address_qubits": 10,   # B = N = 1024 rows of 2048 amplitudes
        "naive_loop_sample": 32,
        "sharded_address_qubits": 12,  # (4096, 8192) complex unsharded
        "shard_budget_bytes": 128 * 1024 * 1024,
        "kernels_batch_qubits": 10,  # same geometry as the PR-3 baseline
        "row_threads": 4,
        "floor_compiled_vs_naive": 5.0,
        "floor_batched_vs_loop": 10.0,
        "floor_sweep_complex64": 1.15,
    },
    "quick": {
        "single_address_qubits": 10,
        "batch_address_qubits": 8,
        "naive_loop_sample": 16,
        "sharded_address_qubits": 10,  # (1024, 2048) complex unsharded
        "shard_budget_bytes": 8 * 1024 * 1024,
        "kernels_batch_qubits": 8,
        "row_threads": 2,
        "floor_compiled_vs_naive": 3.0,
        "floor_batched_vs_loop": 5.0,
        "floor_sweep_complex64": 1.05,
    },
}


def _time(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _traced(fn):
    """``(result, wall_s, tracemalloc_peak_bytes)`` for one call of ``fn``."""
    tracemalloc.start()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall, peak


def _fresh(fn, cfg: dict) -> dict:
    """``fn(cfg)`` in a fresh interpreter.  Timed after the compiled
    sections, in the heap they leave, the serial kernels batch ran
    15-16 ms against 19-22 ms fresh, so in-process ratios would depend
    on which sections ran first; each kernels section runs in its own."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(fn, cfg).result()


def bench_single(cfg: dict) -> dict:
    n = cfg["single_address_qubits"]
    sched = plan_schedule(1 << n, 1 << N_BLOCK_BITS)
    target = 1234 % (1 << n)
    circuit = partial_search_circuit(n, N_BLOCK_BITS, target=target, l1=sched.l1, l2=sched.l2)

    t_naive = _time(lambda: run_circuit(circuit))
    t_compile = _time(lambda: compile_circuit(circuit), repeats=1)
    program = compile_circuit(circuit)
    t_compiled = _time(program.run)
    err = float(np.abs(run_circuit(circuit) - program.run()).max())
    assert err < 1e-10, f"backends diverge: {err}"
    return {
        "n_address_qubits": n,
        "n_gates": circuit.n_gates,
        "n_fused_ops": program.n_ops,
        "schedule": {"l1": sched.l1, "l2": sched.l2},
        "naive_s": t_naive,
        "compile_once_s": t_compile,
        "compiled_s": t_compiled,
        "speedup_compiled_vs_naive": t_naive / t_compiled,
        "max_amplitude_error": err,
    }


def bench_batched(cfg: dict) -> dict:
    n = cfg["batch_address_qubits"]
    n_items = 1 << n
    sched = plan_schedule(n_items, 1 << N_BLOCK_BITS)

    program = compile_circuit(
        partial_search_circuit(n, N_BLOCK_BITS, 0, sched.l1, sched.l2),
        parametric_targets=True,
        n_address_qubits=n,
    )
    targets = np.arange(n_items)
    t_batched = _time(lambda: program.run_multi_target(targets))

    def naive_one(target: int):
        run_circuit(partial_search_circuit(n, N_BLOCK_BITS, target, sched.l1, sched.l2))

    sample = [
        _time(lambda t=t: naive_one(t), repeats=1)
        for t in range(cfg["naive_loop_sample"])
    ]
    t_naive_loop = statistics.mean(sample) * n_items

    def compiled_loop():
        for t in range(n_items):
            compile_circuit(
                partial_search_circuit(n, N_BLOCK_BITS, t, sched.l1, sched.l2)
            ).run()

    t_compiled_loop = _time(compiled_loop, repeats=1)
    return {
        "n_address_qubits": n,
        "n_targets": int(n_items),
        "schedule": {"l1": sched.l1, "l2": sched.l2},
        "batched_s": t_batched,
        "naive_loop_s_extrapolated": t_naive_loop,
        "naive_loop_sample_size": cfg["naive_loop_sample"],
        "compiled_loop_s": t_compiled_loop,
        "speedup_batched_vs_naive_loop": t_naive_loop / t_batched,
        "speedup_batched_vs_compiled_loop": t_compiled_loop / t_batched,
    }


def bench_kernels_batched(cfg: dict) -> dict:
    """The structured-kernels all-targets batch under every
    :class:`ExecutionPolicy` variant — the ROADMAP dtype/parallelism item.

    Four measurements of the same sweep: the complex128 single-threaded
    baseline (bit-identical to seed), ``dtype="complex64"`` (half the
    memory traffic), ``row_threads > 1`` (GIL-releasing row slabs), and
    both knobs together.  The baseline and the complex64 variant pin
    ``row_threads=1``: the default ``"auto"`` would thread them.
    complex64 results are checked against the baseline within the
    documented tolerance; threaded results must be bit-identical.
    """
    n = cfg["kernels_batch_qubits"]
    n_items = 1 << n
    threads = cfg["row_threads"]
    engine = SearchEngine()

    def run(policy: ExecutionPolicy):
        return engine.search_batch(
            SearchRequest(
                n_items=n_items,
                n_blocks=1 << N_BLOCK_BITS,
                backend="kernels",
                policy=policy,
            )
        )

    base_policy = ExecutionPolicy(row_threads=1)
    variants = {
        "complex64": ExecutionPolicy(dtype="complex64", row_threads=1),
        "row_threads": ExecutionPolicy(row_threads=threads),
        "complex64_threaded": ExecutionPolicy(dtype="complex64",
                                              row_threads=threads),
    }
    baseline = run(base_policy)  # warm the schedule plan + allocator
    t_base = _time(lambda: run(base_policy))
    results = {
        "n_address_qubits": n,
        "n_targets": int(n_items),
        "row_threads": threads,
        "kernels_batched_s": t_base,
    }
    for name, policy in variants.items():
        report = run(policy)
        if policy.dtype == "complex64":
            err = float(np.abs(report.success_probabilities
                               - baseline.success_probabilities).max())
            assert err <= COMPLEX64_SUCCESS_ATOL, (
                f"{name} drifted {err} > {COMPLEX64_SUCCESS_ATOL}")
            results[f"max_success_error_{name}"] = err
        else:
            assert np.array_equal(report.success_probabilities,
                                  baseline.success_probabilities), (
                f"{name} must be bit-identical to the baseline")
        t = _time(lambda p=policy: run(p))
        results[f"kernels_batched_{name}_s"] = t
        results[f"speedup_{name}_vs_baseline"] = t_base / t
    return results


def bench_kernels_sweep(cfg: dict) -> dict:
    """The program sweep against the composed reference iteration on the
    standard batched workload.

    ``program_sweep_rows`` over every target is timed at both dtypes twice:
    with its own iteration, and with the composed reference
    (``phase_flip_rows`` then ``invert_about_mean`` /
    ``invert_about_mean_blocks``) swapped in.  Timing at the sweep level
    keeps the engine's fixed per-batch overhead out of the ratio, and the
    two are timed alternately so drift on a shared host hits both.
    complex128 must be bit-identical to the reference, complex64 within
    the documented tolerance of it.  At complex128 the sweep only owes bit
    identity (its ratio sits near 1); the complex64 ratio, where the
    einsum reductions pay, feeds the acceptance floor.
    """
    from repro.kernels import (
        invert_about_mean,
        invert_about_mean_blocks,
        phase_flip_rows,
        program_sweep_rows,
        sweep,
    )

    def composed(amps, targets, *, n_blocks=None, mean_out=None):
        phase_flip_rows(amps, targets)
        if n_blocks is None:
            invert_about_mean(amps, mean_out=mean_out)
        else:
            invert_about_mean_blocks(amps, n_blocks, mean_out=mean_out)
        return amps

    n = cfg["kernels_batch_qubits"]
    n_items = 1 << n
    program = plan_schedule(n_items, 1 << N_BLOCK_BITS).program
    targets = np.arange(n_items, dtype=np.intp)
    own = sweep.grk_iteration_rows

    def run(iteration, policy):
        sweep.grk_iteration_rows = iteration
        try:
            t0 = time.perf_counter()
            out = program_sweep_rows(program, targets, policy)
            return out, time.perf_counter() - t0
        finally:
            sweep.grk_iteration_rows = own

    results = {
        "n_address_qubits": n,
        "n_targets": int(n_items),
        "speedup_base": "program_sweep_rows with the composed reference "
                        "iteration, same dtype",
    }
    reference_c128 = None
    for dtype in ("complex128", "complex64"):
        policy = ExecutionPolicy(dtype=dtype)
        ref, _ = run(composed, policy)  # warm both paths
        got, _ = run(own, policy)
        if dtype == "complex128":
            assert np.array_equal(got[0], ref[0]) \
                and np.array_equal(got[1], ref[1]), (
                    "complex128 sweep must be bit-identical to the reference")
            reference_c128 = ref
        else:
            err = float(np.abs(got[0] - reference_c128[0]).max())
            assert err <= COMPLEX64_SUCCESS_ATOL, (
                f"complex64 sweep drifted {err} > {COMPLEX64_SUCCESS_ATOL}")
            results["max_success_error_complex64"] = err
        t_ref = t_own = float("inf")
        for _ in range(5):
            t_ref = min(t_ref, run(composed, policy)[1])
            t_own = min(t_own, run(own, policy)[1])
        results[f"reference_{dtype}_s"] = t_ref
        results[f"sweep_{dtype}_s"] = t_own
        results[f"speedup_sweep_vs_reference_{dtype}"] = t_ref / t_own
    return results


#: The baseline batches timed beside grk: ``(label, method, options, seed)``.
#: classical is recorded but not gated: each row is one numpy scan plus its
#: own request, generator and report objects, and at the quick geometry
#: (N=256) those objects dominate.  On a 2-vCPU host it ran at 2.7-5.9x
#: grk's time at N=1024 but 12-19x at N=256, above the 8x gate.
BASELINES = (
    ("grover-full", "grover-full", {}, None),
    ("grover-full-exact", "grover-full", {"exact": True}, None),
    ("naive-blocks", "naive-blocks", {}, 1),
    ("classical", "classical", {}, None),
)

#: Largest quantum-baseline batch time, as a multiple of grk's batch.
MAX_BASELINE_VS_GRK = 8.0


def bench_baselines(cfg: dict) -> dict:
    """All-targets batch seconds of the baselines beside grk's, at
    ``N = 2**kernels_batch_qubits`` and ``K = 4`` (best of five, warm:
    the quick geometry's batches take milliseconds)."""
    n = cfg["kernels_batch_qubits"]
    engine = SearchEngine()

    def run(method, options=None, seed=None):
        return engine.search_batch(SearchRequest(
            n_items=1 << n, n_blocks=1 << N_BLOCK_BITS, method=method,
            options=options or {}, rng=seed,
        ))

    run("grk")  # warm the plan cache
    t_grk = _time(lambda: run("grk"), repeats=5)
    results = {"n_address_qubits": n, "n_targets": 1 << n, "grk_s": t_grk}
    for label, method, options, seed in BASELINES:
        report = run(method, options, seed)
        assert report.all_correct, f"{label} batch answered a wrong block"
        t = _time(lambda: run(method, options, seed), repeats=5)
        results[f"{label}_s"] = t
        results[f"{label}_vs_grk"] = t / t_grk
    return results


def bench_sharded(cfg: dict) -> dict:
    """The ROADMAP sharding item, measured: all-targets batch under a byte
    budget vs the unsharded single-shard execution (peak RSS + identity)."""
    n = cfg["sharded_address_qubits"]
    n_items = 1 << n
    budget = cfg["shard_budget_bytes"]
    engine = SearchEngine()

    def run(policy: ShardPolicy, targets=None):
        return engine.search_batch(
            SearchRequest(
                n_items=n_items,
                n_blocks=1 << N_BLOCK_BITS,
                backend="compiled",
                shards=policy,
            ),
            targets=targets,
        )

    # Warm the compile cache (one tiny batch) so the shard comparison
    # measures execution only, not the one-off program compile.
    run(ShardPolicy(max_bytes=budget), targets=[0])

    sharded, t_sharded, peak_sharded = _traced(lambda: run(ShardPolicy(max_bytes=budget)))
    # The unsharded reference needs an effectively unlimited byte budget
    # (max_rows alone cannot raise the planner's byte-derived row count).
    unsharded, t_unsharded, peak_unsharded = _traced(
        lambda: run(ShardPolicy(max_bytes=1 << 62))
    )
    identical = bool(
        np.array_equal(sharded.success_probabilities, unsharded.success_probabilities)
        and np.array_equal(sharded.block_guesses, unsharded.block_guesses)
    )
    assert identical, "sharded batch diverged from the unsharded execution"
    return {
        "n_address_qubits": n,
        "n_targets": int(n_items),
        "budget_bytes": budget,
        "n_shards": sharded.execution["n_shards"],
        "shard_rows": sharded.execution["shard_rows"],
        "sharded_s": t_sharded,
        "unsharded_s": t_unsharded,
        "peak_sharded_bytes": peak_sharded,
        "peak_unsharded_bytes": peak_unsharded,
        "peak_ratio": peak_sharded / peak_unsharded,
        "bit_identical": identical,
        "sharded_under_budget": bool(peak_sharded <= budget),
    }


def _delta_vs_baseline(results: dict, baseline_path: str) -> dict:
    """Timing ratios against a previous run of this script (same machine):
    ``< 1`` means this build is faster.  Records the perf satellite's
    before/after delta directly in the JSON artifact.  The policy variants
    compare against the **baseline file's complex128 kernels time** — what
    the same sweep cost before the dtype/threading knobs existed."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    deltas = {}
    for section, key, baseline_section, baseline_key in [
        ("single", "compiled_s", "single", "compiled_s"),
        ("batched", "batched_s", "batched", "batched_s"),
        ("kernels_batched", "kernels_batched_s",
         "kernels_batched", "kernels_batched_s"),
        ("kernels_batched", "kernels_batched_complex64_s",
         "kernels_batched", "kernels_batched_s"),
        ("kernels_batched", "kernels_batched_row_threads_s",
         "kernels_batched", "kernels_batched_s"),
        ("kernels_batched", "kernels_batched_complex64_threaded_s",
         "kernels_batched", "kernels_batched_s"),
        ("sharded", "sharded_s", "sharded", "sharded_s"),
    ]:
        before = baseline.get(baseline_section, {}).get(baseline_key)
        after = results.get(section, {}).get(key)
        if before and after:
            # Different-geometry baselines would make the ratio meaningless.
            before_n = baseline.get(baseline_section, {}).get("n_address_qubits")
            after_n = results.get(section, {}).get("n_address_qubits")
            if before_n is not None and before_n != after_n:
                continue
            deltas[key] = {
                "before_s": before,
                "after_s": after,
                "ratio": after / before,
            }
    return deltas


def main(mode: str = "full", baseline: str | None = None) -> dict:
    cfg = CONFIGS[mode]
    single = bench_single(cfg)
    batched = bench_batched(cfg)
    kernels_batched = _fresh(bench_kernels_batched, cfg)
    kernels_sweep = _fresh(bench_kernels_sweep, cfg)
    baselines = _fresh(bench_baselines, cfg)
    sharded = bench_sharded(cfg)
    results = {
        "bench": "compiled_simulator",
        "mode": mode,
        "description": (
            "naive gate-by-gate vs compiled fused program vs batched "
            "multi-target execution of the GRK partial-search circuit, plus "
            "the engine's memory-bounded sharded all-targets batch, the "
            "program sweep against its composed reference iteration, and "
            "the baselines' all-targets batches beside grk's"
        ),
        "single": single,
        "batched": batched,
        "kernels_batched": kernels_batched,
        "kernels_sweep": kernels_sweep,
        "baselines": baselines,
        "sharded": sharded,
        "acceptance": {
            f"compiled_at_least_{cfg['floor_compiled_vs_naive']:g}x_naive":
                single["speedup_compiled_vs_naive"] >= cfg["floor_compiled_vs_naive"],
            f"batched_at_least_{cfg['floor_batched_vs_loop']:g}x_loop":
                batched["speedup_batched_vs_naive_loop"] >= cfg["floor_batched_vs_loop"],
            "sharded_bit_identical": sharded["bit_identical"],
            "sharded_peak_under_budget": sharded["sharded_under_budget"],
            "sharded_peak_below_unsharded": sharded["n_shards"] <= 1
                or sharded["peak_sharded_bytes"] < sharded["peak_unsharded_bytes"],
            # The ExecutionPolicy knobs must buy throughput on the batched
            # kernels: complex64 (half the memory traffic) or row_threads
            # (one slab per core — a no-op on single-core CI boxes, which
            # is why the gate is on the max of the two).
            "kernels_policy_speedup": max(
                kernels_batched["speedup_complex64_vs_baseline"],
                kernels_batched["speedup_row_threads_vs_baseline"],
            ) > 1.05,
            # The sweep is pure numpy, so its complex64 floor holds on any
            # host.  Its complex128 ratio is recorded but carries no floor:
            # there it owes only bit identity.
            f"sweep_at_least_{cfg['floor_sweep_complex64']:g}x_reference_c64":
                kernels_sweep["speedup_sweep_vs_reference_complex64"]
                >= cfg["floor_sweep_complex64"],
            f"baselines_at_most_{MAX_BASELINE_VS_GRK:g}x_grk": all(
                baselines[f"{label}_vs_grk"] <= MAX_BASELINE_VS_GRK
                for label, method, *_ in BASELINES if method != "classical"
            ),
        },
    }
    if baseline:
        results["delta_vs_baseline"] = _delta_vs_baseline(results, baseline)
    # Sibling bench scripts (bench_cluster.py, bench_gateway.py) merge
    # their sections into the same artifact — preserve whatever they wrote,
    # but not an old comparison: a run without --baseline made none.
    if OUTPUT.exists():
        existing = json.loads(OUTPUT.read_text())
        existing.pop("delta_vs_baseline", None)
        for section, value in existing.items():
            results.setdefault(section, value)
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"[written to {OUTPUT}]")
    assert all(results["acceptance"].values()), results["acceptance"]
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced configuration for the CI smoke job",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="previous BENCH_simulator.json from this machine; records "
             "after/before timing ratios under 'delta_vs_baseline'",
    )
    cli = parser.parse_args()
    main("quick" if cli.quick else "full", baseline=cli.baseline)
