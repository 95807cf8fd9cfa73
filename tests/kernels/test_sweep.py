"""The program sweep against the composed reference, and ``row_threads``.

The load-bearing promise of :mod:`repro.kernels.sweep` is bit identity: at
complex128 every GRK-family batch, shard boundary, row-thread count and
row-block size reproduces the composed reference iteration
(:func:`~repro.kernels.batched.phase_flip_rows`, then
:func:`~repro.kernels.primitives.invert_about_mean` or
:func:`~repro.kernels.primitives.invert_about_mean_blocks`) bit for bit;
at complex64 it agrees within :data:`~repro.kernels.COMPLEX64_SUCCESS_ATOL`.
This file pins that, plus the ``row_threads="auto"`` rule, the row-block
budget every thread of one sweep walks whole, and the one state a sweep
holds for all its blocks.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.core import batch, plan_schedule
from repro.core.batch import execute_batch_rows, running_shard
from repro.core.simplified import (
    execute_simplified_batch_rows,
    plan_simplified_schedule,
)
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.engine.plan import plan_shards, run_grk_batch_sharded
from repro.kernels import (
    AUTO_ROW_THREAD_MIN_WORK,
    COMPLEX64_SUCCESS_ATOL,
    MAX_AUTO_ROW_THREADS,
    ExecutionPolicy,
    auto_row_threads,
    invert_about_mean,
    invert_about_mean_blocks,
    phase_flip_rows,
    program_sweep_rows,
    sweep,
)


def _spy_on_blocks(monkeypatch):
    """Record ``(rows, real bytes)`` of every row block the sweep walks."""
    blocks = []
    real_block = sweep._sweep_block

    def spy(program, targets, policy, *buffers):
        rows = targets.size
        blocks.append((rows, rows * program.n_items * policy.real_dtype.itemsize))
        return real_block(program, targets, policy, *buffers)

    monkeypatch.setattr(sweep, "_sweep_block", spy)
    return blocks


def composed_iteration_rows(amps, targets, *, n_blocks=None, mean_out=None):
    """The reference iteration: the batched oracle flip, then the
    primitive diffusion about the global or block-local mean."""
    phase_flip_rows(amps, targets)
    if n_blocks is None:
        invert_about_mean(amps, mean_out=mean_out)
    else:
        invert_about_mean_blocks(amps, n_blocks, mean_out=mean_out)
    return amps


@pytest.fixture
def reference(monkeypatch):
    """``reference(fn, *args)`` calls *fn* with the composed iteration
    patched into the sweep, and restores the sweep's own afterwards."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(sweep, "grk_iteration_rows", composed_iteration_rows)
            return fn(*args, **kwargs)

    return run


# ------------------------------------------------------- identity matrix


#: Engine-level identity geometries: a power of two and a non-power-of-two
#: N (the latter exercises the divide-then-double diffusion scaling).
ENGINE_GEOMETRIES = ((128, 4), (96, 4))

#: Every method whose batch runs the program sweep.
GRK_FAMILY = ("grk", "grk-simplified", "grk-sure-success", "grk-cwb")


def _grk_run(dtype, max_rows=None):
    schedule = plan_schedule(256, 4)
    targets = np.arange(256, dtype=np.intp)
    policy = ExecutionPolicy(dtype=dtype)
    if max_rows is None:
        return execute_batch_rows(schedule.program, targets, "kernels", policy)
    success = []
    guesses = []
    for start in range(0, targets.size, max_rows):
        s, g = execute_batch_rows(
            schedule.program, targets[start:start + max_rows], "kernels", policy
        )
        success.append(s)
        guesses.append(g)
    return np.concatenate(success), np.concatenate(guesses)


def _simplified_run(dtype):
    schedule = plan_simplified_schedule(256, 4)
    targets = np.arange(256, dtype=np.intp)
    return execute_simplified_batch_rows(
        schedule, targets, ExecutionPolicy(dtype=dtype)
    )


class TestIdentity:
    """dtype x shard-count x method: c128 bit-identical to the composed
    reference, c64 within the documented tolerance."""

    @pytest.mark.parametrize("max_rows", [None, 7, 64])
    def test_grk_complex128_bit_identical(self, reference, max_rows):
        ref = reference(_grk_run, "complex128")
        got = _grk_run("complex128", max_rows=max_rows)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("max_rows", [None, 7])
    def test_grk_complex64_within_tolerance(self, reference, max_rows):
        ref = reference(_grk_run, "complex128")
        got = _grk_run("complex64", max_rows=max_rows)
        np.testing.assert_allclose(
            got[0], ref[0], atol=COMPLEX64_SUCCESS_ATOL, rtol=0
        )
        np.testing.assert_array_equal(got[1], ref[1])

    def test_simplified_complex128_bit_identical(self, reference):
        ref = reference(_simplified_run, "complex128")
        got = _simplified_run("complex128")
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_simplified_complex64_within_tolerance(self, reference):
        ref = reference(_simplified_run, "complex128")
        got = _simplified_run("complex64")
        np.testing.assert_allclose(
            got[0], ref[0], atol=COMPLEX64_SUCCESS_ATOL, rtol=0
        )
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("method", GRK_FAMILY)
    @pytest.mark.parametrize("max_rows", [None, 13])
    def test_engine_end_to_end_bit_identical(self, reference, method, max_rows):
        # Through the full facade: planner, shard loop, report assembly.
        engine = SearchEngine()
        for n_items, n_blocks in ENGINE_GEOMETRIES:
            ref = reference(
                engine.search_batch,
                SearchRequest(n_items=n_items, n_blocks=n_blocks, method=method),
            )
            report = engine.search_batch(
                SearchRequest(
                    n_items=n_items, n_blocks=n_blocks, method=method,
                    shards=(
                        ShardPolicy(max_rows=max_rows) if max_rows
                        else ShardPolicy()
                    ),
                )
            )
            np.testing.assert_array_equal(
                report.success_probabilities, ref.success_probabilities
            )
            np.testing.assert_array_equal(
                report.block_guesses, ref.block_guesses
            )
            assert "backend" not in report.execution

    def test_engine_row_threads_bit_identical(self, reference):
        engine = SearchEngine()
        for method in ("grk", "grk-sure-success", "grk-cwb"):
            for n_items, n_blocks in ENGINE_GEOMETRIES:
                ref = reference(
                    engine.search_batch,
                    SearchRequest(
                        n_items=n_items, n_blocks=n_blocks, method=method
                    ),
                )
                report = engine.search_batch(
                    SearchRequest(
                        n_items=n_items, n_blocks=n_blocks, method=method,
                        policy=ExecutionPolicy(row_threads=3),
                    )
                )
                np.testing.assert_array_equal(
                    report.success_probabilities, ref.success_probabilities,
                )

    @pytest.mark.parametrize("iteration", ["composed", "sweep"])
    def test_row_block_size_is_invisible(self, iteration, monkeypatch):
        # The sweep walks rows in cache-sized blocks; rows never interact,
        # so 7-row blocks must reproduce the default single block exactly,
        # whether the composed reference or the sweep's own iteration runs
        # inside each block.
        if iteration == "composed":
            monkeypatch.setattr(
                sweep, "grk_iteration_rows", composed_iteration_rows
            )
        engine = SearchEngine()
        requests = [
            SearchRequest(n_items=96, n_blocks=4, method=method)
            for method in GRK_FAMILY
        ]
        references = [engine.search_batch(r) for r in requests]
        blocks = _spy_on_blocks(monkeypatch)
        monkeypatch.setattr(sweep, "ROW_BLOCK_BYTES", 7 * 96 * 8)
        for request, ref in zip(requests, references):
            blocks.clear()
            report = engine.search_batch(request)
            # The patched budget really reached the sweep: 7-row blocks.
            assert max(rows for rows, _ in blocks) == 7
            assert sum(rows for rows, _ in blocks) == 96
            np.testing.assert_array_equal(
                report.success_probabilities, ref.success_probabilities
            )
            np.testing.assert_array_equal(
                report.block_guesses, ref.block_guesses
            )


# ------------------------------------------ iteration vs the reference


class TestIterationProperties:
    """The sweep's iteration against the composed reference on random
    slabs — shapes, strides, and both precisions."""

    SHAPES = [(1, 64), (3, 96), (5, 128), (8, 48), (7, 1000)]

    @pytest.mark.parametrize("n_blocks", [None, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_iteration_float64_bit_identical(self, shape, n_blocks):
        rng = np.random.default_rng(hash(shape) % 2**32)
        b, n = shape
        if n_blocks is not None and n % n_blocks:
            pytest.skip("geometry must divide")
        amps = rng.standard_normal(shape)
        targets = rng.integers(0, n, size=b)
        ref, got = amps.copy(), amps.copy()
        composed_iteration_rows(ref, targets, n_blocks=n_blocks)
        sweep.grk_iteration_rows(got, targets, n_blocks=n_blocks)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_iteration_float32_close(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        b, n = shape
        amps = rng.standard_normal(shape).astype(np.float32)
        targets = rng.integers(0, n, size=b)
        ref, got = amps.copy(), amps.copy()
        composed_iteration_rows(ref, targets)
        sweep.grk_iteration_rows(got, targets)
        # float32 summation order differs inside the einsum reduction; the
        # drift per iteration is a few ulps, far inside the documented
        # envelope.
        np.testing.assert_allclose(got, ref, atol=1e-5, rtol=1e-5)

    def test_iteration_on_noncontiguous_view(self):
        rng = np.random.default_rng(11)
        amps = rng.standard_normal((12, 96))
        view_ref = amps.copy()[::2]
        view_got = amps.copy()[::2]
        targets = rng.integers(0, 96, size=6)
        composed_iteration_rows(view_ref, targets, n_blocks=4)
        sweep.grk_iteration_rows(view_got, targets, n_blocks=4)
        np.testing.assert_array_equal(view_got, view_ref)

    @pytest.mark.parametrize("n_blocks", [None, 4])
    def test_phased_iteration_row_count_invisible(self, n_blocks):
        # A row's phased iteration must not depend on how many rows share
        # its batch: shards of one row reproduce the whole batch.
        rng = np.random.default_rng(17)
        amps = rng.standard_normal((9, 64)) + 1j * rng.standard_normal((9, 64))
        targets = rng.integers(0, 64, size=9)
        phases = {"oracle_phase": 0.7, "diffusion_phase": 2.1}
        whole = amps.copy()
        kernels.phased_iteration_rows(whole, targets, n_blocks=n_blocks,
                                      **phases)
        for sl in (slice(i, i + 1) for i in range(9)):
            row = amps[sl].copy()
            kernels.phased_iteration_rows(row, targets[sl],
                                          n_blocks=n_blocks, **phases)
            np.testing.assert_array_equal(row, whole[sl])

    def test_full_sweep_float64_bit_identical(self, reference):
        schedule = plan_schedule(512, 8)
        rng = np.random.default_rng(5)
        targets = rng.integers(0, 512, size=24).astype(np.intp)
        policy = ExecutionPolicy()

        ref = reference(program_sweep_rows, schedule.program, targets, policy)
        got = program_sweep_rows(schedule.program, targets, policy)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


# -------------------------------------------------------- resident state


class TestResidentState:
    """A row thread holds one state for its whole slab: the real row-block
    budget, at the complex dtype for a phased program, plus the readout's
    quarter-block scratch.  No block is copied to widen or to measure."""

    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    @pytest.mark.parametrize(("n_items", "n_blocks"), [(1024, 4), (4096, 8)])
    @pytest.mark.parametrize(("method", "budget"), [
        ("grk", 1.5),
        ("grk-sure-success", 2.5),
        ("grk-cwb", 2.5),
    ])
    def test_serial_sweep_peak(self, method, budget, n_items, n_blocks,
                               dtype):
        from repro.core.plans import resolve_plan

        program = resolve_plan(
            SearchRequest(n_items=n_items, n_blocks=n_blocks, method=method)
        ).program
        targets = np.arange(n_items, dtype=np.intp)
        policy = ExecutionPolicy(dtype=dtype, row_threads=1)
        tracemalloc.start()
        try:
            program_sweep_rows(program, targets, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * sweep.ROW_BLOCK_BYTES, peak


# ---------------------------------------------------------- item readout


class TestItemReadout:
    """With one address per block (``K = N``) and no Step 3 the block
    readout reads ``|a_t|^2`` and guesses the most probable address: full
    search's answer, row by row, in the sweep and the counted runner."""

    @pytest.mark.parametrize("n_items", [64, 96, 256])
    def test_rows_equal_the_counted_full_search(self, n_items):
        from repro.core.algorithm import run_program
        from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
        from repro.grover.standard import run_grover
        from repro.oracle import SingleTargetDatabase

        j = 5
        program = PartialSearchProgram(
            n_items, n_items, (ProgramStage(GLOBAL, j),), final_phase=None
        )
        targets = np.arange(n_items, dtype=np.intp)
        success, guesses = program_sweep_rows(program, targets,
                                              ExecutionPolicy())
        for t in targets:
            single = run_grover(SingleTargetDatabase(n_items, int(t)), j)
            assert success[t] == single.success_probability
            assert guesses[t] == single.best_guess
            counted = run_program(SingleTargetDatabase(n_items, int(t)), program)
            assert counted.success_probability == single.success_probability
            assert counted.queries == single.queries

    @pytest.mark.parametrize("n_items", [64, 96, 256])
    def test_exact_rows_equal_the_counted_exact_search(self, n_items):
        # Long's phase-matched variant: [global J+1 (φ, φ)].
        from repro.core.algorithm import run_program
        from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
        from repro.grover.exact import (
            long_phase,
            minimum_iterations,
            run_exact_grover,
        )
        from repro.oracle import SingleTargetDatabase

        j = minimum_iterations(n_items) + 1
        phi = long_phase(n_items, j)
        program = PartialSearchProgram(
            n_items, n_items, (ProgramStage(GLOBAL, j, phi, phi),),
            final_phase=None,
        )
        targets = np.arange(n_items, dtype=np.intp)
        success, guesses = program_sweep_rows(program, targets,
                                              ExecutionPolicy())
        for t in targets:
            single = run_exact_grover(SingleTargetDatabase(n_items, int(t)))
            assert abs(success[t] - single.success_probability) <= 1e-12
            assert guesses[t] == single.best_guess == t
            counted = run_program(SingleTargetDatabase(n_items, int(t)), program)
            np.testing.assert_array_equal(counted.branches[0],
                                          single.amplitudes)
            assert counted.success_probability == single.success_probability
            assert counted.queries == single.queries == j


# ------------------------------------------- the "auto" rule and the budget


def _cpus(monkeypatch, n):
    """Make this process see *n* cpus."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _ran(plan, backend, n_items, queries):
    """The policy one shard of *plan* runs under in this process."""
    with running_shard(plan.policy, backend, plan.shard_rows, n_items,
                       queries) as policy:
        return policy


class TestRowThreadRule:
    """``"auto"`` takes the smallest of cpus / running batches,
    :data:`MAX_AUTO_ROW_THREADS` and rows × N × queries over the work floor;
    every thread of one sweep walks blocks of the whole row-block budget,
    so ``T`` threads hold about ``T`` budgets."""

    def test_auto_is_serial_below_the_floor(self, monkeypatch):
        _cpus(monkeypatch, 8)
        auto = ExecutionPolicy()
        # N=4096 x 32 rows, and gateway-mix's 256-row batches at N=1024, K=4.
        assert auto.resolve(32, 4096, plan_schedule(4096, 8).program.queries
                            ).row_threads == 1
        assert auto.resolve(256, 1024, plan_schedule(1024, 4).program.queries
                            ).row_threads == 1
        engine = SearchEngine()
        gateway_mix = engine.search_batch(
            SearchRequest(n_items=1024, n_blocks=4),
            targets=range(0, 1024, 4),
        )
        assert gateway_mix.execution["row_threads"] == 1
        # grk-allrows' set-up: 16-row batches of every GRK method.
        for n, k in ((1024, 4), (4096, 8)):
            for method in ("grk", "grk-simplified", "grk-sure-success",
                           "grk-cwb"):
                report = engine.search_batch(
                    SearchRequest(n_items=n, n_blocks=k, method=method),
                    targets=range(16),
                )
                assert report.execution["row_threads"] == 1, (method, n)

    def test_auto_takes_the_cpus_well_above_the_floor(self, monkeypatch):
        queries = plan_schedule(4096, 8).program.queries
        cpus = len(os.sched_getaffinity(0))
        plan = plan_shards(4096, 4096, "kernels", queries=queries, lanes=1)
        assert _ran(plan, "kernels", 4096, queries).row_threads \
            == min(cpus, MAX_AUTO_ROW_THREADS)
        for seen, expected in ((3, 3), (64, MAX_AUTO_ROW_THREADS)):
            _cpus(monkeypatch, seen)
            plan = plan_shards(4096, 4096, "kernels", queries=queries, lanes=1)
            assert plan.shard_rows * 4096 * queries \
                >= MAX_AUTO_ROW_THREADS * AUTO_ROW_THREAD_MIN_WORK
            assert _ran(plan, "kernels", 4096, queries).row_threads == expected
        # With cpus to spare (64 seen), each thread gets at least the floor.
        assert auto_row_threads(3 * AUTO_ROW_THREAD_MIN_WORK) == 3
        assert auto_row_threads(3 * AUTO_ROW_THREAD_MIN_WORK - 1) == 2

    @pytest.mark.parametrize(("method", "n_items", "n_blocks", "stride"), [
        pytest.param("grk", 4096, 8, 16, id="grk"),
        pytest.param("grk-cwb", 4096, 8, 16, id="grk-cwb"),
        # Two-row blocks: eight rows, four to a thread.
        pytest.param("grk", 1 << 16, 4, 1 << 13, id="grk-n65536"),
    ])
    def test_two_threads_each_walk_the_whole_budget(
        self, monkeypatch, reference, method, n_items, n_blocks, stride
    ):
        from repro.core.plans import resolve_plan

        program = resolve_plan(
            SearchRequest(n_items=n_items, n_blocks=n_blocks, method=method)
        ).program
        targets = np.arange(0, n_items, stride)
        _cpus(monkeypatch, 2)
        blocks = _spy_on_blocks(monkeypatch)
        serial = execute_batch_rows(program, targets, "kernels",
                                    ExecutionPolicy(row_threads=1))
        assert max(size for _, size in blocks) == sweep.ROW_BLOCK_BYTES
        blocks.clear()
        threaded = execute_batch_rows(program, targets, "kernels",
                                      ExecutionPolicy(row_threads=2))
        assert sum(rows for rows, _ in blocks) == targets.size
        assert all(size == sweep.ROW_BLOCK_BYTES for _, size in blocks)
        np.testing.assert_array_equal(threaded[0], serial[0])
        np.testing.assert_array_equal(threaded[1], serial[1])
        composed = reference(execute_batch_rows, program, targets, "kernels",
                             ExecutionPolicy(row_threads=1))
        np.testing.assert_array_equal(threaded[0], composed[0])
        np.testing.assert_array_equal(threaded[1], composed[1])

    def test_threads_beyond_the_cpus_keep_the_whole_budget(self, monkeypatch):
        # Four row threads on two cpus still walk blocks of the whole
        # budget each: the cpu count does not size a block.
        program = plan_schedule(1024, 4).program
        targets = np.arange(1024)
        _cpus(monkeypatch, 2)
        blocks = _spy_on_blocks(monkeypatch)
        got = execute_batch_rows(program, targets, "kernels",
                                 ExecutionPolicy(row_threads=4))
        assert sum(rows for rows, _ in blocks) == targets.size
        assert all(size == sweep.ROW_BLOCK_BYTES for _, size in blocks)
        ref = execute_batch_rows(program, targets, "kernels",
                                 ExecutionPolicy(row_threads=1))
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_batches_running_side_by_side_share_the_cpus(self, monkeypatch):
        # A shard that starts while another runs in this process (a
        # service runs several batches, a worker serves several drivers)
        # divides the cpus between them.
        _cpus(monkeypatch, 8)
        program = plan_schedule(4096, 8).program
        targets = np.arange(4096)
        started, release = threading.Event(), threading.Event()
        holds = [True]  # the first shard stays running until released

        def skip_sweep(_program, shard, _backend, _policy):
            if holds and holds.pop():
                started.set()
                release.wait(30)
            return np.zeros(shard.size), np.zeros(shard.size, np.intp)

        monkeypatch.setattr(batch, "execute_batch_rows", skip_sweep)

        def plan_of():
            return run_grk_batch_sharded(program, targets, "kernels")[2]

        first = []
        held = threading.Thread(target=lambda: first.append(plan_of()))
        held.start()
        assert started.wait(30)
        try:
            beside = plan_of()
        finally:
            release.set()
            held.join()
        assert first[0].policy.row_threads == MAX_AUTO_ROW_THREADS
        assert beside.policy.row_threads == MAX_AUTO_ROW_THREADS // 2
        assert plan_of().policy.row_threads == MAX_AUTO_ROW_THREADS

    def test_explicit_thread_counts_always_honoured(self):
        policy = ExecutionPolicy(row_threads=4)
        assert policy.resolve(8, 64, 1) is policy
        assert plan_shards(8, 64, "kernels", execution=policy, queries=1,
                           lanes=1).policy.row_threads == 4

    def test_plan_shards_pins_auto_row_threads(self):
        plan = plan_shards(
            1024, 1024, "kernels",
            execution=ExecutionPolicy(row_threads="auto"), queries=1, lanes=1,
        )
        # Shards ship the request's "auto"; the process that runs each one
        # turns it into a count.
        assert plan.policy.row_threads == "auto"
        assert isinstance(_ran(plan, "kernels", 1024, 1).row_threads, int)

    def test_compiled_batch_stays_serial_under_auto(self, monkeypatch):
        # The floor was measured on the kernels sweep; "auto" runs a
        # circuit batch in one slab at any size, and a count is honoured.
        _cpus(monkeypatch, 8)
        queries = plan_schedule(4096, 8).program.queries
        plan = plan_shards(4096, 4096, "compiled", queries=queries, lanes=1)
        assert _ran(plan, "compiled", 4096, queries).row_threads == 1
        plan = plan_shards(4096, 4096, "compiled", queries=queries, lanes=1,
                           execution=ExecutionPolicy(row_threads=3))
        assert _ran(plan, "compiled", 4096, queries).row_threads == 3
        slabs = []
        real_map = kernels.map_row_slabs

        def spy(fn, n_rows, row_threads):
            parts = real_map(fn, n_rows, row_threads)
            slabs.append(len(parts))
            return parts

        monkeypatch.setattr(kernels, "map_row_slabs", spy)
        program = plan_schedule(256, 4).program
        got = execute_batch_rows(
            program, np.arange(256), "compiled",
            ExecutionPolicy(row_threads="auto"),
        )
        assert slabs == [1]
        ref = execute_batch_rows(program, np.arange(256), "compiled")
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
