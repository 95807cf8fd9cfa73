"""The program sweep against the composed reference, and ``row_threads``.

The load-bearing promise of :mod:`repro.kernels.sweep` is bit identity: at
complex128 every GRK-family batch, shard boundary, row-thread count and
row-block size reproduces the composed reference iteration
(:func:`~repro.kernels.batched.phase_flip_rows`, then
:func:`~repro.kernels.primitives.invert_about_mean` or
:func:`~repro.kernels.primitives.invert_about_mean_blocks`) bit for bit;
at complex64 it agrees within :data:`~repro.kernels.COMPLEX64_SUCCESS_ATOL`.
This file pins that, plus the ``row_threads="auto"`` small-slab
regression fix.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import plan_schedule
from repro.core.batch import execute_batch_rows
from repro.core.simplified import (
    execute_simplified_batch_rows,
    plan_simplified_schedule,
)
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.engine.plan import plan_shards
from repro.kernels import (
    AUTO_ROW_THREADS_MIN_SLAB_BYTES,
    COMPLEX64_SUCCESS_ATOL,
    ExecutionPolicy,
    auto_row_threads,
    invert_about_mean,
    invert_about_mean_blocks,
    phase_flip_rows,
    program_sweep_rows,
    sweep,
)


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
        monkeypatch.setattr(sweep, "ROW_BLOCK_BYTES", 7 * 96 * 8)
        for request, ref in zip(requests, references):
            report = engine.search_batch(request)
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


# ------------------------------------- row_threads small-slab regression


class TestRowThreadsRegression:
    """The bench ledger pinned a 0.884x slowdown threading an 8 MiB slab;
    ``"auto"`` must stay serial below the threshold."""

    def test_auto_stays_serial_below_slab_threshold(self):
        assert auto_row_threads(
            slab_bytes=AUTO_ROW_THREADS_MIN_SLAB_BYTES - 1
        ) == 1

    def test_auto_above_threshold_matches_contextless_default(self):
        assert auto_row_threads(
            slab_bytes=4 * AUTO_ROW_THREADS_MIN_SLAB_BYTES
        ) == auto_row_threads()

    def test_bench_workload_resolves_serial(self):
        # The standard bench workload (B=1024 rows of a 2^10-item state,
        # 8 MiB resident) is exactly the shape the regression was pinned on.
        policy = ExecutionPolicy(row_threads="auto")
        assert policy.threads_for_slab(1024, 1024) == 1
        plan = plan_shards(1024, 1024, "kernels", execution=policy)
        assert plan.policy.row_threads == 1

    def test_explicit_thread_counts_always_honoured(self):
        assert ExecutionPolicy(row_threads=4).threads_for_slab(8, 64) == 4

    def test_plan_shards_pins_auto_row_threads(self):
        plan = plan_shards(
            1024, 1024, "kernels",
            execution=ExecutionPolicy(row_threads="auto"),
        )
        # Shards ship concrete choices, never sentinels: every worker of a
        # batch must run at the same width.
        assert isinstance(plan.policy.row_threads, int)

    def test_compiled_batch_stays_serial_below_slab_threshold(
        self, monkeypatch
    ):
        # 256 circuit rows of 2N complex amplitudes at N=256 hold 2 MiB:
        # far below the threshold, so "auto" must run one slab, as the
        # kernel path does.
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
