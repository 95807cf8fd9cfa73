"""The unified kernel layer owns every primitive — and only it does."""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import batched, primitives


class TestSingleSourceOfTruth:
    """The acceptance criterion: the compiled circuit ops and the batched
    runners all *import* the kernel math, never copy it."""

    def test_compiler_dispatches_to_kernels(self):
        import inspect

        from repro.circuits import compiler

        source = inspect.getsource(compiler)
        # The fused diffusion and masked-phase ops call the kernel layer.
        assert "_kp.invert_about_axis_mean" in source
        assert "_kp.apply_phase_factor" in source
        assert "_kb.phase_flip_rows" in source
        assert "_kb.moveout_rows" in source

    def test_core_batch_dispatches_to_kernel_backends(self):
        import inspect

        from repro.core import batch

        source = inspect.getsource(batch)
        # The GRK-family loop structure lives on the kernel-backend
        # registry; core/batch selects a backend and dispatches the
        # program, it owns no math.
        assert "kernels.resolve_kernel_backend" in source
        assert "program_sweep_rows" in source

    def test_kernel_backends_compose_batched_primitives(self):
        import inspect

        from repro.kernels import backends

        source = inspect.getsource(backends.KernelBackend)
        # The reference backend is a *composition* of the batched
        # primitives — the single source of truth stays in repro.kernels.
        assert "batched.phase_flip_rows" in source
        assert "batched.moveout_controlled_diffusion_rows" in source
        assert "batched.block_measurement_rows" in source


class TestUniformState:
    def test_shapes_and_dtype(self):
        s = primitives.uniform_state(8)
        assert s.shape == (8,) and s.dtype == np.float64
        np.testing.assert_allclose(np.sum(s**2), 1.0)
        b = batched.uniform_batch(3, 8, dtype=np.float32)
        assert b.shape == (3, 8) and b.dtype == np.float32

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            primitives.uniform_state(0)


class TestInvertAboutAxisMean:
    """The shared core both signs of every π-diffusion reduce to."""

    def test_negate_true_matches_invert_about_mean(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 16))
        b = a.copy()
        primitives.invert_about_axis_mean(a, -1, negate=True)
        primitives.invert_about_mean(b)
        np.testing.assert_array_equal(a, b)

    def test_negate_false_is_minus(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 8))
        b = a.copy()
        primitives.invert_about_axis_mean(a, -1, negate=False)
        primitives.invert_about_mean(b)
        np.testing.assert_allclose(a, -b, atol=1e-15)

    def test_middle_axis_matches_reshaped_blocks(self):
        # Diffusing axis -2 of a (left, mid, right) view is what the
        # compiled DiffusionOp does; it must equal the blockwise kernel on
        # the transposed layout.
        rng = np.random.default_rng(2)
        arr = rng.normal(size=(2, 4, 3))
        via_axis = primitives.invert_about_axis_mean(arr.copy(), -2)
        manual = 2.0 * arr.mean(axis=-2, keepdims=True) - arr
        np.testing.assert_allclose(via_axis, manual, atol=1e-15)

    def test_mean_out_bit_identical(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 32))
        buf = np.empty((5, 1))
        with_buf = primitives.invert_about_axis_mean(a.copy(), -1, mean_out=buf)
        without = primitives.invert_about_axis_mean(a.copy(), -1)
        np.testing.assert_array_equal(with_buf, without)

    def test_float32_stays_float32(self):
        a = np.ones((2, 4), dtype=np.float32)
        out = primitives.invert_about_axis_mean(a, -1)
        assert out.dtype == np.float32


class TestBatchedPrimitives:
    def test_phase_flip_rows(self):
        amps = np.ones((3, 4))
        batched.phase_flip_rows(amps, np.array([0, 2, 3]))
        expected = np.ones((3, 4))
        expected[[0, 1, 2], [0, 2, 3]] = -1.0
        np.testing.assert_array_equal(amps, expected)

    def test_moveout_rows_swaps_ancilla_pairs(self):
        view = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
        before = view.copy()
        batched.moveout_rows(view, np.array([1, 2]))
        np.testing.assert_array_equal(view[0, 1], before[0, 1, ::-1])
        np.testing.assert_array_equal(view[1, 2], before[1, 2, ::-1])
        np.testing.assert_array_equal(view[0, 0], before[0, 0])

    def test_moveout_controlled_diffusion_matches_manual(self):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=(3, 8))
        targets = np.array([1, 5, 6])
        manual = amps.copy()
        rows = np.arange(3)
        parked_manual = manual[rows, targets].copy()
        manual[rows, targets] = 0.0
        manual = 2.0 * manual.mean(axis=-1, keepdims=True) - manual
        parked = batched.moveout_controlled_diffusion_rows(amps, targets)
        np.testing.assert_array_equal(parked, parked_manual)
        np.testing.assert_allclose(amps, manual, atol=1e-15)

    def test_block_measurement_rows_folds_parked_mass(self):
        amps = np.zeros((2, 8))
        amps[0, 0] = 0.6  # block 0
        amps[1, 7] = 1.0  # block 3
        parked = np.array([0.8, 0.0])
        targets = np.array([1, 7])  # target 1 -> block 0
        probs = batched.block_measurement_rows(
            amps, 4, parked=parked, targets=targets
        )
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs[0], [0.36 + 0.64, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(probs[1], [0, 0, 0, 1.0], atol=1e-15)

    def test_block_measurement_requires_targets_with_parked(self):
        with pytest.raises(ValueError, match="targets"):
            batched.block_measurement_rows(
                np.ones((1, 4)), 2, parked=np.ones(1)
            )

    def test_sweep_row_slabs_empty_batch(self):
        # Chunking work down to nothing must yield empty arrays, not raise
        # — callers concatenate shard outputs unconditionally.
        success, guesses = batched.sweep_row_slabs(None, 0, 4)
        assert success.shape == (0,) and success.dtype == np.float64
        assert guesses.shape == (0,) and guesses.dtype == np.intp

    def test_execute_batch_rows_empty_targets(self):
        from repro.core.batch import execute_batch_rows
        from repro.core.parameters import plan_schedule
        from repro.core.simplified import (
            execute_simplified_batch_rows,
            plan_simplified_schedule,
        )

        empty = np.array([], dtype=np.intp)
        for backend in ("kernels", "compiled", "naive"):
            success, guesses = execute_batch_rows(
                plan_schedule(64, 4).program, empty, backend
            )
            assert success.shape == guesses.shape == (0,)
        success, guesses = execute_simplified_batch_rows(
            plan_simplified_schedule(64, 4), empty
        )
        assert success.shape == guesses.shape == (0,)

    def test_map_row_slabs_preserves_order(self):
        seen = []

        def fn(sl):
            seen.append((sl.start, sl.stop))
            return sl.start

        results = batched.map_row_slabs(fn, 10, 3)
        assert results == sorted(results)
        assert sorted(seen) == seen


class TestCheckNorm:
    def test_accepts_normalised(self):
        assert primitives.check_norm(np.array([0.25] * 4)) == pytest.approx(1.0)

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="normalis"):
            primitives.check_norm(np.ones(4))


class TestMeasurementRenormalisationOptIn:
    """The satellite fix: sampling no longer divides on every call; the
    kernel-layer norm check guards instead, the division happens only for
    residue that would trip the sampler, and ``renormalize=True`` forces
    it for deliberately approximate states."""

    def test_default_samples_kernel_outputs(self):
        from repro.statevector.measurement import sample_addresses

        amps = np.zeros(8)
        amps[5] = 1.0
        assert sample_addresses(amps, rng=1) == 5

    def test_out_of_norm_still_rejected(self):
        from repro.statevector.measurement import sample_addresses, sample_blocks

        with pytest.raises(ValueError, match="normalis"):
            sample_addresses(np.ones(4), rng=0)
        with pytest.raises(ValueError, match="normalis"):
            sample_blocks(np.ones(4), 2, rng=0)

    def test_float32_scale_residue_rescaled_automatically(self):
        from repro.statevector.measurement import sample_blocks

        # Residue inside the norm guard but outside choice's strict
        # internal tolerance — what a complex64-policy state carries; it
        # must sample without the caller opting in.
        amps = np.sqrt(np.full(4, 0.25 * (1 + 4e-7)))
        out = sample_blocks(amps, 2, rng=0, size=10)
        assert out.shape == (10,)
        forced = sample_blocks(amps, 2, rng=0, size=10, renormalize=True)
        np.testing.assert_array_equal(out, forced)

    def test_renormalize_bypasses_guard_for_truncated_states(self):
        from repro.statevector.measurement import sample_blocks

        # A deliberately approximate state (truncated: norm 0.99) fails the
        # guard by default but samples under the explicit opt-in.
        amps = np.sqrt(np.full(4, 0.2475))
        with pytest.raises(ValueError, match="normalis"):
            sample_blocks(amps, 2, rng=0)
        out = sample_blocks(amps, 2, rng=0, size=6, renormalize=True)
        assert out.shape == (6,)
        with pytest.raises(ValueError, match="renormalis"):
            sample_blocks(np.zeros(4), 2, rng=0, renormalize=True)

    def test_float32_states_sample(self):
        from repro.statevector.measurement import sample_blocks

        # A float32 uniform state of this size carries ~1e-8 residue after
        # the float64 cast — the regime the auto-rescale exists for.
        amps = np.full(4096, np.float32(1.0 / 64.0), dtype=np.float32)
        out = sample_blocks(amps, 4, rng=3, size=5)
        assert out.shape == (5,)

    def test_complex64_policy_final_state_samples(self):
        # The fast dtype legitimately drifts the norm up to the tolerance
        # contract (circuit backends reach ~1e-4); the dtype-aware guard
        # must keep such states sampleable while still rejecting float32
        # states that are genuinely unnormalised.
        from repro.core import run_partial_search
        from repro.kernels import ExecutionPolicy
        from repro.oracle import SingleTargetDatabase
        from repro.statevector.measurement import sample_blocks

        res = run_partial_search(
            SingleTargetDatabase(1024, 11), 4, backend="compiled",
            policy=ExecutionPolicy(dtype="complex64"),
        )
        assert res.measure_block(rng=0, size=4).shape == (4,)
        with pytest.raises(ValueError, match="normalis"):
            sample_blocks(np.ones(4, dtype=np.float32), 2, rng=0)
