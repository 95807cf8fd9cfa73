"""Unit tests: structured kernels vs dense mirrors, algebraic identities."""

import numpy as np
import pytest

from repro.kernels import primitives as ops
from repro.statevector import dense
from tests.conftest import random_state


@pytest.fixture
def state(rng):
    return random_state(24, rng)


class TestPhaseFlip:
    def test_matches_dense(self, state):
        got = ops.phase_flip(state.copy(), 7)
        want = dense.phase_flip_matrix(24, 7) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_multi_index(self, state):
        idx = [2, 5, 11]
        got = ops.phase_flip(state.copy(), idx)
        want = dense.phase_flip_matrix(24, idx) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_involution(self, state):
        twice = ops.phase_flip(ops.phase_flip(state.copy(), 3), 3)
        np.testing.assert_allclose(twice, state, atol=1e-12)

    def test_batched(self, rng):
        batch = np.stack([random_state(16, rng) for _ in range(5)])
        got = ops.phase_flip(batch.copy(), 4)
        for row_got, row_in in zip(got, batch):
            np.testing.assert_allclose(
                row_got, dense.phase_flip_matrix(16, 4) @ row_in, atol=1e-12
            )


class TestPhaseRotate:
    def test_pi_equals_flip(self, state):
        a = ops.phase_rotate(state.astype(complex), 5, np.pi)
        b = ops.phase_flip(state.copy(), 5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_dense(self, state):
        phi = 0.7
        got = ops.phase_rotate(state.astype(complex), 5, phi)
        want = dense.phase_rotate_matrix(24, 5, phi) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_real_array_rejected_for_complex_phase(self, state):
        with pytest.raises(TypeError):
            ops.phase_rotate(state.copy(), 5, 0.3)

    def test_norm_preserved(self, state):
        out = ops.phase_rotate(state.astype(complex), 1, 1.234)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


class TestInvertAboutMean:
    def test_matches_dense(self, state):
        got = ops.invert_about_mean(state.copy())
        want = dense.diffusion_matrix(24) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_involution(self, state):
        twice = ops.invert_about_mean(ops.invert_about_mean(state.copy()))
        np.testing.assert_allclose(twice, state, atol=1e-12)

    def test_uniform_is_fixed_point(self):
        n = 32
        uniform = np.full(n, 1 / np.sqrt(n))
        out = ops.invert_about_mean(uniform.copy())
        np.testing.assert_allclose(out, uniform, atol=1e-12)

    def test_generalised_matches_dense(self, state):
        phi = 1.1
        got = ops.invert_about_mean(state.astype(complex), phi)
        want = dense.diffusion_matrix(24, phi) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_generalised_requires_complex(self, state):
        with pytest.raises(TypeError):
            ops.invert_about_mean(state.copy(), 0.5)

    def test_batched(self, rng):
        batch = np.stack([random_state(16, rng) for _ in range(4)])
        got = ops.invert_about_mean(batch.copy())
        mat = dense.diffusion_matrix(16)
        np.testing.assert_allclose(got, batch @ mat.T, atol=1e-12)


class TestInvertAboutMeanBlocks:
    @pytest.mark.parametrize("n,k", [(24, 3), (24, 4), (16, 2), (16, 16)])
    def test_matches_dense(self, rng, n, k):
        state = random_state(n, rng)
        got = ops.invert_about_mean_blocks(state.copy(), k)
        want = dense.block_diffusion_matrix(n, k) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_uniform_blocks_fixed(self, rng):
        # Block-uniform states are fixed points of the block diffusion.
        per_block = rng.standard_normal(4)
        state = np.repeat(per_block, 6)
        state /= np.linalg.norm(state)
        out = ops.invert_about_mean_blocks(state.copy(), 4)
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_involution(self, state):
        twice = ops.invert_about_mean_blocks(
            ops.invert_about_mean_blocks(state.copy(), 3), 3
        )
        np.testing.assert_allclose(twice, state, atol=1e-12)

    def test_generalised_matches_dense(self, state):
        phi = 2.2
        got = ops.invert_about_mean_blocks(state.astype(complex), 4, phi)
        want = dense.block_diffusion_matrix(24, 4, phi) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_bad_blocks(self, state):
        with pytest.raises(ValueError):
            ops.invert_about_mean_blocks(state.copy(), 5)
        with pytest.raises(ValueError):
            ops.invert_about_mean_blocks(state.copy(), 0)


class TestInvertAboutMeanMasked:
    def test_matches_dense(self, rng):
        n = 20
        state = random_state(n, rng)
        mask = np.zeros(n, dtype=bool)
        mask[3:15] = True
        got = ops.invert_about_mean_masked(state.copy(), mask)
        want = dense.masked_diffusion_matrix(n, mask) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unmasked_untouched(self, rng):
        n = 16
        state = random_state(n, rng)
        mask = np.zeros(n, dtype=bool)
        mask[:8] = True
        out = ops.invert_about_mean_masked(state.copy(), mask)
        np.testing.assert_allclose(out[8:], state[8:], atol=1e-15)

    def test_full_mask_equals_global(self, state):
        mask = np.ones(24, dtype=bool)
        a = ops.invert_about_mean_masked(state.copy(), mask)
        b = ops.invert_about_mean(state.copy())
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_mask_is_identity(self, state):
        out = ops.invert_about_mean_masked(state.copy(), np.zeros(24, dtype=bool))
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_wrong_shape_rejected(self, state):
        with pytest.raises(ValueError):
            ops.invert_about_mean_masked(state.copy(), np.ones(10, dtype=bool))


class TestReflectAboutState:
    def test_matches_dense(self, rng):
        n = 12
        state = random_state(n, rng)
        axis = random_state(n, rng)
        got = ops.reflect_about_state(state.copy(), axis)
        want = dense.reflection_matrix(axis) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_axis_maps_to_minus_axis(self, rng):
        axis = random_state(10, rng)
        out = ops.reflect_about_state(axis.copy(), axis)
        np.testing.assert_allclose(out, -axis, atol=1e-12)

    def test_orthogonal_fixed(self, rng):
        axis = np.zeros(8)
        axis[0] = 1.0
        vec = np.zeros(8)
        vec[3] = 1.0
        out = ops.reflect_about_state(vec.copy(), axis)
        np.testing.assert_allclose(out, vec, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ops.reflect_about_state(random_state(8, rng), random_state(9, rng))


class TestGroverIterations:
    def test_one_iteration_matches_dense(self, rng):
        n, t = 32, 11
        state = random_state(n, rng)
        got = ops.apply_grover_iteration(state.copy(), t)
        want = dense.grover_matrix(n, t) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_many_iterations_compose(self, rng):
        n, t = 16, 5
        state = random_state(n, rng)
        got = ops.apply_grover_iteration(state.copy(), t, iterations=3)
        mat = np.linalg.matrix_power(dense.grover_matrix(n, t), 3)
        np.testing.assert_allclose(got, mat @ state, atol=1e-12)

    def test_block_iteration_matches_dense(self, rng):
        n, k, t = 24, 4, 13
        state = random_state(n, rng)
        got = ops.apply_block_grover_iteration(state.copy(), t, k, iterations=2)
        mat = np.linalg.matrix_power(dense.block_grover_matrix(n, k, t), 2)
        np.testing.assert_allclose(got, mat @ state, atol=1e-12)

    def test_norm_preserved_many(self, rng):
        state = random_state(64, rng)
        ops.apply_grover_iteration(state, 3, iterations=50)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


class TestMeanOutBuffers:
    """The preallocated ``mean_out`` path must be bit-identical to the
    allocating path (the ROADMAP perf item trades allocator churn, never
    results)."""

    def test_invert_about_mean_bit_identical(self, rng):
        amps = rng.standard_normal((7, 33))
        plain = ops.invert_about_mean(amps.copy())
        buffered = ops.invert_about_mean(
            amps.copy(), mean_out=np.empty((7, 1))
        )
        assert np.array_equal(plain, buffered)

    def test_invert_about_mean_blocks_bit_identical(self, rng):
        amps = rng.standard_normal((5, 24))
        plain = ops.invert_about_mean_blocks(amps.copy(), 4)
        buffered = ops.invert_about_mean_blocks(
            amps.copy(), 4, mean_out=np.empty((5, 4, 1))
        )
        assert np.array_equal(plain, buffered)

    def test_buffer_reused_across_iterations(self, rng):
        amps = rng.standard_normal((3, 16))
        reference = amps.copy()
        for _ in range(10):
            ops.invert_about_mean(reference)
        buffered = amps.copy()
        buf = np.empty((3, 1))
        for _ in range(10):
            ops.invert_about_mean(buffered, mean_out=buf)
        assert np.array_equal(reference, buffered)

    def test_one_dimensional_state(self, rng):
        amps = rng.standard_normal(32)
        plain = ops.invert_about_mean(amps.copy())
        buffered = ops.invert_about_mean(amps.copy(), mean_out=np.empty((1,)))
        assert np.array_equal(plain, buffered)

    def test_complex_dtype(self, rng):
        amps = random_state(24, rng, complex_=True)
        plain = ops.invert_about_mean_blocks(amps.copy(), 3)
        buffered = ops.invert_about_mean_blocks(
            amps.copy(), 3, mean_out=np.empty((3, 1), dtype=complex)
        )
        assert np.array_equal(plain, buffered)
