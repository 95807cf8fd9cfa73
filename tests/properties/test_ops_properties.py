"""Property-based tests: the reflection kernels on arbitrary states."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import primitives as ops
from repro.statevector import dense


def unit_vectors(min_size=2, max_size=48):
    """Strategy: real unit vectors of bounded dimension."""
    return (
        st.integers(min_value=min_size, max_value=max_size)
        .flatmap(
            lambda n: st.lists(
                st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n
            )
        )
        .map(np.asarray)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


@settings(max_examples=60, deadline=None)
@given(state=unit_vectors(), data=st.data())
def test_phase_flip_preserves_norm_and_involutes(state, data):
    idx = data.draw(st.integers(0, state.size - 1))
    out = ops.phase_flip(state.copy(), idx)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    np.testing.assert_allclose(ops.phase_flip(out.copy(), idx), state, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(state=unit_vectors())
def test_diffusion_preserves_norm_and_involutes(state):
    out = ops.invert_about_mean(state.copy())
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    np.testing.assert_allclose(ops.invert_about_mean(out.copy()), state, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(state=unit_vectors(min_size=4, max_size=48), data=st.data())
def test_block_diffusion_matches_dense_for_any_divisor(state, data):
    n = state.size
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    k = data.draw(st.sampled_from(divisors))
    got = ops.invert_about_mean_blocks(state.copy(), k)
    want = dense.block_diffusion_matrix(n, k) @ state
    np.testing.assert_allclose(got, want, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(state=unit_vectors(), data=st.data())
def test_masked_diffusion_is_unitary_and_local(state, data):
    n = state.size
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    out = ops.invert_about_mean_masked(state.copy(), mask)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    np.testing.assert_allclose(out[~mask], state[~mask], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(state=unit_vectors(), phase=st.floats(0.05, 3.1), data=st.data())
def test_generalised_diffusion_unitary(state, phase, data):
    out = ops.invert_about_mean(state.astype(complex), phase)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(state=unit_vectors(min_size=4), data=st.data())
def test_grover_iteration_stays_in_invariant_plane(state, data):
    """From any symmetric start, amplitudes stay equal across non-targets."""
    n = state.size
    t = data.draw(st.integers(0, n - 1))
    # Symmetrise the non-target amplitudes first.
    amps = state.copy()
    others = np.delete(np.arange(n), t)
    amps[others] = np.sign(amps[others].sum() + 1e-30) * np.sqrt(
        max(0.0, (1 - amps[t] ** 2)) / (n - 1)
    )
    norm = np.linalg.norm(amps)
    if norm < 1e-6:
        return
    amps /= norm
    ops.apply_grover_iteration(amps, t, iterations=3)
    non_target = np.delete(amps, t)
    assert np.ptp(non_target) < 1e-10
