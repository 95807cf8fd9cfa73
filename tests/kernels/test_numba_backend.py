"""The optional numba JIT tier, exercised only where numba is installed.

The tier-1 matrix (``test_backends.py``) already parametrises numba into
the cross-backend identity sweep; this module adds the JIT-specific
contracts — compilation actually happens, ``prange`` internal parallelism
keeps the outer thread seam serial, and the compiled iteration matches the
composed reference bit for bit at float64.  The whole file is ``numba``
marked and auto-skips when the dependency is absent, so the default test
run stays numpy-only; the CI optional-deps leg runs it with numba
installed.
"""

import importlib.util

import numpy as np
import pytest

from repro.core import plan_schedule
from repro.kernels import (
    AUTO_ROW_THREADS_MIN_SLAB_BYTES,
    ExecutionPolicy,
    auto_row_threads,
    get_kernel_backend,
)
from repro.kernels.backends import NumpyBackend

HAS_NUMBA = importlib.util.find_spec("numba") is not None

pytestmark = [
    pytest.mark.numba,
    pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed"),
]


@pytest.fixture(scope="module")
def numba_backend():
    backend = get_kernel_backend("numba")
    assert backend.available()
    return backend.require()


class TestNumbaBackend:
    def test_advertises_internal_parallelism(self, numba_backend):
        assert numba_backend.internal_parallelism

    def test_outer_thread_seam_stays_serial(self):
        # prange fans rows out inside the JIT kernels; the outer "auto"
        # resolution must never stack a thread pool on top of it.
        assert auto_row_threads(
            backend="numba",
            slab_bytes=16 * AUTO_ROW_THREADS_MIN_SLAB_BYTES,
        ) == 1
        policy = ExecutionPolicy(backend="numba", row_threads="auto")
        assert policy.resolve(
            slab_bytes=16 * AUTO_ROW_THREADS_MIN_SLAB_BYTES
        ).row_threads == 1

    @pytest.mark.parametrize("n_blocks", [None, 4])
    def test_iteration_float64_bit_identical(self, numba_backend, n_blocks):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal((6, 128))
        targets = rng.integers(0, 128, size=6)
        ref, got = amps.copy(), amps.copy()
        NumpyBackend().grk_iteration_rows(ref, targets, n_blocks=n_blocks)
        numba_backend.grk_iteration_rows(got, targets, n_blocks=n_blocks)
        np.testing.assert_array_equal(got, ref)

    def test_full_sweep_float64_bit_identical(self, numba_backend):
        schedule = plan_schedule(512, 8)
        targets = (np.arange(24, dtype=np.intp) * 31) % 512
        policy = ExecutionPolicy()
        ref = NumpyBackend().program_sweep_rows(
            schedule.program, targets, policy
        )
        got = numba_backend.program_sweep_rows(
            schedule.program, targets, policy
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
