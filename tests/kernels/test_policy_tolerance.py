"""The complex64 tolerance contract, across every registered method.

:data:`repro.kernels.COMPLEX64_SUCCESS_ATOL` documents how far a
``dtype="complex64"`` success probability may drift from the complex128
reference.  These tests hold every registered method (and every backend of
the ``grk`` method) to that bound, and pin the complementary guarantees:
complex128 results are bit-identical across shard boundaries at *both*
dtypes, and ``row_threads`` never changes a bit at either dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import plan_schedule
from repro.core.batch import execute_batch_rows
from repro.engine import (
    ExecutionPolicy,
    SearchEngine,
    SearchRequest,
    ShardPolicy,
    available_methods,
)
from repro.kernels import COMPLEX64_SUCCESS_ATOL

FAST = ExecutionPolicy(dtype="complex64")


def _request(method: str, policy: ExecutionPolicy) -> SearchRequest:
    """A representative single-search request for *method* (N=256, K=4)."""
    options = {}
    if method == "classical":
        options["strategy"] = "deterministic"
    return SearchRequest(
        n_items=256, n_blocks=4, method=method, target=37, rng=0,
        policy=policy, options=options,
    )


class TestEveryRegisteredMethod:
    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_success_within_documented_bound(self, method):
        engine = SearchEngine()
        full = engine.search(_request(method, ExecutionPolicy()))
        fast = engine.search(_request(method, FAST))
        assert fast.success_probability == pytest.approx(
            full.success_probability, abs=COMPLEX64_SUCCESS_ATOL
        )
        assert fast.block_guess == full.block_guess
        assert fast.queries == full.queries

    @pytest.mark.parametrize("backend", ["kernels", "compiled", "naive"])
    def test_grk_backends_within_bound(self, backend):
        engine = SearchEngine()
        full = engine.search(
            _request("grk", ExecutionPolicy()).replace(backend=backend)
        )
        fast = engine.search(_request("grk", FAST).replace(backend=backend))
        assert fast.success_probability == pytest.approx(
            full.success_probability, abs=COMPLEX64_SUCCESS_ATOL
        )

    @pytest.mark.parametrize(
        "method",
        ["grk", "grk-simplified", "grk-sure-success", "grk-cwb", "subspace"],
    )
    def test_batched_paths_within_bound(self, method):
        engine = SearchEngine()
        full = engine.search_batch(
            SearchRequest(n_items=256, n_blocks=4, method=method)
        )
        fast = engine.search_batch(
            SearchRequest(n_items=256, n_blocks=4, method=method, policy=FAST)
        )
        np.testing.assert_allclose(
            fast.success_probabilities, full.success_probabilities,
            atol=COMPLEX64_SUCCESS_ATOL, rtol=0,
        )


class TestPropertySweep:
    """Hypothesis sweep of geometries and backends against the bound."""

    @settings(max_examples=20, deadline=None)
    @given(
        n_qubits=st.integers(min_value=4, max_value=9),
        k_bits=st.integers(min_value=1, max_value=3),
        backend=st.sampled_from(["kernels", "compiled"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batch_success_within_bound(self, n_qubits, k_bits, backend, seed):
        n = 1 << n_qubits
        k = 1 << min(k_bits, n_qubits - 1)
        if n // k < 2:
            return
        schedule = plan_schedule(n, k)
        rng = np.random.default_rng(seed)
        targets = rng.choice(n, size=min(16, n), replace=False).astype(np.intp)
        full, guess_full = execute_batch_rows(schedule.program, targets, backend)
        fast, guess_fast = execute_batch_rows(
            schedule.program, targets, backend, FAST
        )
        np.testing.assert_allclose(
            fast, full, atol=COMPLEX64_SUCCESS_ATOL, rtol=0
        )
        np.testing.assert_array_equal(guess_fast, guess_full)

    @settings(max_examples=15, deadline=None)
    @given(
        n_qubits=st.integers(min_value=4, max_value=9),
        threads=st.integers(min_value=2, max_value=7),
        dtype=st.sampled_from(["complex128", "complex64"]),
    )
    def test_row_threads_bitwise_invariant_at_both_dtypes(
        self, n_qubits, threads, dtype
    ):
        n = 1 << n_qubits
        schedule = plan_schedule(n, 4)
        targets = np.arange(0, n, 3, dtype=np.intp)
        serial, gs = execute_batch_rows(
            schedule.program, targets, "kernels", ExecutionPolicy(dtype=dtype)
        )
        threaded, gt = execute_batch_rows(
            schedule.program, targets, "kernels",
            ExecutionPolicy(dtype=dtype, row_threads=threads),
        )
        np.testing.assert_array_equal(threaded, serial)
        np.testing.assert_array_equal(gt, gs)


class TestShardIdentityAtBothDtypes:
    """Shard boundaries stay bit-invisible at complex128 AND complex64 —
    the fast dtype loses precision deterministically, not per-shard."""

    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    def test_sharded_equals_unsharded_bitwise(self, dtype):
        n, k = 128, 4
        policy = ExecutionPolicy(dtype=dtype)
        engine = SearchEngine()
        unsharded = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, policy=policy)
        )
        assert unsharded.execution["n_shards"] == 1
        sharded = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, policy=policy,
                          shards=ShardPolicy(max_rows=11))
        )
        assert sharded.execution["n_shards"] == 12
        np.testing.assert_array_equal(
            sharded.success_probabilities, unsharded.success_probabilities
        )
        np.testing.assert_array_equal(
            sharded.block_guesses, unsharded.block_guesses
        )
