"""Batched runner vs the counted single-run implementation."""

import numpy as np
import pytest

from repro.core import plan_schedule, run_partial_search
from repro.engine import SearchEngine, SearchRequest
from repro.oracle import SingleTargetDatabase


def _engine_batch(n_items, n_blocks, targets, epsilon=None, *,
                  schedule=None, backend="kernels"):
    """One engine batch of the GRK algorithm over *targets*."""
    options = {} if schedule is None else {"schedule": schedule}
    request = SearchRequest(n_items=n_items, n_blocks=n_blocks,
                            epsilon=epsilon, backend=backend, options=options)
    return SearchEngine().search_batch(request, targets=targets)


class TestBatchMatchesSingle:
    def test_success_probabilities_identical(self):
        n, k = 256, 4
        targets = [0, 17, 100, 255]
        batch = _engine_batch(n, k, targets)
        for i, t in enumerate(targets):
            single = run_partial_search(SingleTargetDatabase(n, t), k)
            assert batch.success_probabilities[i] == pytest.approx(
                single.success_probability, abs=1e-12
            )
            assert batch.block_guesses[i] == single.block_guess

    def test_queries_per_run_matches_schedule(self):
        n, k = 256, 4
        batch = _engine_batch(n, k, [1, 2, 3])
        single = run_partial_search(SingleTargetDatabase(n, 1), k)
        assert batch.queries_per_run == single.queries

    def test_all_targets_of_instance(self):
        n, k = 128, 4
        batch = _engine_batch(n, k, range(n))
        assert batch.all_correct
        assert batch.worst_success > 1 - 10.0 / n

    def test_success_uniform_across_targets(self):
        # Symmetric dynamics: every target gets the same success probability.
        batch = _engine_batch(256, 8, range(0, 256, 7))
        assert np.ptp(batch.success_probabilities) < 1e-12


class TestBatchValidation:
    def test_empty_targets(self):
        with pytest.raises(ValueError):
            _engine_batch(64, 4, [])

    def test_out_of_range_targets(self):
        with pytest.raises(ValueError):
            _engine_batch(64, 4, [64])
        with pytest.raises(ValueError):
            _engine_batch(64, 4, [-1])

    def test_schedule_mismatch(self):
        sched = plan_schedule(64, 4)
        with pytest.raises(ValueError):
            _engine_batch(128, 4, [0], schedule=sched)

    def test_explicit_epsilon(self):
        a = _engine_batch(256, 4, [5], epsilon=0.3)
        b = _engine_batch(256, 4, [5], epsilon=0.6)
        assert a.schedule["l1"] > b.schedule["l1"]


class TestBatchBackends:
    def test_circuit_backends_match_kernels(self):
        kernels = _engine_batch(64, 4, range(64))
        for backend in ("naive", "compiled"):
            got = _engine_batch(64, 4, range(64), backend=backend)
            np.testing.assert_allclose(
                got.success_probabilities, kernels.success_probabilities, atol=1e-12
            )
            np.testing.assert_array_equal(got.block_guesses, kernels.block_guesses)
            assert got.queries_per_run == kernels.queries_per_run

    def test_compiled_backend_subset_of_targets(self):
        targets = [3, 17, 40, 63]
        kernels = _engine_batch(64, 8, targets)
        compiled = _engine_batch(64, 8, targets, backend="compiled")
        np.testing.assert_allclose(
            compiled.success_probabilities, kernels.success_probabilities, atol=1e-12
        )
        assert compiled.all_correct

    def test_circuit_backends_need_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            _engine_batch(12, 3, range(12), backend="compiled")
        with pytest.raises(ValueError, match="powers of two"):
            _engine_batch(12, 3, range(12), backend="naive")

    def test_unknown_backend_rejected(self):
        # Validated up front: the error names the options even when the
        # geometry would have been rejected too.
        message = r"does not support backend 'dense' \(supported: kernels, "
        with pytest.raises(ValueError, match=message):
            _engine_batch(16, 4, [1], backend="dense")
        with pytest.raises(ValueError, match=message):
            _engine_batch(12, 3, [1], backend="dense")
