"""The Monte Carlo harness."""

import pytest

from repro.classical import estimate_expected_queries


def _constant_trial(task, rng):
    return 5.0


def _uniform_trial(task, rng):
    return float(rng.integers(1, 11))


class TestEstimate:
    def test_constant(self):
        est = estimate_expected_queries(_constant_trial, 50, seed=0)
        assert est.mean == 5.0
        assert est.std_error == 0.0
        assert est.minimum == est.maximum == 5.0

    def test_uniform_mean(self):
        est = estimate_expected_queries(_uniform_trial, 4000, seed=1)
        assert est.mean == pytest.approx(5.5, abs=0.2)
        assert est.within(5.5)

    def test_within_rejects_far_value(self):
        est = estimate_expected_queries(_uniform_trial, 4000, seed=1)
        assert not est.within(9.0)

    def test_reproducible(self):
        a = estimate_expected_queries(_uniform_trial, 100, seed=7)
        b = estimate_expected_queries(_uniform_trial, 100, seed=7)
        assert a.mean == b.mean

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_expected_queries(_constant_trial, 0)

    def test_trial_i_draws_stream_i(self):
        import numpy as np

        from repro.util.rng import spawn_rngs

        est = estimate_expected_queries(_uniform_trial, 64, seed=3)
        counts = [float(rng.integers(1, 11)) for rng in spawn_rngs(3, 64)]
        assert est.mean == float(np.mean(counts))
        assert (est.minimum, est.maximum) == (min(counts), max(counts))

    def test_single_trial(self):
        est = estimate_expected_queries(_constant_trial, 1, seed=0)
        assert est.n_trials == 1 and est.std_error == 0.0
