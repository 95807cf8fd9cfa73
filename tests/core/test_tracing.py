"""StageTrace behaviour."""

import numpy as np
import pytest

from repro.core.algorithm import StageTrace


class TestStageTrace:
    def test_1d_snapshot(self):
        amps = np.full(8, 1 / np.sqrt(8))
        t = StageTrace("initial", "uniform", amps, 0)
        assert t.n_items == 8
        assert t.address_probabilities().sum() == pytest.approx(1.0)
        np.testing.assert_allclose(t.block_probabilities(2), [0.5, 0.5])

    def test_2d_snapshot_traced_out(self):
        branches = np.zeros((2, 4))
        branches[0, 0] = 0.6
        branches[1, 0] = 0.8
        t = StageTrace("final", "with ancilla", branches, 3)
        assert t.n_items == 4
        assert t.address_probabilities()[0] == pytest.approx(1.0)

    def test_flat_amplitudes(self):
        branches = np.zeros((2, 4))
        branches[0, 1] = 0.6
        branches[1, 2] = 0.8
        flat = StageTrace("x", "d", branches, 0).flat_amplitudes()
        np.testing.assert_allclose(flat, [0.0, 0.6, 0.8, 0.0])

    def test_flat_passthrough_for_1d(self):
        amps = np.array([1.0, 0.0])
        t = StageTrace("x", "d", amps, 0)
        np.testing.assert_allclose(t.flat_amplitudes(), amps)
