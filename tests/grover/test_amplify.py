"""Phased amplification steps and the phase solver."""

import numpy as np
import pytest

from repro.grover.amplify import phased_block_grover_step, phased_grover_step, solve_phases
from repro.kernels import primitives as ops
from repro.oracle import PhaseOracle, SingleTargetDatabase


class TestPhasedSteps:
    def test_pi_phases_equal_standard(self):
        n, t = 32, 9
        db = SingleTargetDatabase(n, t)
        amps = np.full(n, 1 / np.sqrt(n), dtype=complex)
        phased_grover_step(amps, PhaseOracle(db), np.pi, np.pi)

        want = np.full(n, 1 / np.sqrt(n))
        ops.apply_grover_iteration(want, t)
        np.testing.assert_allclose(amps, want.astype(complex), atol=1e-12)
        assert db.queries_used == 1

    def test_block_step_counts_query(self):
        n, k, t = 32, 4, 9
        db = SingleTargetDatabase(n, t)
        amps = np.full(n, 1 / np.sqrt(n), dtype=complex)
        phased_block_grover_step(amps, PhaseOracle(db), k, 1.0, 1.0)
        assert db.queries_used == 1
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_zero_phase_is_identity_like(self):
        # phi = 0 oracle is the identity; phi = 0 diffusion is -I (global).
        n, t = 16, 3
        db = SingleTargetDatabase(n, t)
        amps = np.full(n, 1 / np.sqrt(n), dtype=complex)
        phased_grover_step(amps, PhaseOracle(db), 0.0, 0.0)
        np.testing.assert_allclose(np.abs(amps), 1 / np.sqrt(n), atol=1e-12)


class TestSolvePhases:
    def test_solves_simple_root(self):
        def residual(phases):
            return np.array([np.cos(phases[0]), np.sin(phases[1]) - 0.5])

        sol = solve_phases(residual, 2, tolerance=1e-12)
        assert abs(np.cos(sol[0])) < 1e-12
        assert abs(np.sin(sol[1]) - 0.5) < 1e-12

    def test_raises_when_infeasible(self):
        def residual(phases):
            return np.array([np.cos(phases[0]) + 2.0])  # never zero

        with pytest.raises(RuntimeError, match="tolerance"):
            solve_phases(residual, 1, tolerance=1e-12)

    def test_explicit_starts(self):
        def residual(phases):
            return np.array([phases[0] - 1.0])

        sol = solve_phases(residual, 1, starts=[[0.0]], tolerance=1e-12)
        assert sol[0] == pytest.approx(1.0, abs=1e-10)
