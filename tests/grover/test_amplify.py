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

    def test_two_calls_give_the_same_phases(self):
        # CWB at (1024, 4) climbs one budget rung: twelve failed starts,
        # then a solve.
        from repro.core.cwb import plan_cwb

        first, second = plan_cwb(1024, 4), plan_cwb(1024, 4)
        assert first.phases == second.phases
        assert first.final_phase == second.final_phase

    @pytest.mark.parametrize("n_residuals", [1, 2])
    def test_one_and_two_residual_problems_solve(self, n_residuals):
        # One or two real equations in four phases (the planners' shapes).
        def residual(phases):
            z = np.exp(1j * phases).sum() - 1.5
            return np.array([z.real, z.imag][:n_residuals])

        sol = solve_phases(residual, 4, tolerance=1e-12)
        assert sol.shape == (4,)
        assert np.max(np.abs(residual(sol))) <= 1e-12

    def test_infeasible_problem_reports_best_residual(self):
        # |e^{i x0} + e^{i x1}| <= 2, so the residual is at least 1.
        def residual(phases):
            return np.array([abs(np.exp(1j * phases).sum()) - 3.0])

        with pytest.raises(RuntimeError, match=r"best residual 1\.000e\+00"):
            solve_phases(residual, 2, tolerance=1e-12)

    def test_explicit_starts_are_honoured(self):
        # r = x² - 1 has roots at ±1: the first start is tried first and
        # picks its own root, whatever the default starts (around π) find.
        calls = []

        def residual(phases):
            calls.append(phases.copy())
            return np.array([phases[0] ** 2 - 1.0])

        assert solve_phases(residual, 1, starts=[[-0.6], [0.6]])[0] == pytest.approx(-1.0)
        assert calls[0].tolist() == [-0.6]
        assert solve_phases(residual, 1, starts=[[0.6], [-0.6]])[0] == pytest.approx(1.0)
        assert solve_phases(residual, 1)[0] == pytest.approx(1.0)

    def test_phases_without_leverage_end_each_start_at_once(self):
        # A residual the phases cannot move has a zero gradient: each start
        # costs one evaluation and one Jacobian, not a full descent.
        calls = []

        def residual(phases):
            calls.append(phases.copy())
            return np.array([1e-3, 0.0])

        with pytest.raises(RuntimeError, match=r"best residual 1\.000e-03"):
            solve_phases(residual, 5, tolerance=1e-12)
        assert len(calls) == 12 * (1 + 5)
        assert np.array_equal(calls[0], np.full(5, np.pi))

