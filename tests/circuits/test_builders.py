"""Circuit builders vs structured operators — gate-level faithfulness."""

import numpy as np
import pytest

from repro.circuits import (
    block_diffusion_circuit,
    diffusion_circuit,
    grover_circuit,
    oracle_circuit,
    partial_search_circuit,
    run_circuit,
    uniform_superposition_circuit,
)
from repro.circuits.builders import move_out_circuit
from repro.kernels import primitives as ops
from repro.statevector import dense
from tests.conftest import random_state


class TestPreparation:
    def test_uniform(self):
        out = run_circuit(uniform_superposition_circuit(4))
        np.testing.assert_allclose(out, np.full(16, 0.25), atol=1e-12)

    def test_subset_of_wires(self):
        out = run_circuit(uniform_superposition_circuit(3, qubits=[0, 1]))
        # last wire stays |0>: support on even indices only
        np.testing.assert_allclose(out[1::2], 0.0, atol=1e-14)


class TestOracleCircuit:
    @pytest.mark.parametrize("target", [0, 3, 7])
    def test_equals_it(self, rng, target):
        n = 3
        state = random_state(8, rng).astype(complex)
        got = run_circuit(oracle_circuit(n, target), initial=state)
        want = ops.phase_flip(state.copy(), target)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_one_query(self):
        assert oracle_circuit(3, 5).oracle_queries == 1

    def test_with_ancilla_wire(self, rng):
        # Oracle on address wires of an (n+1)-wire circuit: identity on ancilla.
        state = random_state(16, rng).astype(complex)
        got = run_circuit(oracle_circuit(4, 5, n_address_qubits=3), initial=state)
        want = state.copy().reshape(8, 2)
        want[5] *= -1
        np.testing.assert_allclose(got, want.reshape(-1), atol=1e-12)


class TestDiffusionCircuits:
    def test_global_equals_i0(self, rng):
        state = random_state(16, rng).astype(complex)
        got = run_circuit(diffusion_circuit(4), initial=state)
        want = dense.diffusion_matrix(16) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_equals_kron(self, rng):
        n, k = 4, 2  # N=16, K=4 blocks
        state = random_state(16, rng).astype(complex)
        got = run_circuit(block_diffusion_circuit(n, k), initial=state)
        want = dense.block_diffusion_matrix(16, 4) @ state
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_bits_validation(self):
        with pytest.raises(ValueError):
            block_diffusion_circuit(4, 4)


class TestMoveOut:
    def test_equals_dense(self, rng):
        n_addr, target = 3, 5
        state = random_state(16, rng).astype(complex)  # (address, ancilla)
        got = run_circuit(move_out_circuit(4, target, 3), initial=state)
        # dense.move_out_matrix uses (b, x) ordering; circuit uses (x, b).
        branches = state.reshape(8, 2).T.reshape(-1)
        want = dense.move_out_matrix(8, target) @ branches
        want = want.reshape(2, 8).T.reshape(-1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_needs_ancilla(self):
        with pytest.raises(ValueError):
            move_out_circuit(3, 5, 3)


class TestGroverCircuit:
    def test_matches_runner(self):
        from repro.grover import run_grover
        from repro.oracle import SingleTargetDatabase

        n, target = 5, 19
        circ = grover_circuit(n, target, 4)
        state = run_circuit(circ)
        res = run_grover(SingleTargetDatabase(32, target), 4)
        np.testing.assert_allclose(state, res.amplitudes.astype(complex), atol=1e-10)
        assert circ.oracle_queries == 4

    def test_success_probability(self):
        state = run_circuit(grover_circuit(6, 11, 6))
        assert abs(state[11]) ** 2 > 0.99


class TestPartialSearchCircuit:
    @pytest.mark.parametrize("n,k,target", [(5, 1, 19), (6, 2, 37), (6, 3, 0)])
    def test_matches_runner(self, n, k, target):
        from repro.core import plan_schedule, run_partial_search
        from repro.oracle import SingleTargetDatabase

        n_items, n_blocks = 1 << n, 1 << k
        sched = plan_schedule(n_items, n_blocks)
        circ = partial_search_circuit(n, k, target, sched.l1, sched.l2)
        state = run_circuit(circ)
        branches = state.reshape(n_items, 2).T
        res = run_partial_search(SingleTargetDatabase(n_items, target), n_blocks, schedule=sched)
        np.testing.assert_allclose(branches, res.branches.astype(complex), atol=1e-10)
        assert circ.oracle_queries == res.queries == sched.l1 + sched.l2 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_search_circuit(4, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            partial_search_circuit(4, 4, 0, 1, 1)
        with pytest.raises(ValueError):
            partial_search_circuit(4, 2, 0, -1, 1)
