"""The 3D subspace model vs the full simulator — the key cross-validation."""

import numpy as np
import pytest

from repro.core import BlockSpec, plan_schedule, run_partial_search
from repro.core.subspace import SubspaceGRK
from repro.kernels import primitives as ops
from repro.oracle import SingleTargetDatabase


class TestAfterStep1:
    def test_norm_one(self):
        model = SubspaceGRK(BlockSpec(256, 4))
        for l1 in (0, 3, 9):
            assert model.after_step1(l1).norm_squared(model.spec) == pytest.approx(1.0)

    def test_matches_simulator(self):
        n, k, t, l1 = 64, 4, 37, 4
        model = SubspaceGRK(BlockSpec(n, k))
        coords = model.after_step1(l1)
        amps = np.full(n, 1 / np.sqrt(n))
        ops.apply_grover_iteration(amps, t, l1)
        np.testing.assert_allclose(
            coords.to_statevector(model.spec, t), amps, atol=1e-12
        )

    def test_l1_zero_is_uniform(self):
        model = SubspaceGRK(BlockSpec(100, 5))
        c = model.after_step1(0)
        assert c.target == pytest.approx(c.block_rest)
        assert c.block_rest == pytest.approx(c.outside)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SubspaceGRK(BlockSpec(64, 4)).after_step1(-1)


class TestAfterStep2:
    def test_matches_simulator(self):
        n, k, t, l1, l2 = 64, 4, 37, 4, 2
        model = SubspaceGRK(BlockSpec(n, k))
        coords = model.after_step2(l1, l2)
        amps = np.full(n, 1 / np.sqrt(n))
        ops.apply_grover_iteration(amps, t, l1)
        ops.apply_block_grover_iteration(amps, t, k, l2)
        np.testing.assert_allclose(
            coords.to_statevector(model.spec, t), amps, atol=1e-12
        )

    def test_outside_untouched(self):
        model = SubspaceGRK(BlockSpec(256, 4))
        before = model.after_step1(5)
        after = model.after_step2(5, 3)
        assert after.outside == pytest.approx(before.outside, abs=1e-15)

    def test_block_rest_goes_negative(self):
        # Figure 5: the target block over-rotates past the target.
        n, k = 4096, 4
        s = plan_schedule(n, k)
        model = SubspaceGRK(BlockSpec(n, k))
        after = model.after_step2(s.l1, s.l2)
        assert after.block_rest < 0

    def test_mass_conserved_in_block(self):
        model = SubspaceGRK(BlockSpec(256, 4))
        before = model.after_step1(5).target_block_mass(model.spec)
        after = model.after_step2(5, 4).target_block_mass(model.spec)
        assert after == pytest.approx(before, abs=1e-12)


class TestFinal:
    def test_matches_full_run(self):
        for n, k, t in [(64, 4, 37), (128, 2, 1), (729, 3, 100), (100, 5, 99)]:
            s = plan_schedule(n, k)
            res = run_partial_search(SingleTargetDatabase(n, t), k, schedule=s)
            model = SubspaceGRK(s.spec)
            assert model.success_probability(s.l1, s.l2) == pytest.approx(
                res.success_probability, abs=1e-12
            )

    def test_success_plus_failure_is_one(self):
        model = SubspaceGRK(BlockSpec(1024, 8))
        s = plan_schedule(1024, 8)
        total = model.success_probability(s.l1, s.l2) + model.failure_probability(
            s.l1, s.l2
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_huge_n(self):
        n, k = 2**40, 4
        s = plan_schedule(n, k)
        model = SubspaceGRK(BlockSpec(n, k))
        assert model.success_probability(s.l1, s.l2) > 1 - 1e-9

    def test_required_block_rest_zeroes(self):
        # If Step 2 hit v* exactly, the outside amplitude would vanish.
        spec = BlockSpec(256, 4)
        model = SubspaceGRK(spec)
        c1 = model.after_step1(7)
        v_star = model.required_block_rest(c1)
        # Synthesise the post-step2 coordinates with v = v* and check Step 3.
        from repro.core.subspace import SubspaceCoordinates

        b, n = spec.block_size, spec.n_items
        mean = ((b - 1) * v_star + (n - b) * c1.outside) / n
        assert 2 * mean - c1.outside == pytest.approx(0.0, abs=1e-15)

    def test_k2_required_is_target_itself(self):
        # K = 2: b = N/2, v* = 0 — rotate exactly to the target.
        spec = BlockSpec(64, 2)
        model = SubspaceGRK(spec)
        assert model.required_block_rest(model.after_step1(3)) == pytest.approx(0.0)
