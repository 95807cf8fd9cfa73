"""End-to-end tests of the three-step GRK runner."""

import numpy as np
import pytest

from repro.core import plan_schedule, run_partial_search, run_program
from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
from repro.grover.angles import queries_for_full_search
from repro.oracle import Database, SingleTargetDatabase


class TestCorrectness:
    @pytest.mark.parametrize(
        "n,k", [(64, 2), (64, 4), (256, 8), (729, 3), (1000, 5), (1024, 16)]
    )
    def test_finds_block_with_high_probability(self, n, k):
        block = n // k
        for target in (0, block - 1, n // 2, n - 1):
            db = SingleTargetDatabase(n, target)
            res = run_partial_search(db, k)
            assert res.block_guess == db.reveal_target_block(k)
            assert res.success_probability > 1 - 5.0 / n

    def test_every_target_in_small_instance(self):
        n, k = 64, 4
        for target in range(n):
            res = run_partial_search(SingleTargetDatabase(n, target), k)
            assert res.block_guess == target // (n // k)

    def test_distribution_sums_to_one(self):
        res = run_partial_search(SingleTargetDatabase(256, 17), 4)
        assert res.block_distribution.sum() == pytest.approx(1.0, abs=1e-10)

    def test_failure_property(self):
        res = run_partial_search(SingleTargetDatabase(256, 17), 4)
        assert res.failure_probability == pytest.approx(
            1 - res.success_probability
        )


class TestQueryAccounting:
    def test_queries_equal_schedule(self):
        db = SingleTargetDatabase(1024, 5)
        res = run_partial_search(db, 4)
        assert res.queries == res.schedule.queries == db.queries_used
        assert res.queries == res.schedule.l1 + res.schedule.l2 + 1

    def test_beats_full_search(self):
        # The headline: strictly fewer queries than (pi/4) sqrt(N).
        for n, k in [(2**12, 4), (2**14, 8), (2**16, 2)]:
            res = run_partial_search(SingleTargetDatabase(n, 3), k)
            assert res.queries < queries_for_full_search(n)

    def test_savings_grow_with_smaller_k(self):
        n = 2**14
        q2 = run_partial_search(SingleTargetDatabase(n, 3), 2).queries
        q16 = run_partial_search(SingleTargetDatabase(n, 3), 16).queries
        assert q2 < q16  # fewer blocks => easier problem => fewer queries


class TestStep3Structure:
    def test_nontarget_blocks_nearly_zero(self):
        n, k, t = 1024, 4, 700
        res = run_partial_search(SingleTargetDatabase(n, t), k)
        outside = np.ones(n, dtype=bool)
        outside[res.spec.slice_of(res.spec.block_of(t))] = False
        mass = float(np.sum(np.abs(res.branches[:, outside]) ** 2))
        assert mass < 5.0 / n

    def test_target_parked_in_ancilla(self):
        n, k, t = 256, 4, 100
        res = run_partial_search(SingleTargetDatabase(n, t), k)
        # ancilla-1 branch holds amplitude only at the target address
        b1 = np.abs(res.branches[1])
        assert b1[t] > 0.5
        b1[t] = 0.0
        assert np.all(b1 < 1e-12)


class TestTracing:
    def test_stages_recorded(self):
        res = run_partial_search(SingleTargetDatabase(64, 9), 4, trace=True)
        labels = [t.label for t in res.traces]
        assert labels == ["initial", "after_step1", "after_step2", "after_moveout", "final"]

    def test_trace_queries_monotone(self):
        res = run_partial_search(SingleTargetDatabase(64, 9), 4, trace=True)
        counts = [t.queries for t in res.traces]
        assert counts == sorted(counts)
        assert counts[-1] == res.queries

    def test_no_trace_by_default(self):
        res = run_partial_search(SingleTargetDatabase(64, 9), 4)
        assert res.traces is None

    def test_step2_negative_amplitudes_in_trace(self):
        res = run_partial_search(SingleTargetDatabase(4096, 9), 4, trace=True)
        after2 = next(t for t in res.traces if t.label == "after_step2")
        block = after2.amplitudes[:1024]  # target 9 lives in block 0
        rest = np.delete(block, 9)
        assert np.all(rest < 0)  # Figure 5's negative amplitudes


class TestValidation:
    def test_multi_marked_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_partial_search(Database(64, [1, 2]), 4)

    @pytest.mark.parametrize("backend", ["kernels", "compiled", "naive"])
    def test_unmarked_rejected_by_every_backend(self, backend):
        with pytest.raises(ValueError, match="exactly one"):
            run_partial_search(Database(64, []), 4, backend=backend)

    def test_program_with_no_marked_address_still_runs(self):
        # naive-blocks' searched addresses mark nothing when the target sits
        # in the left-out block: every iteration still counts its query.
        for program in (plan_schedule(64, 4).program,
                        PartialSearchProgram(48, 48, (ProgramStage(GLOBAL, 5),),
                                             None)):
            db = Database(program.n_items, [])
            res = run_program(db, program)
            assert res.success_probability == 0.0
            assert res.queries == db.queries_used == program.queries
            assert np.isclose((res.branches ** 2).sum(), 1.0)
        with pytest.raises(ValueError, match="at most one"):
            run_program(Database(64, [1, 2]), plan_schedule(64, 4).program)

    def test_schedule_instance_mismatch(self):
        sched = plan_schedule(64, 4)
        with pytest.raises(ValueError, match="schedule"):
            run_partial_search(SingleTargetDatabase(128, 3), 4, schedule=sched)

    def test_measure_block_sampling(self):
        res = run_partial_search(SingleTargetDatabase(256, 200), 4)
        samples = res.measure_block(rng=0, size=100)
        assert np.mean(samples == 3) > 0.95


class TestCircuitBackends:
    @pytest.mark.parametrize("backend", ["naive", "compiled"])
    def test_matches_kernel_run_exactly(self, backend):
        kern = run_partial_search(SingleTargetDatabase(64, 37), 4)
        db = SingleTargetDatabase(64, 37)
        res = run_partial_search(db, 4, backend=backend)
        np.testing.assert_allclose(res.branches, kern.branches, atol=1e-12)
        np.testing.assert_allclose(
            res.block_distribution, kern.block_distribution, atol=1e-12
        )
        assert res.block_guess == kern.block_guess
        assert res.queries == kern.queries == db.queries_used

    def test_compiled_backend_every_target(self):
        n, k = 32, 4
        for target in range(n):
            db = SingleTargetDatabase(n, target)
            res = run_partial_search(db, k, backend="compiled")
            assert res.block_guess == db.reveal_target_block(k)

    def test_circuit_backend_needs_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            run_partial_search(SingleTargetDatabase(12, 5), 3, backend="compiled")

    def test_tracing_requires_kernels(self):
        with pytest.raises(ValueError, match="tracing"):
            run_partial_search(
                SingleTargetDatabase(64, 1), 4, backend="compiled", trace=True
            )

    def test_backend_typo_names_known_backends(self):
        with pytest.raises(ValueError, match="unknown backend 'kernel'"):
            run_partial_search(SingleTargetDatabase(64, 1), 4, backend="kernel")
