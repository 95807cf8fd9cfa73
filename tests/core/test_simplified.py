"""Korepin–Grover simplified partial search (quant-ph/0504157)."""

import math

import numpy as np
import pytest

from repro.core.optimizer import optimal_epsilon
from repro.core.parameters import plan_schedule
from repro.core.simplified import (
    SimplifiedSchedule,
    execute_simplified_batch_rows,
    plan_simplified_schedule,
    run_simplified_partial_search,
    simplified_final_coordinates,
    simplified_query_coefficient,
    simplified_step1_angle,
)
from repro.core.subspace import SubspaceGRK
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.oracle.database import SingleTargetDatabase


class TestAsymptotics:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 16, 32, 64])
    def test_coefficient_matches_optimised_grk(self, k):
        """The simplified algorithm's optimised asymptotic query coefficient
        equals the source paper's Section 3.1 optimum for every K — it
        drops the ancilla, not the speed."""
        assert simplified_query_coefficient(k) == pytest.approx(
            optimal_epsilon(k).coefficient, abs=1e-6
        )

    def test_coefficient_below_full_search(self):
        for k in (2, 4, 8, 32):
            assert simplified_query_coefficient(k) < math.pi / 4

    def test_step1_angle_in_range(self):
        for k in (2, 3, 8, 64):
            assert 0.0 <= simplified_step1_angle(k) <= math.pi / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            simplified_query_coefficient(1)


class TestPlanner:
    @pytest.mark.parametrize("n,k", [(256, 2), (1024, 4), (4096, 8), (900, 6)])
    def test_high_success(self, n, k):
        sched = plan_simplified_schedule(n, k)
        # The paper's budget is failure O(1/sqrt(N)); the refined integer
        # schedule does much better in practice.
        assert sched.predicted_success >= 1.0 - 2.0 / math.sqrt(n)

    @pytest.mark.parametrize("n,k", [(1024, 4), (4096, 4), (4096, 8)])
    def test_queries_track_grk(self, n, k):
        """Finite-N query counts stay within a hair of the optimised GRK
        schedule (and well under full search)."""
        simplified = plan_simplified_schedule(n, k)
        grk = plan_schedule(n, k)
        assert abs(simplified.queries - grk.queries) <= 2
        assert simplified.queries < (math.pi / 4) * math.sqrt(n)

    def test_queries_property(self):
        sched = plan_simplified_schedule(256, 4)
        assert sched.queries == sched.j1 + sched.j2 + 1
        assert sched.query_coefficient == sched.queries / 16.0

    def test_refine_improves_or_matches(self):
        rough = plan_simplified_schedule(1024, 4, refine=False)
        refined = plan_simplified_schedule(1024, 4)
        assert refined.predicted_success >= rough.predicted_success - 1e-12

    def test_block_size_one_rejected(self):
        with pytest.raises(ValueError):
            plan_simplified_schedule(16, 16)


class TestRunnerMatchesSubspaceModel:
    @pytest.mark.parametrize("n,k,target", [(256, 4, 3), (256, 4, 255),
                                            (900, 6, 449), (128, 2, 70)])
    def test_kernels_run_matches_prediction(self, n, k, target):
        sched = plan_simplified_schedule(n, k)
        db = SingleTargetDatabase(n, target)
        result = run_simplified_partial_search(db, k, schedule=sched)
        assert result.success_probability == pytest.approx(
            sched.predicted_success, abs=1e-10
        )
        assert result.block_guess == target // (n // k)
        assert result.queries == sched.queries
        assert db.queries_used == sched.queries

    def test_final_state_matches_coordinates(self):
        n, k, target = 256, 4, 100
        sched = plan_simplified_schedule(n, k)
        db = SingleTargetDatabase(n, target)
        result = run_simplified_partial_search(db, k, schedule=sched)
        coords = simplified_final_coordinates(
            SubspaceGRK(sched.spec), sched.j1, sched.j2
        )
        expected = coords.to_statevector(sched.spec, target)
        assert np.allclose(result.branches[0], expected, atol=1e-10)

    def test_distribution_normalised(self):
        result = run_simplified_partial_search(
            SingleTargetDatabase(256, 8), 4
        )
        assert result.block_distribution.sum() == pytest.approx(1.0, abs=1e-10)

    def test_schedule_mismatch_rejected(self):
        sched = plan_simplified_schedule(256, 4)
        with pytest.raises(ValueError, match="schedule is for"):
            run_simplified_partial_search(
                SingleTargetDatabase(512, 1), 4, schedule=sched
            )


class TestEngineIntegration:
    def test_registered_and_dispatchable(self):
        from repro.engine.registry import available_methods

        assert "grk-simplified" in available_methods()
        report = SearchEngine().search(
            SearchRequest(n_items=256, n_blocks=4, method="grk-simplified",
                          target=77)
        )
        assert report.method == "grk-simplified"
        assert report.backend == "kernels"
        assert report.block_guess == 77 // 64
        assert report.schedule["queries"] == report.queries

    def test_batch_matches_singles(self):
        engine = SearchEngine()
        batch = engine.search_batch(
            SearchRequest(n_items=128, n_blocks=4, method="grk-simplified")
        )
        singles = [
            engine.search(
                SearchRequest(n_items=128, n_blocks=4,
                              method="grk-simplified", target=t)
            ).success_probability
            for t in range(128)
        ]
        assert np.allclose(batch.success_probabilities, singles, atol=1e-12)
        assert batch.all_correct

    def test_shard_boundaries_bit_invisible(self):
        engine = SearchEngine()
        request = SearchRequest(n_items=128, n_blocks=4, method="grk-simplified")
        unsharded = engine.search_batch(request)
        sharded = engine.search_batch(
            request.replace(shards=ShardPolicy(max_rows=13))
        )
        assert sharded.execution["n_shards"] > 1
        assert np.array_equal(unsharded.success_probabilities,
                              sharded.success_probabilities)
        assert np.array_equal(unsharded.block_guesses, sharded.block_guesses)

    def test_explicit_schedule_option(self):
        sched = plan_simplified_schedule(128, 4)
        report = SearchEngine().search(
            SearchRequest(n_items=128, n_blocks=4, method="grk-simplified",
                          target=0, options={"schedule": sched})
        )
        assert report.queries == sched.queries

    def test_wrong_schedule_type_rejected(self):
        grk_sched = plan_schedule(128, 4)
        with pytest.raises(ValueError, match="SimplifiedSchedule"):
            SearchEngine().search_batch(
                SearchRequest(n_items=128, n_blocks=4, method="grk-simplified",
                              options={"schedule": grk_sched})
            )


class TestBatchRows:
    def test_chunked_equals_whole(self):
        sched = plan_simplified_schedule(256, 4)
        targets = np.arange(256)
        s_whole, g_whole = execute_simplified_batch_rows(sched, targets)
        s_parts = np.concatenate([
            execute_simplified_batch_rows(sched, chunk)[0]
            for chunk in np.array_split(targets, 7)
        ])
        assert np.array_equal(s_whole, s_parts)
        assert (g_whole == targets // 64).all()
