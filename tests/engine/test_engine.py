"""SearchEngine facade: request validation, dispatch, report normalization."""

import numpy as np
import pytest

from repro.core import plan_schedule, run_partial_search
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.oracle import QueryCounter, SingleTargetDatabase


class TestRequestValidation:
    def test_geometry_checked_eagerly(self):
        with pytest.raises(ValueError, match="n_items"):
            SearchRequest(n_items=1, n_blocks=1)
        with pytest.raises(ValueError, match="must divide"):
            SearchRequest(n_items=64, n_blocks=3)
        with pytest.raises(ValueError, match="n_blocks"):
            SearchRequest(n_items=64, n_blocks=0)

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            SearchRequest(n_items=64, n_blocks=4, epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            SearchRequest(n_items=64, n_blocks=4, epsilon=1.5)

    def test_target_range(self):
        with pytest.raises(ValueError, match="target"):
            SearchRequest(n_items=64, n_blocks=4, target=64)
        with pytest.raises(ValueError, match="target"):
            SearchRequest(n_items=64, n_blocks=4, target=-1)

    def test_method_name_required(self):
        with pytest.raises(ValueError, match="method"):
            SearchRequest(n_items=64, n_blocks=4, method="")

    def test_shard_policy_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ShardPolicy(max_bytes=0)
        with pytest.raises(ValueError, match="max_rows"):
            ShardPolicy(max_rows=0)
        with pytest.raises(ValueError, match="workers"):
            ShardPolicy(workers=0)

    def test_options_are_read_only(self):
        request = SearchRequest(n_items=64, n_blocks=4, options={"exact": True})
        with pytest.raises(TypeError):
            request.options["exact"] = False

    def test_unknown_method_rejected_at_dispatch(self):
        request = SearchRequest(n_items=64, n_blocks=4, method="not-a-method")
        with pytest.raises(ValueError, match="unknown method"):
            SearchEngine().search(request)

    def test_incompatible_backend_rejected_at_dispatch(self):
        request = SearchRequest(
            n_items=64, n_blocks=4, method="classical", backend="compiled"
        )
        with pytest.raises(ValueError, match="does not support backend"):
            SearchEngine().search(request)

    def test_blockless_request_needs_blockless_method(self):
        with pytest.raises(ValueError, match="block structure"):
            SearchEngine().search(
                SearchRequest(n_items=64, n_blocks=1, target=3, method="grk")
            )

    def test_missing_target_and_database(self):
        with pytest.raises(ValueError, match="target"):
            SearchEngine().search(SearchRequest(n_items=64, n_blocks=4))

    def test_database_size_mismatch(self):
        with pytest.raises(ValueError, match="database has"):
            SearchEngine().search(
                SearchRequest(n_items=64, n_blocks=4),
                database=SingleTargetDatabase(128, 5),
            )

    def test_trace_rejected_for_unsupported_method(self):
        with pytest.raises(ValueError, match="tracing"):
            SearchEngine().search(
                SearchRequest(
                    n_items=64, n_blocks=4, target=5, method="classical", trace=True
                )
            )


class TestSearchMatchesRunners:
    def test_grk_report_matches_run_partial_search(self):
        n, k, target = 256, 4, 100
        report = SearchEngine().search(
            SearchRequest(n_items=n, n_blocks=k, target=target)
        )
        direct = run_partial_search(SingleTargetDatabase(n, target), k)
        assert report.block_guess == direct.block_guess
        assert report.queries == direct.queries
        assert report.success_probability == pytest.approx(
            direct.success_probability, abs=1e-12
        )
        assert report.schedule["l1"] == direct.schedule.l1
        assert report.schedule["l2"] == direct.schedule.l2
        assert report.raw.spec == direct.spec

    def test_explicit_database_accumulates_queries(self):
        db = SingleTargetDatabase(256, 7, counter=QueryCounter())
        engine = SearchEngine()
        request = SearchRequest(n_items=256, n_blocks=4)
        r1 = engine.search(request, database=db)
        r2 = engine.search(request, database=db)
        assert db.queries_used == r1.queries + r2.queries

    def test_trace_through_engine(self):
        report = SearchEngine().search(
            SearchRequest(n_items=64, n_blocks=4, target=5, trace=True)
        )
        assert report.raw.traces is not None
        assert report.raw.traces[0].label == "initial"

    def test_schedule_option_overrides_epsilon(self):
        sched = plan_schedule(256, 4, 0.3)
        report = SearchEngine().search(
            SearchRequest(
                n_items=256, n_blocks=4, target=9, options={"schedule": sched}
            )
        )
        assert report.schedule["l1"] == sched.l1

    def test_sure_success_is_sure(self):
        report = SearchEngine().search(
            SearchRequest(n_items=256, n_blocks=4, target=77, method="grk-sure-success")
        )
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)
        assert report.schedule["phases"]

    def test_grover_full_exact_option(self):
        report = SearchEngine().search(
            SearchRequest(
                n_items=64, n_blocks=1, target=33, method="grover-full",
                options={"exact": True},
            )
        )
        assert report.answer == 33
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)
        assert report.schedule["exact"] is True

    def test_classical_strategies(self):
        det = SearchEngine().search(
            SearchRequest(n_items=64, n_blocks=4, target=10, method="classical")
        )
        rand = SearchEngine().search(
            SearchRequest(
                n_items=64, n_blocks=4, target=10, method="classical", rng=0,
                options={"strategy": "randomized"},
            )
        )
        assert det.block_guess == rand.block_guess == 0
        assert det.success_probability == rand.success_probability == 1.0
        with pytest.raises(ValueError, match="strategy"):
            SearchEngine().search(
                SearchRequest(
                    n_items=64, n_blocks=4, target=10, method="classical",
                    options={"strategy": "psychic"},
                )
            )


class TestSweep:
    def test_simulated_cells_under_tiny_budget(self):
        rows = SearchEngine().sweep(
            [64], [4], simulate=True, shards=ShardPolicy(max_rows=5)
        )
        (row,) = rows
        assert row["sim_all_correct"] is True
        assert row["sim_worst_success"] > 1 - 10.0 / 64


class TestBatchReportShape:
    def test_all_targets_default(self):
        report = SearchEngine().search_batch(SearchRequest(n_items=64, n_blocks=4))
        np.testing.assert_array_equal(report.targets, np.arange(64))
        assert report.all_correct
        assert report.queries.shape == (64,)
        assert report.queries_per_run == report.schedule["queries"]

    def test_batch_rejects_trace(self):
        with pytest.raises(ValueError, match="tracing"):
            SearchEngine().search_batch(
                SearchRequest(n_items=64, n_blocks=4, trace=True)
            )

    def test_batch_target_validation(self):
        engine = SearchEngine()
        with pytest.raises(ValueError, match="non-empty"):
            engine.search_batch(SearchRequest(n_items=64, n_blocks=4), targets=[])
        with pytest.raises(ValueError, match="address range"):
            engine.search_batch(SearchRequest(n_items=64, n_blocks=4), targets=[64])

    def test_generic_fallback_matches_single_runs(self):
        # grover-full has no native batch: the engine loops its single-run
        # adapter per target inside the shard structure.
        engine = SearchEngine()
        targets = [0, 13, 40, 63]
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="grover-full"),
            targets=targets,
        )
        assert report.schedule == {}
        for i, t in enumerate(targets):
            single = engine.search(
                SearchRequest(n_items=64, n_blocks=4, target=t, method="grover-full")
            )
            assert report.block_guesses[i] == single.block_guess
            assert report.queries[i] == single.queries
            assert report.success_probabilities[i] == pytest.approx(
                single.success_probability, abs=1e-12
            )

    @pytest.mark.parametrize("method", ["grk-sure-success", "grk-cwb"])
    @pytest.mark.parametrize(
        "geometry", [(64, 4), (96, 4), (1024, 4)], ids=lambda g: "%dx%d" % g
    )
    def test_phased_native_batch_matches_counted_runner(self, method, geometry):
        from repro.core.cwb import plan_cwb, run_cwb_partial_search
        from repro.core.sure_success import (
            plan_sure_success,
            run_sure_success_partial_search,
        )

        solve, runner = {
            "grk-sure-success": (
                plan_sure_success, run_sure_success_partial_search
            ),
            "grk-cwb": (plan_cwb, run_cwb_partial_search),
        }[method]
        n, k = geometry
        plan = solve(n, k)
        engine = SearchEngine()
        report = engine.search_batch(
            SearchRequest(
                n_items=n, n_blocks=k, method=method, options={"plan": plan}
            )
        )
        single = engine.search(
            SearchRequest(
                n_items=n, n_blocks=k, target=0, method=method,
                options={"plan": plan},
            )
        )
        # The batch carries the same schedule provenance as a single run.
        assert report.schedule == single.schedule
        assert report.schedule["queries"] == plan.queries
        for t in range(n):
            result = runner(SingleTargetDatabase(n, t), k, plan=plan)
            assert abs(
                report.success_probabilities[t] - result.success_probability
            ) <= 1e-12
            assert report.block_guesses[t] == result.block_guess
            assert report.queries[t] == result.queries
