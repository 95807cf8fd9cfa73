"""SearchEngine facade: request validation, dispatch, report normalization."""

import numpy as np
import pytest

from repro.core import plan_schedule, run_partial_search
from repro.core.naive import run_naive_partial_search
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.oracle import QueryCounter, SingleTargetDatabase
from repro.util.rng import spawn_rngs


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

    @pytest.mark.parametrize("wants", ["report", "probability"],
                             ids=["simulate", "analytic"])
    def test_batch_target_validation(self, wants):
        # Both tiers read their targets through one normaliser.
        engine = SearchEngine()
        request = SearchRequest(n_items=64, n_blocks=4, wants=wants)
        with pytest.raises(ValueError, match="non-empty"):
            engine.search_batch(request, targets=[])
        with pytest.raises(ValueError, match="address range"):
            engine.search_batch(request, targets=[64])
        # Fractions and bools are refused, not truncated to addresses, and
        # a value past int64 is a ValueError, not an OverflowError.
        for bad in ([1.5, 2.9], np.array([1.5, 63.9]), [True, False], [2**64]):
            with pytest.raises(ValueError, match="integers"):
                engine.search_batch(request, targets=bad)

        listed = engine.search_batch(request, targets=[3, 17, 63])
        assert (listed.backend == "analytic") == (wants == "probability")
        narrow = engine.search_batch(
            request, targets=np.array([3, 17, 63], dtype=np.int32)
        )
        assert narrow.targets.dtype == listed.targets.dtype == np.intp
        for field in ("targets", "success_probabilities", "block_guesses",
                      "queries"):
            np.testing.assert_array_equal(getattr(narrow, field),
                                          getattr(listed, field))
        assert narrow.schedule == listed.schedule
        assert narrow.execution == listed.execution

        # The report keeps its own copy of the caller's buffer.
        caller = np.array([3, 17, 63], dtype=np.int64)
        report = engine.search_batch(request, targets=caller)
        caller[:] = 0
        np.testing.assert_array_equal(report.targets, [3, 17, 63])

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


#: ``(method, options, seed)`` of every baseline batch form.
BASELINE_BATCHES = [
    ("grover-full", {}, None),
    ("grover-full", {"exact": True}, None),
    ("grover-full", {"iterations": 3}, None),
    ("naive-blocks", {"left_out_block": 2}, None),
    ("naive-blocks", {}, 42),
    ("classical", {}, None),
    ("classical", {"strategy": "randomized"}, 42),
]


def _baseline_id(case):
    method, options, seed = case
    label = ",".join(f"{key}={value}" for key, value in options.items())
    return "-".join(str(part) for part in (method, label, seed) if part)


class TestBaselineBatchRows:
    """Every baseline batch row equals a single run on its target, driven
    by the row's own stream (``spawn_rngs(request.rng, B)[i]``)."""

    @pytest.mark.parametrize("method,options,seed", BASELINE_BATCHES,
                             ids=[_baseline_id(c) for c in BASELINE_BATCHES])
    @pytest.mark.parametrize("geometry", [(64, 4), (96, 6)],
                             ids=lambda g: "%dx%d" % g)
    def test_rows_equal_single_runs(self, method, options, seed, geometry):
        n, k = geometry
        b = n // k
        picked = np.random.default_rng(5).integers(n, size=12)
        targets = np.concatenate([[0, b - 1, b, n - 1], picked])
        engine = SearchEngine()
        request = SearchRequest(n_items=n, n_blocks=k, method=method,
                                options=options, rng=seed)
        report = engine.search_batch(request, targets=targets)
        streams = spawn_rngs(seed, targets.size)
        for i, t in enumerate(targets):
            single = engine.search(
                request.replace(target=int(t), rng=streams[i])
            )
            success = report.success_probabilities[i]
            if method == "grover-full" and not options:
                assert success == single.success_probability
            else:
                assert abs(success - single.success_probability) <= 1e-12
            assert report.queries[i] == single.queries
            if method == "naive-blocks":
                # Success is exactly 1 on the rows whose target sits in the
                # left-out block the single run drew from the same stream.
                left_out = single.schedule["left_out_block"]
                assert (success == 1.0) == (t // b == left_out)
            else:
                assert report.block_guesses[i] == single.block_guess
        # The batch carries the keys a single run reports.
        for key in ("iterations", "exact", "strategy"):
            if key in single.schedule:
                assert report.schedule[key] == single.schedule[key]
        if method == "naive-blocks":
            assert report.schedule["left_out_block"] == options.get(
                "left_out_block"
            )

    def test_naive_blocks_guess_is_the_most_likely_answer(self):
        # With no iteration a searched target keeps 1/48 of the mass, so
        # the most likely answer of every row is its left-out block.
        n, k, seed = 64, 4, 3
        report = SearchEngine().search_batch(
            SearchRequest(n_items=n, n_blocks=k, method="naive-blocks",
                          rng=seed, options={"iterations": 0})
        )
        streams = spawn_rngs(seed, n)
        searched = 0
        for t in range(n):
            left_out = run_naive_partial_search(
                SingleTargetDatabase(n, t), k, iterations=0, rng=streams[t]
            ).left_out_block
            assert report.block_guesses[t] == left_out
            if t // (n // k) == left_out:
                assert report.success_probabilities[t] == 1.0
            else:
                searched += 1
                assert report.success_probabilities[t] == pytest.approx(
                    1 / 48, abs=1e-15
                )
        assert searched > 0
        assert (report.queries == 1).all()  # the verification probe
