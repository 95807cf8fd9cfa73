"""The engine → executor seam: dispatch, provenance, and compatibility."""

import numpy as np
import pickle

import pytest

from repro.core.program import PartialSearchProgram
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import LocalExecutor, ShardExecutor


class RecordingExecutor(ShardExecutor):
    """Runs shards locally while recording every dispatch."""

    def __init__(self):
        self.calls = []
        self._local = LocalExecutor(use_processes=False)

    def run_shards(self, func, tasks, *, workers=1):
        tasks = list(tasks)
        self.calls.append({"n_tasks": len(tasks), "workers": workers,
                           "func": func, "tasks": tasks})
        return self._local.run_shards(func, tasks, workers=workers)

    def describe(self):
        return {"executor": "recording"}


class TestEngineDispatch:
    def test_native_batch_goes_through_engine_executor(self):
        ex = RecordingExecutor()
        engine = SearchEngine(executor=ex)
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, shards=ShardPolicy(max_rows=16))
        )
        assert len(ex.calls) == 1
        assert ex.calls[0]["n_tasks"] == 4
        assert report.execution["executor"] == "recording"
        assert report.execution["n_shards"] == 4

    @pytest.mark.parametrize("method", ["naive-blocks", "grover-full"])
    def test_baselines_ship_the_grk_shard_function(self, method):
        ex = RecordingExecutor()
        engine = SearchEngine(executor=ex)
        engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, shards=ShardPolicy(max_rows=32))
        )
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method=method,
                          rng=3, shards=ShardPolicy(max_rows=32))
        )
        grk, baseline = ex.calls
        assert baseline["func"] is grk["func"]
        assert report.execution["executor"] == "recording"
        # Every task is plain data: no method adapter, no request, no RNG.
        for task in baseline["tasks"]:
            program, targets, backend, policy = task
            assert isinstance(program, PartialSearchProgram)
            assert program.n_blocks == program.n_items  # one address each
            assert program.final_phase is None
            assert targets.dtype == np.intp
            assert backend == "kernels"
            assert isinstance(policy, ExecutionPolicy)
            blob = pickle.dumps(task)
            assert b"repro.engine" not in blob
            assert b"numpy.random" not in blob

    def test_classical_batch_runs_in_process(self):
        ex = RecordingExecutor()
        report = SearchEngine(executor=ex).search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="classical", rng=3,
                          options={"strategy": "randomized"},
                          shards=ShardPolicy(workers=2))
        )
        assert ex.calls == []
        assert report.execution == {"n_shards": 0, "workers": 0,
                                    "executor": "in-process",
                                    "ignored_workers": 2}
        assert report.all_correct

    def test_classical_batch_honours_the_ambient_deadline(self):
        from repro.resilience import Deadline, DeadlineExceeded, deadline_scope

        expired = Deadline.after(0.0, clock=lambda: 0.0)
        with deadline_scope(expired), pytest.raises(DeadlineExceeded):
            SearchEngine().search_batch(
                SearchRequest(n_items=64, n_blocks=4, method="classical")
            )

    def test_naive_batch_of_left_out_rows_sends_no_shard(self):
        ex = RecordingExecutor()
        report = SearchEngine(executor=ex).search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="naive-blocks",
                          options={"left_out_block": 1}),
            targets=range(16, 32),
        )
        assert ex.calls == []
        assert report.execution["n_rows"] == report.execution["n_shards"] == 0
        assert report.execution["executor"] == "recording"
        assert (report.success_probabilities == 1.0).all()
        assert (report.block_guesses == 1).all()

    @pytest.mark.parametrize("method,options", [
        ("naive-blocks", {"left_out_block": 4}),
        ("naive-blocks", {"iterations": -1}),
        ("grover-full", {"exact": True, "iterations": 2}),
        ("grover-full", {"iterations": -1}),
    ])
    def test_bad_options_fail_before_dispatch(self, method, options):
        ex = RecordingExecutor()
        with pytest.raises(ValueError):
            SearchEngine(executor=ex).search_batch(
                SearchRequest(n_items=64, n_blocks=4, method=method, rng=0,
                              options=options)
            )
        assert ex.calls == []

    def test_default_executor_is_local(self):
        report = SearchEngine().search_batch(
            SearchRequest(n_items=64, n_blocks=4)
        )
        assert report.execution["executor"] == "local"

    def test_custom_executor_results_identical(self):
        request = SearchRequest(n_items=64, n_blocks=4,
                                shards=ShardPolicy(max_rows=10))
        default = SearchEngine().search_batch(request)
        custom = SearchEngine(executor=RecordingExecutor()).search_batch(request)
        assert np.array_equal(default.success_probabilities,
                              custom.success_probabilities)
        assert np.array_equal(default.block_guesses, custom.block_guesses)


class TestRequestPickling:
    def test_round_trip_preserves_fields(self):
        request = SearchRequest(
            n_items=128, n_blocks=4, method="grk", backend="kernels",
            epsilon=0.5, target=9, rng=11,
            shards=ShardPolicy(max_rows=7, workers=2),
            options={"left_out_block": 1},
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        assert dict(clone.options) == {"left_out_block": 1}
        assert clone.shards == request.shards

    def test_to_fields_from_fields(self):
        request = SearchRequest(n_items=64, n_blocks=2, options={"a": 1})
        rebuilt = SearchRequest.from_fields(request.to_fields())
        assert rebuilt == request

    def test_pickled_request_revalidates(self):
        fields = SearchRequest(n_items=64, n_blocks=4).to_fields()
        fields["n_blocks"] = 5  # does not divide 64
        with pytest.raises(ValueError):
            SearchRequest.from_fields(fields)
