"""The engine → executor seam: dispatch, provenance, and compatibility."""

import numpy as np
import pickle

import pytest

from repro.core.program import PartialSearchProgram
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import LocalExecutor, ShardExecutor


class RecordingExecutor(ShardExecutor):
    """Runs shards locally while recording every dispatch's tasks."""

    def __init__(self):
        self.calls = []
        self._local = LocalExecutor()

    def run_shards(self, tasks, *, deadline=None):
        tasks = list(tasks)
        self.calls.append(tasks)
        return self._local.run_shards(tasks, deadline=deadline)

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
        assert len(ex.calls[0]) == 4
        assert report.execution["executor"] == "recording"
        assert report.execution["n_shards"] == 4

    @pytest.mark.parametrize("method", ["naive-blocks", "grover-full"])
    def test_baselines_ship_plain_program_tasks(self, method):
        ex = RecordingExecutor()
        report = SearchEngine(executor=ex).search_batch(
            SearchRequest(n_items=64, n_blocks=4, method=method,
                          rng=3, shards=ShardPolicy(max_rows=32))
        )
        (tasks,) = ex.calls
        assert report.execution["executor"] == "recording"
        # Every task is plain data: no method adapter, no request, no RNG.
        for task in tasks:
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

    @pytest.mark.parametrize("method", ["grk", "grk-cwb"])
    def test_shard_frame_names_no_engine_code(self, method):
        # Every executor runs a task through repro.engine.plan.run_shard,
        # so the frame a worker receives is plain data and names no
        # function to import.
        from repro.service import wire
        from repro.service.executor import RemoteExecutor

        ex = RecordingExecutor()
        SearchEngine(executor=ex).search_batch(
            SearchRequest(n_items=64, n_blocks=4, method=method,
                          shards=ShardPolicy(max_rows=32))
        )
        (tasks,) = ex.calls
        for task in tasks:
            frame = wire._encode(RemoteExecutor._shard_message(task, None))
            assert b"repro.engine" not in frame

    def test_classical_batch_runs_in_process(self):
        ex = RecordingExecutor()
        report = SearchEngine(executor=ex).search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="classical", rng=3,
                          options={"strategy": "randomized"},
                          shards=ShardPolicy(max_rows=2))
        )
        assert ex.calls == []
        assert report.execution == {"n_shards": 0, "executor": "in-process"}
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

    def test_only_a_remote_batch_records_workers(self):
        # A local batch runs in this process: its record names no workers.
        # A remote batch's "workers" is its fleet, not a pool width.
        from repro.service.executor import RemoteExecutor
        from repro.service.worker import WorkerServer

        request = SearchRequest(n_items=64, n_blocks=4)
        local = SearchEngine().search_batch(request)
        assert "workers" not in local.execution
        assert set(local.execution) == {"n_rows", "n_shards", "shard_rows",
                                        "dtype", "row_threads", "executor"}
        with WorkerServer() as worker:
            executor = RemoteExecutor([worker.address])
            remote = SearchEngine(executor=executor).search_batch(request)
        assert remote.execution["workers"] == executor.workers.candidates()
        np.testing.assert_array_equal(remote.success_probabilities,
                                      local.success_probabilities)

    def test_custom_executor_results_identical(self):
        request = SearchRequest(n_items=64, n_blocks=4,
                                shards=ShardPolicy(max_rows=10))
        default = SearchEngine().search_batch(request)
        custom = SearchEngine(executor=RecordingExecutor()).search_batch(request)
        assert np.array_equal(default.success_probabilities,
                              custom.success_probabilities)
        assert np.array_equal(default.block_guesses, custom.block_guesses)


#: Option values no tier may truncate, coerce or ignore (N=64, K=4).
BAD_BASELINE_OPTIONS = [
    ("grover-full", {"iterations": 2.5}),
    ("grover-full", {"iterations": -1}),
    ("grover-full", {"iterations": True}),
    ("grover-full", {"exact": "false"}),
    ("grover-full", {"exact": 1}),
    ("naive-blocks", {"left_out_block": "1"}),
    ("naive-blocks", {"left_out_block": 1.5}),
    ("naive-blocks", {"left_out_block": 4}),
    ("naive-blocks", {"left_out_block": np.int64(-1)}),
    ("naive-blocks", {"iterations": 2.5}),
    ("classical", {"left_out_block": True}),
    ("classical", {"left_out_block": 1.0}),
]


class TestBadBaselineOptions:
    """``iterations``, ``left_out_block`` and ``exact`` are checked once,
    by ``SearchRequest.checked_option``, in every tier."""

    @pytest.mark.parametrize(
        "method,options", BAD_BASELINE_OPTIONS,
        ids=[f"{m}-{k}={v!r}" for m, o in BAD_BASELINE_OPTIONS
             for k, v in o.items()],
    )
    def test_every_tier_refuses(self, method, options):
        from repro.analytic import AnalyticUnsupported

        ex = RecordingExecutor()
        engine = SearchEngine(executor=ex)
        request = SearchRequest(n_items=64, n_blocks=4, method=method,
                                target=20, rng=0, options=options)
        match = r"option (iterations|left_out_block|exact)="
        for wants in ("report", "probability"):  # auto falls through
            with pytest.raises(ValueError, match=match) as single:
                engine.search(request.replace(wants=wants))
            assert type(single.value) is ValueError
            with pytest.raises(ValueError, match=match) as batch:
                engine.search_batch(request.replace(wants=wants),
                                    targets=range(16))
            assert type(batch.value) is ValueError
        assert ex.calls == []  # no shard was sent
        analytic = request.replace(wants="probability", engine="analytic")
        with pytest.raises(AnalyticUnsupported, match=match):
            engine.search(analytic)
        with pytest.raises(AnalyticUnsupported, match=match):
            engine.search_batch(analytic, targets=range(16))

    def test_numpy_integers_and_bools_are_accepted(self):
        engine = SearchEngine()
        plain = engine.search(SearchRequest(
            n_items=64, n_blocks=4, method="naive-blocks", target=20, rng=5,
            options={"left_out_block": 2, "iterations": 3},
        ))
        numpy = engine.search(SearchRequest(
            n_items=64, n_blocks=4, method="naive-blocks", target=20, rng=5,
            options={"left_out_block": np.int64(2),
                     "iterations": np.uint8(3)},
        ))
        assert numpy == plain
        exact = engine.search(SearchRequest(
            n_items=64, n_blocks=4, method="grover-full", target=20,
            options={"exact": np.bool_(True)},
        ))
        assert exact.schedule["exact"] is True


class TestRequestPickling:
    def test_round_trip_preserves_fields(self):
        request = SearchRequest(
            n_items=128, n_blocks=4, method="grk", backend="kernels",
            epsilon=0.5, target=9, rng=11,
            shards=ShardPolicy(max_bytes=1 << 20, max_rows=7),
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
