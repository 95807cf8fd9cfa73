"""The engine → executor seam: dispatch, provenance, and compatibility."""

import numpy as np
import pickle

import pytest

from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import LocalExecutor, ShardExecutor


class RecordingExecutor(ShardExecutor):
    """Runs shards locally while recording every dispatch."""

    def __init__(self):
        self.calls = []
        self._local = LocalExecutor(use_processes=False)

    def run_shards(self, func, tasks, *, workers=1):
        self.calls.append({"n_tasks": len(list(tasks)), "workers": workers})
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

    def test_generic_batch_goes_through_engine_executor(self):
        ex = RecordingExecutor()
        engine = SearchEngine(executor=ex)
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="naive-blocks",
                          rng=3, shards=ShardPolicy(max_rows=32))
        )
        assert len(ex.calls) == 1
        assert ex.calls[0]["n_tasks"] == 2
        assert report.execution["executor"] == "recording"

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
