"""Sharding: plan math and shard-boundary bit-identity."""

import numpy as np
import pytest

from repro.core import plan_schedule
from repro.core.batch import execute_batch_rows, running_shard
from repro.engine import (
    DEFAULT_SHARD_BYTES,
    ExecutionPolicy,
    SearchEngine,
    SearchRequest,
    ShardPolicy,
    plan_shards,
    state_row_bytes,
)
from repro.engine.plan import KERNEL_SHARD_MAX_WORK, ROW_OVERHEAD
from repro.kernels import AUTO_ROW_THREAD_MIN_WORK


class TestPlanMath:
    def test_default_budget_is_128mib(self):
        assert DEFAULT_SHARD_BYTES == 128 * 1024 * 1024
        assert ShardPolicy().max_bytes == DEFAULT_SHARD_BYTES

    def test_row_bytes_model(self):
        # Circuit rows carry the ancilla (2N complex128), times the
        # working-set overhead factor.
        assert state_row_bytes("compiled", 4096) == 2 * 4096 * 16 * ROW_OVERHEAD
        # Only circuit rows are budgeted: a kernels shard holds row blocks
        # whatever its rows, and classical holds no state.
        for backend in ("kernels", "classical"):
            with pytest.raises(ValueError, match="no per-row state"):
                state_row_bytes(backend, 4096)

    def test_shard_rows_fit_budget(self):
        plan = plan_shards(4096, 4096, "compiled", ShardPolicy(max_bytes=2**27),
                           queries=1, lanes=1)
        assert plan.shard_rows * state_row_bytes("compiled", 4096) <= 2**27
        assert plan.n_shards == -(-4096 // plan.shard_rows)
        assert sum(sl.stop - sl.start for sl in plan.slices()) == 4096

    def test_single_row_always_runs(self):
        # A row bigger than the budget still executes (one row per shard).
        plan = plan_shards(8, 1 << 20, "compiled", ShardPolicy(max_bytes=1024),
                           queries=1, lanes=1)
        assert plan.shard_rows == 1
        assert plan.n_shards == 8
        # Zero rows plan zero shards.
        for backend in ("kernels", "compiled"):
            empty = plan_shards(0, 64, backend, ShardPolicy(max_rows=2),
                                queries=1, lanes=2)
            assert empty.n_shards == 0 and list(empty.slices()) == []

    def test_kernels_batch_ignores_the_byte_budget(self):
        # A kernels shard holds row blocks however many rows it has, so no
        # byte budget or dtype splits its batch.
        queries = plan_schedule(4096, 8).program.queries
        for shards, execution in (
            (None, None),
            (None, ExecutionPolicy(dtype="complex64")),
            (ShardPolicy(max_bytes=1024), None),
        ):
            plan = plan_shards(4096, 4096, "kernels", shards, execution,
                               queries=queries, lanes=1)
            assert plan.n_shards == 1 and plan.shard_rows == 4096

    def test_kernels_shards_serve_fan_out(self):
        # One even shard per executor lane; max_rows still caps a shard.
        queries = plan_schedule(4096, 8).program.queries

        def plan(shards, lanes=1):
            return plan_shards(4096, 4096, "kernels", shards, queries=queries,
                               lanes=lanes)

        assert plan(ShardPolicy()).n_shards == 1
        assert plan(ShardPolicy(), lanes=3).n_shards == 3
        assert plan(ShardPolicy(), lanes=3).shard_rows == 1366
        assert plan(ShardPolicy(), lanes=2).n_shards == 2
        assert plan(ShardPolicy(), lanes=5).n_shards == 5
        capped = plan(ShardPolicy(max_rows=100), lanes=2)
        assert capped.shard_rows == 100 and capped.n_shards == 41
        # Lanes do not split a circuit batch: its byte budget does.
        compiled = plan_shards(4096, 4096, "compiled", queries=queries,
                               lanes=8)
        assert compiled.n_shards == plan_shards(
            4096, 4096, "compiled", queries=queries, lanes=1).n_shards == 16

    def test_kernels_shard_work_is_capped(self):
        # A shard is what a remote worker computes before it replies and
        # what a failure requeues: an N=2^16 all-targets batch splits into
        # shards under the work cap however few lanes run it, as the byte
        # budget once split it (into 1024 shards of 64 rows).
        n = 1 << 16
        queries = plan_schedule(n, 4).program.queries
        for lanes in (1, 2):
            plan = plan_shards(n, n, "kernels", queries=queries, lanes=lanes)
            assert plan.shard_rows * n * queries <= KERNEL_SHARD_MAX_WORK
            assert plan.shard_rows == KERNEL_SHARD_MAX_WORK // (n * queries)
            assert plan.n_shards == -(-n // plan.shard_rows) > 600
        # max_rows caps below the work cap.
        capped = plan_shards(n, n, "kernels", ShardPolicy(max_rows=64),
                             queries=queries, lanes=1)
        assert capped.shard_rows == 64 and capped.n_shards == 1024
        # A row over the cap still runs, one a shard.
        huge = plan_shards(4, 1 << 30, "kernels", queries=2, lanes=1)
        assert huge.shard_rows == 1 and huge.n_shards == 4

    def test_lanes_take_only_shards_their_work_fills(self):
        # A batch spreads over lanes only as far as each shard keeps a row
        # thread's work, so gateway-mix's 256-row batch at N=1024 (5.2M)
        # stays one shard on any fleet; max_rows splits it as asked.
        queries = plan_schedule(1024, 4).program.queries
        small = 256 * 1024 * queries
        assert small < 2 * AUTO_ROW_THREAD_MIN_WORK
        for lanes in (2, 4, 16):
            assert plan_shards(256, 1024, "kernels", queries=queries,
                               lanes=lanes).n_shards == 1
        assert plan_shards(256, 1024, "kernels", ShardPolicy(max_rows=100),
                           queries=queries, lanes=4).n_shards == 3
        # The all-targets batch (21M) fills five lanes of a bigger fleet,
        # each shard with at least the floor.
        full = 1024 * 1024 * queries
        assert full // AUTO_ROW_THREAD_MIN_WORK == 5
        for lanes, shards in ((2, 2), (5, 5), (16, 5)):
            plan = plan_shards(1024, 1024, "kernels", queries=queries,
                               lanes=lanes)
            assert plan.n_shards == shards, lanes
            last = 1024 - (shards - 1) * plan.shard_rows
            assert last * 1024 * queries >= AUTO_ROW_THREAD_MIN_WORK

    def test_max_rows_caps_budget_rows(self):
        plan = plan_shards(100, 64, "kernels", ShardPolicy(max_rows=7),
                           queries=1, lanes=1)
        assert plan.shard_rows == 7
        boundaries = [(sl.start, sl.stop) for sl in plan.slices()]
        assert boundaries[0] == (0, 7)
        assert boundaries[-1] == (98, 100)

    def test_describe_provenance(self):
        plan = plan_shards(64, 64, "kernels", ShardPolicy(max_rows=9),
                           queries=1, lanes=3)
        assert plan.describe() == {"n_rows": 64, "n_shards": 8,
                                   "shard_rows": 9, "dtype": "complex128",
                                   "row_threads": "auto"}
        # The process that runs a shard resolves "auto".
        with running_shard(plan.policy, "kernels", plan.shard_rows, 64,
                           1) as ran:
            assert ran.row_threads == 1


class TestShardBoundaryBitIdentity:
    """Results must be bit-identical across shard sizes 1, a prime, and B."""

    @pytest.mark.parametrize("backend", ["kernels", "compiled", "naive"])
    def test_shard_sizes_invisible(self, backend):
        n, k = 64, 4
        engine = SearchEngine()
        base = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, backend=backend,
                          shards=ShardPolicy(max_rows=n))
        )
        assert base.execution["n_shards"] == 1
        for rows in (1, 13, n):
            got = engine.search_batch(
                SearchRequest(n_items=n, n_blocks=k, backend=backend,
                              shards=ShardPolicy(max_rows=rows))
            )
            assert got.execution["n_shards"] == -(-n // rows)
            np.testing.assert_array_equal(
                got.success_probabilities, base.success_probabilities
            )
            np.testing.assert_array_equal(got.block_guesses, base.block_guesses)

    def test_sharded_equals_unsharded_primitive(self):
        # The engine path (sharded) against the raw chunk primitive run once.
        n, k = 128, 4
        schedule = plan_schedule(n, k)
        targets = np.arange(n, dtype=np.intp)
        success, guesses = execute_batch_rows(schedule.program, targets, "kernels")
        report = SearchEngine().search_batch(
            SearchRequest(n_items=n, n_blocks=k, shards=ShardPolicy(max_rows=11),
                          options={"schedule": schedule})
        )
        np.testing.assert_array_equal(report.success_probabilities, success)
        np.testing.assert_array_equal(report.block_guesses, guesses)

    def test_byte_budget_drives_sharding(self):
        # A budget that fits 8 circuit rows of N=256 must produce ceil(32/8)
        # shards — and identical numbers.
        n, k = 256, 4
        budget = 8 * state_row_bytes("compiled", n)
        engine = SearchEngine()
        tight = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, backend="compiled",
                          shards=ShardPolicy(max_bytes=budget)),
            targets=range(32),
        )
        assert tight.execution["n_shards"] == 4
        wide = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, backend="compiled"),
            targets=range(32),
        )
        assert wide.execution["n_shards"] == 1
        np.testing.assert_array_equal(
            tight.success_probabilities, wide.success_probabilities
        )

    def test_stochastic_methods_shard_invariant(self):
        # The classical scans run in-process and draw every row's stream
        # from the request seed, so the shard policy cannot move a row.
        engine = SearchEngine()
        def run(rows):
            return engine.search_batch(
                SearchRequest(
                    n_items=64, n_blocks=4, method="classical", rng=0,
                    options={"strategy": "randomized"},
                    shards=ShardPolicy(max_rows=rows),
                ),
                targets=range(16),
            )
        base = run(16)
        for rows in (1, 4, 7):
            got = run(rows)
            np.testing.assert_array_equal(got.queries, base.queries)
            np.testing.assert_array_equal(got.block_guesses, base.block_guesses)

    @pytest.mark.parametrize("method,options,seed", [
        ("grover-full", {}, None),
        ("grover-full", {"exact": True}, None),
        ("naive-blocks", {}, 42),
    ], ids=["grover-full", "grover-full-exact", "naive-blocks-seeded"])
    def test_baseline_shards_invisible(self, method, options, seed):
        # The baselines run their programs through the same sharded sweep;
        # naive-blocks draws its left-out blocks before sharding.
        n, k = 64, 4
        engine = SearchEngine()

        def run(shards):
            return engine.search_batch(
                SearchRequest(n_items=n, n_blocks=k, method=method,
                              options=options, rng=seed, shards=shards)
            )

        base = run(ShardPolicy(max_rows=n))
        assert base.execution["n_shards"] == 1
        for shards in (ShardPolicy(max_rows=1), ShardPolicy(max_rows=7),
                       ShardPolicy(max_rows=16)):
            got = run(shards)
            assert got.execution["n_shards"] > 1
            np.testing.assert_array_equal(
                got.success_probabilities, base.success_probabilities
            )
            np.testing.assert_array_equal(got.block_guesses, base.block_guesses)
            np.testing.assert_array_equal(got.queries, base.queries)

    def test_engine_default_shard_policy(self):
        engine = SearchEngine(shards=ShardPolicy(max_rows=3))
        report = engine.search_batch(SearchRequest(n_items=64, n_blocks=4))
        assert report.execution["shard_rows"] == 3
        # An explicit request-level policy wins over the engine default.
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, shards=ShardPolicy(max_rows=5))
        )
        assert report.execution["shard_rows"] == 5


class TestShardIdentityUnderPolicies:
    """Shard boundaries stay bit-invisible under *every*
    :class:`ExecutionPolicy`, and the dtype scales the circuit byte model."""

    POLICIES = [
        ExecutionPolicy(),
        ExecutionPolicy(dtype="complex64"),
        ExecutionPolicy(row_threads=3),
        ExecutionPolicy(dtype="complex64", row_threads=2),
    ]

    @pytest.mark.parametrize("backend", ["kernels", "compiled"])
    @pytest.mark.parametrize(
        "policy", POLICIES, ids=lambda p: f"{p.dtype}-t{p.row_threads}"
    )
    def test_shard_sizes_invisible_under_policy(self, backend, policy):
        n, k = 64, 4
        engine = SearchEngine()
        base = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, backend=backend, policy=policy,
                          shards=ShardPolicy(max_rows=n))
        )
        assert base.execution["n_shards"] == 1
        for rows in (1, 13, n):
            got = engine.search_batch(
                SearchRequest(n_items=n, n_blocks=k, backend=backend,
                              policy=policy, shards=ShardPolicy(max_rows=rows))
            )
            np.testing.assert_array_equal(
                got.success_probabilities, base.success_probabilities
            )
            np.testing.assert_array_equal(got.block_guesses, base.block_guesses)

    def test_complex64_halves_row_bytes_doubles_chunk(self):
        n = 4096
        half = ExecutionPolicy(dtype="complex64")
        assert state_row_bytes("compiled", n, half) \
            == state_row_bytes("compiled", n) // 2
        budget = ShardPolicy(max_bytes=64 * state_row_bytes("compiled", n))
        half_rows = plan_shards(4096, n, "compiled", budget, half, queries=1,
                                lanes=1).shard_rows
        full_rows = plan_shards(4096, n, "compiled", budget, queries=1,
                                lanes=1).shard_rows
        assert half_rows == 2 * full_rows == 128

    def test_row_threads_bit_identical_to_serial(self):
        n, k = 128, 4
        engine = SearchEngine()
        serial = engine.search_batch(SearchRequest(n_items=n, n_blocks=k))
        for threads in (2, 5, 128):
            got = engine.search_batch(
                SearchRequest(n_items=n, n_blocks=k,
                              policy=ExecutionPolicy(row_threads=threads))
            )
            np.testing.assert_array_equal(
                got.success_probabilities, serial.success_probabilities
            )
            np.testing.assert_array_equal(got.block_guesses, serial.block_guesses)

    def test_policy_in_execution_provenance(self):
        report = SearchEngine().search_batch(
            SearchRequest(n_items=64, n_blocks=4,
                          policy=ExecutionPolicy(dtype="complex64", row_threads=2))
        )
        assert report.execution["dtype"] == "complex64"
        assert report.execution["row_threads"] == 2

    def test_stateless_backend_normalises_the_policy(self):
        # classical is the one method whose backend holds no state: its
        # adapters see the default policy, its batch records no dtype, and
        # complex64 and complex128 requests fingerprint alike.
        from dataclasses import replace

        from repro.engine import get_method, register_method
        from repro.service.cache import request_fingerprint

        spec = get_method("classical")
        seen = []
        register_method(replace(
            spec,
            run=lambda r, *a: seen.append(r.policy) or spec.run(r, *a),
            batch=lambda r, *a: seen.append(r.policy) or spec.batch(r, *a),
        ), replace=True)
        try:
            engine = SearchEngine()
            base = SearchRequest(n_items=64, n_blocks=4, method="classical",
                                 target=20)
            fast = base.replace(policy=ExecutionPolicy(dtype="complex64",
                                                       row_threads=2))
            assert engine.search(fast) == engine.search(base)
            batch = engine.search_batch(fast, targets=range(16))
        finally:
            register_method(spec, replace=True)
        assert seen == [ExecutionPolicy()] * 3
        assert "dtype" not in batch.execution
        assert request_fingerprint(fast) == request_fingerprint(base)
        # A backend that holds state keeps the dtype in the fingerprint.
        grk = SearchRequest(n_items=64, n_blocks=4, target=20)
        assert request_fingerprint(
            grk.replace(policy=ExecutionPolicy(dtype="complex64"))
        ) != request_fingerprint(grk)

    @pytest.mark.parametrize(
        "method,options,seed",
        [("grover-full", {}, None), ("grover-full", {"exact": True}, None),
         ("naive-blocks", {}, 42)],
        ids=["grover-full", "grover-full-exact", "naive-blocks"],
    )
    def test_baselines_honour_the_policy(self, method, options, seed):
        from repro.kernels import COMPLEX64_SUCCESS_ATOL
        from repro.service.cache import request_fingerprint

        n, k = 256, 4
        engine = SearchEngine()
        request = SearchRequest(
            n_items=n, n_blocks=k, method=method, options=options, rng=seed,
            shards=ShardPolicy(max_rows=8),
        )
        fast_policy = ExecutionPolicy(dtype="complex64")
        base = engine.search_batch(request)
        fast = engine.search_batch(request.replace(policy=fast_policy))
        assert fast.execution["dtype"] == "complex64"
        assert base.execution["shard_rows"] == 8
        np.testing.assert_allclose(
            fast.success_probabilities, base.success_probabilities,
            atol=COMPLEX64_SUCCESS_ATOL, rtol=0,
        )
        np.testing.assert_array_equal(fast.block_guesses, base.block_guesses)
        threaded = engine.search_batch(
            request.replace(policy=ExecutionPolicy(row_threads=3))
        )
        assert threaded.execution["row_threads"] == 3
        np.testing.assert_array_equal(
            threaded.success_probabilities, base.success_probabilities
        )
        np.testing.assert_array_equal(threaded.block_guesses,
                                      base.block_guesses)
        if method == "naive-blocks":
            # A batch whose every target is left out runs no shard; its
            # record keeps the same keys, the policy included.
            left_out = engine.search_batch(
                request.replace(policy=fast_policy,
                                options={"left_out_block": 1}),
                targets=range(64, 128),
            )
            assert left_out.execution.keys() == fast.execution.keys()
            assert left_out.execution["n_shards"] == 0
            assert left_out.execution["dtype"] == "complex64"
        # Single runs run at the request's dtype too, and cache apart.
        single = request.replace(target=200)  # a searched block at seed 42
        full = engine.search(single)
        half = engine.search(single.replace(policy=fast_policy))
        assert abs(half.success_probability
                   - full.success_probability) <= COMPLEX64_SUCCESS_ATOL
        assert half.success_probability != full.success_probability
        assert request_fingerprint(single) != request_fingerprint(
            single.replace(policy=fast_policy)
        )

    def test_simplified_method_honours_policy(self):
        n, k = 64, 4
        engine = SearchEngine()
        base = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, method="grk-simplified")
        )
        threaded = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, method="grk-simplified",
                          policy=ExecutionPolicy(row_threads=4),
                          shards=ShardPolicy(max_rows=13))
        )
        np.testing.assert_array_equal(
            threaded.success_probabilities, base.success_probabilities
        )
        fast = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, method="grk-simplified",
                          policy=ExecutionPolicy(dtype="complex64"))
        )
        from repro.kernels import COMPLEX64_SUCCESS_ATOL

        np.testing.assert_allclose(
            fast.success_probabilities, base.success_probabilities,
            atol=COMPLEX64_SUCCESS_ATOL, rtol=0,
        )


class TestThreadedDefaultBitIdentity:
    """The default policy threads every batch that clears the work floor;
    at complex128 it must match ``row_threads=1`` and ``3`` bit for bit
    across shard counts and executors.  The floor is lowered and the host
    given four cpus, so that these small batches thread."""

    METHODS = [
        ("grk", {}, None), ("grk-simplified", {}, None),
        ("grk-sure-success", {}, None), ("grk-cwb", {}, None),
        ("grover-full", {}, None), ("naive-blocks", {}, 7),
    ]
    N, K = 64, 4

    @pytest.fixture(autouse=True)
    def threading_host(self, monkeypatch):
        import os

        import repro.kernels.policy as kernel_policy

        monkeypatch.setattr(kernel_policy, "AUTO_ROW_THREAD_MIN_WORK", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def request(self, method, options, seed, **kwargs):
        return SearchRequest(n_items=self.N, n_blocks=self.K, method=method,
                             options=options, rng=seed, **kwargs)

    @staticmethod
    def assert_same(got, ref):
        np.testing.assert_array_equal(got.success_probabilities,
                                      ref.success_probabilities)
        np.testing.assert_array_equal(got.block_guesses, ref.block_guesses)

    @pytest.mark.parametrize("method,options,seed", METHODS,
                             ids=[m[0] for m in METHODS])
    def test_default_matches_explicit_counts_across_shards(
        self, method, options, seed
    ):
        from repro.service.cache import request_fingerprint

        engine = SearchEngine()
        serial = self.request(method, options, seed,
                              policy=ExecutionPolicy(row_threads=1))
        ref = engine.search_batch(serial)
        for shards in (ShardPolicy(max_rows=1), ShardPolicy(max_rows=7),
                       ShardPolicy(max_rows=self.N), ShardPolicy()):
            for policy in (ExecutionPolicy(), ExecutionPolicy(row_threads=1),
                           ExecutionPolicy(row_threads=3)):
                request = self.request(method, options, seed, policy=policy,
                                       shards=shards)
                self.assert_same(engine.search_batch(request), ref)
                # The cache cannot tell thread counts apart either.
                assert request_fingerprint(request) \
                    == request_fingerprint(serial)
        threaded = engine.search_batch(self.request(method, options, seed))
        assert threaded.execution["row_threads"] == 4

    @pytest.mark.parametrize("method,options,seed", METHODS,
                             ids=[m[0] for m in METHODS])
    def test_default_matches_on_remote_executors(
        self, method, options, seed
    ):
        from repro.service.executor import RemoteExecutor
        from repro.service.worker import WorkerServer

        ref = SearchEngine().search_batch(self.request(
            method, options, seed, policy=ExecutionPolicy(row_threads=1)))
        with WorkerServer() as worker:
            remote = SearchEngine(executor=RemoteExecutor([worker.address]))
            for policy in (ExecutionPolicy(), ExecutionPolicy(row_threads=3)):
                got = remote.search_batch(self.request(
                    method, options, seed, policy=policy,
                    shards=ShardPolicy(max_rows=7)))
                self.assert_same(got, ref)
        # Two workers: the default plan splits the batch over both lanes.
        with WorkerServer() as first, WorkerServer() as second:
            remote = SearchEngine(executor=RemoteExecutor(
                [first.address, second.address]))
            for policy in (ExecutionPolicy(), ExecutionPolicy(row_threads=3)):
                got = remote.search_batch(self.request(method, options, seed,
                                                       policy=policy))
                assert got.execution["n_shards"] == 2
                self.assert_same(got, ref)


class TestExecutorLanes:
    """A kernels batch splits over its executor's dialable lanes, so a
    remote fleet shares it however little state its shards hold."""

    def test_each_worker_serves_one_shard(self):
        from contextlib import ExitStack

        from repro.service.executor import RemoteExecutor
        from repro.service.worker import WorkerServer

        request = SearchRequest(n_items=1024, n_blocks=4)
        local = SearchEngine().search_batch(request)
        assert local.execution["n_shards"] == 1
        for n_workers in (1, 2):
            with ExitStack() as stack:
                workers = [stack.enter_context(WorkerServer())
                           for _ in range(n_workers)]
                executor = RemoteExecutor([w.address for w in workers])
                assert executor.lanes() == n_workers
                remote = SearchEngine(executor=executor).search_batch(request)
                assert [w.shards_served for w in workers] == [1] * n_workers
            assert remote.execution["n_shards"] == n_workers
            np.testing.assert_array_equal(remote.success_probabilities,
                                          local.success_probabilities)
            np.testing.assert_array_equal(remote.block_guesses,
                                          local.block_guesses)

    def test_small_batch_stays_on_one_worker(self):
        # gateway-mix's batch shape: too little work to fill two lanes, so
        # it runs as one shard on one worker of a two-worker fleet.
        from repro.service.executor import RemoteExecutor
        from repro.service.worker import WorkerServer

        request = SearchRequest(n_items=1024, n_blocks=4)
        targets = np.arange(0, 1024, 4)
        local = SearchEngine().search_batch(request, targets=targets)
        with WorkerServer() as first, WorkerServer() as second:
            executor = RemoteExecutor([first.address, second.address])
            remote = SearchEngine(executor=executor).search_batch(
                request, targets=targets)
            served = [first.shards_served, second.shards_served]
        assert remote.execution["n_shards"] == 1 and sorted(served) == [0, 1]
        np.testing.assert_array_equal(remote.success_probabilities,
                                      local.success_probabilities)
        np.testing.assert_array_equal(remote.block_guesses,
                                      local.block_guesses)

    @pytest.mark.parametrize("source", ["static", "registry"])
    def test_one_shard_batches_take_turns(self, source):
        # A listed fleet has no load ranking: each run starts one worker
        # further along it, so one-shard batches spread over the fleet.
        from repro.service.address import format_address
        from repro.service.executor import RemoteExecutor
        from repro.service.registry import WorkerRegistry
        from repro.service.worker import WorkerServer

        request = SearchRequest(n_items=1024, n_blocks=4)
        targets = np.arange(0, 1024, 4)
        with WorkerServer() as first, WorkerServer() as second:
            if source == "static":
                fleet = [first.address, second.address]
            else:
                fleet = WorkerRegistry()
                for worker in (first, second):
                    fleet.add(format_address(*worker.address))
            engine = SearchEngine(executor=RemoteExecutor(fleet))
            for _ in range(6):
                report = engine.search_batch(request, targets=targets)
                assert report.execution["n_shards"] == 1
            assert [first.shards_served, second.shards_served] == [3, 3]

    def test_open_breakers_are_not_lanes(self):
        from repro.resilience import BreakerRegistry
        from repro.service.executor import LocalExecutor, RemoteExecutor

        executor = RemoteExecutor(
            ["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"],
            breakers=BreakerRegistry(failure_threshold=1),
        )
        assert executor.lanes() == 3
        executor.breakers.get("127.0.0.1:2").record_failure()
        assert executor.lanes() == 2
        assert LocalExecutor().lanes() == 1
