"""Memory-bounded sharding: plan math and shard-boundary bit-identity."""

import numpy as np
import pytest

from repro.core import plan_schedule
from repro.core.batch import execute_batch_rows
from repro.engine import (
    DEFAULT_SHARD_BYTES,
    ExecutionPolicy,
    SearchEngine,
    SearchRequest,
    ShardPolicy,
    plan_shards,
    state_row_bytes,
)


class TestPlanMath:
    def test_default_budget_is_128mib(self):
        assert DEFAULT_SHARD_BYTES == 128 * 1024 * 1024
        assert ShardPolicy().max_bytes == DEFAULT_SHARD_BYTES

    def test_row_bytes_model(self):
        # Circuit rows carry the ancilla (2N complex128); kernel rows are
        # N float64.  Both include the working-set overhead factor.
        assert state_row_bytes("compiled", 4096) == 4 * state_row_bytes(
            "kernels", 4096
        )
        # Backends that hold no state plan no shards.
        with pytest.raises(ValueError, match="no state"):
            state_row_bytes("classical", 4096)

    def test_shard_rows_fit_budget(self):
        plan = plan_shards(4096, 4096, "compiled", ShardPolicy(max_bytes=2**27))
        assert plan.shard_bytes <= 2**27
        assert plan.n_shards == -(-4096 // plan.shard_rows)
        assert sum(sl.stop - sl.start for sl in plan.slices()) == 4096

    def test_single_row_always_runs(self):
        # A row bigger than the budget still executes (one row per shard).
        plan = plan_shards(8, 1 << 20, "kernels", ShardPolicy(max_bytes=1024))
        assert plan.shard_rows == 1
        assert plan.n_shards == 8
        # Zero rows plan zero shards.
        empty = plan_shards(0, 64, "kernels", ShardPolicy(workers=2))
        assert empty.n_shards == 0 and list(empty.slices()) == []

    def test_max_rows_caps_budget_rows(self):
        plan = plan_shards(100, 64, "kernels", ShardPolicy(max_rows=7))
        assert plan.shard_rows == 7
        boundaries = [(sl.start, sl.stop) for sl in plan.slices()]
        assert boundaries[0] == (0, 7)
        assert boundaries[-1] == (98, 100)

    def test_describe_provenance(self):
        plan = plan_shards(64, 64, "kernels", ShardPolicy(max_rows=9, workers=3))
        desc = plan.describe()
        assert desc["n_shards"] == 8
        assert desc["workers"] == 3
        assert desc["max_bytes"] == DEFAULT_SHARD_BYTES


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
        # A budget that fits ~8 kernel rows of N=256 must produce ceil(32/8)
        # shards — and identical numbers.
        n, k = 256, 4
        budget = 8 * state_row_bytes("kernels", n)
        engine = SearchEngine()
        tight = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, shards=ShardPolicy(max_bytes=budget)),
            targets=range(32),
        )
        assert tight.execution["n_shards"] == 4
        wide = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k), targets=range(32)
        )
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
                       ShardPolicy(max_rows=16, workers=2)):
            got = run(shards)
            assert got.execution["n_shards"] > 1
            np.testing.assert_array_equal(
                got.success_probabilities, base.success_probabilities
            )
            np.testing.assert_array_equal(got.block_guesses, base.block_guesses)
            np.testing.assert_array_equal(got.queries, base.queries)

    def test_process_fanout_bit_identical(self):
        n, k = 64, 4
        engine = SearchEngine()
        serial = engine.search_batch(SearchRequest(n_items=n, n_blocks=k))
        fanned = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k,
                          shards=ShardPolicy(max_rows=16, workers=2))
        )
        np.testing.assert_array_equal(
            fanned.success_probabilities, serial.success_probabilities
        )
        np.testing.assert_array_equal(fanned.block_guesses, serial.block_guesses)

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
    """The tentpole contract: shard boundaries stay bit-invisible under
    *every* :class:`ExecutionPolicy`, and the dtype scales the byte model."""

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
        for backend in ("kernels", "compiled"):
            assert state_row_bytes(backend, n, half) == state_row_bytes(backend, n) // 2
        budget = ShardPolicy(max_bytes=64 * state_row_bytes("kernels", n))
        assert (
            plan_shards(4096, n, "kernels", budget, half).shard_rows
            == 2 * plan_shards(4096, n, "kernels", budget).shard_rows
        )

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

    def test_process_fanout_with_policy_bit_identical(self):
        n, k = 64, 4
        policy = ExecutionPolicy(dtype="complex64", row_threads=2)
        engine = SearchEngine()
        serial = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, policy=policy)
        )
        fanned = engine.search_batch(
            SearchRequest(n_items=n, n_blocks=k, policy=policy,
                          shards=ShardPolicy(max_rows=16, workers=2))
        )
        np.testing.assert_array_equal(
            fanned.success_probabilities, serial.success_probabilities
        )
        np.testing.assert_array_equal(fanned.block_guesses, serial.block_guesses)

    def test_policy_blind_methods_normalise_the_policy(self):
        # naive-blocks/grover-full/classical single runs pin their own
        # dtype, so their batches run at the default policy too: a
        # complex64 request must NOT change the shard byte model nor stamp
        # a dtype into the provenance that was never used.
        engine = SearchEngine()
        budget = ShardPolicy(max_bytes=8 * state_row_bytes("kernels", 64))
        base = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="naive-blocks",
                          rng=0, shards=budget),
            targets=range(16),
        )
        fast = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="naive-blocks",
                          rng=0, shards=budget,
                          policy=ExecutionPolicy(dtype="complex64")),
            targets=range(16),
        )
        assert fast.execution["shard_rows"] == base.execution["shard_rows"]
        assert fast.execution["dtype"] == "complex128"
        np.testing.assert_array_equal(
            fast.success_probabilities, base.success_probabilities
        )
        # A batch whose every target is left out runs no shard; its record
        # keeps the same keys.
        left_out = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4, method="naive-blocks",
                          shards=budget, options={"left_out_block": 1},
                          policy=ExecutionPolicy(dtype="complex64")),
            targets=range(16, 32),
        )
        assert left_out.execution.keys() == base.execution.keys()
        assert left_out.execution["n_shards"] == 0
        assert left_out.execution["dtype"] == "complex128"

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
