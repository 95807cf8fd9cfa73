"""ExecutionPolicy semantics: dtype mapping, validation, row slabs."""

import numpy as np
import pytest

from repro.kernels import DTYPE_NAMES, ExecutionPolicy, row_slabs


class TestExecutionPolicy:
    def test_default_is_seed_equivalent(self):
        policy = ExecutionPolicy()
        assert policy.dtype == "complex128"
        assert policy.row_threads == "auto"
        assert policy.is_default
        assert policy.real_dtype == np.float64
        assert policy.complex_dtype == np.complex128
        assert policy.itemsize_scale == 1.0

    def test_complex64_mapping(self):
        policy = ExecutionPolicy(dtype="complex64")
        assert policy.real_dtype == np.float32
        assert policy.complex_dtype == np.complex64
        assert policy.itemsize_scale == 0.5
        assert not policy.is_default

    def test_dtype_names_are_the_accepted_set(self):
        for name in DTYPE_NAMES:
            ExecutionPolicy(dtype=name)
        with pytest.raises(ValueError, match="dtype"):
            ExecutionPolicy(dtype="float16")
        with pytest.raises(ValueError, match="dtype"):
            ExecutionPolicy(dtype="complex256")

    def test_row_threads_validation(self):
        ExecutionPolicy(row_threads=8)
        with pytest.raises(ValueError, match="row_threads"):
            ExecutionPolicy(row_threads=0)
        with pytest.raises(ValueError, match="row_threads"):
            ExecutionPolicy(row_threads=2.5)

    def test_describe(self):
        assert ExecutionPolicy(dtype="complex64", row_threads=3).describe() == {
            "dtype": "complex64",
            "row_threads": 3,
        }

    def test_frozen_and_hashable(self):
        policy = ExecutionPolicy()
        with pytest.raises(AttributeError):
            policy.dtype = "complex64"
        assert ExecutionPolicy() in {policy}


class TestRowSlabs:
    def test_single_thread_is_one_slab(self):
        assert row_slabs(17, 1) == [slice(0, 17)]

    def test_balanced_within_one_row_and_ordered(self):
        slabs = row_slabs(10, 3)
        sizes = [s.stop - s.start for s in slabs]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert slabs[0].start == 0 and slabs[-1].stop == 10
        for a, b in zip(slabs, slabs[1:]):
            assert a.stop == b.start

    def test_more_threads_than_rows_caps_at_rows(self):
        slabs = row_slabs(3, 16)
        assert len(slabs) == 3
        assert all(s.stop - s.start == 1 for s in slabs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            row_slabs(0, 2)


class TestAutoRowThreads:
    """``row_threads="auto"`` — the cpu-count-aware default of the ROADMAP
    cost-model item: accepted by the policy, resolved to a concrete int by
    the planner before any shard ships."""

    def test_auto_is_accepted_and_resolves_to_cpu_aware_int(self):
        from repro.kernels import (
            MAX_AUTO_ROW_THREADS,
            ROW_THREADS_AUTO,
            auto_row_threads,
        )

        policy = ExecutionPolicy(row_threads=ROW_THREADS_AUTO)
        assert policy.row_threads == "auto"
        assert policy.is_default
        resolved = policy.resolve(8192, 8192, 64)
        assert isinstance(resolved.row_threads, int)
        assert 1 <= resolved.row_threads <= MAX_AUTO_ROW_THREADS
        assert resolved.row_threads == auto_row_threads(8192 * 8192 * 64)
        assert resolved.dtype == policy.dtype

    def test_concrete_policies_resolve_to_themselves(self):
        policy = ExecutionPolicy(dtype="complex64", row_threads=3)
        assert policy.resolve(1, 64, 1) is policy

    def test_other_strings_rejected(self):
        with pytest.raises(ValueError, match="row_threads"):
            ExecutionPolicy(row_threads="fast")

    def test_auto_policy_pickles_and_hashes(self):
        import pickle

        for policy in (ExecutionPolicy(row_threads="auto"),
                       ExecutionPolicy(dtype="complex64", row_threads=2)):
            assert pickle.loads(pickle.dumps(policy)) == policy
            assert policy in {policy}

    def test_planner_ships_resolved_policy(self):
        from repro.core.batch import running_shard
        from repro.engine.plan import plan_shards

        plan = plan_shards(16, 64, "kernels",
                           execution=ExecutionPolicy(row_threads="auto"),
                           queries=1, lanes=1)
        # The planner ships "auto"; the shard's process resolves it.
        assert plan.policy.row_threads == "auto"
        with running_shard(plan.policy, "kernels", plan.shard_rows, 64,
                           1) as ran:
            assert isinstance(ran.row_threads, int)
            assert ran.row_threads >= 1

    def test_auto_batch_bit_identical_to_default(self):
        from repro.engine import SearchEngine, SearchRequest

        engine = SearchEngine()
        base = engine.search_batch(SearchRequest(n_items=64, n_blocks=4))
        auto = engine.search_batch(SearchRequest(
            n_items=64, n_blocks=4,
            policy=ExecutionPolicy(row_threads="auto"),
        ))
        np.testing.assert_array_equal(
            base.success_probabilities, auto.success_probabilities
        )
        np.testing.assert_array_equal(base.block_guesses, auto.block_guesses)
        assert isinstance(auto.execution["row_threads"], int)


class TestAutoIsTheDefault:
    """Requests built at the edges default to ``row_threads="auto"``, as
    ``ExecutionPolicy()`` does (``test_default_is_seed_equivalent``)."""

    def test_gateway_absent_field(self):
        from repro.gateway.schema import decode_submit

        decoded = decode_submit({"n_items": 64, "n_blocks": 8})
        assert decoded.request.policy.row_threads == "auto"
        pinned = decode_submit({"n_items": 64, "n_blocks": 8,
                                "row_threads": 1})
        assert pinned.request.policy.row_threads == 1

    def test_repro_submit(self, monkeypatch):
        from repro.service import cli, server

        sent = []

        class Sent(Exception):
            pass

        def submit_remote(address, request, **kwargs):
            sent.append(request)
            raise Sent

        monkeypatch.setattr(server, "submit_remote", submit_remote)
        argv = ["submit", "--n-items", "64", "--n-blocks", "4",
                "--target", "3"]
        for flags in ([], ["--row-threads", "1"]):
            with pytest.raises(Sent):
                cli.main(argv + flags)
        assert [r.policy.row_threads for r in sent] == ["auto", 1]
