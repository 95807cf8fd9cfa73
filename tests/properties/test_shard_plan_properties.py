"""The shard planner's documented invariants on arbitrary batches.

:func:`repro.engine.plan.plan_shards` fixes every shard boundary before
dispatch, so bit identity across executors rests on it.  Whatever the
batch, backend, fleet width or budget, its slices must partition the rows
in order, each shard must keep to its budget unless it holds a single row
(a shard always holds at least one), ``max_rows`` must hold, and the
request's execution policy must ride on the plan unchanged.  Where a
shard runs, :func:`repro.core.batch.running_shard` turns
``row_threads="auto"`` into a count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import running_shard
from repro.engine import ExecutionPolicy, ShardPolicy
from repro.engine.plan import KERNEL_SHARD_MAX_WORK, plan_shards, state_row_bytes
from repro.kernels import MAX_AUTO_ROW_THREADS


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_invariants(data):
    n_rows = data.draw(st.integers(0, 10**5), label="n_rows")
    n_items = data.draw(st.integers(2, 1 << 16), label="n_items")
    backend = data.draw(st.sampled_from(["kernels", "compiled", "naive"]),
                        label="backend")
    policy = ShardPolicy(
        max_bytes=data.draw(st.integers(1, 1 << 31), label="max_bytes"),
        max_rows=data.draw(st.one_of(st.none(), st.integers(1, 10**5)),
                           label="max_rows"),
    )
    row_threads = data.draw(st.one_of(st.just("auto"), st.integers(1, 16)),
                            label="row_threads")
    execution = ExecutionPolicy(
        dtype=data.draw(st.sampled_from(["complex128", "complex64"]),
                        label="dtype"),
        row_threads=row_threads,
    )
    queries = data.draw(st.integers(1, 500), label="queries")
    lanes = data.draw(st.integers(1, 8), label="lanes")

    plan = plan_shards(n_rows, n_items, backend, policy, execution,
                       queries=queries, lanes=lanes)

    slices = list(plan.slices())
    assert len(slices) == plan.n_shards
    stop = 0
    for sl in slices:  # contiguous, in order, none empty
        assert sl.start == stop < sl.stop
        stop = sl.stop
    assert stop == n_rows
    assert plan.shard_rows >= 1
    if policy.max_rows is not None:
        assert plan.shard_rows <= policy.max_rows
    if plan.shard_rows > 1:
        if backend == "kernels":
            assert plan.shard_rows * n_items * queries <= KERNEL_SHARD_MAX_WORK
        else:
            row_bytes = state_row_bytes(backend, n_items, execution)
            assert plan.shard_rows * row_bytes <= policy.max_bytes

    assert plan.policy == execution
    assert plan.policy.dtype == execution.dtype


@settings(max_examples=300, deadline=None)
@given(
    backend=st.sampled_from(["kernels", "compiled", "naive"]),
    row_threads=st.one_of(st.just("auto"), st.integers(1, 16)),
    n_rows=st.integers(1, 10**5),
    n_items=st.integers(2, 1 << 16),
    queries=st.integers(1, 500),
)
def test_resolver_invariants(backend, row_threads, n_rows, n_items, queries):
    execution = ExecutionPolicy(row_threads=row_threads)
    with running_shard(execution, backend, n_rows, n_items, queries) as ran:
        resolved = ran.row_threads
    if row_threads != "auto":
        assert resolved == row_threads
    elif backend == "kernels":
        assert isinstance(resolved, int)
        assert 1 <= resolved <= MAX_AUTO_ROW_THREADS
    else:
        assert resolved == 1
    assert ran.dtype == execution.dtype
