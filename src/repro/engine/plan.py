"""Shard planning and dispatch for batched searches.

The planner splits a batch's target rows into shards, executes them
independently (rows never interact, so shard boundaries are bit-invisible
in the results), and dispatches the shard list through a
:class:`ShardExecutor` — by default the in-process :class:`LocalExecutor`
(:func:`default_executor`), or any custom executor (e.g. the
TCP-distributed :class:`repro.service.executor.RemoteExecutor`)
installed on the engine.  The local executor lives here, so an
in-process batch loads none of the serving stack.  Every executor runs
one shard function, :func:`run_shard`, so a shard is its task alone,
and a task is plain data: a program, targets, a backend name and the
request's execution policy, ``row_threads="auto"`` included: the process
that runs a shard decides its thread count and reports it.

What bounds a shard is what it holds.  A kernels shard holds one row
state of :data:`~repro.kernels.sweep.ROW_BLOCK_BYTES` of real bytes per
row thread (``T`` × 1.25 MiB for a plain program, ``T`` × 2.25 MiB for a
phased one, whose blocks widen to complex) however many rows it has, so
its shards serve fan-out and turnaround only: one per filled executor
lane, none over a work cap.  A circuit shard holds a ``(B_chunk, 2N)``
complex state, so the :class:`~repro.engine.request.ShardPolicy` byte
budget bounds its rows (:func:`state_row_bytes`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core import batch
from repro.core.backends import CIRCUIT_BACKENDS, KERNEL_BACKEND
from repro.core.program import PartialSearchProgram
from repro.engine.request import ExecutionPolicy, ShardPolicy
from repro.kernels import policy as kernel_policy
from repro.observability.spans import span
from repro.resilience import Deadline, current_deadline

__all__ = [
    "ExecutionPlan",
    "plan_shards",
    "state_row_bytes",
    "run_shard",
    "run_grk_batch_sharded",
    "ShardExecutor",
    "LocalExecutor",
    "default_executor",
]

#: Working-set multiplier over the bare circuit state row: the circuit
#: path materialises ``abs(state)**2`` and fused-op temporaries; 4x the
#: resident row is a conservative envelope validated by the sharded-batch
#: bench.
ROW_OVERHEAD = 4

#: The most work (rows × N × queries) one kernels shard carries: a shard
#: is what a remote worker computes before it replies, a failure requeues
#: and a run checks its deadline between.  The N=4096, K=8 all-targets
#: batches (7.2e8–7.4e8) ran in 0.52–0.77 s on two threads of a 2-vCPU
#: Xeon and stay one shard; N=2^16 ones split into shards of ~100 rows.
KERNEL_SHARD_MAX_WORK = 1 << 30


def state_row_bytes(
    backend: str, n_items: int, policy: ExecutionPolicy | None = None
) -> int:
    """Working-set bytes one batch row costs on a circuit *backend*.

    A circuit row is a complex row of ``2N`` (the ancilla doubles the
    space), scaled by :data:`ROW_OVERHEAD` for kernel temporaries and by
    the policy's dtype width — ``dtype="complex64"`` halves every
    amplitude, so a fixed shard byte budget admits **2x the rows per
    shard**.  Any other backend raises ``ValueError``: a kernels shard
    holds row blocks however many rows it has, and ``classical`` and
    ``analytic`` hold no state.
    """
    if backend not in CIRCUIT_BACKENDS:
        raise ValueError(f"no per-row state to budget on backend {backend!r}")
    scale = 1.0 if policy is None else policy.itemsize_scale
    return int(2 * n_items * 16 * ROW_OVERHEAD * scale)


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved sharding decision for one batched execution.

    Attributes:
        n_rows: total batch rows ``B``.
        shard_rows: rows per shard ``B_chunk`` (last shard may be smaller).
        policy: the request's :class:`~repro.kernels.ExecutionPolicy`,
            which every shard ships; :func:`run_grk_batch_sharded`
            returns it with the ``row_threads`` its shards ran.
    """

    n_rows: int
    shard_rows: int
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    @property
    def n_shards(self) -> int:
        """Number of shards the batch splits into."""
        return -(-self.n_rows // self.shard_rows)

    def slices(self):
        """Yield one ``slice`` per shard, covering ``range(n_rows)`` in order."""
        for start in range(0, self.n_rows, self.shard_rows):
            yield slice(start, min(start + self.shard_rows, self.n_rows))

    def describe(self) -> dict:
        """Provenance record embedded in :class:`BatchReport.execution`."""
        return {
            "n_rows": self.n_rows,
            "n_shards": self.n_shards,
            "shard_rows": self.shard_rows,
            **self.policy.describe(),
        }


def plan_shards(
    n_rows: int,
    n_items: int,
    backend: str,
    policy: ShardPolicy | None = None,
    execution: ExecutionPolicy | None = None,
    *,
    queries: int,
    lanes: int,
) -> ExecutionPlan:
    """Fit a shard plan for ``n_rows`` batch rows of an ``N``-item instance.

    A kernels shard holds row blocks however many rows it has, so a
    kernels batch splits evenly over the executor's *lanes*
    (:meth:`ShardExecutor.lanes`), but over only
    as many as leave each shard a row thread's work
    (:data:`~repro.kernels.AUTO_ROW_THREAD_MIN_WORK`), so a small batch
    stays one shard on any fleet; no kernels shard takes more than
    :data:`KERNEL_SHARD_MAX_WORK`.  A circuit shard holds its
    ``(B_chunk, 2N)`` state, so it takes the most rows that keep that
    under ``policy.max_bytes`` (:func:`state_row_bytes`).
    ``policy.max_rows`` caps either; a shard holds at least one row, and
    zero rows plan zero shards.  *queries* is the program's oracle
    queries per row; *execution* rides on the plan unchanged.
    """
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if policy is None:
        policy = ShardPolicy()
    if execution is None:
        execution = ExecutionPolicy()
    if backend == KERNEL_BACKEND:
        row_work = max(1, n_items * queries)
        filled = n_rows * row_work // kernel_policy.AUTO_ROW_THREAD_MIN_WORK
        split = max(1, min(lanes, filled))
        rows = min(-(-n_rows // split), KERNEL_SHARD_MAX_WORK // row_work)
    else:
        row_bytes = state_row_bytes(backend, n_items, execution)
        rows = min(policy.max_bytes // row_bytes, n_rows)
    if policy.max_rows is not None:
        rows = min(rows, policy.max_rows)
    rows = int(max(1, rows))
    return ExecutionPlan(n_rows=n_rows, shard_rows=rows, policy=execution)


def run_shard(task):
    """Execute one shard of a program batch: ``(success, guesses,
    row_threads)``.

    The one shard function: :class:`LocalExecutor` and a
    ``repro-worker`` both call it, reading it off this module each time a
    shard runs.  The task is plain data: the program, the targets, the
    backend name and the request's :class:`~repro.kernels.ExecutionPolicy`,
    whose ``"auto"`` this process resolves for itself
    (:func:`~repro.core.batch.running_shard`).  Results are
    bit-identical wherever, in whatever order and at whatever count
    shards run.
    """
    program, targets, backend, execution = task
    with batch.running_shard(execution, backend, targets.size,
                             program.n_items, program.queries) as policy:
        # Looked up per call, so a wrapper installed on the module
        # attribute (perfbench's traced round) sees every shard.
        success, guesses = batch.execute_batch_rows(program, targets,
                                                    backend, policy)
    return success, guesses, policy.row_threads


def run_grk_batch_sharded(
    program: PartialSearchProgram,
    targets: np.ndarray,
    backend: str,
    policy: ShardPolicy | None = None,
    executor=None,
    execution: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, ExecutionPlan]:
    """Run a program batch over *targets* in shards.

    *program* is any :class:`~repro.core.program.PartialSearchProgram`
    (a GRK-family ``plan.program`` or a baseline's full-search program);
    shards ship it as plain data.  Returns ``(success_probabilities,
    block_guesses, plan)`` with the arrays concatenated in target order —
    bit-identical to the unsharded execution, because every batch row
    evolves independently under the same kernels; an empty batch
    dispatches nothing.  *executor* selects where shards run (``None`` =
    the default local executor) and, through its lanes, how many a
    kernels batch splits into; every executor preserves bit-identity
    because shard boundaries are fixed here, before dispatch.
    *execution* is the kernels' :class:`~repro.kernels.ExecutionPolicy`:
    it ships inside every shard task, so local and remote workers honour
    the same dtype and thread setting — at complex128 the results stay
    bit-identical for every policy combination.  The plan records the
    ``row_threads`` the shards ran (the largest, if hosts differed), or
    *execution* as given when no shard runs.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if executor is None:
        executor = default_executor()
    with span("shards.plan", backend=backend) as planned:
        plan = plan_shards(
            targets.size, program.n_items, backend, policy, execution,
            queries=program.queries, lanes=executor.lanes(),
        )
        tasks = [(program, targets[sl], backend, plan.policy)
                 for sl in plan.slices()]
        planned.attrs["shards"] = plan.n_shards
    if not tasks:
        return np.empty(0), np.empty(0, dtype=np.intp), plan
    results = executor.run_shards(tasks)
    with span("merge", shards=len(results)):
        success = np.concatenate([r[0] for r in results])
        guesses = np.concatenate([r[1] for r in results])
        ran = replace(plan.policy, row_threads=max(r[2] for r in results))
    return success, guesses, replace(plan, policy=ran)


class ShardExecutor(ABC):
    """Strategy for executing a list of independent shard tasks.

    The contract is ``run_shards(tasks)`` returning :func:`run_shard`'s
    results *in task order*: shard boundaries come from the plan and
    every random draw happens before dispatch, so any executor that runs
    every task exactly once returns bit-identical results.  The serving
    stack's :class:`repro.service.executor.RemoteExecutor` is the other
    one.
    """

    @abstractmethod
    def run_shards(self, tasks: Sequence, *,
                   deadline: Deadline | None = None) -> list:
        """Run :func:`run_shard` on every task; results in task order.

        ``deadline`` bounds the whole call (``None`` reads the ambient
        :func:`repro.resilience.current_deadline`); executors raise
        :class:`~repro.resilience.DeadlineExceeded` rather than start work
        nobody will wait for.
        """

    def lanes(self) -> int:
        """Shards this executor can run side by side: a kernels batch
        spreads over as many as its work fills.  A local executor runs one
        at a time, so 1."""
        return 1

    def describe(self) -> dict:
        """Provenance record merged into ``BatchReport.execution``."""
        return {"executor": type(self).__name__}


class LocalExecutor(ShardExecutor):
    """In-process execution, the engine's default: the shards run one after
    another in the calling thread, so a shard's row threads are its only
    parallelism.  The deadline is checked before every shard, so an
    overrun stops the batch instead of computing shards nobody awaits.
    """

    def run_shards(self, tasks, *,
                   deadline: Deadline | None = None) -> list:
        if deadline is None:
            deadline = current_deadline()
        results = []
        with span("dispatch", executor="local", shards=len(tasks)):
            for task in tasks:
                if deadline is not None:
                    deadline.raise_if_expired("batch")
                results.append(run_shard(task))
        return results

    def describe(self) -> dict:
        return {"executor": "local"}


_DEFAULT = LocalExecutor()


def default_executor() -> ShardExecutor:
    """The process-wide default executor (a shared :class:`LocalExecutor`)."""
    return _DEFAULT
