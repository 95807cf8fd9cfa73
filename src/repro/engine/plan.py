"""Memory-bounded execution planning for batched searches.

The planner converts a :class:`~repro.engine.request.ShardPolicy` byte
budget into a per-shard row count from a per-backend row-size model,
splits the target batch into shards, executes them independently (rows
never interact, so shard boundaries are bit-invisible in the results),
and dispatches the shard list through a
:class:`repro.service.executor.ShardExecutor` — by default the
in-process/process-pool :class:`~repro.service.executor.LocalExecutor`,
or any custom executor (e.g. the TCP-distributed
:class:`~repro.service.executor.RemoteExecutor`) installed on the engine.
Every simulated batch ships one shard function, whose tasks are plain
data: a program, targets, a backend name and an execution policy.

The gate-level circuit backends hold a ``(B_chunk, 2N)`` complex state
per shard, so the byte model bounds their memory.  A kernels shard holds
only row blocks of about :data:`~repro.kernels.sweep.ROW_BLOCK_BYTES`
(:mod:`repro.kernels.sweep`), shared by its row threads: for it the
model sizes the shards — how many, and so how many process or remote
lanes a batch opens — but its ``row_bytes`` and ``shard_bytes`` are the
model's figures, not resident memory.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.backends import CIRCUIT_BACKENDS, KERNEL_BACKEND
from repro.core.program import PartialSearchProgram
from repro.engine.request import ExecutionPolicy, ShardPolicy
from repro.kernels import ROW_THREADS_AUTO
from repro.observability.spans import span

__all__ = [
    "ExecutionPlan",
    "plan_shards",
    "state_row_bytes",
    "run_grk_batch_sharded",
]

#: Working-set multiplier over the bare state row: the circuit path
#: materialises ``abs(state)**2`` and fused-op temporaries; 4x the
#: resident row is a conservative envelope validated by the sharded-batch
#: bench.  The kernels rows take the same factor, as a sizing model only.
ROW_OVERHEAD = 4


#: Batches this process is running, each counted from its plan until its
#: shards return (:func:`run_grk_batch_sharded`).  Their row threads share
#: the process's cpus, as the shard processes of one pool do.
_running_batches = 0
_running_lock = threading.Lock()


@contextmanager
def _running_batch():
    """Count one batch as running for the duration of the block."""
    global _running_batches
    with _running_lock:
        _running_batches += 1
    try:
        yield
    finally:
        with _running_lock:
            _running_batches -= 1


def state_row_bytes(
    backend: str, n_items: int, policy: ExecutionPolicy | None = None
) -> int:
    """Modelled working-set bytes one batch row costs on *backend*.

    The circuit backends hold a complex row of ``2N`` (ancilla doubles the
    space); the kernels path is modelled as a real row of ``N`` amplitudes,
    though its sweep only ever holds row blocks.  Both are scaled by
    :data:`ROW_OVERHEAD` for kernel temporaries and by the policy's dtype
    width — ``dtype="complex64"`` halves every amplitude, so
    a fixed shard byte budget admits **2x the rows per shard**.  A backend
    that holds no state (``classical``, ``analytic``) raises ``ValueError``:
    it plans no shards.
    """
    scale = 1.0 if policy is None else policy.itemsize_scale
    if backend in CIRCUIT_BACKENDS:
        return int(2 * n_items * 16 * ROW_OVERHEAD * scale)
    if backend == KERNEL_BACKEND:
        return int(n_items * 8 * ROW_OVERHEAD * scale)
    raise ValueError(f"backend {backend!r} holds no state to shard")


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved sharding decision for one batched execution.

    Attributes:
        n_rows: total batch rows ``B``.
        shard_rows: rows per shard ``B_chunk`` (last shard may be smaller).
        row_bytes: modelled working-set bytes per row (resident on the
            circuit backends; a sizing figure on kernels, whose shards
            hold row blocks only).
        max_bytes: the policy budget the plan was fitted to.
        workers: process-pool width (1 = serial in-process).
        policy: the :class:`~repro.kernels.ExecutionPolicy` the shards
            execute under (dtype scales ``row_bytes``; ``row_threads``,
            resolved to a count, fans rows inside each shard).
    """

    n_rows: int
    shard_rows: int
    row_bytes: int
    max_bytes: int
    workers: int
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    @property
    def n_shards(self) -> int:
        """Number of shards the batch splits into."""
        return -(-self.n_rows // self.shard_rows)

    @property
    def shard_bytes(self) -> int:
        """Modelled peak working set of one full shard (see ``row_bytes``)."""
        return self.shard_rows * self.row_bytes

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
            "row_bytes": self.row_bytes,
            "shard_bytes": self.shard_bytes,
            "max_bytes": self.max_bytes,
            "workers": self.workers,
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
) -> ExecutionPlan:
    """Fit a shard plan for ``n_rows`` batch rows of an ``N``-item instance.

    The row count per shard is the largest that keeps the modelled working
    set under ``policy.max_bytes`` (at least 1 and at most ``n_rows`` — a
    single row always runs even if it alone exceeds the budget, and zero
    rows plan zero shards), further capped by
    ``policy.max_rows`` when set.  With ``policy.workers > 1`` the rows are
    additionally capped at an even split across the pool, so a batch whose
    byte budget would fit in one shard still fans out.  *execution* (the
    kernels' :class:`~repro.kernels.ExecutionPolicy`) scales the per-row
    byte model — complex64 rows are half-width, so the same budget admits
    twice the ``B_chunk`` — and rides on the plan so shards execute under
    it.  On the kernels backend its ``row_threads="auto"`` resolves from
    one shard's work (``shard_rows × N × queries``, *queries* being the
    program's oracle queries per row) beside ``policy.workers`` shard
    processes for each batch this process is running (a service runs
    several at once); circuit shards run one thread under ``"auto"``.
    """
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if policy is None:
        policy = ShardPolicy()
    if execution is None:
        execution = ExecutionPolicy()
    row_bytes = state_row_bytes(backend, n_items, execution)
    rows = max(1, policy.max_bytes // row_bytes)
    if policy.max_rows is not None:
        rows = min(rows, policy.max_rows)
    if policy.workers > 1:
        rows = min(rows, -(-n_rows // policy.workers))
    rows = int(max(1, min(rows, n_rows)))
    # Pin row_threads="auto" to a concrete count here, once, so every
    # shard of the batch — local or remote — runs at the same width and
    # the plan's provenance records what actually ran.  The work floor
    # was measured on the kernels sweep; a compiled circuit batch at
    # N=1024 ran slower on two threads at every size, so circuit shards
    # take one.
    if backend == KERNEL_BACKEND:
        execution = execution.resolve(
            rows, n_items, queries,
            pool_width=policy.workers * max(1, _running_batches),
        )
    elif execution.row_threads == ROW_THREADS_AUTO:
        execution = replace(execution, row_threads=1)
    return ExecutionPlan(
        n_rows=n_rows,
        shard_rows=rows,
        row_bytes=row_bytes,
        max_bytes=policy.max_bytes,
        workers=policy.workers,
        policy=execution,
    )


def _program_shard(task, rng):
    """Execute one shard of a program batch (module-level so process pools
    can pickle it).

    ``rng`` is the :func:`parallel_map` per-task generator; the shard is
    deterministic so it goes unused — shard results are bit-identical
    regardless of worker count or scheduling order.  The task is plain
    data: the program, the targets, the backend name and the
    :class:`~repro.kernels.ExecutionPolicy`, so remote workers execute at
    the requested dtype and row parallelism.
    """
    program, targets, backend, execution = task
    from repro.core.batch import execute_batch_rows

    return execute_batch_rows(program, targets, backend, execution)


def run_grk_batch_sharded(
    program: PartialSearchProgram,
    targets: np.ndarray,
    backend: str,
    policy: ShardPolicy | None = None,
    executor=None,
    execution: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, ExecutionPlan]:
    """Run a program batch over *targets* in memory-bounded shards.

    *program* is any :class:`~repro.core.program.PartialSearchProgram`
    (a GRK-family ``plan.program`` or a baseline's full-search program);
    shards ship it as plain data.  Returns ``(success_probabilities,
    block_guesses, plan)`` with the arrays concatenated in target order —
    bit-identical to the unsharded execution, because every batch row
    evolves independently under the same kernels; an empty batch
    dispatches nothing.  *executor* selects
    where shards run (``None`` = the default local executor); every
    executor preserves bit-identity because shard boundaries are fixed
    here, before dispatch.  *execution* is the kernels'
    :class:`~repro.kernels.ExecutionPolicy`: it sizes the shards
    (complex64 halves row bytes) and ships inside every shard task, so
    local and remote workers honour the same dtype/threading — at
    complex128 the results stay bit-identical for every policy
    combination.
    """
    from repro.service.executor import default_executor

    targets = np.asarray(targets, dtype=np.intp)
    if execution is None:
        execution = ExecutionPolicy()
    with _running_batch():
        with span("shards.plan", backend=backend) as planned:
            plan = plan_shards(
                targets.size, program.n_items, backend, policy, execution,
                queries=program.queries,
            )
            execution = plan.policy  # "auto" resolved by the planner
            tasks = [
                (program, targets[sl], backend, execution)
                for sl in plan.slices()
            ]
            planned.attrs["shards"] = plan.n_shards
        if not tasks:
            return np.empty(0), np.empty(0, dtype=np.intp), plan
        if executor is None:
            executor = default_executor()
        results = executor.run_shards(
            _program_shard, tasks, workers=plan.workers
        )
    with span("merge", shards=len(results)):
        success = np.concatenate([r[0] for r in results])
        guesses = np.concatenate([r[1] for r in results])
    return success, guesses, plan
