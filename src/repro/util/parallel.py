"""Process- and thread-pool maps with deterministic per-task RNG streams.

Monte Carlo estimation of classical query counts (Appendix A) and batched
partial-search trials are embarrassingly parallel.  In the absence of MPI we
use ``concurrent.futures`` workers; each task receives its own
``numpy.random.Generator`` spawned from a single root seed, so results are
bit-reproducible regardless of worker count or scheduling order (the same
discipline mpi4py programs use with per-rank seed sequences).

This module is the *single-machine* substrate, with two seams:

- :func:`parallel_map` — **process** fan-out for whole shards.  The engine
  dispatches batched shards through the
  :class:`repro.service.executor.ShardExecutor` seam instead of calling it
  directly; the default :class:`~repro.service.executor.LocalExecutor`
  delegates here, and remote executors replace the transport while keeping
  the same ``func(task, rng)`` task contract.
- :func:`thread_map` — **thread** fan-out for row slabs *inside* one shard,
  the calling thread running one task itself.  The batched kernels are
  numpy reductions and fused elementwise passes, which release the GIL,
  so independent row slabs of a batch scale across cores with zero
  pickling or copying; this is the substrate behind
  :func:`repro.kernels.map_row_slabs` and the
  :class:`~repro.kernels.ExecutionPolicy` ``row_threads`` knob.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from repro.util.rng import spawn_rngs

__all__ = ["default_workers", "parallel_map", "thread_map"]


def default_workers() -> int:
    """Default pool width: ``min(8, cpu_count)``, at least 1."""
    cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


def parallel_map(
    func: Callable,
    tasks: Sequence,
    *,
    seed=None,
    workers: int | None = None,
    use_processes: bool = True,
):
    """Apply ``func(task, rng)`` to every task, optionally across processes.

    Args:
        func: picklable callable taking ``(task, numpy.random.Generator)``.
        tasks: sequence of task descriptions (picklable when processes used).
        seed: root seed; per-task generators are spawned deterministically.
        workers: pool size; ``None`` picks ``min(8, cpu_count)``.  ``workers=1``
            or ``use_processes=False`` runs serially in-process (handy for
            debugging and for functions that are not picklable).
        use_processes: set ``False`` to force the serial path.

    Returns:
        List of results in task order.
    """
    tasks = list(tasks)
    rngs = spawn_rngs(seed, len(tasks))
    if workers is None:
        workers = default_workers()
    if not use_processes or workers <= 1 or len(tasks) <= 1:
        return [func(task, rng) for task, rng in zip(tasks, rngs)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(func, task, rng) for task, rng in zip(tasks, rngs)]
        return [f.result() for f in futures]


def thread_map(func: Callable, tasks: Sequence):
    """Apply ``func(task)`` to every task, one thread per task.

    Unlike :func:`parallel_map` there is no RNG argument and no pickling:
    this seam exists for GIL-releasing numpy work over *views of shared
    arrays* (row slabs of a batch), where determinism comes from the tasks
    being independent, not from seed discipline.  The calling thread is
    one of the threads: it starts one thread per task but the last, in
    task order, then runs the last task itself.  The first exception any
    task raises is re-raised here once every thread has finished.

    Returns:
        List of results in task order.
    """
    tasks = list(tasks)
    results = [None] * len(tasks)
    failures = []

    def run(i: int) -> None:
        try:
            results[i] = func(tasks[i])
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(tasks) - 1)]
    for thread in threads:
        thread.start()
    if tasks:
        run(len(tasks) - 1)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results
