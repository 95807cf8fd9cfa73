"""Thread fan-out for row slabs inside one shard.

:func:`thread_map` is the substrate behind :func:`repro.kernels.map_row_slabs`
and the :class:`~repro.kernels.ExecutionPolicy` ``row_threads`` knob.  The
batched kernels are numpy reductions and fused elementwise passes, which
release the GIL, so independent row slabs of a batch scale across cores
with no pickling or copying.  It is the only local parallelism: a batch's
shards run one after another in-process
(:class:`~repro.engine.plan.LocalExecutor`) or on remote workers.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

__all__ = ["thread_map"]


def thread_map(func: Callable, tasks: Sequence):
    """Apply ``func(task)`` to every task, one thread per task.

    This seam exists for GIL-releasing numpy work over *views of shared
    arrays* (row slabs of a batch), where determinism comes from the tasks
    being independent.  The calling thread is one of the threads: it
    starts one thread per task but the last, in task order, then runs the
    last task itself.  The first exception any task raises is re-raised
    here once every thread has finished.

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
