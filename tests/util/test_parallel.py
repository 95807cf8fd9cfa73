"""Unit tests for repro.util.parallel: the row-slab thread seam."""

import threading

import pytest

import repro.util.parallel as parallel
from repro.util.parallel import thread_map


class TestThreadMap:
    def test_only_thread_map_is_exported(self):
        assert parallel.__all__ == ["thread_map"]

    def test_results_come_back_in_task_order(self):
        # Every task waits for the others, so all four run at once; the
        # results still follow the tasks.
        barrier = threading.Barrier(4)

        def task(i):
            barrier.wait(timeout=10)
            return i * i

        assert thread_map(task, [3, 2, 1, 0]) == [9, 4, 1, 0]

    def test_the_calling_thread_runs_the_last_task(self):
        caller = threading.get_ident()
        ran_on = thread_map(lambda _: threading.get_ident(), range(3))
        assert ran_on[-1] == caller
        assert caller not in ran_on[:-1]
        assert thread_map(lambda _: threading.get_ident(), [0]) == [caller]

    def test_first_exception_is_raised_after_every_thread_joins(self):
        finished = []
        release = threading.Event()

        def task(i):
            if i == 0:
                raise ValueError("task 0")
            if i == 1:
                # Outlives the failure: thread_map must still wait for it.
                release.wait(timeout=10)
            finished.append(i)
            return i

        timer = threading.Timer(0.05, release.set)
        timer.start()
        try:
            with pytest.raises(ValueError, match="task 0"):
                thread_map(task, [0, 1, 2])
        finally:
            timer.cancel()
        assert sorted(finished) == [1, 2]

    def test_empty_input(self):
        calls = []
        assert thread_map(calls.append, []) == []
        assert calls == []
