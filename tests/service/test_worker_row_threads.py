"""A ``repro-worker`` sizes ``row_threads="auto"`` by its own cpus.

The driver ships ``"auto"`` inside each shard, and the worker resolves it
where the rows run.  A worker pinned to one cpu therefore runs a shard
that this (wider) process would run on two threads on one, and the
batch's ``execution`` record says so.

Marked ``service``: it spawns a worker subprocess on loopback.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.engine import SearchEngine, SearchRequest
from repro.kernels.policy import available_cpus
from repro.service.executor import RemoteExecutor

pytestmark = [
    pytest.mark.service,
    pytest.mark.skipif(available_cpus() < 2,
                       reason="needs a host with two or more cpus"),
]

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


@pytest.fixture()
def one_cpu_worker():
    """A ``repro-worker`` subprocess pinned to one of this process's cpus."""
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.service.worker", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    ) as proc:
        try:
            line = proc.stdout.readline()  # "repro-worker ready on host:port"
            assert "ready on" in line, line
            host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
            yield host, int(port)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


def test_worker_resolves_auto_for_its_own_cpus(one_cpu_worker):
    request = SearchRequest(n_items=1024, n_blocks=4)
    local = SearchEngine().search_batch(request)
    # This process sees two or more cpus: the all-targets batch threads.
    assert local.execution["row_threads"] >= 2
    remote = SearchEngine(
        executor=RemoteExecutor([one_cpu_worker])
    ).search_batch(request)
    assert remote.execution["executor"] == "remote"
    assert remote.execution["row_threads"] == 1
    np.testing.assert_array_equal(remote.success_probabilities,
                                  local.success_probabilities)
    np.testing.assert_array_equal(remote.block_guesses, local.block_guesses)
