"""Remote-executor smoke tests against real ``repro-worker`` processes.

Marked ``service``: skip locally with ``-m "not service"``.  Workers come
from the ``REPRO_WORKER_ADDR`` environment variable when the harness (CI)
provides a loopback worker, else each test spawns its own subprocesses via
``python -m repro.service.worker``.

``test_twelve_qubit_all_targets_bit_identical`` is the ISSUE acceptance
criterion: a 12-address-qubit (N = 4096) all-targets batch dispatched
through :class:`RemoteExecutor` over loopback must return results
bit-identical to the in-process sharded path.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import RemoteExecutor

pytestmark = pytest.mark.service

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


class SpawnedWorker:
    """A ``repro-worker`` subprocess on a free loopback port."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()  # "repro-worker ready on host:port"
        if "ready on" not in line:
            self.close()
            raise RuntimeError(f"worker failed to start: {line!r}")
        host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
        self.address = (host, int(port))

    def close(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@pytest.fixture()
def worker_addresses():
    external = os.environ.get("REPRO_WORKER_ADDR")
    if external:
        yield [external]
        return
    workers = []
    try:
        for _ in range(2):
            workers.append(SpawnedWorker())
        yield [w.address for w in workers]
    finally:
        for w in workers:
            w.close()


class TestRemoteSmoke:
    def test_small_batch_round_trip(self, worker_addresses):
        engine = SearchEngine(executor=RemoteExecutor(worker_addresses))
        report = engine.search_batch(
            SearchRequest(n_items=64, n_blocks=4,
                          shards=ShardPolicy(max_rows=16))
        )
        assert report.n_rows == 64 and report.all_correct
        assert report.execution["executor"] == "remote"

    def test_twelve_qubit_all_targets_bit_identical(self, worker_addresses):
        """N = 4096 (12 address qubits), every target, multiple shards:
        remote results must equal the in-process sharded path bit for bit."""
        request = SearchRequest(
            n_items=4096, n_blocks=4, method="grk", backend="kernels",
            shards=ShardPolicy(max_rows=128),  # 32 shards
        )
        local = SearchEngine().search_batch(request)
        assert local.execution["n_shards"] > 1

        remote_engine = SearchEngine(executor=RemoteExecutor(worker_addresses))
        remote = remote_engine.search_batch(request)

        assert np.array_equal(local.success_probabilities,
                              remote.success_probabilities)
        assert np.array_equal(local.block_guesses, remote.block_guesses)
        assert np.array_equal(local.queries, remote.queries)
        assert remote.all_correct

    @pytest.mark.parametrize("method,options,seed", [
        ("grover-full", {}, None),
        ("grover-full", {"exact": True}, None),
        ("naive-blocks", {}, 42),
    ], ids=["grover-full", "grover-full-exact", "naive-blocks-seeded"])
    def test_baseline_batches_bit_identical(self, worker_addresses, method,
                                            options, seed):
        """The baselines ship the same plain-data shards as grk: remote
        rows equal the in-process rows bit for bit."""
        request = SearchRequest(
            n_items=1024, n_blocks=4, method=method, options=options,
            rng=seed, shards=ShardPolicy(max_rows=100),
        )
        local = SearchEngine().search_batch(request)
        remote = SearchEngine(
            executor=RemoteExecutor(worker_addresses)
        ).search_batch(request)
        assert remote.execution["executor"] == "remote"
        assert remote.execution["n_shards"] > 1
        assert np.array_equal(local.success_probabilities,
                              remote.success_probabilities)
        assert np.array_equal(local.block_guesses, remote.block_guesses)
        assert np.array_equal(local.queries, remote.queries)

    def test_worker_honours_execution_policy(self, worker_addresses):
        """The ExecutionPolicy rides the wire (protocol v2): a remote
        complex64/threaded batch returns bit-identically to the local run
        under the *same* policy — the worker really executed at that dtype,
        it did not fall back to complex128."""
        request = SearchRequest(
            n_items=256, n_blocks=4,
            policy=ExecutionPolicy(dtype="complex64", row_threads=2),
            shards=ShardPolicy(max_rows=64),
        )
        local = SearchEngine().search_batch(request)
        remote = SearchEngine(
            executor=RemoteExecutor(worker_addresses)
        ).search_batch(request)
        assert np.array_equal(local.success_probabilities,
                              remote.success_probabilities)
        # And the fast dtype genuinely differs from the complex128 result.
        full = SearchEngine().search_batch(request.replace(policy=ExecutionPolicy()))
        assert not np.array_equal(full.success_probabilities,
                                  remote.success_probabilities)
        assert remote.execution["dtype"] == "complex64"


def test_spawned_worker_close_releases_its_pipe():
    worker = SpawnedWorker()
    worker.close()
    assert worker.proc.returncode is not None
    assert worker.proc.stdout.closed
