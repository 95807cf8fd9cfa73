"""Kernel backend registry, calibration, and the cross-backend contracts.

The load-bearing promise of :mod:`repro.kernels.backends` is the identity
matrix: at complex128 every backend, shard boundary, and executor produces
**bit-identical** results (rows never interact and every backend replays the
reference float op sequence); at complex64 backends agree within
:data:`~repro.kernels.COMPLEX64_SUCCESS_ATOL`.  This file pins that matrix
plus the machinery around it — registry semantics, the ``"auto"``
calibration probe, the planner's auto resolution (including the
row_threads small-slab regression fix), and the shard-wire backend gate.
"""

import importlib.util
import json

import numpy as np
import pytest

from repro.core import plan_schedule
from repro.core.batch import execute_batch_rows
from repro.core.simplified import (
    execute_simplified_batch_rows,
    plan_simplified_schedule,
)
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.engine.plan import plan_shards
from repro.kernels import (
    AUTO_ROW_THREADS_MIN_SLAB_BYTES,
    COMPLEX64_SUCCESS_ATOL,
    ExecutionPolicy,
    auto_row_threads,
    available_kernel_backends,
    describe_kernel_backends,
    get_kernel_backend,
    kernel_backend_names,
    probe_fastest_backend,
    register_kernel_backend,
    resolve_kernel_backend,
    validate_kernel_backend_name,
)
from repro.kernels import backends as backends_mod
from repro.kernels.backends import FusedBackend, KernelBackend, NumpyBackend

HAS_NUMBA = importlib.util.find_spec("numba") is not None

#: The accelerated tiers the identity matrix sweeps against the numpy
#: reference.  fused is pure numpy and always testable; numba rides along
#: whenever the optional dependency is installed (the CI optional-deps leg).
ACCEL_BACKENDS = [
    pytest.param("fused"),
    pytest.param(
        "numba",
        marks=[
            pytest.mark.numba,
            pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed"),
        ],
    ),
]


# --------------------------------------------------------------- registry


class TestRegistry:
    def test_registry_names_in_order_without_auto(self):
        names = kernel_backend_names()
        assert names[:2] == ("numpy", "fused")
        assert "numba" in names
        assert "auto" not in names

    def test_numpy_and_fused_always_available(self):
        available = available_kernel_backends()
        assert "numpy" in available
        assert "fused" in available

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="auto, numpy, fused, numba"):
            get_kernel_backend("bogus")

    def test_validate_accepts_auto_and_registered(self):
        assert validate_kernel_backend_name("auto") == "auto"
        assert validate_kernel_backend_name("fused") == "fused"
        with pytest.raises(ValueError, match="unknown kernel backend"):
            validate_kernel_backend_name("bogus")

    def test_resolve_returns_executable_backend(self):
        assert isinstance(resolve_kernel_backend("numpy"), NumpyBackend)
        assert isinstance(resolve_kernel_backend("fused"), FusedBackend)

    def test_resolve_rejects_unavailable_with_reason(self, monkeypatch):
        class Absent(NumpyBackend):
            name = "absent"

            def available(self):
                return False

            def why_unavailable(self):
                return "not installed on this host"

        monkeypatch.setitem(backends_mod._REGISTRY, "absent", Absent())
        with pytest.raises(RuntimeError,
                           match="'absent' is not installed on this host"):
            resolve_kernel_backend("absent")

    def test_numba_unavailability_names_the_fix(self):
        numba = get_kernel_backend("numba")
        if HAS_NUMBA:
            assert numba.available()
        else:
            assert "pip install numba" in numba.why_unavailable()

    def test_register_rejects_duplicates_and_sentinels(self):
        class Dupe(NumpyBackend):
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_kernel_backend(Dupe())

        class Sentinel(NumpyBackend):
            name = "auto"

        with pytest.raises(ValueError, match="sentinel"):
            register_kernel_backend(Sentinel())

        class Nameless(NumpyBackend):
            name = ""

        with pytest.raises(ValueError, match="non-empty name"):
            register_kernel_backend(Nameless())

    def test_register_and_replace_roundtrip(self):
        class Custom(NumpyBackend):
            name = "test-custom"
            description = "registry test double"

        try:
            backend = register_kernel_backend(Custom())
            assert get_kernel_backend("test-custom") is backend
            assert "test-custom" in kernel_backend_names()
            assert "test-custom" in available_kernel_backends()
            replacement = Custom()
            with pytest.raises(ValueError, match="already registered"):
                register_kernel_backend(replacement)
            register_kernel_backend(replacement, replace=True)
            assert get_kernel_backend("test-custom") is replacement
        finally:
            backends_mod._REGISTRY.pop("test-custom", None)

    def test_describe_table_shape(self):
        rows = describe_kernel_backends()
        assert [r["name"] for r in rows] == list(kernel_backend_names())
        for row in rows:
            assert set(row) >= {"name", "description", "available"}
            if row["available"]:
                assert "why_unavailable" not in row
            else:
                assert row["why_unavailable"]


# -------------------------------------------------------- execution policy


class TestExecutionPolicyBackend:
    def test_backend_name_validated_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            ExecutionPolicy(backend="bogus")

    def test_auto_is_a_valid_policy_backend(self):
        assert ExecutionPolicy(backend="auto").backend == "auto"

    def test_is_default_excludes_accelerated_backends(self):
        assert ExecutionPolicy().is_default
        assert not ExecutionPolicy(backend="fused").is_default

    def test_describe_carries_backend(self):
        assert ExecutionPolicy(backend="fused").describe() == {
            "dtype": "complex128",
            "row_threads": 1,
            "backend": "fused",
        }


# ------------------------------------------------- calibration / auto probe


@pytest.fixture
def calibration_env(tmp_path, monkeypatch):
    """Point the calibration file at a tmp path and clear the probe cache."""
    path = tmp_path / "kernel-calibration.json"
    monkeypatch.setenv(backends_mod.CALIBRATION_FILE_ENV, str(path))
    monkeypatch.setattr(backends_mod, "_PROBE_CACHE", None)
    return path


class TestCalibration:
    def test_run_calibration_record_and_persistence(self, calibration_env):
        record = backends_mod.run_calibration(n_rows=8, n_items=64, repeats=1)
        assert record["fastest"] in available_kernel_backends()
        assert set(record["timings_ms"]) == set(available_kernel_backends())
        assert record["probe"] == {"n_rows": 8, "n_items": 64, "repeats": 1}
        assert calibration_env.exists()
        assert backends_mod.load_calibration()["fastest"] == record["fastest"]

    def test_probe_prefers_cache_then_file(self, calibration_env):
        calibration_env.write_text(json.dumps({"fastest": "numpy"}))
        assert probe_fastest_backend() == "numpy"
        # A cached winner short-circuits both the file and the probe.
        backends_mod._PROBE_CACHE = "fused"
        assert probe_fastest_backend() == "fused"

    def test_load_calibration_rejects_garbage(self, calibration_env):
        assert backends_mod.load_calibration() is None  # absent
        calibration_env.write_text("not json{")
        assert backends_mod.load_calibration() is None
        calibration_env.write_text(json.dumps({"fastest": "unregistered"}))
        assert backends_mod.load_calibration() is None

    def test_no_persist_leaves_no_file(self, calibration_env):
        backends_mod.run_calibration(
            persist=False, n_rows=4, n_items=64, repeats=1
        )
        assert not calibration_env.exists()

    def test_policy_auto_resolves_to_concrete_backend(self, calibration_env):
        calibration_env.write_text(json.dumps({"fastest": "fused"}))
        resolved = ExecutionPolicy(backend="auto").resolve()
        assert resolved.backend == "fused"

    def test_plan_shards_pins_both_autos(self, calibration_env):
        calibration_env.write_text(json.dumps({"fastest": "fused"}))
        plan = plan_shards(
            1024, 1024, "kernels",
            execution=ExecutionPolicy(backend="auto", row_threads="auto"),
        )
        # Shards ship concrete choices, never sentinels: every worker of a
        # batch must run the same kernels at the same width.
        assert plan.policy.backend == "fused"
        assert isinstance(plan.policy.row_threads, int)


# ------------------------------------- row_threads small-slab regression


class TestRowThreadsRegression:
    """The bench ledger pinned a 0.884x slowdown threading an 8 MiB slab;
    ``"auto"`` must stay serial below the calibrated threshold."""

    def test_auto_stays_serial_below_slab_threshold(self):
        assert auto_row_threads(
            slab_bytes=AUTO_ROW_THREADS_MIN_SLAB_BYTES - 1
        ) == 1

    def test_auto_above_threshold_matches_contextless_default(self):
        assert auto_row_threads(
            slab_bytes=4 * AUTO_ROW_THREADS_MIN_SLAB_BYTES
        ) == auto_row_threads()

    def test_bench_workload_resolves_serial(self):
        # The standard bench workload (B=1024 rows of a 2^10-item state,
        # 8 MiB resident) is exactly the shape the regression was pinned on.
        policy = ExecutionPolicy(row_threads="auto")
        assert policy.threads_for_slab(1024, 1024) == 1
        plan = plan_shards(1024, 1024, "kernels", execution=policy)
        assert plan.policy.row_threads == 1

    def test_internally_parallel_backends_stay_serial_outside(self):
        class InternallyParallel(NumpyBackend):
            name = "test-prange"
            internal_parallelism = True

        try:
            register_kernel_backend(InternallyParallel())
            # Even a huge slab must not thread the outer seam when the
            # backend fans rows out itself (numba's prange).
            assert auto_row_threads(
                backend="test-prange",
                slab_bytes=16 * AUTO_ROW_THREADS_MIN_SLAB_BYTES,
            ) == 1
        finally:
            backends_mod._REGISTRY.pop("test-prange", None)

    def test_explicit_thread_counts_always_honoured(self):
        assert ExecutionPolicy(row_threads=4).threads_for_slab(8, 64) == 4


# ------------------------------------------------------- identity matrix


#: Engine-level identity geometries: a power of two and a non-power-of-two
#: N (the latter exercises the divide-then-double diffusion scaling).
ENGINE_GEOMETRIES = ((128, 4), (96, 4))

#: Every method whose batch runs the program sweep.
GRK_FAMILY = ("grk", "grk-simplified", "grk-sure-success", "grk-cwb")


def _grk_run(backend_name, dtype, max_rows=None):
    schedule = plan_schedule(256, 4)
    targets = np.arange(256, dtype=np.intp)
    policy = ExecutionPolicy(dtype=dtype, backend=backend_name)
    if max_rows is None:
        return execute_batch_rows(schedule.program, targets, "kernels", policy)
    success = []
    guesses = []
    for start in range(0, targets.size, max_rows):
        s, g = execute_batch_rows(
            schedule.program, targets[start:start + max_rows], "kernels", policy
        )
        success.append(s)
        guesses.append(g)
    return np.concatenate(success), np.concatenate(guesses)


def _simplified_run(backend_name, dtype):
    schedule = plan_simplified_schedule(256, 4)
    targets = np.arange(256, dtype=np.intp)
    policy = ExecutionPolicy(dtype=dtype, backend=backend_name)
    return execute_simplified_batch_rows(schedule, targets, policy)


class TestBackendIdentityMatrix:
    """backend x dtype x shard-count x method: c128 bit-identical to the
    numpy reference, c64 within the documented tolerance."""

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    @pytest.mark.parametrize("max_rows", [None, 7, 64])
    def test_grk_complex128_bit_identical(self, backend, max_rows):
        ref = _grk_run("numpy", "complex128")
        got = _grk_run(backend, "complex128", max_rows=max_rows)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    @pytest.mark.parametrize("max_rows", [None, 7])
    def test_grk_complex64_within_tolerance(self, backend, max_rows):
        ref = _grk_run("numpy", "complex128")
        got = _grk_run(backend, "complex64", max_rows=max_rows)
        np.testing.assert_allclose(
            got[0], ref[0], atol=COMPLEX64_SUCCESS_ATOL, rtol=0
        )
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    def test_simplified_complex128_bit_identical(self, backend):
        ref = _simplified_run("numpy", "complex128")
        got = _simplified_run(backend, "complex128")
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    def test_simplified_complex64_within_tolerance(self, backend):
        ref = _simplified_run("numpy", "complex128")
        got = _simplified_run(backend, "complex64")
        np.testing.assert_allclose(
            got[0], ref[0], atol=COMPLEX64_SUCCESS_ATOL, rtol=0
        )
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    @pytest.mark.parametrize("method", GRK_FAMILY)
    @pytest.mark.parametrize("max_rows", [None, 13])
    def test_engine_end_to_end_bit_identical(self, backend, method, max_rows):
        # Through the full facade: planner, shard loop, report assembly.
        engine = SearchEngine()
        for n_items, n_blocks in ENGINE_GEOMETRIES:
            reference = engine.search_batch(
                SearchRequest(n_items=n_items, n_blocks=n_blocks, method=method)
            )
            report = engine.search_batch(
                SearchRequest(
                    n_items=n_items, n_blocks=n_blocks, method=method,
                    shards=(
                        ShardPolicy(max_rows=max_rows) if max_rows
                        else ShardPolicy()
                    ),
                    policy=ExecutionPolicy(backend=backend),
                )
            )
            np.testing.assert_array_equal(
                report.success_probabilities, reference.success_probabilities
            )
            np.testing.assert_array_equal(
                report.block_guesses, reference.block_guesses
            )
            assert report.execution["backend"] == backend

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    def test_engine_row_threads_bit_identical(self, backend):
        engine = SearchEngine()
        for method in ("grk", "grk-sure-success", "grk-cwb"):
            for n_items, n_blocks in ENGINE_GEOMETRIES:
                reference = engine.search_batch(
                    SearchRequest(
                        n_items=n_items, n_blocks=n_blocks, method=method
                    )
                )
                report = engine.search_batch(
                    SearchRequest(
                        n_items=n_items, n_blocks=n_blocks, method=method,
                        policy=ExecutionPolicy(backend=backend, row_threads=3),
                    )
                )
                np.testing.assert_array_equal(
                    report.success_probabilities,
                    reference.success_probabilities,
                )

    @pytest.mark.parametrize("backend", ["numpy", *ACCEL_BACKENDS])
    def test_row_block_size_is_invisible(self, backend, monkeypatch):
        # The sweep walks rows in cache-sized blocks; rows never interact,
        # so 7-row blocks must reproduce the default single block exactly.
        engine = SearchEngine()
        requests = [
            SearchRequest(
                n_items=96, n_blocks=4, method=method,
                policy=ExecutionPolicy(backend=backend),
            )
            for method in GRK_FAMILY
        ]
        references = [engine.search_batch(r) for r in requests]
        monkeypatch.setattr(KernelBackend, "ROW_BLOCK_BYTES", 7 * 96 * 8)
        for request, reference in zip(requests, references):
            report = engine.search_batch(request)
            np.testing.assert_array_equal(
                report.success_probabilities, reference.success_probabilities
            )
            np.testing.assert_array_equal(
                report.block_guesses, reference.block_guesses
            )


# ------------------------------------------- fused vs composed properties


class TestFusedProperties:
    """The fused kernel against the composed reference on random slabs —
    shapes, strides, and both precisions the blocking logic must survive."""

    SHAPES = [(1, 64), (3, 96), (5, 128), (8, 48), (7, 1000)]

    @pytest.mark.parametrize("n_blocks", [None, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_iteration_float64_bit_identical(self, shape, n_blocks):
        rng = np.random.default_rng(hash(shape) % 2**32)
        b, n = shape
        if n_blocks is not None and n % n_blocks:
            pytest.skip("geometry must divide")
        amps = rng.standard_normal(shape)
        targets = rng.integers(0, n, size=b)
        ref, got = amps.copy(), amps.copy()
        NumpyBackend().grk_iteration_rows(ref, targets, n_blocks=n_blocks)
        FusedBackend().grk_iteration_rows(got, targets, n_blocks=n_blocks)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_iteration_float32_close(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        b, n = shape
        amps = rng.standard_normal(shape).astype(np.float32)
        targets = rng.integers(0, n, size=b)
        ref, got = amps.copy(), amps.copy()
        NumpyBackend().grk_iteration_rows(ref, targets)
        FusedBackend().grk_iteration_rows(got, targets)
        # float32 summation order differs inside the fused pass; the drift
        # per iteration is a few ulps, far inside the documented envelope.
        np.testing.assert_allclose(got, ref, atol=1e-5, rtol=1e-5)

    def test_iteration_on_noncontiguous_view(self):
        rng = np.random.default_rng(11)
        amps = rng.standard_normal((12, 96))
        view_ref = amps.copy()[::2]
        view_got = amps.copy()[::2]
        targets = rng.integers(0, 96, size=6)
        NumpyBackend().grk_iteration_rows(view_ref, targets, n_blocks=4)
        FusedBackend().grk_iteration_rows(view_got, targets, n_blocks=4)
        np.testing.assert_array_equal(view_got, view_ref)

    def test_full_sweep_float64_bit_identical(self):
        schedule = plan_schedule(512, 8)
        rng = np.random.default_rng(5)
        targets = rng.integers(0, 512, size=24).astype(np.intp)
        policy = ExecutionPolicy()

        ref = NumpyBackend().program_sweep_rows(
            schedule.program, targets, policy
        )
        got = FusedBackend().program_sweep_rows(
            schedule.program, targets, policy
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


# -------------------------------------------------- shard wire / routing


def _echo_task(task, rng):
    return ("ran", task)


class TestRequiredKernelBackend:
    def test_no_tasks_or_foreign_payloads_mean_numpy(self):
        from repro.service.executor import required_kernel_backend

        assert required_kernel_backend([]) == "numpy"
        assert required_kernel_backend(["opaque"]) == "numpy"
        assert required_kernel_backend([("a", "b")]) == "numpy"

    def test_policy_bearing_tasks_report_their_backend(self):
        from repro.service.executor import required_kernel_backend

        schedule = plan_schedule(64, 4)
        targets = np.arange(4, dtype=np.intp)
        grk_task = (schedule, targets, "kernels",
                    ExecutionPolicy(backend="fused"))
        assert required_kernel_backend([grk_task]) == "fused"
        simplified_task = (schedule, targets, ExecutionPolicy())
        assert required_kernel_backend([simplified_task]) == "numpy"


class TestShardMessageBackendKey:
    def test_non_numpy_backend_rides_in_meta(self):
        from repro.service.executor import RemoteExecutor

        frame = RemoteExecutor._shard_message(
            _echo_task, "t", None, None, kernel_backend="fused"
        )
        assert frame[4]["backend"] == "fused"

    def test_numpy_ships_no_key_at_all(self):
        # An absent key means numpy, so the baseline ships no key.
        from repro.service.executor import RemoteExecutor

        for backend in (None, "numpy"):
            frame = RemoteExecutor._shard_message(
                _echo_task, "t", None, None, kernel_backend=backend
            )
            assert "backend" not in frame[4]


class TestWorkerBackendGate:
    def test_legacy_and_absent_key_frames_execute(self):
        # A meta dict without the backend key must run on a numpy-only
        # worker.
        from repro.service.worker import WorkerServer

        with WorkerServer(backends=("numpy",)) as worker:
            reply = worker._dispatch_shard(
                ("shard", _echo_task, "t2", None, {})
            )
            assert reply == ("result", ("ran", "t2"))

    def test_unadvertised_backend_requeues(self):
        from repro.service.worker import WorkerServer

        with WorkerServer(backends=("numpy",)) as worker:
            reply = worker._dispatch_shard(
                ("shard", _echo_task, "t", None, {"backend": "numba"})
            )
            assert reply[0] == "unavailable"
            assert "numba" in reply[1] and "numpy" in reply[1]
            assert worker.shards_served == 0

    def test_advertised_backend_executes(self):
        from repro.service.worker import WorkerServer

        with WorkerServer(backends=("numpy", "fused")) as worker:
            reply = worker._dispatch_shard(
                ("shard", _echo_task, "t", None, {"backend": "fused"})
            )
            assert reply == ("result", ("ran", "t"))

    def test_registration_meta_advertises_backends(self, calibration_env):
        from repro.service.worker import worker_registration_meta

        meta = worker_registration_meta()
        assert meta["backends"] == list(available_kernel_backends())
        assert "calibrated" not in meta
        calibration_env.write_text(json.dumps({"fastest": "fused"}))
        assert worker_registration_meta()["calibrated"] == "fused"
