"""Pluggable kernel backends: one registry, one program sweep.

Every simulator batch of the GRK family bottoms out in
:meth:`KernelBackend.program_sweep_rows`: one target per row, one
:class:`~repro.core.program.PartialSearchProgram` (global and block
iterations, optional phases, optional Step 3) for all of them.  The sweep
is memory-bandwidth bound, so the base implementation walks the rows in
blocks of about :attr:`KernelBackend.ROW_BLOCK_BYTES` that each allocate
their own state and stay cache-resident across the whole program.  Blocks
run at the policy's real dtype until their first phased stage and at its
complex dtype from there on.  The *implementation* of the per-iteration
math is a pluggable :class:`KernelBackend` chosen by
``ExecutionPolicy(backend=...)`` exactly like ``dtype`` — resolved once by
the planner, shipped in shard payloads, honoured by local and remote
workers alike.

Registered backends:

``numpy``
    The composed primitives (:mod:`repro.kernels.batched`) inside the
    shared row-blocked sweep.  This is the **bit-identity reference**:
    every other backend's complex128 results must match it bit for bit.
``fused``
    Overrides only the real-dtype iteration: the oracle flip and the
    diffusion mean run in fewer passes (``np.add.reduce`` with exact
    power-of-two scaling), the identical float ops in the identical
    per-row order, so complex128 stays bit-identical.  The float32 path
    (tolerance contract, not bit-identity) routes the reductions through
    ``np.einsum``.
``numba``
    Optional ``@njit(parallel=True)`` tier, registered only as *available*
    when numba imports (``importlib.util.find_spec`` — never a hard
    dependency).  Its JIT kernel runs the unphased programs (grk and
    grk-simplified); phased programs take the shared sweep.  Row loops
    escape the GIL and fan out via ``prange``; the float64 reduction
    replicates numpy's pairwise summation exactly, so complex128 results
    remain bit-identical to the reference.
``cupy``
    Explicit stub: registered so the name is reserved and the error is
    clear, never available in this build.

Selection contract: ``ExecutionPolicy(backend="auto")`` resolves to the
fastest *available* backend via a tiny cached micro-probe
(:func:`probe_fastest_backend`, persisted per host by ``repro calibrate`` —
the seed of the ROADMAP's calibrated cost model).  On the wire the resolved
name rides shard meta as **compatible growth**: an absent key means
``numpy``, so no protocol version bump (see
:mod:`repro.service.protocol`).
"""

from __future__ import annotations

import importlib.util
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.kernels import batched
from repro.kernels.policy import ExecutionPolicy
from repro.kernels.primitives import invert_about_mean, invert_about_mean_blocks

__all__ = [
    "KERNEL_BACKEND_AUTO",
    "DEFAULT_KERNEL_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "FusedBackend",
    "NumbaBackend",
    "CupyBackend",
    "register_kernel_backend",
    "get_kernel_backend",
    "resolve_kernel_backend",
    "kernel_backend_names",
    "available_kernel_backends",
    "validate_kernel_backend_name",
    "describe_kernel_backends",
    "probe_fastest_backend",
    "run_calibration",
    "load_calibration",
    "calibration_path",
]

#: Sentinel ``ExecutionPolicy.backend`` value: pick the fastest available
#: backend on this host (micro-probe, cached and persisted).
KERNEL_BACKEND_AUTO = "auto"

#: The backend every absent/legacy selection means — the seed implementation.
DEFAULT_KERNEL_BACKEND = "numpy"


class KernelBackend:
    """One implementation of the batched row math.

    The base class *is* the reference numpy semantics: the row-blocked
    :meth:`program_sweep_rows` composed of the batched primitives.
    Subclasses override what they accelerate — the real-dtype
    :meth:`grk_iteration_rows`, or the whole sweep for the programs a
    compiled kernel covers.  Complex128 results must stay bit-identical to
    :class:`NumpyBackend` for every method, executor, shard boundary, and
    thread count; complex64 results must stay within
    :data:`~repro.kernels.COMPLEX64_SUCCESS_ATOL` of the complex128
    reference.
    """

    #: Registry key (``ExecutionPolicy.backend`` value, wire meta value).
    name: str = ""
    #: One-line description for ``repro methods`` / ``GET /v1/methods``.
    description: str = ""
    #: True when the backend parallelises rows internally (e.g. numba's
    #: ``prange``) — the outer ``row_threads`` seam then stays at 1.
    internal_parallelism: bool = False

    # ------------------------------------------------------- availability
    def available(self) -> bool:
        """Can this backend execute on this host right now?"""
        return True

    def why_unavailable(self) -> str | None:
        """Human-readable reason :meth:`available` is False (else None)."""
        return None

    def require(self) -> "KernelBackend":
        """This backend, or a clear error when it cannot run here."""
        if not self.available():
            reason = self.why_unavailable() or "unavailable on this host"
            raise RuntimeError(f"kernel backend {self.name!r} is {reason}")
        return self

    def describe(self) -> dict:
        """Registry-table row for operator surfaces."""
        info = {
            "name": self.name,
            "description": self.description,
            "available": self.available(),
        }
        if not info["available"]:
            info["why_unavailable"] = self.why_unavailable()
        return info

    # ------------------------------------------------ batched primitives
    # Thin delegates to repro.kernels.batched: the composable per-row ops
    # the sweep is made of.
    def phase_flip_rows(self, amps, targets, rows=None):
        return batched.phase_flip_rows(amps, targets, rows)

    def moveout_rows(self, view, targets, rows=None):
        return batched.moveout_rows(view, targets, rows)

    def moveout_controlled_diffusion_rows(
        self, amps, targets, *, phase=np.pi, mean_out=None
    ):
        return batched.moveout_controlled_diffusion_rows(
            amps, targets, phase=phase, mean_out=mean_out
        )

    def block_measurement_rows(self, amps, n_blocks, *, parked=None, targets=None):
        return batched.block_measurement_rows(
            amps, n_blocks, parked=parked, targets=targets
        )

    def grk_iteration_rows(self, amps, targets, *, n_blocks=None, mean_out=None):
        """One fused oracle + diffusion pass: flip then invert about the
        mean (global when ``n_blocks`` is None, block-local otherwise).

        The reference composition — subclasses fuse the two traversals.
        """
        self.phase_flip_rows(amps, targets)
        if n_blocks is None:
            invert_about_mean(amps, mean_out=mean_out)
        else:
            invert_about_mean_blocks(amps, n_blocks, mean_out=mean_out)
        return amps

    # ------------------------------------------------------ program sweep
    #: Target bytes of real state per row block: about L2-sized, so a block
    #: stays cache-resident across the whole program.  128 rows of float64
    #: (256 of float32) at N=1024.
    ROW_BLOCK_BYTES = 1 << 20

    def program_sweep_rows(self, program, targets, policy):
        """Run *program* once per row, row ``i`` searching for ``targets[i]``.

        *program* is a :class:`~repro.core.program.PartialSearchProgram`,
        read by attribute only; *policy* is the
        :class:`~repro.kernels.ExecutionPolicy` whose dtypes the state
        takes.  Rows are walked in blocks of about :attr:`ROW_BLOCK_BYTES`
        that each own their state, so every iteration re-reads cached lines
        instead of streaming a whole shard from memory; rows never
        interact, so the block size is invisible in the results.

        Returns ``(success_probabilities, block_guesses)``: float64 and
        intp arrays of ``len(targets)``.
        """
        targets = np.asarray(targets, dtype=np.intp)
        n_rows = targets.size
        row_bytes = program.n_items * policy.real_dtype.itemsize
        block = max(1, self.ROW_BLOCK_BYTES // row_bytes)
        success = np.empty(n_rows, dtype=np.float64)
        guesses = np.empty(n_rows, dtype=np.intp)
        for start in range(0, n_rows, block):
            rows = slice(start, start + block)
            success[rows], guesses[rows] = self._sweep_block(
                program, targets[rows], policy
            )
        return success, guesses

    def _sweep_block(self, program, targets, policy):
        """One cache-resident row block through the whole program."""
        n_rows, n_blocks = targets.size, program.n_blocks
        real = policy.real_dtype
        amps = batched.uniform_batch(n_rows, program.n_items, dtype=real)
        # One mean buffer per diffusion flavour, reused by every real
        # iteration of the block (the hot loop must not churn the
        # allocator).
        mean_buf = np.empty((n_rows, 1), dtype=real)
        block_mean_buf = np.empty((n_rows, n_blocks, 1), dtype=real)
        for stage in program.stages:
            if stage.count == 0:
                continue
            local = n_blocks if stage.kind == "block" else None
            if amps.dtype == real and not stage.phased:
                buf = mean_buf if local is None else block_mean_buf
                for _ in range(stage.count):
                    self.grk_iteration_rows(
                        amps, targets, n_blocks=local, mean_out=buf
                    )
                continue
            # The first phased stage promotes the block for good.
            amps = amps.astype(policy.complex_dtype, copy=False)
            for _ in range(stage.count):
                batched.phased_iteration_rows(
                    amps, targets, n_blocks=local,
                    oracle_phase=stage.oracle_phase,
                    diffusion_phase=stage.diffusion_phase,
                )
        parked = None
        if program.final_phase is not None:
            if program.final_phase != np.pi:
                amps = amps.astype(policy.complex_dtype, copy=False)
            parked = self.moveout_controlled_diffusion_rows(
                amps, targets, phase=program.final_phase,
                mean_out=mean_buf if amps.dtype == real else None,
            )
        block_probs = self.block_measurement_rows(
            amps, n_blocks, parked=parked, targets=targets
        )
        return batched.success_and_guesses(
            block_probs, targets, program.block_size
        )


class NumpyBackend(KernelBackend):
    """The seed implementation — composed primitives, the bit reference."""

    name = "numpy"
    description = "composed numpy primitives (seed implementation, bit reference)"


def _make_scale(n: int, dtype: np.dtype):
    """An in-place ``buf -> 2 * buf / n`` bit-identical to the reference.

    The reference computes ``mean = sum / n`` then doubles it.  When ``n``
    is a power of two both division and doubling are *exact*, so the single
    multiply by the precomputed ``2/n`` scalar is bitwise equivalent and
    saves a pass; otherwise the divide-then-multiply order is replicated.
    """
    if n & (n - 1) == 0:
        factor = dtype.type(2.0) / dtype.type(n)

        def scale(buf):
            np.multiply(buf, factor, out=buf)
    else:
        nn = dtype.type(n)
        two = dtype.type(2.0)

        def scale(buf):
            np.divide(buf, nn, out=buf)
            np.multiply(buf, two, out=buf)

    return scale


class FusedBackend(KernelBackend):
    """The shared sweep with a fused real-dtype iteration, in pure numpy.

    Each float64 row performs the *identical* op sequence as the numpy
    reference (pairwise ``np.add.reduce`` means with exact power-of-two
    scaling), so complex128 output is bit-identical.  The float32 path
    only owes the documented tolerance and routes reductions through
    ``np.einsum``, vectorised where numpy's pairwise float32 reduce is
    scalar.
    """

    name = "fused"
    description = (
        "fused numpy iteration in the row-blocked sweep "
        "(bit-identical at complex128)"
    )

    def grk_iteration_rows(self, amps, targets, *, n_blocks=None, mean_out=None):
        """Fused flip + diffusion: one reduction pass, one update pass."""
        batched.phase_flip_rows(amps, targets)
        b, n = amps.shape
        dt = amps.dtype
        if n_blocks is None:
            size, view = n, amps
            buf = mean_out if mean_out is not None else np.empty((b, 1), dt)
            if dt == np.float32:
                np.einsum("ij->i", view, out=buf[:, 0])
            else:
                np.add.reduce(view, axis=-1, keepdims=True, out=buf)
        else:
            size = n // n_blocks
            view = amps.reshape(b, n_blocks, size)
            buf = (
                mean_out
                if mean_out is not None
                else np.empty((b, n_blocks, 1), dt)
            )
            if dt == np.float32:
                np.einsum("ijk->ij", view, out=buf[:, :, 0])
            else:
                np.add.reduce(view, axis=-1, keepdims=True, out=buf)
        _make_scale(size, dt)(buf)
        np.subtract(buf, view, out=view)
        return amps


class NumbaBackend(KernelBackend):
    """Optional JIT tier: per-row loops compiled with ``@njit(parallel=True)``.

    Never a hard dependency — :meth:`available` consults
    ``importlib.util.find_spec`` and the backend only compiles on first
    use.  The kernel covers the unphased programs (grk, grk-simplified);
    phased ones run the shared sweep.  Rows fan out across numba's own
    thread pool (``prange``), which escapes the GIL, so the outer
    ``row_threads`` seam stays at 1 (:attr:`internal_parallelism`).  The float64 reduction replicates
    numpy's pairwise summation (8-accumulator unrolled blocks, recursive
    halving to a multiple of 8) so complex128 results stay bit-identical
    to the reference.
    """

    name = "numba"
    description = "njit(parallel=True) row loops (requires numba; GIL-free rows)"
    internal_parallelism = True

    def __init__(self):
        self._kernel = None

    def available(self) -> bool:
        return importlib.util.find_spec("numba") is not None

    def why_unavailable(self) -> str | None:
        if self.available():
            return None
        return "not installed (pip install numba to enable this backend)"

    def _compiled(self):
        if self._kernel is None:
            self.require()
            self._kernel = _build_numba_sweep()
        return self._kernel

    def program_sweep_rows(self, program, targets, policy):
        shape = _jit_shape(program)
        if shape is None:
            return super().program_sweep_rows(program, targets, policy)
        l1, l2, simplified = shape
        n, k = program.n_items, program.n_blocks
        bs = n // k
        dt = policy.real_dtype
        targets = np.ascontiguousarray(targets, dtype=np.intp)
        amps = batched.uniform_batch(targets.size, n, dtype=dt)
        succ = np.empty(targets.size, dtype=np.float64)
        guess = np.empty(targets.size, dtype=np.intp)
        self._compiled()(
            amps,
            targets,
            l1,
            l2,
            k,
            n & (n - 1) == 0,
            dt.type(2.0) / dt.type(n),
            dt.type(n),
            bs & (bs - 1) == 0,
            dt.type(2.0) / dt.type(bs),
            dt.type(bs),
            dt.type(2.0),
            simplified,
            succ,
            guess,
        )
        return succ, guess


def _jit_shape(program):
    """``(l1, l2, simplified)`` when the numba kernel covers *program*.

    The kernel runs the two unphased shapes: ``[global l1, block l2]``
    with Step 3 at π (grk) and ``[global l1, block l2, global 1]`` without
    Step 3 (grk-simplified).  Anything else returns None.
    """
    stages = program.stages
    if any(stage.phased for stage in stages):
        return None
    kinds = [stage.kind for stage in stages]
    if kinds == ["global", "block"] and program.final_phase == np.pi:
        return stages[0].count, stages[1].count, False
    if (
        kinds == ["global", "block", "global"]
        and stages[2].count == 1
        and program.final_phase is None
    ):
        return stages[0].count, stages[1].count, True
    return None


def _build_numba_sweep():
    """Compile the numba sweep lazily (only reached when numba imports)."""
    import numba

    @numba.njit(nogil=True)
    def pairwise_sum(a, lo, n):
        # numpy's pairwise_sum, replicated op for op so float64 results are
        # bit-identical to np.add.reduce over a contiguous axis: n < 8
        # sequential from a typed zero; n <= 128 eight-accumulator unrolled;
        # else recursive halving with the split rounded down to 8.
        if n < 8:
            res = a[lo] - a[lo]  # typed +0.0 (amplitudes are finite)
            for i in range(n):
                res += a[lo + i]
            return res
        if n <= 128:
            r0 = a[lo]
            r1 = a[lo + 1]
            r2 = a[lo + 2]
            r3 = a[lo + 3]
            r4 = a[lo + 4]
            r5 = a[lo + 5]
            r6 = a[lo + 6]
            r7 = a[lo + 7]
            i = 8
            while i < n - (n % 8):
                r0 += a[lo + i]
                r1 += a[lo + i + 1]
                r2 += a[lo + i + 2]
                r3 += a[lo + i + 3]
                r4 += a[lo + i + 4]
                r5 += a[lo + i + 5]
                r6 += a[lo + i + 6]
                r7 += a[lo + i + 7]
                i += 8
            res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            while i < n:
                res += a[lo + i]
                i += 1
            return res
        n2 = n // 2
        n2 -= n2 % 8
        return pairwise_sum(a, lo, n2) + pairwise_sum(a, lo + n2, n - n2)

    @numba.njit(nogil=True, parallel=True)
    def sweep(
        amps, targets, l1, l2, n_blocks,
        pow2_n, two_over_n, n_val,
        pow2_b, two_over_b, b_val,
        two, simplified, succ, guesses,
    ):
        n_rows, n = amps.shape
        bs = n // n_blocks
        for r in numba.prange(n_rows):
            row = amps[r]
            t = targets[r]
            for _ in range(l1):
                row[t] = -row[t]
                s = pairwise_sum(row, 0, n)
                m = s * two_over_n if pow2_n else (s / n_val) * two
                for i in range(n):
                    row[i] = m - row[i]
            for _ in range(l2):
                row[t] = -row[t]
                for blk in range(n_blocks):
                    s = pairwise_sum(row, blk * bs, bs)
                    m = s * two_over_b if pow2_b else (s / b_val) * two
                    for i in range(blk * bs, blk * bs + bs):
                        row[i] = m - row[i]
            parked = row[t] - row[t]
            if simplified:
                row[t] = -row[t]
            else:
                parked = row[t]
                row[t] = parked - parked
            s = pairwise_sum(row, 0, n)
            m = s * two_over_n if pow2_n else (s / n_val) * two
            for i in range(n):
                row[i] = m - row[i]
            for i in range(n):
                row[i] = row[i] * row[i]
            tb = t // bs
            best = -1.0
            gi = 0
            sv = 0.0
            for blk in range(n_blocks):
                p = pairwise_sum(row, blk * bs, bs)
                if (not simplified) and blk == tb:
                    p = p + parked * parked
                v = p * 1.0  # exact widen to float64
                if blk == tb:
                    sv = v
                if v > best:
                    best = v
                    gi = blk
            succ[r] = sv
            guesses[r] = gi

    return sweep


class CupyBackend(KernelBackend):
    """Reserved GPU entry — an explicit stub, never silently wrong."""

    name = "cupy"
    description = "GPU tier (stub: reserved name, not implemented)"

    def available(self) -> bool:
        return False

    def why_unavailable(self) -> str | None:
        if importlib.util.find_spec("cupy") is None:
            return "not installed (cupy is absent on this host)"
        return "a stub in this build (GPU kernels are not implemented yet)"


# ------------------------------------------------------------------ registry

_REGISTRY: dict[str, KernelBackend] = {}


def register_kernel_backend(backend: KernelBackend, *, replace: bool = False):
    """Register *backend* under its :attr:`~KernelBackend.name`."""
    if not backend.name:
        raise ValueError("kernel backend needs a non-empty name")
    if backend.name == KERNEL_BACKEND_AUTO:
        raise ValueError(f"{KERNEL_BACKEND_AUTO!r} is the selection sentinel")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"kernel backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def kernel_backend_names() -> tuple[str, ...]:
    """Every registered backend name (available or not), registry order."""
    return tuple(_REGISTRY)


def available_kernel_backends() -> tuple[str, ...]:
    """The registered backends that can actually execute on this host."""
    return tuple(name for name, b in _REGISTRY.items() if b.available())


def get_kernel_backend(name: str) -> KernelBackend:
    """The registered backend called *name* (may be unavailable)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join((KERNEL_BACKEND_AUTO, *_REGISTRY))
        raise ValueError(
            f"unknown kernel backend {name!r} (known: {known})"
        ) from None


def validate_kernel_backend_name(name: str) -> str:
    """Check *name* is ``"auto"`` or a registered backend; returns it."""
    if name != KERNEL_BACKEND_AUTO:
        get_kernel_backend(name)
    return name


def resolve_kernel_backend(name: str) -> KernelBackend:
    """*name* resolved to an executable backend (``"auto"`` probes)."""
    if name == KERNEL_BACKEND_AUTO:
        name = probe_fastest_backend()
    return get_kernel_backend(name).require()


def describe_kernel_backends() -> list[dict]:
    """Registry table for operator surfaces (CLI / HTTP methods listing)."""
    return [b.describe() for b in _REGISTRY.values()]


# ------------------------------------------------- auto probe / calibration

#: Override the calibration file location (tests point this at tmp dirs).
CALIBRATION_FILE_ENV = "REPRO_CALIBRATION_FILE"

_PROBE_CACHE: str | None = None


def calibration_path() -> Path:
    """Where this host's probe result persists (env-overridable)."""
    override = os.environ.get(CALIBRATION_FILE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernel-calibration.json"


def load_calibration() -> dict | None:
    """The persisted calibration record, or None when absent/corrupt."""
    try:
        record = json.loads(calibration_path().read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or "fastest" not in record:
        return None
    if record["fastest"] not in _REGISTRY:
        return None
    return record


def run_calibration(
    *, persist: bool = True, n_rows: int = 192, n_items: int = 512,
    repeats: int = 3,
) -> dict:
    """Micro-probe every available backend and record the fastest.

    A few milliseconds of float64 GRK program sweeps (``n_rows`` targets
    at ``N = n_items``) per backend, best-of-*repeats*; the winner is what
    ``backend="auto"`` resolves to on this host.  With *persist* the
    record lands at
    :func:`calibration_path` so later processes (and the worker
    registration payload) skip the probe.
    """
    from repro.core.program import PartialSearchProgram

    program = PartialSearchProgram.grk(n_items, 4, l1=4, l2=3)
    targets = np.arange(n_rows, dtype=np.intp) % n_items
    policy = ExecutionPolicy()
    timings: dict[str, float] = {}
    for name in available_kernel_backends():
        backend = _REGISTRY[name]
        best = float("inf")
        for _ in range(repeats + 1):  # first lap warms caches / JITs
            t0 = time.perf_counter()
            backend.program_sweep_rows(program, targets, policy)
            best = min(best, time.perf_counter() - t0)
        timings[name] = best
    if not timings:
        raise RuntimeError("no kernel backends are available to calibrate")
    fastest = min(timings, key=timings.get)
    record = {
        "fastest": fastest,
        "timings_ms": {k: v * 1e3 for k, v in timings.items()},
        "probe": {"n_rows": n_rows, "n_items": n_items, "repeats": repeats},
    }
    global _PROBE_CACHE
    _PROBE_CACHE = fastest
    if persist:
        path = calibration_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass  # calibration is an optimisation, never a failure
    return record


def probe_fastest_backend() -> str:
    """The backend name ``"auto"`` resolves to on this host.

    Resolution order: in-process cache, then the persisted calibration
    file, then a fresh :func:`run_calibration` (persisted best-effort).
    """
    global _PROBE_CACHE
    if _PROBE_CACHE is not None:
        return _PROBE_CACHE
    record = load_calibration()
    if record is not None and _REGISTRY[record["fastest"]].available():
        _PROBE_CACHE = record["fastest"]
        return _PROBE_CACHE
    return run_calibration()["fastest"]


register_kernel_backend(NumpyBackend())
register_kernel_backend(FusedBackend())
register_kernel_backend(NumbaBackend())
register_kernel_backend(CupyBackend())
