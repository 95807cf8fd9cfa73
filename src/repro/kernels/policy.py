"""Execution policy: the two knobs every kernel honours — dtype and threads.

The batched ``(B, N)`` kernels are memory-bandwidth bound (the ROADMAP perf
item): each GRK iteration streams the whole state matrix twice.  The two
remaining levers are therefore *how wide each amplitude is* and *how many
cores stream it*:

- ``dtype`` names the **logical amplitude precision** — ``"complex128"``
  (the default, and the precision every published number in this repo was
  produced at) or ``"complex64"``.  Kernels map it to the cheapest concrete
  storage that realises it: the GRK gate set is real, so the structured
  kernels hold ``float64``/``float32`` states (:attr:`ExecutionPolicy.real_dtype`),
  while the gate-level circuit backends hold genuinely complex states
  (:attr:`ExecutionPolicy.complex_dtype`).  Either way ``complex64`` halves
  every row, so a fixed shard byte budget admits twice the ``B_chunk``.
- ``row_threads`` fans independent batch **rows** across a thread pool
  (:func:`repro.util.parallel.thread_map`).  The hot kernels are numpy
  reductions and fused elementwise passes, which release the GIL, so
  contiguous row slabs scale across cores without any copying.

Precision contract
------------------
``complex128`` (default) is **bit-identical to the seed implementation** for
every backend, executor, shard boundary, and ``row_threads`` setting: rows
never interact, reductions stay per-row, and the kernels perform the exact
same float operations in the same order.  ``complex64`` is a *lossy* speed
mode: success probabilities are validated against complex128 within
:data:`COMPLEX64_SUCCESS_ATOL` by the property suite
(``tests/kernels/test_policy_tolerance.py``); amplitudes themselves agree to
~``1e-6`` per iteration step.  Anything that pins exact paper values should
run at the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DTYPE_NAMES",
    "COMPLEX64_SUCCESS_ATOL",
    "ROW_THREADS_AUTO",
    "MAX_AUTO_ROW_THREADS",
    "AUTO_ROW_THREADS_MIN_SLAB_BYTES",
    "auto_row_threads",
    "ExecutionPolicy",
    "row_slabs",
]

#: The accepted logical dtype names, in (default, fast) order.
DTYPE_NAMES = ("complex128", "complex64")

#: Documented bound on ``|success_c64 - success_c128|`` for one search.
#: float32 carries ~7 decimal digits and a GRK run is O(sqrt(N)) ~ 10^2
#: fused passes whose rounding errors accumulate at most linearly.  At the
#: sizes the property suite sweeps (N <= 4096) the worst observed deviation
#: is ~3e-6 on the structured kernels and ~2e-4 on the gate-level circuit
#: backends (whose Hadamard matmuls round every amplitude every layer);
#: 1e-3 is that envelope with a factor-of-4 margin.
COMPLEX64_SUCCESS_ATOL = 1e-3

_REAL = {"complex128": np.dtype(np.float64), "complex64": np.dtype(np.float32)}
_COMPLEX = {"complex128": np.dtype(np.complex128), "complex64": np.dtype(np.complex64)}

#: Sentinel ``row_threads`` value: resolve to a cpu-count-aware default.
ROW_THREADS_AUTO = "auto"

#: Ceiling on the resolved ``"auto"`` thread count.  The slab sweeps are
#: memory-bandwidth bound (see module docstring): past a handful of cores
#: they saturate the memory controllers and extra threads only add
#: scheduling overhead, so "auto" never claims the whole socket.
MAX_AUTO_ROW_THREADS = 8

#: Below this many bytes of resident state per shard, ``"auto"`` stays at 1
#: thread for the numpy-family backends: the GIL'd dispatch overhead of the
#: thread seam exceeds the bandwidth win on small slabs (the bench ledger
#: recorded a 0.884x *slowdown* threading the standard 8 MiB workload).
#: Calibrated against ``bench_compiled_simulator.py``'s kernels_batched
#: workload; backends that thread internally (numba) ignore it.
AUTO_ROW_THREADS_MIN_SLAB_BYTES = 64 * 2**20


def auto_row_threads(
    backend: str | None = None, slab_bytes: int | None = None
) -> int:
    """The thread count ``row_threads="auto"`` resolves to.

    With no context (the legacy call), a cpu-count-aware default: the cpus
    this *process* may actually run on (its affinity mask — container
    quotas and ``taskset`` bind tighter than the machine's core count),
    capped at :data:`MAX_AUTO_ROW_THREADS`.

    *backend*/*slab_bytes* make the resolution workload-aware (the planner
    and the sweep dispatchers pass them): backends that parallelise rows
    internally (``numba``'s ``prange``) resolve to 1 so the outer seam
    never oversubscribes them, and the numpy-family backends resolve to 1
    below :data:`AUTO_ROW_THREADS_MIN_SLAB_BYTES` — threading a slab that
    small is the regression the bench ledger pinned at 0.884x.
    """
    if backend is not None:
        try:
            from repro.kernels.backends import get_kernel_backend

            if get_kernel_backend(backend).internal_parallelism:
                return 1
        except ValueError:
            pass  # unknown names fail in policy validation, not here
    if slab_bytes is not None and slab_bytes < AUTO_ROW_THREADS_MIN_SLAB_BYTES:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux or restricted platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, MAX_AUTO_ROW_THREADS))


@dataclass(frozen=True)
class ExecutionPolicy:
    """How kernels execute: precision, row parallelism, kernel backend.

    Attributes:
        dtype: logical amplitude precision, ``"complex128"`` (default) or
            ``"complex64"`` (half the memory, tolerance-validated results).
        row_threads: number of contiguous row slabs independent batch rows
            are fanned across (``1`` = the plain serial sweep), or the
            string ``"auto"`` for a workload-aware default
            (:func:`auto_row_threads`; the planner resolves it before
            shards ship, so workers receive a concrete count).  Results are
            bit-identical for any value — rows never interact.
        backend: which :class:`repro.kernels.backends.KernelBackend`
            executes the slab math — ``"numpy"`` (default, the seed
            implementation and bit reference), ``"fused"``, ``"numba"``,
            or ``"auto"`` to pick the fastest available via the cached
            micro-probe.  Like ``row_threads``, ``"auto"`` is resolved
            once by the planner; the resolved name ships in shard payloads
            and wire meta (absent key = ``"numpy"``, compatible growth).
            complex128 results are bit-identical across backends.
    """

    dtype: str = "complex128"
    row_threads: int | str = 1
    backend: str = "numpy"

    def __post_init__(self):
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"dtype={self.dtype!r} must be one of {', '.join(DTYPE_NAMES)}"
            )
        if self.row_threads != ROW_THREADS_AUTO and (
            not isinstance(self.row_threads, int) or self.row_threads < 1
        ):
            raise ValueError(
                f"row_threads={self.row_threads!r} must be an int >= 1 "
                f"or {ROW_THREADS_AUTO!r}"
            )
        # Lazy import: backends composes the batched kernels, which import
        # this module — validation is the only edge pointing back.
        from repro.kernels.backends import validate_kernel_backend_name

        validate_kernel_backend_name(self.backend)

    @property
    def real_dtype(self) -> np.dtype:
        """Concrete storage dtype for real-amplitude kernels (GRK gate set)."""
        return _REAL[self.dtype]

    @property
    def complex_dtype(self) -> np.dtype:
        """Concrete storage dtype for genuinely complex states (circuits)."""
        return _COMPLEX[self.dtype]

    @property
    def itemsize_scale(self) -> float:
        """Bytes-per-amplitude relative to the complex128 default."""
        return 0.5 if self.dtype == "complex64" else 1.0

    @property
    def is_default(self) -> bool:
        """True for the stock policy (complex128, serial rows, numpy)."""
        return (
            self.dtype == "complex128"
            and self.row_threads == 1
            and self.backend == "numpy"
        )

    @property
    def effective_row_threads(self) -> int:
        """The concrete thread count (``"auto"`` resolved on this host)."""
        if self.row_threads == ROW_THREADS_AUTO:
            return auto_row_threads(self.backend)
        return self.row_threads

    def threads_for_slab(self, n_rows: int, n_items: int) -> int:
        """The thread count for one resident ``(n_rows, n_items)`` slab.

        Like :attr:`effective_row_threads` but workload-aware: ``"auto"``
        falls back to 1 when the slab is below
        :data:`AUTO_ROW_THREADS_MIN_SLAB_BYTES` (threading small slabs is
        the 0.884x regression the bench ledger pinned) or when the backend
        parallelises internally.  Concrete counts pass through untouched —
        an explicit ``row_threads=4`` is always honoured.
        """
        if self.row_threads == ROW_THREADS_AUTO:
            return auto_row_threads(
                self.backend, n_rows * n_items * self.real_dtype.itemsize
            )
        return self.row_threads

    def resolve(self, *, slab_bytes: int | None = None) -> "ExecutionPolicy":
        """This policy with every ``"auto"`` pinned to a concrete choice.

        The planner resolves once, on the driver, before tasks are built —
        so every shard of a batch runs at the same width whatever host it
        lands on, and the provenance records what actually ran.
        ``backend="auto"`` resolves to the probe winner
        (:func:`repro.kernels.backends.probe_fastest_backend`);
        ``row_threads="auto"`` resolves per :func:`auto_row_threads`, made
        workload-aware when the caller knows *slab_bytes*.
        """
        backend = self.backend
        if backend == "auto":
            from repro.kernels.backends import probe_fastest_backend

            backend = probe_fastest_backend()
        row_threads = self.row_threads
        if row_threads == ROW_THREADS_AUTO:
            row_threads = auto_row_threads(backend, slab_bytes)
        if backend == self.backend and row_threads == self.row_threads:
            return self
        return ExecutionPolicy(
            dtype=self.dtype, row_threads=row_threads, backend=backend
        )

    def describe(self) -> dict:
        """Provenance record merged into execution metadata."""
        return {
            "dtype": self.dtype,
            "row_threads": self.row_threads,
            "backend": self.backend,
        }


def row_slabs(n_rows: int, row_threads: int) -> list[slice]:
    """Split ``range(n_rows)`` into ``<= row_threads`` contiguous slices.

    Slabs are balanced to within one row and returned in order, so
    concatenating per-slab results reproduces the unsplit row order exactly.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    n = min(max(1, row_threads), n_rows)
    base, extra = divmod(n_rows, n)
    slabs, start = [], 0
    for i in range(n):
        stop = start + base + (1 if i < extra else 0)
        slabs.append(slice(start, stop))
        start = stop
    return slabs
