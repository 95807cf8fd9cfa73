"""Execution policy: the two knobs every kernel honours — dtype and threads.

A kernels batch walks its rows in row blocks of about
:data:`~repro.kernels.sweep.ROW_BLOCK_BYTES` that stay cache-resident
across the whole program (:mod:`repro.kernels.sweep`), so it holds no
``(B, N)`` state and its cost is its float work: rows × N × queries
amplitude updates.  The two levers are therefore *how wide each amplitude
is* and *how many cores share the rows*:

- ``dtype`` names the **logical amplitude precision** — ``"complex128"``
  (the default, and the precision every published number in this repo was
  produced at) or ``"complex64"``.  Kernels map it to the cheapest concrete
  storage that realises it: the GRK gate set is real, so the structured
  kernels hold ``float64``/``float32`` states (:attr:`ExecutionPolicy.real_dtype`),
  while the gate-level circuit backends hold genuinely complex states
  (:attr:`ExecutionPolicy.complex_dtype`).  Either way ``complex64`` halves
  every row, so a kernels row block holds twice the rows and a circuit
  shard's byte budget admits twice the ``B_chunk``.
- ``row_threads`` fans independent batch **rows** across threads
  (:func:`repro.util.parallel.thread_map`; the calling thread runs one
  slab).  The hot kernels are numpy reductions and fused elementwise
  passes, which release the GIL, so contiguous row slabs scale across
  cores without any copying.  Each thread walks its slab in blocks of
  the whole ``ROW_BLOCK_BYTES``, which fits each core's private L2, in
  one state it allocates once, so a kernels shard's resident state is
  about ``T`` × 1.25 MiB for a plain program and ``T`` × 2.25 MiB for a
  phased one, whose blocks widen to complex in place.  The
  default, ``"auto"``, resolves per :func:`auto_row_threads` where each
  shard runs; ``row_threads=1`` pins the serial sweep.

Precision contract
------------------
``complex128`` (default) is **bit-identical to the seed implementation** for
every executor, shard boundary, and ``row_threads`` setting: rows
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
    "AUTO_ROW_THREAD_MIN_WORK",
    "available_cpus",
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

#: Sentinel ``row_threads`` value, and the default: resolve to a count
#: from the batch's work (:func:`auto_row_threads`).
ROW_THREADS_AUTO = "auto"

#: Ceiling on the resolved ``"auto"`` thread count: past a handful of
#: cores the row blocks contend for the shared cache and memory bus, and
#: extra threads only add scheduling overhead, so "auto" never claims the
#: whole socket.
MAX_AUTO_ROW_THREADS = 8

#: The work, in amplitude-iterations (rows × N × queries), that each
#: ``"auto"`` row thread must get.  Measured on GRK sweeps, each thread
#: walking whole row blocks, on a 2-vCPU Xeon VM with a private 2 MiB L2
#: per cpu (two threads over one, median of 9, each run after two at its
#: width; median of six passes): 1.3M ran at 0.89x, 2.8M at 0.83x, 4.2M at
#: 1.14x, 5.2M at 1.60x, 5.6M at 1.48x, 10.5M at 1.64x and 21M at 1.64x.
#: Single batches alternating widths read about 1.0x from 3.9M to 22.5M
#: there, so two threads still start at 8M.
AUTO_ROW_THREAD_MIN_WORK = 4_000_000


def available_cpus() -> int:
    """The cpus this *process* may run on: its affinity mask, since
    container quotas and ``taskset`` bind tighter than the machine's core
    count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux or restricted platform
        return os.cpu_count() or 1


def auto_row_threads(work: int, *, batches: int = 1) -> int:
    """The thread count ``row_threads="auto"`` resolves to.

    *work* is the batch's amplitude-iterations, rows × N × queries.  The
    count is the smallest of three limits, and at least 1:

    - :func:`available_cpus` divided by *batches*, the kernels shards
      this process is running side by side, this one included
      (:func:`repro.core.batch.running_shard` counts them);
    - :data:`MAX_AUTO_ROW_THREADS`;
    - ``work // AUTO_ROW_THREAD_MIN_WORK``, so each thread gets at least
      :data:`AUTO_ROW_THREAD_MIN_WORK`.
    """
    return max(1, min(available_cpus() // batches, MAX_AUTO_ROW_THREADS,
                      work // AUTO_ROW_THREAD_MIN_WORK))


@dataclass(frozen=True)
class ExecutionPolicy:
    """How kernels execute: precision and row parallelism.

    Attributes:
        dtype: logical amplitude precision, ``"complex128"`` (default) or
            ``"complex64"`` (half the memory, tolerance-validated results).
        row_threads: number of contiguous row slabs independent batch rows
            are fanned across (``1`` = the plain serial sweep), or
            ``"auto"`` (the default), which :meth:`resolve` turns into a
            count from a shard's work (:func:`auto_row_threads`) in the
            process that runs the shard; the circuit backends take 1
            (:func:`repro.core.batch.running_shard`).  Results are
            bit-identical for any value — rows never interact.
    """

    dtype: str = "complex128"
    row_threads: int | str = ROW_THREADS_AUTO

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
        """True for the stock policy: complex128, ``row_threads="auto"``."""
        return (self.dtype == "complex128"
                and self.row_threads == ROW_THREADS_AUTO)

    def resolve(
        self, n_rows: int, n_items: int, queries: int, *, batches: int = 1
    ) -> "ExecutionPolicy":
        """This policy with ``row_threads="auto"`` pinned to a count.

        The count is :func:`auto_row_threads` of ``n_rows × n_items ×
        queries``, the work of one shard, with *batches* kernels shards
        running in this process, this one included.
        :func:`repro.core.batch.running_shard` calls it where the shard
        runs, so each host sizes its own shards, and the shard reports
        the count back.  Concrete counts pass through untouched: an
        explicit ``row_threads=4`` is always honoured.
        """
        if self.row_threads != ROW_THREADS_AUTO:
            return self
        work = n_rows * n_items * queries
        return ExecutionPolicy(
            dtype=self.dtype,
            row_threads=auto_row_threads(work, batches=batches),
        )

    def describe(self) -> dict:
        """Provenance record merged into execution metadata."""
        return {"dtype": self.dtype, "row_threads": self.row_threads}


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
