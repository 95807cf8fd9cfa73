"""Compiled circuit execution: mask caching, gate fusion, batched runs.

The naive simulator in :mod:`repro.circuits.simulator` walks the gate list
one gate at a time, allocating a fresh ``np.arange(2**n)`` index array and
several full-state copies per controlled gate.  That is fine as a
correctness oracle but wasteful for the benchmarks, which execute the same
GRK circuit for *every* target address.  This module lowers a
:class:`~repro.circuits.circuit.Circuit` **once** into a short program of
fused operations and then runs that program over one state, a batch of
states, or a batch of per-row targets:

1. **Mask caching** — the boolean-pattern index arrays behind controlled
   gates (``CZ``/``MCZ``/``MCP``/``CX``/``MCX``) are precomputed per
   ``(n_qubits, ones_mask, zeros_mask[, target_bit])`` signature and shared
   process-wide, so ``l1`` identical oracle gates cost one enumeration, not
   ``l1`` full ``arange`` allocations.  Patterns are enumerated directly
   from their free bits (O(#matching indices), not O(2**n)).
2. **Conjugated-control recognition** — the builders' ``X``-layer /
   multi-controlled gate / ``X``-layer sandwich (the oracle and move-out
   motifs) collapses into a single masked phase flip or index swap on the
   conjugated pattern, eliminating the 2·(#zero bits) single-qubit ``X``
   sweeps per oracle call.
3. **Diffusion recognition** — the ``H* X* MCZ X* H*`` motif (builders'
   ``_diffusion_core``) is dispatched to the O(N) inversion-about-the-mean
   kernel of :mod:`repro.kernels.primitives` fame: one reshaped mean and one
   fused subtract instead of ~4·|Q| single-qubit passes plus a masked flip.
   A following ``GPHASE(pi)`` is folded into the kernel's sign.
4. **Single-qubit fusion** — adjacent single-qubit gates on one wire (gates
   on *other* wires commute through) multiply into one 2x2 matrix; products
   that reach the identity are dropped entirely.
5. **Diagonal coalescing** — runs of diagonal gates (``Z``/``P``/``CZ``/
   ``MCZ``/``MCP``/``GPHASE`` and the masked flips produced by pass 2)
   merge into a single elementwise phase vector, or back into a scalar /
   masked flip when the merged vector is that sparse.

Every compiled operation broadcasts over leading axes, so one program runs
a ``(B, N)`` batch at full numpy throughput.  Programs compiled with
``parametric_targets=True`` additionally expose
:meth:`CompiledCircuit.run_multi_target`: oracle-tagged pattern ops read a
per-row target address at run time, so one compiled program serves an
all-targets sweep — the masks, fused matrices, and diffusion plans are
shared across the whole batch.

The *state math* of the fused ops is not implemented here: masked phase
multiplies, inversions about an axis mean, and the per-row parametric
oracle/move-out all dispatch to :mod:`repro.kernels` (the unified kernel
execution layer), so this module owns only the lowering — pattern caches,
motif recognition, peephole fusion — and the kernels' dtype polymorphism
carries over: every ``run*`` method takes a ``dtype`` (complex128 default,
complex64 for the :class:`~repro.kernels.ExecutionPolicy` fast mode), with
fused matrices and phase vectors downcast once per program, not per call.

The naive simulator remains the correctness oracle: the property suite
checks compiled-vs-naive equality amplitude-for-amplitude on randomized
circuits over the full gate set.
"""

from __future__ import annotations

import cmath
import threading
from functools import lru_cache

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.kernels import batched as _kb
from repro.kernels import primitives as _kp

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "run_circuit_compiled",
    "compile_cache_info",
    "clear_compile_cache",
]

_SQRT2 = 1.0 / np.sqrt(2.0)
_MAT = {
    "H": np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
}
_ID2 = np.eye(2, dtype=np.complex128)

#: Gate names whose unitary is diagonal in the computational basis.
_DIAGONAL_GATES = frozenset({"Z", "P", "CZ", "MCZ", "MCP", "GPHASE"})


# --------------------------------------------------------------------------
# pattern-index cache
# --------------------------------------------------------------------------

def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=512)
def _pattern_indices(n_qubits: int, ones_mask: int, zeros_mask: int) -> np.ndarray:
    """Sorted basis indices ``i`` with ``i & ones == ones`` and ``i & zeros == 0``.

    Enumerated by expanding the free bits, so the cost is O(#matches), not
    O(2**n_qubits); the result is cached and marked read-only.
    """
    if ones_mask & zeros_mask:
        raise ValueError("ones_mask and zeros_mask overlap")
    idx = np.array([ones_mask], dtype=np.intp)
    for b in range(n_qubits - 1, -1, -1):
        bit = 1 << b
        if not (ones_mask | zeros_mask) & bit:
            idx = (idx[:, None] | np.array([0, bit], dtype=np.intp)).ravel()
    return _frozen(np.sort(idx))


@lru_cache(maxsize=512)
def _pair_indices(
    n_qubits: int, ones_mask: int, zeros_mask: int, target_bit: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lo, hi)`` index pair swapped by a pattern-controlled X."""
    lo = _pattern_indices(n_qubits, ones_mask, zeros_mask | target_bit)
    return lo, _frozen(lo | target_bit)


def _bit(qubit: int, n_qubits: int) -> int:
    return 1 << (n_qubits - 1 - qubit)


def _ones_mask(qubits, n_qubits: int) -> int:
    mask = 0
    for q in qubits:
        mask |= _bit(q, n_qubits)
    return mask


# --------------------------------------------------------------------------
# compiled operations (all broadcast over leading axes of shape (..., N))
# --------------------------------------------------------------------------

class _Op:
    """One fused operation; ``apply`` may mutate and/or return the state."""

    diagonal = False

    def apply(self, state: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class SingleQubitOp(_Op):
    """A (possibly fused) 2x2 unitary on one wire, via a reshaped matmul.

    The canonical matrix is complex128; narrower state dtypes get a
    once-per-program downcast copy (matmul would otherwise upcast the whole
    state back to complex128 every application).
    """

    def __init__(self, qubit: int, mat: np.ndarray, n_qubits: int):
        self.qubit = qubit
        self.mat = np.ascontiguousarray(mat, dtype=np.complex128)
        self.left = 1 << qubit
        self.right = 1 << (n_qubits - 1 - qubit)
        self._mat_cache: dict = {}

    def _mat_for(self, dtype) -> np.ndarray:
        if dtype == np.complex128:
            return self.mat
        mat = self._mat_cache.get(dtype)
        if mat is None:  # benign race on shared programs: last writer wins
            mat = self._mat_cache[dtype] = self.mat.astype(dtype)
        return mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        shape = state.shape
        view = state.reshape(*shape[:-1], self.left, 2, self.right)
        return np.matmul(self._mat_for(state.dtype), view).reshape(shape)

    def fused_with(self, later: "SingleQubitOp") -> "SingleQubitOp":
        out = SingleQubitOp.__new__(SingleQubitOp)
        out.qubit, out.left, out.right = self.qubit, self.left, self.right
        out.mat = np.ascontiguousarray(later.mat @ self.mat)
        out._mat_cache = {}
        return out

    @property
    def is_identity(self) -> bool:
        return bool(np.allclose(self.mat, _ID2, atol=1e-15))


class GlobalPhaseOp(_Op):
    """Multiply the whole state by a scalar."""

    diagonal = True

    def __init__(self, factor: complex):
        self.factor = factor

    def apply(self, state: np.ndarray) -> np.ndarray:
        state *= self.factor
        return state


class PhaseMaskOp(_Op):
    """Multiply the amplitudes at a cached index set by one scalar.

    The masked multiply itself is the kernel layer's
    :func:`repro.kernels.apply_phase_factor` — the oracle reflection ``I_t``
    when the factor is −1 (a weak Python scalar, so any state dtype wins).
    """

    diagonal = True

    def __init__(self, indices: np.ndarray, factor: complex, oracle: bool = False):
        self.indices = indices
        self.factor = factor
        self.oracle = oracle

    def apply(self, state: np.ndarray) -> np.ndarray:
        return _kp.apply_phase_factor(state, self.indices, self.factor)


class DiagonalOp(_Op):
    """Elementwise multiply by a precomputed length-N phase vector.

    Canonically complex128 with a once-per-program downcast for narrower
    state dtypes, mirroring :class:`SingleQubitOp`.
    """

    diagonal = True

    def __init__(self, phases: np.ndarray):
        self.phases = _frozen(np.asarray(phases, dtype=np.complex128))
        self._cache: dict = {}

    def _phases_for(self, dtype) -> np.ndarray:
        if dtype == np.complex128:
            return self.phases
        phases = self._cache.get(dtype)
        if phases is None:
            phases = self._cache[dtype] = _frozen(self.phases.astype(dtype))
        return phases

    def apply(self, state: np.ndarray) -> np.ndarray:
        state *= self._phases_for(state.dtype)
        return state


class SwapPairsOp(_Op):
    """Swap amplitudes at cached ``(lo, hi)`` pairs (pattern-controlled X)."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, oracle: bool = False):
        self.lo = lo
        self.hi = hi
        self.oracle = oracle

    def apply(self, state: np.ndarray) -> np.ndarray:
        tmp = state[..., self.lo]  # fancy indexing already copies
        state[..., self.lo] = state[..., self.hi]
        state[..., self.hi] = tmp
        return state


class DiffusionOp(_Op):
    """``I - 2|u><u|`` (or ``2|u><u| - I``) over a contiguous wire range.

    ``|u>`` is the uniform state of wires ``[first, first + width)``; for
    every setting of the remaining wires the operator acts independently,
    which is exactly the builders' ``H* X* MCZ X* H*`` motif.  Extra MCZ
    controls on *later* (less significant) wires restrict the update to the
    control-matched part of the trailing axis.  ``negate=True`` absorbs a
    following ``GPHASE(pi)``, turning the natural ``I - 2|u><u|`` into the
    paper's ``+I_0``.

    When the controls match exactly **one** trailing column — true whenever
    the only control is the ancilla, i.e. Step 3's controlled inversion,
    the only controlled diffusion the builders emit today — the update runs
    on a copy-free strided view of that column instead of a fancy-indexed
    gather/scatter (``strided=False`` forces the general path; the
    equivalence is pinned by a test).
    """

    def __init__(
        self,
        n_qubits: int,
        first: int,
        width: int,
        ctrl_sel: np.ndarray | None = None,
        negate: bool = False,
        strided: bool = True,
    ):
        self.n_qubits = n_qubits
        self.first = first
        self.width = width
        self.left = 1 << first
        self.mid = 1 << width
        self.right = 1 << (n_qubits - first - width)
        self.ctrl_sel = ctrl_sel
        self.negate = negate
        self.ctrl_col = (
            int(ctrl_sel[0])
            if strided and ctrl_sel is not None and ctrl_sel.size == 1
            else None
        )
        # Scratch for the mean reduction, reused across applications with
        # the same (shape, dtype): compiled programs unroll l1+l2 diffusion
        # ops and run them once per shard chunk, so per-iteration mean/
        # broadcast temporaries otherwise dominate allocator traffic
        # (ROADMAP perf item).  Thread-local because compiled programs are
        # shared through an lru_cache and the serving layer runs them from
        # a thread pool.  Results are bit-identical with or without reuse.
        self._scratch = threading.local()

    def _mean_scratch(self, shape: tuple, dtype) -> np.ndarray:
        buf = getattr(self._scratch, "buf", None)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._scratch.buf = np.empty(shape, dtype=dtype)
        return buf

    def negated(self) -> "DiffusionOp":
        return DiffusionOp(
            self.n_qubits,
            self.first,
            self.width,
            self.ctrl_sel,
            not self.negate,
            strided=self.ctrl_col is not None or self.ctrl_sel is None,
        )

    def apply(self, state: np.ndarray) -> np.ndarray:
        view = state.reshape(*state.shape[:-1], self.left, self.mid, self.right)
        if self.ctrl_sel is None:
            shape = view.shape[:-2] + (1,) + view.shape[-1:]
            _kp.invert_about_axis_mean(
                view, -2, negate=self.negate,
                mean_out=self._mean_scratch(shape, view.dtype),
            )
            return state
        if self.ctrl_col is not None:
            # Single matched column: basic indexing yields a strided view
            # into the state, so the kernel updates it with zero copies.
            sub = view[..., self.ctrl_col]
            shape = sub.shape[:-1] + (1,)
            _kp.invert_about_axis_mean(
                sub, -1, negate=self.negate,
                mean_out=self._mean_scratch(shape, sub.dtype),
            )
            return state
        sub = view[..., self.ctrl_sel]  # copy of the control-matched columns
        _kp.invert_about_axis_mean(sub, -2, negate=self.negate)
        view[..., self.ctrl_sel] = sub
        return state


class ParametricPhaseFlipOp(_Op):
    """Per-row oracle flip: row ``i`` negates its own target's amplitudes.

    Compiled from an oracle-tagged conjugated-MCZ pattern whose controls are
    the leading address wires; the remaining (trailing) wires are free, so
    target ``t`` of row ``i`` owns the contiguous index range
    ``[t * 2**n_free, (t+1) * 2**n_free)``.
    """

    def __init__(self, n_free: int):
        self.n_free = n_free

    def apply_multi(self, state: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        view = state.reshape(state.shape[0], -1, 1 << self.n_free)
        _kb.phase_flip_rows(view, targets, rows)
        return state


class ParametricMoveOutOp(_Op):
    """Per-row move-out: swap the ancilla pair of each row's own target."""

    def apply_multi(self, state: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        view = state.reshape(state.shape[0], -1, 2)
        _kb.moveout_rows(view, targets, rows)
        return state


_PARAMETRIC_TYPES = (ParametricPhaseFlipOp, ParametricMoveOutOp)


# --------------------------------------------------------------------------
# lowering: gates -> ops
# --------------------------------------------------------------------------

def _lower_gate(gate: Gate, n: int) -> _Op:
    """Lower one gate to a compiled op (masks pulled from the cache)."""
    name = gate.name
    if name in ("H", "X"):
        return SingleQubitOp(gate.qubits[0], _MAT[name], n)
    if name == "Z":
        return PhaseMaskOp(_pattern_indices(n, _bit(gate.qubits[0], n), 0), -1.0)
    if name == "P":
        return PhaseMaskOp(
            _pattern_indices(n, _bit(gate.qubits[0], n), 0), cmath.exp(1j * gate.param)
        )
    if name == "GPHASE":
        return GlobalPhaseOp(cmath.exp(1j * gate.param))
    if name in ("CZ", "MCZ"):
        return PhaseMaskOp(
            _pattern_indices(n, _ones_mask(gate.qubits, n), 0), -1.0, oracle=gate.is_oracle
        )
    if name == "MCP":
        return PhaseMaskOp(
            _pattern_indices(n, _ones_mask(gate.qubits, n), 0),
            cmath.exp(1j * gate.param),
            oracle=gate.is_oracle,
        )
    if name in ("CX", "MCX"):
        controls, target = gate.qubits[:-1], gate.qubits[-1]
        lo, hi = _pair_indices(n, _ones_mask(controls, n), 0, _bit(target, n))
        return SwapPairsOp(lo, hi, oracle=gate.is_oracle)
    raise ValueError(f"compiler does not know gate {gate.name!r}")  # pragma: no cover


def _match_layer(gates: list[Gate], i: int, name: str, qubits: frozenset) -> int | None:
    """If ``gates[i:]`` starts with *name* gates covering exactly *qubits*
    (each wire once), return the index just past the layer, else ``None``."""
    seen = set()
    j = i
    while (
        seen != qubits
        and j < len(gates)
        and gates[j].name == name
        and gates[j].qubits[0] in qubits
    ):
        q = gates[j].qubits[0]
        if q in seen:
            return None
        seen.add(q)
        j += 1
    return j if seen == qubits else None


def _match_diffusion(gates: list[Gate], i: int, n: int) -> tuple[DiffusionOp, int] | None:
    """Recognise ``H*(Q) X*(Q) MCZ(Q+C) X*(Q) H*(Q)`` starting at ``i``.

    Q must be a contiguous wire range and any extra controls C must sit on
    later (less significant) wires, so the kernel can address them on the
    trailing axis of a reshape.  Returns the op and the index past the motif.
    """
    j = i
    qs = []
    while j < len(gates) and gates[j].name == "H":
        qs.append(gates[j].qubits[0])
        j += 1
    if not qs or len(set(qs)) != len(qs):
        return None
    q_set = frozenset(qs)
    lo, hi = min(q_set), max(q_set)
    if hi - lo + 1 != len(q_set):
        return None  # not contiguous
    j = _match_layer(gates, j, "X", q_set)
    if j is None or j >= len(gates):
        return None
    mcz = gates[j]
    if mcz.name not in ("CZ", "MCZ") or not q_set <= set(mcz.qubits):
        return None
    if mcz.is_oracle:
        # Keep tagged queries as standalone pattern ops: query counting and
        # parametric-target substitution both need them addressable.
        return None
    extras = set(mcz.qubits) - q_set
    if any(e <= hi for e in extras):
        return None  # controls must live after the diffusion range
    j = _match_layer(gates, j + 1, "X", q_set)
    if j is None:
        return None
    j = _match_layer(gates, j, "H", q_set)
    if j is None:
        return None
    ctrl_sel = None
    if extras:
        n_right = n - hi - 1
        ctrl_sel = _pattern_indices(n_right, _ones_mask([e - hi - 1 for e in extras], n_right), 0)
    return DiffusionOp(n, lo, hi - lo + 1, ctrl_sel), j


def _match_conjugated(gates: list[Gate], i: int, n: int) -> tuple[_Op, int] | None:
    """Recognise ``X*(S) (MCZ|MCP|MCX)(Q) X*(S)`` with ``S`` inside the
    controls of the central gate: a phase flip / bit swap on the conjugated
    pattern (controls in S must be 0, the rest 1)."""
    j = i
    s = []
    while j < len(gates) and gates[j].name == "X":
        s.append(gates[j].qubits[0])
        j += 1
    if not s or len(set(s)) != len(s) or j >= len(gates):
        return None
    s_set = frozenset(s)
    centre = gates[j]
    if centre.name in ("CZ", "MCZ", "MCP"):
        controls = set(centre.qubits)
    elif centre.name in ("CX", "MCX"):
        controls = set(centre.qubits[:-1])
    else:
        return None
    if not s_set <= controls:
        return None
    j = _match_layer(gates, j + 1, "X", s_set)
    if j is None:
        return None
    ones = _ones_mask(controls - s_set, n)
    zeros = _ones_mask(s_set, n)
    if centre.name in ("CZ", "MCZ"):
        op: _Op = PhaseMaskOp(_pattern_indices(n, ones, zeros), -1.0, oracle=centre.is_oracle)
    elif centre.name == "MCP":
        op = PhaseMaskOp(
            _pattern_indices(n, ones, zeros),
            cmath.exp(1j * centre.param),
            oracle=centre.is_oracle,
        )
    else:
        tbit = _bit(centre.qubits[-1], n)
        lo_idx, hi_idx = _pair_indices(n, ones, zeros, tbit)
        op = SwapPairsOp(lo_idx, hi_idx, oracle=centre.is_oracle)
    return op, j


def _recognise(circuit: Circuit) -> list[_Op]:
    """One left-to-right pass of motif recognition + per-gate lowering."""
    gates = list(circuit.gates)
    n = circuit.n_qubits
    ops: list[_Op] = []
    i = 0
    while i < len(gates):
        matched = _match_diffusion(gates, i, n)
        if matched is None:
            matched = _match_conjugated(gates, i, n)
        if matched is not None:
            op, i = matched
            ops.append(op)
            continue
        ops.append(_lower_gate(gates[i], n))
        i += 1
    return ops


# --------------------------------------------------------------------------
# peephole passes over the op list
# --------------------------------------------------------------------------

def _fuse_single_qubit(ops: list[_Op]) -> list[_Op]:
    """Fuse single-qubit ops per wire; ops on other wires commute through.

    Pending 2x2 matrices accumulate until an op that is not single-qubit
    appears (a barrier), at which point they flush in first-touched order
    (mutually commuting, so any order is exact).  Identity products vanish.
    """
    out: list[_Op] = []
    pending: dict[int, SingleQubitOp] = {}

    def flush() -> None:
        for op in pending.values():
            if not op.is_identity:
                out.append(op)
        pending.clear()

    for op in ops:
        if isinstance(op, SingleQubitOp):
            prev = pending.get(op.qubit)
            pending[op.qubit] = prev.fused_with(op) if prev is not None else op
        else:
            flush()
            out.append(op)
    flush()
    return out


def _fold_diffusion_sign(ops: list[_Op]) -> list[_Op]:
    """``DiffusionOp`` followed by ``GPHASE(pi)`` becomes one negated kernel
    (only for uncontrolled diffusion — a controlled one is not global)."""
    out: list[_Op] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        nxt = ops[i + 1] if i + 1 < len(ops) else None
        if (
            isinstance(op, DiffusionOp)
            and op.ctrl_sel is None
            and isinstance(nxt, GlobalPhaseOp)
            and abs(nxt.factor + 1.0) < 1e-15
        ):
            out.append(op.negated())
            i += 2
            continue
        out.append(op)
        i += 1
    return out


def _coalesce_diagonals(ops: list[_Op], dim: int) -> list[_Op]:
    """Merge runs of >= 2 diagonal ops into one phase vector — re-sparsified
    to a scalar or single masked multiply when the product allows."""
    def mergeable(op: _Op) -> bool:
        # Tagged queries stay standalone: query-structure inspection and
        # parametric-target substitution address them individually.
        return op.diagonal and not getattr(op, "oracle", False)

    out: list[_Op] = []
    i = 0
    while i < len(ops):
        if not mergeable(ops[i]):
            out.append(ops[i])
            i += 1
            continue
        j = i
        while j < len(ops) and mergeable(ops[j]):
            j += 1
        run = ops[i:j]
        i = j
        if len(run) == 1:
            out.append(run[0])
            continue
        vec = np.ones(dim, dtype=np.complex128)
        for op in run:
            op.apply(vec)
        merged = _sparsify_diagonal(vec)
        if merged is not None:
            out.append(merged)
    return out


def _sparsify_diagonal(vec: np.ndarray) -> _Op | None:
    """Cheapest op equivalent to multiplying by *vec* (None = identity)."""
    values = np.unique(vec)
    if values.size == 1:
        factor = complex(values[0])
        if abs(factor - 1.0) < 1e-15:
            return None
        return GlobalPhaseOp(factor)
    if values.size == 2 and np.any(np.abs(values - 1.0) < 1e-15):
        factor = complex(values[np.argmax(np.abs(values - 1.0))])
        idx = _frozen(np.flatnonzero(np.abs(vec - 1.0) >= 1e-15))
        return PhaseMaskOp(idx, factor)
    return DiagonalOp(vec)


# --------------------------------------------------------------------------
# the compiled program
# --------------------------------------------------------------------------

class CompiledCircuit:
    """A circuit lowered to fused ops, runnable on single or batched states.

    Attributes:
        n_qubits: wire count of the source circuit.
        ops: the fused operation list (inspection/testing surface).
        parametric: whether oracle-tagged ops read per-row targets
            (see :meth:`run_multi_target`).
    """

    def __init__(self, n_qubits: int, ops: list[_Op], parametric: bool = False):
        self.n_qubits = n_qubits
        self.ops = ops
        self.parametric = parametric

    @property
    def dim(self) -> int:
        """State-vector length ``2**n_qubits``."""
        return 1 << self.n_qubits

    @property
    def n_ops(self) -> int:
        """Fused program length (compare against the source gate count)."""
        return len(self.ops)

    def _initial(self, initial, lead: tuple[int, ...] = (), dtype=np.complex128) -> np.ndarray:
        if initial is None:
            state = np.zeros(lead + (self.dim,), dtype=dtype)
            state[..., 0] = 1.0
            return state
        state = np.array(initial, dtype=dtype, copy=True)
        if state.shape != lead + (self.dim,):
            raise ValueError(f"initial state must have shape {lead + (self.dim,)}")
        return state

    def run(self, initial: np.ndarray | None = None, *, dtype=np.complex128) -> np.ndarray:
        """Execute on one state; returns a fresh ``(2**n,)`` complex array.

        ``dtype`` selects the state precision (the
        :class:`~repro.kernels.ExecutionPolicy` complex dtype); every fused
        op preserves it, downcasting its constants once per program.
        """
        if self.parametric:
            raise ValueError("parametric programs need run_multi_target(targets)")
        state = self._initial(initial, dtype=dtype)
        for op in self.ops:
            state = op.apply(state)
        return state

    def run_batch(self, initials: np.ndarray, *, dtype=np.complex128) -> np.ndarray:
        """Execute on a ``(B, 2**n)`` batch of states in one fused sweep.

        Every row evolves under the same program; masks, fused matrices and
        diffusion plans are shared across the batch.
        """
        if self.parametric:
            raise ValueError("parametric programs need run_multi_target(targets)")
        initials = np.asarray(initials)
        if initials.ndim != 2:
            raise ValueError("run_batch expects a (B, 2**n) state matrix")
        state = self._initial(initials, lead=(initials.shape[0],), dtype=dtype)
        for op in self.ops:
            state = op.apply(state)
        return state

    def run_multi_target(
        self, targets, initial: np.ndarray | None = None, *, dtype=np.complex128
    ) -> np.ndarray:
        """Execute one row per target; oracle ops act on each row's target.

        Args:
            targets: shape ``(B,)`` target addresses, one per row.
            initial: optional shared ``(2**n,)`` initial state (default
                ``|0...0>``); every row starts from it.
            dtype: state precision (see :meth:`run`).

        Returns:
            The ``(B, 2**n)`` final states.
        """
        if not self.parametric:
            raise ValueError("program was not compiled with parametric_targets=True")
        targets = np.asarray(targets, dtype=np.intp)
        if targets.ndim != 1 or targets.size == 0:
            raise ValueError("targets must be a non-empty 1-D collection")
        rows = np.arange(targets.size)
        if initial is not None:
            initial = np.broadcast_to(
                np.asarray(initial, dtype=dtype), (targets.size, self.dim)
            )
        state = self._initial(initial, lead=(targets.size,), dtype=dtype)
        for op in self.ops:
            if isinstance(op, _PARAMETRIC_TYPES):
                state = op.apply_multi(state, rows, targets)
            else:
                state = op.apply(state)
        return state


def _parametrise(
    ops: list[_Op], n_qubits: int, n_address_qubits: int, n_oracle_gates: int
) -> list[_Op]:
    """Swap oracle-tagged pattern ops for target-parametric equivalents.

    Requires each oracle op to control on exactly the ``n_address_qubits``
    leading wires (the builders' convention), so a row's target selects a
    contiguous index range.
    """
    n_free = n_qubits - n_address_qubits
    n_found = 0
    out: list[_Op] = []
    for op in ops:
        if isinstance(op, PhaseMaskOp) and op.oracle:
            base, last = int(op.indices[0]), int(op.indices[-1])
            block = 1 << n_free
            if op.indices.size != block or base % block or last != base + block - 1:
                raise ValueError("oracle pattern does not cover the address register")
            if abs(op.factor + 1.0) > 1e-15:
                raise ValueError("parametric oracles must be phase flips")
            out.append(ParametricPhaseFlipOp(n_free))
            n_found += 1
        elif isinstance(op, SwapPairsOp) and op.oracle:
            if n_free != 1 or op.lo.size != 1 or int(op.hi[0]) != int(op.lo[0]) | 1:
                raise ValueError(
                    "parametric move-out needs the ancilla as the only free wire"
                )
            out.append(ParametricMoveOutOp())
            n_found += 1
        else:
            out.append(op)
    if n_found != n_oracle_gates:
        raise ValueError(
            f"found {n_found} oracle ops but the circuit tags {n_oracle_gates}; "
            "an oracle gate was fused away or not pattern-matched"
        )
    return out


def compile_circuit(
    circuit: Circuit,
    *,
    optimize: bool = True,
    parametric_targets: bool = False,
    n_address_qubits: int | None = None,
) -> CompiledCircuit:
    """Lower *circuit* into a :class:`CompiledCircuit`.

    Args:
        circuit: the source circuit (not mutated; compiled by value).
        optimize: run the fusion passes (motif recognition always runs; with
            ``optimize=False`` the peephole passes are skipped — used by
            tests to compare pass output).
        parametric_targets: replace oracle-tagged pattern ops with per-row
            target ops for :meth:`CompiledCircuit.run_multi_target`.  The
            source circuit's concrete target is ignored at run time.
        n_address_qubits: width of the address register (leading wires);
            required with ``parametric_targets``.  Defaults to ``n_qubits``.

    Returns:
        The compiled program.
    """
    ops = _recognise(circuit)
    if optimize:
        ops = _fuse_single_qubit(ops)
        ops = _fold_diffusion_sign(ops)
        ops = _coalesce_diagonals(ops, 1 << circuit.n_qubits)
    if parametric_targets:
        n_addr = circuit.n_qubits if n_address_qubits is None else n_address_qubits
        ops = _parametrise(ops, circuit.n_qubits, n_addr, circuit.oracle_queries)
    return CompiledCircuit(circuit.n_qubits, ops, parametric=parametric_targets)


#: Memoised programs keyed on :attr:`Circuit.structural_fingerprint` — the
#: O(1) running digest folded at ``Circuit.append`` time, so a cache hit
#: never re-hashes the ~2.5k-gate tuple.  Insertion-ordered dict used as an
#: LRU: hits are re-inserted at the end, eviction pops the front.
_COMPILE_CACHE: dict[tuple, CompiledCircuit] = {}
_COMPILE_CACHE_MAX = 64
_COMPILE_CACHE_LOCK = threading.Lock()
_compile_cache_stats = {"hits": 0, "misses": 0}


def compile_cache_info() -> dict:
    """Hit/miss/size counters of the fingerprint-keyed compile cache."""
    with _COMPILE_CACHE_LOCK:
        return {**_compile_cache_stats, "size": len(_COMPILE_CACHE)}


def clear_compile_cache() -> None:
    """Drop every memoised program (and reset the counters)."""
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()
        _compile_cache_stats["hits"] = 0
        _compile_cache_stats["misses"] = 0


def run_circuit_compiled(
    circuit: Circuit, initial: np.ndarray | None = None, *, dtype=np.complex128
) -> np.ndarray:
    """Drop-in replacement for :func:`repro.circuits.simulator.run_circuit`
    that compiles (memoised on the circuit's structural fingerprint) and
    executes at the requested state *dtype*."""
    key = circuit.structural_fingerprint
    with _COMPILE_CACHE_LOCK:
        program = _COMPILE_CACHE.pop(key, None)
        if program is not None:
            _compile_cache_stats["hits"] += 1
            _COMPILE_CACHE[key] = program  # refresh LRU recency
    if program is None:
        # Compile outside the lock (it is the expensive part); a racing
        # duplicate compile is harmless — last writer wins.
        program = compile_circuit(circuit)
        with _COMPILE_CACHE_LOCK:
            _compile_cache_stats["misses"] += 1
            while len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
                _COMPILE_CACHE.pop(next(iter(_COMPILE_CACHE)), None)
            _COMPILE_CACHE[key] = program
    return program.run(initial, dtype=dtype)
