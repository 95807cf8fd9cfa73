"""Gate-level circuit IR: the paper's algorithms as real quantum circuits.

The structured kernels in :mod:`repro.kernels.primitives` are mathematically
convenient but hide the circuit cost model.  This package expresses the same
algorithms with an explicit gate set — ``H``, ``X``, ``Z``, phase gates,
multi-controlled ``Z``/``X`` and a bookkeeping global phase — and simulates
them qubit-wise, so the test suite can verify gate-for-gate that

- the oracle circuit (X-conjugated MCZ) equals ``I_t``,
- the diffusion circuit (``H X MCZ X H`` + global phase) equals ``I_0``,
- the block diffusion acts only on the last ``n - k`` qubits (= ``I_K ⊗
  I_0,[N/K]`` because the block index is the *first* k bits),
- the full Step 1/2/3 circuit — ancilla included — reproduces the
  state-vector runner's output exactly.

Qubit convention: qubit 0 is the **most significant** address bit, matching
the paper's "first k bits" semantics; the optional ancilla is the last wire.

Execution backends
------------------
Two registered simulator backends execute circuits (:data:`BACKENDS`,
selected by name through :func:`execute` or the ``backend=`` parameters on
the :mod:`repro.core` runners):

- ``"naive"`` — :func:`~repro.circuits.simulator.run_circuit`: gate-by-gate
  interpretation.  Simple, obviously correct; kept as the oracle against
  which the compiled backend is property-tested.
- ``"compiled"`` — :func:`~repro.circuits.compiler.run_circuit_compiled`:
  lowers the circuit once (memoised on the gate sequence) into a fused
  program, then executes it.  The fusion rules, in order:

  1. *oracle/move-out recognition* — an ``X``-layer-conjugated ``MCZ`` /
     ``MCP`` / ``MCX`` becomes one masked phase flip or index swap on the
     conjugated bit pattern;
  2. *diffusion recognition* — the ``H* X* MCZ X* H*`` motif becomes a
     single O(N) inversion-about-the-mean kernel (the
     :mod:`repro.kernels.primitives` operator), with a following
     ``GPHASE(pi)`` folded into its sign;
  3. *single-qubit fusion* — adjacent 2x2 gates on one wire (gates on other
     wires commute through) multiply together; identity products vanish;
  4. *diagonal coalescing* — runs of diagonal gates merge into one phase
     vector, re-sparsified to a scalar or masked multiply when possible;
  5. *mask caching* — every pattern index array is precomputed once per
     ``(n_qubits, ones_mask, zeros_mask)`` signature and shared
     process-wide.

  Compiled programs also run ``(B, N)`` batches
  (:meth:`~repro.circuits.compiler.CompiledCircuit.run_batch`) and, when
  compiled with ``parametric_targets=True``, per-row-target sweeps
  (:meth:`~repro.circuits.compiler.CompiledCircuit.run_multi_target`) —
  one program, one set of masks, every target at once.
"""

from repro.circuits.gates import Gate
from repro.circuits.circuit import Circuit
from repro.circuits.simulator import apply_gate, run_circuit
from repro.circuits.compiler import (
    CompiledCircuit,
    compile_circuit,
    run_circuit_compiled,
)
from repro.circuits.builders import (
    block_diffusion_circuit,
    diffusion_circuit,
    grover_circuit,
    oracle_circuit,
    partial_search_circuit,
    uniform_superposition_circuit,
)

__all__ = [
    "Gate",
    "Circuit",
    "apply_gate",
    "run_circuit",
    "CompiledCircuit",
    "compile_circuit",
    "run_circuit_compiled",
    "BACKENDS",
    "get_backend",
    "execute",
    "block_diffusion_circuit",
    "diffusion_circuit",
    "grover_circuit",
    "oracle_circuit",
    "partial_search_circuit",
    "uniform_superposition_circuit",
]

#: Registered simulator backends:
#: name -> ``f(circuit, initial=None, *, dtype=np.complex128) -> state``.
#: ``dtype`` is the state precision the :class:`~repro.kernels.ExecutionPolicy`
#: selects; :func:`execute` forwards it whenever a caller supplies one, so
#: every registered backend must accept the keyword.
BACKENDS = {
    "naive": run_circuit,
    "compiled": run_circuit_compiled,
}


def get_backend(name: str):
    """Look up a simulator backend by registry name.

    Raises:
        ValueError: for unknown names (listing the known ones).
    """
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None


def execute(circuit: Circuit, initial=None, *, backend: str = "naive",
            dtype=None):
    """Run *circuit* on the selected backend; returns the final state.

    ``dtype`` selects the state precision (``None`` = the backends'
    complex128 default); both registered backends thread it through to
    their kernels, so a complex64 request stays complex64 end to end.
    """
    runner = get_backend(backend)
    if dtype is None:
        return runner(circuit, initial)
    return runner(circuit, initial, dtype=dtype)
