"""Circuit builders for every unitary the paper uses.

All builders follow the same conventions:

- qubit 0 is the most significant address bit (the first of the "first k
  bits"); an ancilla, when present, is the **last** wire, so a basis index
  reads ``address * 2 + ancilla``;
- each oracle invocation tags exactly one gate (``MCZ`` for the phase
  oracle, ``MCX`` for the bit-flip/move-out oracle) with ``tag="oracle"``,
  making :attr:`repro.circuits.circuit.Circuit.oracle_queries` the paper's
  query count;
- diffusion circuits include a ``GPHASE(pi)`` so they equal ``+I_0 = 2
  |psi_0><psi_0| - I`` *exactly* (not up to sign), letting tests compare
  state vectors elementwise against :mod:`repro.kernels.primitives`.
"""

from __future__ import annotations

import math

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.util.bits import int_to_bits

__all__ = [
    "uniform_superposition_circuit",
    "oracle_circuit",
    "move_out_circuit",
    "diffusion_circuit",
    "block_diffusion_circuit",
    "grover_circuit",
    "partial_search_circuit",
]


def _address_qubits(n_address_qubits: int) -> tuple[int, ...]:
    return tuple(range(n_address_qubits))


def uniform_superposition_circuit(n_qubits: int, qubits=None) -> Circuit:
    """``H`` on every listed qubit (all wires by default): ``|0..0> -> |psi_0>``."""
    circ = Circuit(n_qubits)
    for q in qubits if qubits is not None else range(n_qubits):
        circ.append(Gate("H", (q,)))
    return circ


def _x_conjugation(circ: Circuit, qubits, pattern_bits) -> None:
    """X on each qubit whose pattern bit is 0 (maps the pattern to all-ones)."""
    for q, bit in zip(qubits, pattern_bits):
        if bit == 0:
            circ.append(Gate("X", (q,)))


def oracle_circuit(n_qubits: int, target: int, n_address_qubits: int | None = None) -> Circuit:
    """The phase oracle ``I_t = I - 2|t><t|`` on the address register.

    X-conjugate the target pattern onto all-ones, apply one (oracle-tagged)
    ``MCZ`` over the address qubits, undo the conjugation.
    """
    if n_address_qubits is None:
        n_address_qubits = n_qubits
    qubits = _address_qubits(n_address_qubits)
    bits = int_to_bits(target, n_address_qubits)
    circ = Circuit(n_qubits)
    _x_conjugation(circ, qubits, bits)
    circ.append(Gate("MCZ", qubits, tag="oracle"))
    _x_conjugation(circ, qubits, bits)
    return circ


def move_out_circuit(n_qubits: int, target: int, n_address_qubits: int) -> Circuit:
    """Step 3's ``M`` (= the bit-flip oracle ``T_f``): flip the ancilla
    (last wire) iff the address equals the target.  One tagged query."""
    if n_address_qubits >= n_qubits:
        raise ValueError("move-out needs an ancilla wire after the address qubits")
    qubits = _address_qubits(n_address_qubits)
    bits = int_to_bits(target, n_address_qubits)
    ancilla = n_qubits - 1
    circ = Circuit(n_qubits)
    _x_conjugation(circ, qubits, bits)
    circ.append(Gate("MCX", qubits + (ancilla,), tag="oracle"))
    _x_conjugation(circ, qubits, bits)
    return circ


def _diffusion_core(circ: Circuit, qubits, extra_controls=()) -> None:
    """``H X (MCZ over qubits+extra_controls) X H`` on *qubits*."""
    for q in qubits:
        circ.append(Gate("H", (q,)))
    for q in qubits:
        circ.append(Gate("X", (q,)))
    circ.append(Gate("MCZ", tuple(qubits) + tuple(extra_controls)))
    for q in qubits:
        circ.append(Gate("X", (q,)))
    for q in qubits:
        circ.append(Gate("H", (q,)))


def diffusion_circuit(n_qubits: int, qubits=None) -> Circuit:
    """``I_0 = 2|psi_0><psi_0| - I`` over the listed qubits (all by default).

    The trailing ``GPHASE(pi)`` converts the natural
    ``H X MCZ X H = I - 2|psi_0><psi_0|`` into exactly ``+I_0``.
    """
    if qubits is None:
        qubits = tuple(range(n_qubits))
    circ = Circuit(n_qubits)
    _diffusion_core(circ, tuple(qubits))
    circ.append(Gate("GPHASE", (), math.pi))
    return circ


def block_diffusion_circuit(n_qubits: int, n_block_bits: int, n_address_qubits: int | None = None) -> Circuit:
    """``I_K ⊗ I_0,[N/K]``: diffusion on the *last* ``n - k`` address qubits.

    Because the block index is the first ``k`` bits, acting on the remaining
    address qubits performs an independent inversion about the mean inside
    every block simultaneously — Step 2's parallel operator.
    """
    if n_address_qubits is None:
        n_address_qubits = n_qubits
    if not 0 <= n_block_bits < n_address_qubits:
        raise ValueError("need 0 <= n_block_bits < n_address_qubits")
    qubits = tuple(range(n_block_bits, n_address_qubits))
    circ = Circuit(n_qubits)
    _diffusion_core(circ, qubits)
    circ.append(Gate("GPHASE", (), math.pi))
    return circ


def grover_circuit(n_qubits: int, target: int, iterations: int) -> Circuit:
    """Full standard-search circuit: preparation + ``iterations`` of
    ``I_0 · I_t`` (each costing one tagged query)."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    circ = uniform_superposition_circuit(n_qubits)
    step = oracle_circuit(n_qubits, target).compose(diffusion_circuit(n_qubits))
    return circ.compose(step.repeated(iterations))


def _controlled_on_zero_diffusion(n_qubits: int, n_address_qubits: int) -> Circuit:
    """Step 3's controlled inversion: ``|0><0|_b ⊗ I_0 + |1><1|_b ⊗ I``.

    Built as ``X(b) · [H X (MCZ over address + b) X H] · X(b)`` — the
    conjugating layers cancel on the ``b = 1`` branch — followed by
    ``GPHASE(pi) · Z(b)``, which applies the −1 exactly on the ``b = 0``
    branch (turning ``I - 2|psi_0><psi_0|`` into ``+I_0`` there and the
    identity into the identity on ``b = 1``).
    """
    ancilla = n_qubits - 1
    qubits = _address_qubits(n_address_qubits)
    circ = Circuit(n_qubits)
    circ.append(Gate("X", (ancilla,)))
    _diffusion_core(circ, qubits, extra_controls=(ancilla,))
    circ.append(Gate("X", (ancilla,)))
    circ.append(Gate("GPHASE", (), math.pi))
    circ.append(Gate("Z", (ancilla,)))
    return circ


def partial_search_circuit(
    n_address_qubits: int,
    n_block_bits: int,
    target: int,
    l1: int,
    l2: int,
) -> Circuit:
    """The complete GRK circuit on ``n + 1`` wires (ancilla last).

    Steps: uniform preparation; ``l1`` global iterations; ``l2`` block-local
    iterations; move-out ``M``; controlled inversion about the average.
    ``oracle_queries`` of the result equals ``l1 + l2 + 1``.  Measuring the
    first ``n_block_bits`` wires of the output yields the target's block.
    """
    if not 1 <= n_block_bits < n_address_qubits:
        raise ValueError("need 1 <= n_block_bits < n_address_qubits")
    if l1 < 0 or l2 < 0:
        raise ValueError("iteration counts must be non-negative")
    n_qubits = n_address_qubits + 1
    circ = uniform_superposition_circuit(n_qubits, qubits=range(n_address_qubits))
    global_step = oracle_circuit(n_qubits, target, n_address_qubits).compose(
        diffusion_circuit(n_qubits, qubits=range(n_address_qubits))
    )
    block_step = oracle_circuit(n_qubits, target, n_address_qubits).compose(
        block_diffusion_circuit(n_qubits, n_block_bits, n_address_qubits)
    )
    circ = circ.compose(global_step.repeated(l1)).compose(block_step.repeated(l2))
    circ = circ.compose(move_out_circuit(n_qubits, target, n_address_qubits))
    circ = circ.compose(_controlled_on_zero_diffusion(n_qubits, n_address_qubits))
    return circ
