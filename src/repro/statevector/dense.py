"""Dense-matrix mirrors of every structured operator, for cross-validation.

Building the full ``N x N`` (or ``2N x 2N`` with ancilla) unitaries is
O(N^2) memory — useless for production runs but invaluable for tests: every
kernel in :mod:`repro.kernels.primitives` is checked elementwise against the
matrix built here, and each matrix is checked for unitarity.  Keeping the
mirrors in the package (rather than in the test tree) also documents the
exact linear algebra each structured kernel implements.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "phase_flip_matrix",
    "phase_rotate_matrix",
    "diffusion_matrix",
    "block_diffusion_matrix",
    "masked_diffusion_matrix",
    "controlled_diffusion_with_ancilla",
    "move_out_matrix",
    "grover_matrix",
    "block_grover_matrix",
    "reflection_matrix",
    "is_unitary",
]


def phase_flip_matrix(n_items: int, index) -> np.ndarray:
    """``I_t = I - 2 sum_{t in index} |t><t|`` as a dense matrix."""
    mat = np.eye(n_items)
    mat[index, index] = -1.0
    return mat


def phase_rotate_matrix(n_items: int, index, phase: float) -> np.ndarray:
    """Generalised oracle: ``|t>`` picks up ``e^{i*phase}``."""
    mat = np.eye(n_items, dtype=np.complex128)
    mat[index, index] = np.exp(1j * phase)
    return mat


def diffusion_matrix(n_items: int, phase: float = np.pi) -> np.ndarray:
    """``D(phase) = (1 - e^{i*phase}) |psi_0><psi_0| - I`` (dense).

    ``D(pi) = 2|psi_0><psi_0| - I`` is the paper's ``I_0``.
    """
    projector = np.full((n_items, n_items), 1.0 / n_items)
    if phase == np.pi:
        return 2.0 * projector - np.eye(n_items)
    return (1.0 - np.exp(1j * phase)) * projector - np.eye(n_items, dtype=np.complex128)


def block_diffusion_matrix(n_items: int, n_blocks: int, phase: float = np.pi) -> np.ndarray:
    """``I_K ⊗ D_[N/K](phase)`` — Step 2's block-parallel diffusion (dense)."""
    if n_blocks <= 0 or n_items % n_blocks != 0:
        raise ValueError(f"n_blocks={n_blocks} must divide n_items={n_items}")
    block = diffusion_matrix(n_items // n_blocks, phase)
    return np.kron(np.eye(n_blocks), block)


def masked_diffusion_matrix(n_items: int, mask) -> np.ndarray:
    """Dense mirror of
    :func:`repro.kernels.primitives.invert_about_mean_masked`.

    ``2|u_m><u_m| - I`` on the masked subspace (``|u_m>`` uniform over the
    ``m`` masked addresses), identity outside.  Unitary for every mask.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_items,):
        raise ValueError("mask must have shape (n_items,)")
    mat = np.eye(n_items)
    m = np.where(mask)[0]
    if m.size:
        mat[np.ix_(m, m)] = (2.0 / m.size) - np.eye(m.size)
    return mat


def controlled_diffusion_with_ancilla(n_items: int) -> np.ndarray:
    """The exact Step 3 unitary on the ``2N``-dimensional (ancilla, address) space.

    ``|0><0|_b ⊗ (2|psi_0><psi_0| - I) + |1><1|_b ⊗ I`` — inversion about the
    average controlled on the ancilla being 0.
    """
    top = diffusion_matrix(n_items)
    out = np.zeros((2 * n_items, 2 * n_items))
    out[:n_items, :n_items] = top
    out[n_items:, n_items:] = np.eye(n_items)
    return out


def move_out_matrix(n_items: int, target: int) -> np.ndarray:
    """Step 3's ``M``: flip the ancilla iff the address is the target.

    Basis ordering is ``(b, x)`` flattened with the ancilla as the slow axis:
    index ``b * N + x``.  ``M`` swaps ``(0, t) <-> (1, t)``.
    """
    out = np.eye(2 * n_items)
    t0, t1 = target, n_items + target
    out[t0, t0] = out[t1, t1] = 0.0
    out[t0, t1] = out[t1, t0] = 1.0
    return out


def reflection_matrix(axis_state: np.ndarray, phase: float = np.pi) -> np.ndarray:
    """``I - (1 - e^{i*phase}) |s><s|`` for a unit vector ``s`` (dense)."""
    s = np.asarray(axis_state).reshape(-1, 1)
    outer = s @ s.conj().T
    if phase == np.pi:
        return np.eye(s.size) - 2.0 * outer.real if not np.iscomplexobj(s) else np.eye(s.size) - 2.0 * outer
    return np.eye(s.size, dtype=np.complex128) - (1.0 - np.exp(1j * phase)) * outer


def grover_matrix(n_items: int, target: int) -> np.ndarray:
    """One full Grover iteration ``A = I_0 I_t`` (dense)."""
    return diffusion_matrix(n_items) @ phase_flip_matrix(n_items, target)


def block_grover_matrix(n_items: int, n_blocks: int, target: int) -> np.ndarray:
    """One Step 2 iteration ``A_[N/K] = (I_K ⊗ I_0,[N/K]) I_t`` (dense)."""
    return block_diffusion_matrix(n_items, n_blocks) @ phase_flip_matrix(n_items, target)


def is_unitary(mat: np.ndarray, atol: float = 1e-10) -> bool:
    """Check ``U U^dagger = I`` within *atol*."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    return bool(np.allclose(mat @ mat.conj().T, np.eye(n), atol=atol))
