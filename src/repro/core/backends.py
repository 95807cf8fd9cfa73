"""Backend-selection helpers shared by the core runners.

Three execution backends serve the GRK runners: ``"kernels"`` (structured
:mod:`repro.kernels.primitives` reflections, any ``K | N`` geometry) and the
two registered gate-level circuit simulators ``"naive"`` / ``"compiled"``
(see :data:`repro.circuits.BACKENDS`), which need power-of-two geometry.
"""

from __future__ import annotations

from repro.core.blockspec import BlockSpec
from repro.util.bits import ilog2

__all__ = [
    "KERNEL_BACKEND",
    "CIRCUIT_BACKENDS",
    "STATE_BACKENDS",
    "validate_backend",
    "circuit_geometry",
]

KERNEL_BACKEND = "kernels"
CIRCUIT_BACKENDS = ("naive", "compiled")
#: The backends that hold a state vector.  Any other backend (the classical
#: scans) holds no state, so an ``ExecutionPolicy`` has nothing to act on.
STATE_BACKENDS = (KERNEL_BACKEND, *CIRCUIT_BACKENDS)


def validate_backend(backend: str) -> str:
    """Check *backend* is a known runner backend; returns it unchanged."""
    if backend not in STATE_BACKENDS:
        known = ", ".join(STATE_BACKENDS)
        raise ValueError(f"unknown backend {backend!r} (known: {known})")
    return backend


def circuit_geometry(spec: BlockSpec, backend: str) -> tuple[int, int]:
    """``(n_address_qubits, n_block_bits)`` for the circuit backends.

    Raises:
        ValueError: when ``N`` or ``K`` is not a power of two — gate-level
            circuits cannot express that geometry.
    """
    try:
        return ilog2(spec.n_items), ilog2(spec.n_blocks)
    except ValueError:
        raise ValueError(
            f"backend {backend!r} runs gate-level circuits and needs N and K "
            f"to be powers of two, got (N={spec.n_items}, K={spec.n_blocks}); "
            "use backend='kernels' for general geometries"
        ) from None
