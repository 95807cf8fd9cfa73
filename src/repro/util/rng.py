"""Deterministic random-number plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an ``int``, or an existing
``numpy.random.Generator``; :func:`as_rng` normalises all three.  Code that
runs many independent trials or rows uses :func:`spawn_rngs` so each one
gets an independent, reproducible stream (``SeedSequence.spawn`` guarantees
statistical independence).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng", "spawn_rngs"]

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_rng(seed=None) -> np.random.Generator:
    """Coerce *seed* into a ``numpy.random.Generator``.

    Passing an existing ``Generator`` returns it unchanged, so library code
    can thread one RNG through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """*count* independent generators derived deterministically from *seed*.

    Stream ``i`` depends only on *seed* and ``i``: the Monte Carlo harness
    (:func:`repro.classical.estimate_expected_queries`) gives trial ``i``
    stream ``i``, and a stochastic batch gives it to row ``i``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own stream.
        seed = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    elif not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seed.spawn(count)]
