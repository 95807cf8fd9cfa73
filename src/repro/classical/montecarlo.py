"""Monte Carlo harness for expected-query estimation.

Runs a caller-supplied single-trial function over many independent trials,
in turn, with deterministic per-trial RNG streams
(:func:`repro.util.rng.spawn_rngs`) and reports mean query counts with a
standard error, so benches can print "measured vs formula" rows honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.rng import spawn_rngs

__all__ = ["MonteCarloEstimate", "estimate_expected_queries"]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample statistics of a query-count experiment.

    Attributes:
        mean: sample mean of the per-trial query counts.
        std_error: standard error of the mean.
        n_trials: number of trials.
        minimum / maximum: range observed (useful to confirm zero-error
            algorithms never exceed their worst case).
    """

    mean: float
    std_error: float
    n_trials: int
    minimum: float
    maximum: float

    def within(self, expected: float, n_sigmas: float = 4.0) -> bool:
        """Is *expected* inside ``mean ± n_sigmas * std_error``?"""
        return abs(self.mean - expected) <= n_sigmas * max(self.std_error, 1e-12)


def estimate_expected_queries(
    trial: Callable[[object, np.random.Generator], float],
    n_trials: int,
    *,
    seed=None,
) -> MonteCarloEstimate:
    """Estimate ``E[queries]`` of a randomized algorithm.

    Args:
        trial: ``trial(task_index, rng) -> query count`` for one run.
        n_trials: number of independent trials.
        seed: root seed; trial ``i`` draws from
            ``spawn_rngs(seed, n_trials)[i]``.

    Returns:
        :class:`MonteCarloEstimate`.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    counts = np.array(
        [trial(i, rng) for i, rng in enumerate(spawn_rngs(seed, n_trials))],
        dtype=float,
    )
    return MonteCarloEstimate(
        mean=float(counts.mean()),
        std_error=float(counts.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0,
        n_trials=n_trials,
        minimum=float(counts.min()),
        maximum=float(counts.max()),
    )
