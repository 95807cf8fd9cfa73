"""Analysis helpers: closed-form theory, amplitude histograms, sweeps.

Nothing here performs quantum evolution; these modules interpret results
from :mod:`repro.core` / :mod:`repro.grover` and render the paper's figures
and tables as text.
"""

from repro.analysis.theory import (
    LARGE_K_CONSTANT,
    classical_randomized_partial_coefficient,
    large_k_coefficient,
    large_k_epsilon,
    naive_quantum_coefficient,
    savings_factor,
)
from repro.analysis.histogram import (
    amplitude_bars,
    block_profile,
    figure_histogram,
)
from repro.analysis.sweep import sweep_coefficients

__all__ = [
    "LARGE_K_CONSTANT",
    "classical_randomized_partial_coefficient",
    "large_k_coefficient",
    "large_k_epsilon",
    "naive_quantum_coefficient",
    "savings_factor",
    "amplitude_bars",
    "block_profile",
    "figure_histogram",
    "sweep_coefficients",
]
