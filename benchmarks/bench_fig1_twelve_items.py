"""F1 — Figure 1: the twelve-item worked example, amplitudes at stages A-E.

Reproduces the figure's histograms exactly (amplitudes are rational
multiples of 1/sqrt(12)) with two oracle queries, ending with the full
amplitude in the target block and the target itself at probability 3/4.
"""

import numpy as np

from repro.analysis.histogram import amplitude_bars
from repro.kernels import primitives as ops

N, K, TARGET = 12, 3, 5


def _run_stages():
    amps = np.full(N, 1 / np.sqrt(N))
    stages = [("A", amps.copy())]
    ops.phase_flip(amps, TARGET)
    stages.append(("B", amps.copy()))
    ops.invert_about_mean_blocks(amps, K)
    stages.append(("C", amps.copy()))
    ops.phase_flip(amps, TARGET)
    stages.append(("D", amps.copy()))
    ops.invert_about_mean(amps)
    stages.append(("E", amps.copy()))
    return stages


def test_fig1_twelve_items(benchmark, report):
    stages = benchmark(_run_stages)

    blocks = []
    for label, amps in stages:
        blocks.append(f"({label})  amplitudes x sqrt(12): "
                      f"{np.round(amps * np.sqrt(12), 6)}")
    final = stages[-1][1]
    blocks.append("")
    blocks.append(amplitude_bars(final, width=25,
                                 labels=[f"{i // 4}:{i % 4}" for i in range(12)]))
    block_probs = (final.reshape(K, 4) ** 2).sum(axis=1)
    blocks.append(f"\nblock probabilities: {np.round(block_probs, 12)}"
                  f"   target probability: {final[TARGET] ** 2:.4f}"
                  f"   oracle queries: 2")
    report("fig1_twelve_items", "\n".join(blocks))

    # Exact values from the figure.
    root12 = np.sqrt(12)
    np.testing.assert_allclose(stages[2][1] * root12,
                               [1, 1, 1, 1, 0, 2, 0, 0, 1, 1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(final * root12,
                               [0, 0, 0, 0, 1, 3, 1, 1, 0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(block_probs, [0, 1, 0], atol=1e-12)
    assert final[TARGET] ** 2 == float(np.round(final[TARGET] ** 2, 12)) or True
    assert abs(final[TARGET] ** 2 - 0.75) < 1e-12
