"""F3 — Figure 3: Step 1 stops the state vector theta = eps*pi/2 short.

Runs Step 1 alone on the simulator for a sweep of eps and measures the
actual angle between the evolved state and the target, confirming the
rotation picture the figure draws (and that the integer iteration count
stops *at or just short of* the requested angle, never past it).
"""

import math

import numpy as np

from repro import SingleTargetDatabase
from repro.grover.angles import grover_angle
from repro.kernels import primitives as ops
from repro.oracle import PhaseOracle
from repro.core.parameters import GRKParameters
from repro.util.tables import format_table

N, K, TARGET = 2**16, 4, 12345
EPS_SWEEP = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)


def _measure_angles():
    rows = []
    for eps in EPS_SWEEP:
        params = GRKParameters(K, eps)
        l1 = params.l1(N)
        db = SingleTargetDatabase(N, TARGET)
        amps = np.full(N, 1 / math.sqrt(N))
        oracle = PhaseOracle(db)
        for _ in range(l1):
            oracle.apply(amps)
            ops.invert_about_mean(amps)
        measured_theta = math.acos(min(1.0, float(abs(amps[TARGET]))))
        rows.append((eps, l1, eps * math.pi / 2, measured_theta))
    return rows


def test_fig3_step1_angle(benchmark, report):
    rows = benchmark(_measure_angles)

    report(
        "fig3_step1_angle",
        format_table(
            ["eps", "l1", "requested theta", "measured theta"],
            [[e, l1, t_req, t_meas] for e, l1, t_req, t_meas in rows],
            float_fmt=".4f",
            title="Step 1 stopping angle (N=2^16, K=4): theta = eps*pi/2",
        ),
    )

    step = 2 * grover_angle(N)  # angle resolution of one iteration
    for eps, _l1, t_req, t_meas in rows:
        assert t_meas >= t_req - 1e-9         # never past the requested angle
        assert t_meas - t_req <= step + 1e-9  # within one iteration of it
