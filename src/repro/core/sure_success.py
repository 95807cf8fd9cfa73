"""Partial search "with certainty": the paper's sure-success modification.

Theorem 1 notes the algorithm "can be modified to give the correct answer
with certainty while increasing the number of queries by at most a
constant".  This module realises that remark the same way Long's
zero-failure full search does (reference [6]): replace the final reflections
by *phased* reflections whose two continuous phases per iteration supply the
freedom that integer iteration counts lack.

Construction:

- run Step 1 unchanged (``l1`` standard iterations);
- run ``l2 - 1`` standard Step 2 iterations, then **two phased** block
  iterations ``D_block(phi_d) · O(phi_o)`` — four free phases in total;
- run Step 3 unchanged.

Step 3 zeroes the non-target blocks iff the (now complex) per-address
outside amplitude satisfies ``w_final = 2*S/N - w = 0`` — two real
constraints, met exactly by solving for the four phases.  Crucially the
constraints involve only the *symmetric subspace coordinates*, which do not
depend on which address is marked, so the phases are solved **offline** on
the analytic model (:mod:`repro.core.subspace` generalised to complex
coordinates below) at zero oracle cost, then the real oracle run spends
``l1 + (l2-1) + 2 + 1`` queries — one more than the plain schedule.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from repro.core.algorithm import PartialSearchResult, _single_target_of
from repro.core.blockspec import BlockSpec
from repro.core.parameters import GRKSchedule, plan_schedule
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import SubspaceGRK
from repro.grover.amplify import solve_phases
from repro.oracle.database import Database
from repro.oracle.quantum import BitFlipOracle, PhaseOracle
from repro.statevector import ops
from repro.statevector.measurement import block_probabilities

__all__ = ["SureSuccessPlan", "plan_sure_success", "run_sure_success_partial_search"]


@dataclass(frozen=True)
class SureSuccessPlan:
    """A solved sure-success schedule (target-independent).

    Attributes:
        spec: the ``(N, K)`` geometry.
        l1: standard Step 1 iterations.
        l2_base: standard Step 2 iterations before the phased tail.
        phases: flat tuple ``(phi_o1, phi_d1, phi_o2, phi_d2, ...)`` for the
            phased tail iterations.
        predicted_failure: exact residual failure probability of the plan
            (machine-precision scale).
    """

    spec: BlockSpec
    l1: int
    l2_base: int
    phases: tuple[float, ...]
    predicted_failure: float

    @property
    def queries(self) -> int:
        """Total oracle queries: ``l1 + l2_base + len(phases)/2 + 1``."""
        return self.l1 + self.l2_base + len(self.phases) // 2 + 1

    @property
    def program(self) -> PartialSearchProgram:
        """``[global l1, block l2_base, block 1 (φo, φd) per phase pair]``,
        Step 3 at π."""
        tail = tuple(
            ProgramStage(BLOCK, 1, self.phases[i], self.phases[i + 1])
            for i in range(0, len(self.phases), 2)
        )
        return PartialSearchProgram(
            self.spec.n_items,
            self.spec.n_blocks,
            (ProgramStage(GLOBAL, self.l1), ProgramStage(BLOCK, self.l2_base))
            + tail,
        )


def _tail_outside_amplitude(
    spec: BlockSpec, start, phases: np.ndarray
) -> complex:
    """Complex subspace evolution of the phased tail + Step 3.

    ``start`` is the (real) symmetric coordinates entering the tail; returns
    the final per-address amplitude in non-target blocks, whose vanishing is
    the sure-success condition.
    """
    b, n = spec.block_size, spec.n_items
    u = complex(start.target)
    v = complex(start.block_rest)
    w = complex(start.outside)
    for i in range(0, len(phases), 2):
        phi_o, phi_d = phases[i], phases[i + 1]
        u *= cmath.exp(1j * phi_o)  # phased oracle
        f = 1.0 - cmath.exp(1j * phi_d)  # phased block diffusion
        mean_b = (u + (b - 1) * v) / b
        u, v = f * mean_b - u, f * mean_b - v
        w *= -cmath.exp(1j * phi_d)  # uniform non-target blocks: eigenvalue
    # Step 3: target parked in ancilla-1, controlled global diffusion.
    mean = ((b - 1) * v + (n - b) * w) / n
    return 2.0 * mean - w


def plan_sure_success(
    n_items: int,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    n_phased: int = 2,
    tolerance: float = 1e-11,
) -> SureSuccessPlan:
    """Solve the phased tail for a given instance geometry.

    Escalates from ``n_phased`` to ``n_phased + 1`` tail iterations if the
    solver cannot reach ``tolerance`` (rare; logged in the raised error
    otherwise).
    """
    base = plan_schedule(n_items, n_blocks, epsilon)
    spec = base.spec
    if spec.block_size < 2:
        raise ValueError("sure-success needs block_size >= 2 (K < N)")
    model = SubspaceGRK(spec)

    last_error: Exception | None = None
    for extra in (0, 1):
        tail_len = n_phased + extra
        l2_base = max(base.l2 - (tail_len - 1), 0)
        start = model.after_step2(base.l1, l2_base)
        scale = np.sqrt(spec.n_items - spec.block_size)

        def residual(phases: np.ndarray) -> np.ndarray:
            w_final = _tail_outside_amplitude(spec, start, phases)
            return np.array([w_final.real, w_final.imag]) * scale

        try:
            phases = solve_phases(residual, 2 * tail_len, tolerance=tolerance)
        except RuntimeError as exc:  # try a longer tail
            last_error = exc
            continue
        failure = float(np.sum(residual(phases) ** 2))
        return SureSuccessPlan(
            spec=spec,
            l1=base.l1,
            l2_base=l2_base,
            phases=tuple(float(p) for p in phases),
            predicted_failure=failure,
        )
    raise RuntimeError(
        f"could not solve sure-success phases for N={n_items}, K={n_blocks}: {last_error}"
    )


def run_sure_success_partial_search(
    database: Database,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    plan: SureSuccessPlan | None = None,
    trace: bool = False,
    policy=None,
) -> PartialSearchResult:
    """Run the sure-success variant against a counted oracle.

    The returned result's ``success_probability`` is 1 up to ~1e-12 (see the
    plan's ``predicted_failure``).  Accepts a pre-solved ``plan`` so batches
    over many targets pay the (classical) phase solve once.  *policy*
    selects the complex state precision (``None`` = complex128; at
    complex64 the certainty residue grows to the float32 scale, inside the
    documented :data:`repro.kernels.COMPLEX64_SUCCESS_ATOL`).
    """
    from repro.kernels import ExecutionPolicy, uniform_state

    if policy is None:
        policy = ExecutionPolicy()
    n = database.n_items
    if plan is None:
        plan = plan_sure_success(n, n_blocks, epsilon)
    spec = plan.spec
    if spec.n_items != n or spec.n_blocks != n_blocks:
        raise ValueError("plan does not match this instance's (N, K)")
    target = _single_target_of(database)
    target_block = spec.block_of(target)

    oracle = PhaseOracle(database)
    start_count = database.counter.count
    amps = uniform_state(n, dtype=policy.complex_dtype)

    for _ in range(plan.l1):
        oracle.apply(amps)
        ops.invert_about_mean(amps)
    for _ in range(plan.l2_base):
        oracle.apply(amps)
        ops.invert_about_mean_blocks(amps, n_blocks)
    for i in range(0, len(plan.phases), 2):
        oracle.apply(amps, phase=plan.phases[i])
        ops.invert_about_mean_blocks(amps, n_blocks, phase=plan.phases[i + 1])

    branches = np.zeros((2, n), dtype=amps.dtype)
    branches[0] = amps
    BitFlipOracle(database).apply(branches)
    ops.invert_about_mean(branches[0])

    queries = database.counter.count - start_count
    dist = block_probabilities(branches, n_blocks)
    schedule = GRKSchedule(
        spec=spec,
        epsilon=epsilon if epsilon is not None else float("nan"),
        l1=plan.l1,
        l2=plan.l2_base + len(plan.phases) // 2,
        predicted_success=1.0 - plan.predicted_failure,
    )
    return PartialSearchResult(
        spec=spec,
        schedule=schedule,
        branches=branches,
        block_distribution=dist,
        block_guess=int(np.argmax(dist)),
        success_probability=float(dist[target_block]),
        queries=queries,
        traces=None,
    )
