"""Section 3 quantities and integer schedules for the GRK algorithm.

Two layers live here, kept deliberately separate:

1. :class:`GRKParameters` — the **paper's asymptotic formulas** (equations
   (1)–(4) and the Step 1/2 iteration counts) as functions of
   ``(K, epsilon)`` alone, exactly as used in the Section 3.1 optimisation
   table.  ``N`` enters only through the overall ``sqrt(N)`` scaling.
2. :class:`GRKSchedule` / :func:`plan_schedule` — the **exact finite-N
   integer schedule** actually executed by the simulator: ``l1`` standard
   iterations, ``l2`` block-local iterations, one Step 3 query.  ``l2`` is
   chosen by exact zeroing analysis (via :mod:`repro.core.subspace`), which
   is how the runner achieves failure ``O(1/N)`` — comfortably inside the
   paper's ``O(1/sqrt(N))`` budget.

Angle conventions (single target):

- ``theta = eps * pi/2`` — angle *remaining to the target* after Step 1.
- ``alpha_yt = sqrt(1 - ((K-1)/K) sin^2 theta)`` — eq. (2).
- ``theta1 = arcsin(sin theta / (alpha_yt sqrt(K)))`` — eq. (3).
- ``theta2 = arcsin((K-2) sin theta / (2 alpha_yt sqrt(K)))`` — eq. (4).
- normalised query count ``q(eps, K) = (pi/4)(1-eps) + (theta1+theta2)/(2 sqrt(K))``
  (in units of ``sqrt(N)``; Step 3 adds one exact query on top).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.blockspec import BlockSpec
from repro.core.program import PartialSearchProgram
from repro.grover.angles import grover_angle, iterations_for_angle
from repro.util.validation import require

__all__ = [
    "GRKParameters",
    "GRKSchedule",
    "max_feasible_epsilon",
    "plan_schedule",
]

_CLIP = 1.0 + 1e-12  # tolerate float spill just past the arcsin domain edge


def _safe_arcsin(x: float) -> float:
    if x > _CLIP or x < -_CLIP:
        raise ValueError(f"arcsin argument {x} outside [-1, 1]: infeasible epsilon")
    return math.asin(max(-1.0, min(1.0, x)))


def max_feasible_epsilon(n_blocks: int) -> float:
    """Largest ``eps`` for which eq. (4)'s arcsin argument stays <= 1.

    Setting ``(K-2) s = 2 alpha sqrt(K)`` with ``alpha^2 = 1 - (K-1)s^2/K``
    gives ``s^2 ((K-2)^2 + 4(K-1)) = 4K``; the bracket is exactly ``K^2``,
    so the boundary is ``sin(theta) = 2/sqrt(K)``.  For ``K <= 4`` that
    exceeds 1, i.e. every ``eps`` in [0, 1] is feasible (the boundary is
    attained exactly at ``K = 4``, ``eps = 1``); for larger ``K`` the Step 2
    over-rotation demanded by the zeroing condition caps the usable range.
    """
    require(n_blocks >= 2, "n_blocks must be >= 2")
    s = 2.0 / math.sqrt(n_blocks)
    if s >= 1.0:
        return 1.0
    return 2.0 * math.asin(s) / math.pi  # theta = arcsin(s), eps = theta/(pi/2)


@dataclass(frozen=True)
class GRKParameters:
    """The paper's asymptotic Step 1/2 geometry for given ``(K, eps)``.

    All angles are exact functions of ``(K, eps)``; iteration counts are the
    paper's real-valued expressions (normalised by ``sqrt(N)``).
    """

    n_blocks: int
    epsilon: float

    def __post_init__(self):
        require(self.n_blocks >= 2, "n_blocks must be >= 2")
        require(0.0 <= self.epsilon <= 1.0, "epsilon must lie in [0, 1]")

    # ------------------------------------------------------------ geometry
    @property
    def theta(self) -> float:
        """Angle left to the target after Step 1: ``eps * pi/2``."""
        return self.epsilon * math.pi / 2.0

    @property
    def sin_theta(self) -> float:
        """``sin(theta)`` — per-address non-target amplitude is ``sin(theta)/sqrt(N)``."""
        return math.sin(self.theta)

    @property
    def alpha_target_block(self) -> float:
        """Eq. (2): total amplitude of the target block after Step 1."""
        k = self.n_blocks
        return math.sqrt(1.0 - ((k - 1) / k) * self.sin_theta**2)

    @property
    def theta1(self) -> float:
        """Eq. (3): initial angle between the target-block state and the target."""
        k = self.n_blocks
        return _safe_arcsin(self.sin_theta / (self.alpha_target_block * math.sqrt(k)))

    @property
    def theta2(self) -> float:
        """Eq. (4): over-rotation past the target required for Step 3 zeroing."""
        k = self.n_blocks
        return _safe_arcsin(
            (k - 2) * self.sin_theta / (2.0 * self.alpha_target_block * math.sqrt(k))
        )

    # ------------------------------------------------- normalised iteration counts
    @property
    def l1_coefficient(self) -> float:
        """Step 1 iterations / sqrt(N): ``(pi/4)(1 - eps)``."""
        return (math.pi / 4.0) * (1.0 - self.epsilon)

    @property
    def l2_coefficient(self) -> float:
        """Step 2 iterations / sqrt(N): ``(theta1 + theta2) / (2 sqrt(K))``."""
        return (self.theta1 + self.theta2) / (2.0 * math.sqrt(self.n_blocks))

    @property
    def query_coefficient(self) -> float:
        """Total (Steps 1+2) queries / sqrt(N) — the table's "upper bound"."""
        return self.l1_coefficient + self.l2_coefficient

    @property
    def savings_coefficient(self) -> float:
        """``c_K`` such that queries = ``(pi/4)(1 - c_K) sqrt(N)``."""
        return 1.0 - self.query_coefficient / (math.pi / 4.0)

    # --------------------------------------------------------- finite-N counts
    def l1(self, n_items: int) -> int:
        """Integer Step 1 count: the most standard iterations that still stop
        at least ``theta`` short of the target (exact-angle arithmetic, not
        a rounding of ``(pi/4)(1-eps) sqrt(N)``)."""
        return iterations_for_angle(n_items, self.theta)

    def l2(self, n_items: int) -> int:
        """Integer Step 2 count from the paper's real-valued expression
        ``(sqrt(N/K)/2)(theta1 + theta2)`` (rounded to nearest).

        :func:`plan_schedule` refines this via exact zeroing analysis; this
        method is the paper-literal value used for comparison.
        """
        b = n_items / self.n_blocks
        return max(0, round(math.sqrt(b) / 2.0 * (self.theta1 + self.theta2)))


@dataclass(frozen=True)
class GRKSchedule:
    """A concrete executable schedule for one ``(N, K)`` instance.

    Attributes:
        spec: the block geometry.
        epsilon: the nominal Step 1 stopping parameter.
        l1: integer Step 1 (global) iterations.
        l2: integer Step 2 (block-local) iterations.
        predicted_success: exact block-measurement success probability this
            schedule attains (from the subspace model; target-independent).
    """

    spec: BlockSpec
    epsilon: float
    l1: int
    l2: int
    predicted_success: float

    @property
    def queries(self) -> int:
        """Total oracle queries: ``l1 + l2 + 1`` (Step 3 costs one)."""
        return self.l1 + self.l2 + 1

    @property
    def query_coefficient(self) -> float:
        """``queries / sqrt(N)`` for comparison against the paper's table."""
        return self.queries / math.sqrt(self.spec.n_items)

    @property
    def program(self) -> PartialSearchProgram:
        """``[global l1, block l2]``, Step 3 at π."""
        return PartialSearchProgram.grk(
            self.spec.n_items, self.spec.n_blocks, self.l1, self.l2
        )

    def provenance(self) -> dict:
        """The schedule as report provenance (both engine tiers)."""
        return {
            "epsilon": self.epsilon,
            "l1": self.l1,
            "l2": self.l2,
            "queries": self.queries,
            "predicted_success": self.predicted_success,
        }


def plan_schedule(
    n_items: int,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    refine_l2: bool = True,
    l2_window: int = 1,
) -> GRKSchedule:
    """Build the integer schedule the simulator executes.

    Args:
        n_items: database size ``N`` (``K`` must divide it).
        n_blocks: number of blocks ``K``.
        epsilon: Step 1 stopping parameter; default = the optimal value for
            this ``K`` from :func:`repro.core.optimizer.optimal_epsilon`
            (clipped to the feasible domain).
        refine_l2: scan ``l2`` candidates around the analytic value and keep
            the one with the best exact success probability (recommended —
            costs O(window) subspace evaluations, each O(1)).
        l2_window: half-width of the scan around the analytic ``l2``.  The
            default ±1 corrects integer rounding only; larger windows can
            "win" by spending a further half-revolution of Step 2 for a
            marginally better second approach — more queries for O(1/N)
            success, the wrong trade at every realistic size.

    Returns:
        :class:`GRKSchedule` with the exact predicted success probability.
    """
    from repro.core.optimizer import optimal_epsilon  # deferred: avoids cycle
    from repro.core.subspace import SubspaceGRK

    spec = BlockSpec(n_items, n_blocks)
    if epsilon is None:
        epsilon = optimal_epsilon(n_blocks).epsilon
    require(0.0 <= epsilon <= 1.0, "epsilon must lie in [0, 1]")
    params = GRKParameters(n_blocks, epsilon)
    l1 = params.l1(n_items)

    model = SubspaceGRK(spec)
    try:
        l2_analytic = params.l2(n_items)
    except ValueError:
        # eq. (4) infeasible at this epsilon: fall back to scanning from the
        # pure rotation-to-target count.
        beta_b = grover_angle(spec.block_size)
        l2_analytic = max(0, round((math.pi / 2) / (2 * beta_b)))

    if not refine_l2:
        l2 = l2_analytic
        success = model.success_probability(l1, l2)
    else:
        candidates = sorted(
            {max(0, l2_analytic + d) for d in range(-l2_window, l2_window + 1)}
        )
        scores = {c: model.success_probability(l1, c) for c in candidates}
        best = max(scores.values())
        # Ties within float noise go to the cheapest schedule: an extra
        # full rotation (l2 + ~pi/beta_b) reproduces the same success up to
        # 1e-16 and must not win on that noise.
        l2 = min(c for c, s in scores.items() if s >= best - 1e-9)
        success = scores[l2]
    return GRKSchedule(
        spec=spec, epsilon=epsilon, l1=l1, l2=l2, predicted_success=success
    )
