"""Appendix B, executable: Zalka's bound for algorithms with small error.

The paper proves (Theorem 3) that any ``T``-query database-search algorithm
with error at most ``eps`` satisfies

    ``T >= (pi/4) sqrt(N) (1 - O(sqrt(eps) + N^{-1/4}))``

via a hybrid argument over the states ``phi_T^{y,i}`` (first ``T - i``
queries answered by the identity, last ``i`` by the real oracle ``O_y``) and
three lemmas:

1. ``sum_y theta(phi_T, phi_T^y) >= (pi/2) N (1 - O(sqrt(eps) + N^{-1/4}))``
2. ``theta(phi_T^{y,i-1}, phi_T^{y,i}) <= 2 arcsin sqrt(p_{T-i,y})`` where
   ``p_{t,y} = ||P_y phi_t||^2`` on the *identity* run,
3. ``sum_y arcsin sqrt(p_{i,y}) <= N arcsin(1/sqrt(N)) ~ sqrt(N) (1+O(1/N))``.

This module runs real algorithms (Grover at any truncation, or arbitrary
user-supplied query circuits), constructs every hybrid state, evaluates each
lemma's two sides, and combines them into a *certified* instance lower bound

    ``T >= T_cert = sum_y theta(phi_T, phi_T^y)
                    / (2 max_i sum_y arcsin sqrt(p_{i,y}))``

— a chain of inequalities checkable (and checked, in the test suite) step by
step with no asymptotic constants hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.kernels import primitives as ops
from repro.util.rng import as_rng

__all__ = [
    "QueryAlgorithm",
    "GroverQueryAlgorithm",
    "RandomizedQueryAlgorithm",
    "HybridAnalysis",
    "ZalkaBound",
    "analyze_hybrids",
    "analyze_grover_hybrids",
    "zalka_bound",
    "state_angle",
]


def state_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Zalka's metric ``theta(a, b) = arccos |<a|b>|`` (in ``[0, pi/2]``).

    Satisfies the triangle inequality and is unitarily invariant — the two
    properties the hybrid argument needs.
    """
    overlap = abs(np.vdot(a, b))
    return math.acos(min(1.0, overlap))


class QueryAlgorithm:
    """A ``T``-query algorithm in the standard oracle model.

    The computation is ``U_T O U_{T-1} O ... U_1 O U_0 |0>`` where each ``O``
    is either the phase oracle ``O_y`` or (for hybrids) the identity, and the
    address register is measured at the end.  Subclasses/instances provide:

    Args:
        n_items: address-space size ``N``.
        n_queries: ``T``.
        initial_state: returns ``U_0 |0>`` — the state *before query 1* — as
            a length-``N`` array (fresh buffer each call).
        interleave: ``interleave(t, amps)`` applies ``U_t`` in place, for
            ``t = 1..T`` (called right after the ``t``-th query slot).
    """

    def __init__(
        self,
        n_items: int,
        n_queries: int,
        initial_state: Callable[[], np.ndarray],
        interleave: Callable[[int, np.ndarray], None],
    ):
        if n_items < 2 or n_queries < 0:
            raise ValueError("need n_items >= 2 and n_queries >= 0")
        self.n_items = n_items
        self.n_queries = n_queries
        self._initial_state = initial_state
        self._interleave = interleave

    def run_hybrid(self, target: int | None, n_real_suffix: int) -> np.ndarray:
        """State after all ``T`` slots with only the last ``n_real_suffix``
        queries answered by ``O_target`` (all of them if ``n_real_suffix ==
        T``; the pure identity run if ``target is None`` or 0)."""
        t_total = self.n_queries
        if not 0 <= n_real_suffix <= t_total:
            raise ValueError("n_real_suffix out of range")
        amps = self._initial_state()
        for t in range(1, t_total + 1):
            if target is not None and t > t_total - n_real_suffix:
                ops.phase_flip(amps, target)
            self._interleave(t, amps)
        return amps

    def identity_run_states(self) -> list[np.ndarray]:
        """``phi_0 .. phi_T``: the states before each query slot (and final)
        on the all-identity run.  ``phi_t`` is the state just before query
        ``t + 1``."""
        amps = self._initial_state()
        states = [amps.copy()]
        for t in range(1, self.n_queries + 1):
            self._interleave(t, amps)
            states.append(amps.copy())
        return states


def GroverQueryAlgorithm(n_items: int, n_queries: int) -> QueryAlgorithm:
    """Standard Grover search as a :class:`QueryAlgorithm` (diffusion as
    every interleaved unitary)."""

    def initial() -> np.ndarray:
        return np.full(n_items, 1.0 / np.sqrt(n_items))

    def interleave(_t: int, amps: np.ndarray) -> None:
        ops.invert_about_mean(amps)

    return QueryAlgorithm(n_items, n_queries, initial, interleave)


def RandomizedQueryAlgorithm(n_items: int, n_queries: int, seed=None) -> QueryAlgorithm:
    """A query algorithm with Haar-ish random orthogonal interleaved
    unitaries — Lemmas 2 and 3 must hold for *every* algorithm, and the
    property tests exercise them on these."""
    rng = as_rng(seed)
    mats = []
    for _ in range(n_queries):
        gauss = rng.standard_normal((n_items, n_items))
        q, r = np.linalg.qr(gauss)
        q *= np.sign(np.diag(r))  # make the distribution uniform
        mats.append(q)
    start = rng.standard_normal(n_items)
    start /= np.linalg.norm(start)

    def initial() -> np.ndarray:
        return start.copy()

    def interleave(t: int, amps: np.ndarray) -> None:
        amps[:] = mats[t - 1] @ amps

    return QueryAlgorithm(n_items, n_queries, initial, interleave)


@dataclass(frozen=True)
class HybridAnalysis:
    """Every quantity of the Appendix B argument, for one algorithm.

    Attributes:
        n_items: ``N``.
        n_queries: ``T``.
        error: worst-case error ``eps = 1 - min_y ||P_y phi_T^y||^2``.
        p_matrix: shape ``(T, N)`` — ``p_{i,y}`` for ``i = 0..T-1`` on the
            identity run.
        final_angles: shape ``(N,)`` — ``theta(phi_T, phi_T^y)`` per target.
        hybrid_steps: shape ``(N, T)`` — entry ``(y, i-1)`` is
            ``theta(phi_T^{y,i-1}, phi_T^{y,i})``.
        lemma3_sums: shape ``(T,)`` — ``sum_y arcsin sqrt(p_{i,y})`` per
            step ``i``.
    """

    n_items: int
    n_queries: int
    error: float
    p_matrix: np.ndarray
    final_angles: np.ndarray
    hybrid_steps: np.ndarray
    lemma3_sums: np.ndarray

    # ------------------------------------------------------------- lemma 1
    @property
    def lemma1_lhs(self) -> float:
        """``sum_y theta(phi_T, phi_T^y)``."""
        return float(self.final_angles.sum())

    # ------------------------------------------------------------- lemma 2
    @property
    def lemma2_rhs(self) -> np.ndarray:
        """``2 arcsin sqrt(p_{T-i,y})`` arranged to align with
        ``hybrid_steps`` (shape ``(N, T)``, column ``i-1`` for step ``i``)."""
        # step i (1-indexed) compares suffix lengths i-1 and i and is bounded
        # by p at identity-run index T - i.
        t_total = self.n_queries
        cols = [self.p_matrix[t_total - i] for i in range(1, t_total + 1)]
        return 2.0 * np.arcsin(np.sqrt(np.column_stack(cols)))

    def lemma2_max_violation(self) -> float:
        """``max (lhs - rhs)`` over all ``(y, i)`` — must be <= ~1e-9."""
        if self.n_queries == 0:
            return 0.0
        return float(np.max(self.hybrid_steps - self.lemma2_rhs))

    # ------------------------------------------------------------- lemma 3
    @property
    def lemma3_rhs(self) -> float:
        """The exact cap ``N arcsin(1/sqrt(N))``."""
        return self.n_items * math.asin(1.0 / math.sqrt(self.n_items))

    def lemma3_max_violation(self) -> float:
        """``max_i (sum_y arcsin sqrt(p_{i,y})) - N arcsin(1/sqrt(N))``."""
        if self.n_queries == 0:
            return 0.0
        return float(np.max(self.lemma3_sums) - self.lemma3_rhs)

    # ---------------------------------------------------------- certificate
    @property
    def certified_lower_bound(self) -> float:
        """Instance-certified ``T >= lemma1_lhs / (2 max_i lemma3_sum_i)``.

        Chain: ``2 sum_i sum_y arcsin sqrt(p_{i,y}) >= sum_{y,i} hybrid step
        >= sum_y theta(phi_T, phi_T^y)`` (Lemma 2 + triangle inequality), and
        each inner sum is at most its maximum over ``i``.
        """
        if self.n_queries == 0:
            return 0.0
        return self.lemma1_lhs / (2.0 * float(np.max(self.lemma3_sums)))

    @property
    def grover_optimum(self) -> float:
        """``(pi/4) sqrt(N)`` for ratio reporting."""
        return math.pi / 4.0 * math.sqrt(self.n_items)


def analyze_hybrids(algorithm: QueryAlgorithm) -> HybridAnalysis:
    """Run every hybrid of *algorithm* and assemble a :class:`HybridAnalysis`.

    Cost: ``O(N * T)`` hybrid runs of ``O(T * N)`` work each — fine for the
    ``N <= 512`` instances the benches use.
    """
    n, t_total = algorithm.n_items, algorithm.n_queries
    identity_states = algorithm.identity_run_states()
    phi_t = identity_states[-1]
    p_matrix = np.abs(np.stack(identity_states[:-1])) ** 2 if t_total else np.zeros((0, n))

    final_angles = np.zeros(n)
    hybrid_steps = np.zeros((n, t_total))
    error = 0.0
    for y in range(n):
        prev = phi_t  # suffix length 0 == identity run
        full = None
        for i in range(1, t_total + 1):
            cur = algorithm.run_hybrid(y, i)
            hybrid_steps[y, i - 1] = state_angle(prev, cur)
            prev = cur
            full = cur
        if full is None:
            full = phi_t
        final_angles[y] = state_angle(phi_t, full)
        error = max(error, 1.0 - float(np.abs(full[y]) ** 2))

    lemma3_sums = (
        np.arcsin(np.sqrt(np.clip(p_matrix, 0.0, 1.0))).sum(axis=1)
        if t_total
        else np.zeros(0)
    )
    return HybridAnalysis(
        n_items=n,
        n_queries=t_total,
        error=error,
        p_matrix=p_matrix,
        final_angles=final_angles,
        hybrid_steps=hybrid_steps,
        lemma3_sums=lemma3_sums,
    )


def analyze_grover_hybrids(n_items: int, n_queries: int) -> HybridAnalysis:
    """Shorthand: hybrid analysis of standard Grover at a given truncation."""
    return analyze_hybrids(GroverQueryAlgorithm(n_items, n_queries))


@dataclass(frozen=True)
class ZalkaBound:
    """The explicit Theorem 3 right-hand side for an ``(N, eps)`` pair.

    Attributes:
        n_items: ``N``.
        error: ``eps``.
        constant: the constant inside the ``O(.)`` (1 by default — the
            paper leaves it unspecified; benches report sensitivity).
        value: ``(pi/4) sqrt(N) (1 - constant * (sqrt(eps) + N^{-1/4}))``.
    """

    n_items: int
    error: float
    constant: float
    value: float


def zalka_bound(n_items: int, error: float, constant: float = 1.0) -> ZalkaBound:
    """Evaluate the explicit Theorem 3 bound (clipped below at 0)."""
    if n_items < 2:
        raise ValueError("n_items must be >= 2")
    if not 0.0 <= error <= 1.0:
        raise ValueError("error must lie in [0, 1]")
    slack = constant * (math.sqrt(error) + n_items ** (-0.25))
    value = max(0.0, math.pi / 4.0 * math.sqrt(n_items) * (1.0 - slack))
    return ZalkaBound(n_items=n_items, error=error, constant=constant, value=value)
