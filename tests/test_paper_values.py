"""Integration tests pinning the paper's published numbers.

Every check here corresponds to a specific artifact of the paper; the
benchmark harness prints the same quantities as tables.  CHANGES.md records
how each change moved them.
"""

import math

import numpy as np
import pytest

from repro import (
    SingleTargetDatabase,
    coefficient_table,
    lower_bound_coefficient,
    optimal_epsilon,
    run_partial_search,
)
from repro.analysis.theory import LARGE_K_CONSTANT, large_k_coefficient, savings_factor
from repro.kernels import primitives as ops


class TestKorepinGroverSimplified:
    """quant-ph/0504157: the simplified algorithm reproduces the GRK query
    counts — its optimised asymptotic coefficient equals the Section 3.1
    upper-bound column, and finite-N schedules match the GRK planner's
    query totals at the paper's representative sizes."""

    PAPER_UPPER = {2: 0.555, 3: 0.592, 4: 0.615, 5: 0.633, 8: 0.664, 32: 0.725}

    @pytest.mark.parametrize("k", sorted(PAPER_UPPER))
    def test_coefficient_matches_table_upper_bound(self, k):
        from repro.core.simplified import simplified_query_coefficient

        tol = 0.0016 if k == 3 else 0.0006  # same rounding notes as GRK
        assert simplified_query_coefficient(k) == pytest.approx(
            self.PAPER_UPPER[k], abs=tol
        )

    @pytest.mark.parametrize("n,k", [(1024, 4), (4096, 4), (4096, 8)])
    def test_finite_n_queries_match_grk(self, n, k):
        from repro.core.parameters import plan_schedule
        from repro.core.simplified import plan_simplified_schedule

        simplified = plan_simplified_schedule(n, k)
        grk = plan_schedule(n, k)
        assert abs(simplified.queries - grk.queries) <= 2
        assert simplified.queries < (math.pi / 4) * math.sqrt(n)
        assert simplified.predicted_success >= 1 - 2 / math.sqrt(n)


class TestChoiWalkerBraunsteinSureSuccess:
    """quant-ph/0603136: sure-success partial search via per-stage phase
    conditions.  Certainty is reached within a *constant* number of extra
    queries of the plain GRK schedule (0-2 at the representative
    geometries), so the Section 3.1 query coefficients carry over to the
    sure-success setting — unlike a naive repeat-until-sure strategy, whose
    expected overhead grows with the failure probability's 1/sqrt(N)."""

    PAPER_UPPER = {2: 0.555, 3: 0.592, 4: 0.615, 8: 0.664, 32: 0.725}

    @pytest.mark.parametrize("k", sorted(PAPER_UPPER))
    def test_certainty_at_table_coefficient(self, k):
        from repro.core.cwb import plan_cwb

        n = 4096 if k != 3 else 3**7  # power-of-K geometry for K=3
        plan = plan_cwb(n, k)
        assert plan.predicted_failure < 1e-20
        assert plan.extra_queries <= 2
        # Finite-N integer schedules sit within ~2/sqrt(N) of the
        # asymptotic coefficient; certainty must not change that.
        assert plan.queries / math.sqrt(n) <= self.PAPER_UPPER[k] + 2.5 / math.sqrt(n)

    def test_exact_success_every_target(self):
        from repro.core.cwb import plan_cwb, run_cwb_partial_search

        n, k = 64, 4
        plan = plan_cwb(n, k)
        for target in range(n):
            res = run_cwb_partial_search(
                SingleTargetDatabase(n, target), k, plan=plan
            )
            assert res.success_probability == pytest.approx(1.0, abs=1e-10)
            assert res.queries == plan.queries

    def test_cheaper_than_long_style_tail_never_worse(self):
        from repro.core.cwb import plan_cwb
        from repro.core.sure_success import plan_sure_success

        # The Long-style tail (Theorem 1 remark) always pays exactly +1;
        # the CWB per-stage conditions pay 0-2 — never more than +1 extra
        # over it at the paper's representative sizes.
        for n, k in [(1024, 4), (4096, 4), (4096, 8)]:
            assert plan_cwb(n, k).queries <= plan_sure_success(n, k).queries + 1


class TestTheoryClosedForms:
    """`analysis/theory.py` closed forms for the successor papers: the
    optimised ancilla-free coefficient (quant-ph/0510179) reproduces the
    Section 3.1 upper-bound column, and the CWB certainty surcharge
    (quant-ph/0603136) is bounded by the documented constant — so the
    analytic tier's sure-success answers inherit the plain coefficients."""

    PAPER_UPPER = {2: 0.555, 3: 0.592, 4: 0.615, 5: 0.633, 8: 0.664, 32: 0.725}

    @pytest.mark.parametrize("k", sorted(PAPER_UPPER))
    def test_simplified_coefficient_matches_table(self, k):
        from repro.analysis.theory import simplified_partial_coefficient

        tol = 0.0016 if k == 3 else 0.0006
        assert simplified_partial_coefficient(k) == pytest.approx(
            self.PAPER_UPPER[k], abs=tol
        )

    @pytest.mark.parametrize("n,k", [(1024, 4), (4096, 4), (4096, 8)])
    def test_cwb_coefficient_bounds_solved_plan(self, n, k):
        from repro.analysis.theory import (
            CWB_EXTRA_QUERIES_BOUND,
            cwb_query_coefficient,
        )
        from repro.core.cwb import plan_cwb

        plan = plan_cwb(n, k)
        assert plan.extra_queries <= CWB_EXTRA_QUERIES_BOUND
        assert plan.queries / math.sqrt(n) <= cwb_query_coefficient(n, k)

    @pytest.mark.parametrize("k", sorted(PAPER_UPPER))
    def test_cwb_asymptotic_agrees_with_optimised_partial(self, k):
        from repro.analysis.theory import (
            cwb_asymptotic_coefficient,
            simplified_partial_coefficient,
        )

        # Certainty is asymptotically free: the sure-success coefficient
        # converges to the optimised partial-search optimum for the same K.
        assert cwb_asymptotic_coefficient(k) == pytest.approx(
            simplified_partial_coefficient(k), rel=1e-12
        )
        assert cwb_asymptotic_coefficient(k) < math.pi / 4.0


class TestSection31Table:
    """The table in Section 3.1 (upper via optimisation, lower via Thm 2)."""

    PAPER = {
        # K: (upper, lower)
        2: (0.555, 0.230),
        3: (0.592, 0.332),
        4: (0.615, 0.393),
        5: (0.633, 0.434),
        8: (0.664, 0.508),
        32: (0.725, 0.647),
    }

    def test_full_search_row(self):
        assert math.pi / 4 == pytest.approx(0.785, abs=5e-4)

    @pytest.mark.parametrize("k", sorted(PAPER))
    def test_upper_bound_column(self, k):
        upper, _ = self.PAPER[k]
        # K=3 is the one entry where our optimum (0.5908) rounds a third
        # decimal away from the printed 0.592; all others match exactly.
        tol = 0.0016 if k == 3 else 0.0006
        assert optimal_epsilon(k).coefficient == pytest.approx(upper, abs=tol)

    @pytest.mark.parametrize("k", sorted(PAPER))
    def test_lower_bound_column(self, k):
        _, lower = self.PAPER[k]
        assert lower_bound_coefficient(k) == pytest.approx(lower, abs=5e-4)

    def test_table_function_round_trip(self):
        rows = {r["n_blocks"]: r for r in coefficient_table() if r["n_blocks"]}
        for k, (upper, lower) in self.PAPER.items():
            assert rows[k]["upper"] == pytest.approx(upper, abs=0.002)
            assert rows[k]["lower"] == pytest.approx(lower, abs=5e-4)


class TestFigure1TwelveItems:
    """The worked example: N=12, K=3, two queries, exact rational amplitudes."""

    def run_stages(self, target=5):
        n = 12
        root = math.sqrt(n)
        stages = {}
        amps = np.full(n, 1 / root)
        stages["A"] = amps.copy()
        ops.phase_flip(amps, target)
        stages["B"] = amps.copy()
        ops.invert_about_mean_blocks(amps, 3)
        stages["C"] = amps.copy()
        ops.phase_flip(amps, target)
        stages["D"] = amps.copy()
        ops.invert_about_mean(amps)
        stages["E"] = amps.copy()
        return stages

    def test_stage_amplitudes_exact(self):
        root12 = math.sqrt(12)
        s = self.run_stages(target=5)
        np.testing.assert_allclose(s["A"] * root12, np.ones(12), atol=1e-12)
        want_b = np.ones(12)
        want_b[5] = -1
        np.testing.assert_allclose(s["B"] * root12, want_b, atol=1e-12)
        want_c = np.ones(12)
        want_c[4:8] = [0, 2, 0, 0]
        np.testing.assert_allclose(s["C"] * root12, want_c, atol=1e-12)
        want_e = np.zeros(12)
        want_e[4:8] = [1, 3, 1, 1]
        np.testing.assert_allclose(s["E"] * root12, want_e, atol=1e-12)

    def test_block_probability_one(self):
        s = self.run_stages(target=5)
        block_probs = (s["E"].reshape(3, 4) ** 2).sum(axis=1)
        np.testing.assert_allclose(block_probs, [0.0, 1.0, 0.0], atol=1e-12)

    def test_target_probability_three_quarters(self):
        s = self.run_stages(target=5)
        assert s["E"][5] ** 2 == pytest.approx(0.75)

    def test_every_target_position(self):
        for target in range(12):
            s = self.run_stages(target=target)
            block = target // 4
            block_probs = (s["E"].reshape(3, 4) ** 2).sum(axis=1)
            assert block_probs[block] == pytest.approx(1.0, abs=1e-12)


class TestTheorem1LargeK:
    """c_K >= 0.42/sqrt(K) and the 0.42 constant."""

    def test_constant_value(self):
        assert LARGE_K_CONSTANT == pytest.approx(
            1 - (2 / math.pi) * math.asin(math.pi / 4)
        )
        assert 0.42 < LARGE_K_CONSTANT < 0.43

    def test_ck_bound_at_paper_epsilon(self):
        for k in (16, 64, 256, 1024, 4096):
            c_k = savings_factor(large_k_coefficient(k))
            assert c_k * math.sqrt(k) >= 0.42

    def test_optimal_ck_at_least_paper_epsilon_ck(self):
        for k in (16, 64, 256):
            assert optimal_epsilon(k).savings >= savings_factor(
                large_k_coefficient(k)
            ) - 1e-12


class TestTheorem1SuccessProbability:
    """1 - O(1/sqrt(N)) success of the plain algorithm."""

    @pytest.mark.parametrize("n,k", [(256, 4), (1024, 4), (4096, 4), (4096, 8)])
    def test_success_scales(self, n, k):
        res = run_partial_search(SingleTargetDatabase(n, n // 3), k)
        assert res.success_probability >= 1 - 4.0 / math.sqrt(n)

    def test_failure_shrinks_with_n(self):
        fails = []
        for n in (2**8, 2**12, 2**16):
            res = run_partial_search(SingleTargetDatabase(n, 3), 4)
            fails.append(res.failure_probability)
        assert fails[0] > fails[1] > fails[2]


class TestWhoWins:
    """The comparative story the paper tells, end to end."""

    def test_ordering_of_methods(self):
        from repro.analysis.theory import naive_quantum_coefficient

        for k in (3, 4, 8, 32):
            lower = lower_bound_coefficient(k)
            grk = optimal_epsilon(k).coefficient
            naive = naive_quantum_coefficient(k)
            full = math.pi / 4
            assert lower < grk < naive < full
        # K = 2 degenerates: GRK and the naive baseline coincide exactly.
        assert optimal_epsilon(2).coefficient <= naive_quantum_coefficient(2) + 1e-12

    def test_quantum_beats_classical_asymptotically(self):
        # Quantum partial search is O(sqrt(N)); classical is Omega(N).
        n, k = 2**14, 4
        quantum = run_partial_search(SingleTargetDatabase(n, 5), k).queries
        classical = n / 2 * (1 - 1 / k**2)
        assert quantum < classical / 50
