"""The analytic-vs-simulation cross-validation matrix.

Every registered analytic model is checked against the simulator on the
overlap range (``n <= 12`` address qubits), over every partition ``K`` the
matrix lists, under the pinned tolerance contract
:data:`repro.analytic.ANALYTIC_SUCCESS_ATOL`: exact-regime models must
reproduce the simulated success probability per target to that absolute
tolerance and the query count *exactly* — the closed forms are the same
mathematics as the statevector, so any drift is a bug in one of them.
:class:`TestBatchParity` holds the all-targets batches of both tiers to
the same contract.
"""

import math

import numpy as np
import pytest

from repro.analytic import ANALYTIC_SUCCESS_ATOL
from repro.engine import SearchEngine, SearchRequest

pytestmark = pytest.mark.analytic

ENGINE = SearchEngine()

ATOL = ANALYTIC_SUCCESS_ATOL


def _partitions(n):
    """Every block count K with K >= 2 and block size >= 2."""
    return [k for k in range(2, n // 2 + 1) if n % k == 0]


#: The full overlap matrix for the cheap schedule models: power-of-two
#: sizes exercise the default kernel path, 36 exercises non-power-of-two
#: geometry (K = 3, 6, 9, ... partitions).
SCHEDULE_MATRIX = [
    (n, k) for n in (16, 36, 64, 256) for k in _partitions(n)
]

#: Sure-success/CWB solve once per geometry (cached), so the matrix is a
#: representative subset of the same sizes, still covering non-power-of-two.
#: The Long-style tail cannot phase-match every tiny geometry ((16, 4) and
#: (36, 6) have no solution at any tolerance — simulation fails there
#: identically); the CWB per-stage conditions solve everywhere listed.
CWB_MATRIX = [
    (16, 2), (16, 4), (36, 3), (36, 6),
    (64, 2), (64, 4), (64, 8), (256, 4), (256, 16),
]
SURE_SUCCESS_MATRIX = [
    (16, 2), (36, 3), (64, 2), (64, 4), (64, 8),
    (144, 6), (256, 4), (256, 16),
]


def _request(n, k, method, *, engine, target=None, options=None, seed=None):
    return SearchRequest(
        n_items=n,
        n_blocks=k,
        method=method,
        target=target,
        options=options or {},
        rng=seed,
        wants="probability" if engine == "analytic" else "report",
        engine=engine,
    )


def _pair(n, k, method, *, target=None, options=None, seed=None):
    """(analytic report, simulated report) for the same problem."""
    ana = ENGINE.search(_request(n, k, method, engine="analytic",
                                 target=target, options=options))
    sim = ENGINE.search(_request(n, k, method, engine="simulate",
                                 target=target, options=options, seed=seed))
    assert ana.backend == "analytic"
    assert ana.schedule["engine"] == "analytic"
    assert sim.backend != "analytic"
    return ana, sim


class TestGRKFamily:
    """grk / grk-simplified: planned schedules vs the statevector."""

    @pytest.mark.parametrize("n,k", SCHEDULE_MATRIX)
    def test_grk_matches_simulator(self, n, k):
        for target in (0, n // 2, n - 1):
            ana, sim = _pair(n, k, "grk", target=target)
            assert ana.success_probability == pytest.approx(
                sim.success_probability, abs=ATOL
            )
            assert ana.queries == sim.queries
            assert ana.block_guess == sim.block_guess == target // (n // k)

    @pytest.mark.parametrize("n,k", SCHEDULE_MATRIX)
    def test_simplified_matches_simulator(self, n, k):
        for target in (0, n - 1):
            ana, sim = _pair(n, k, "grk-simplified", target=target)
            assert ana.success_probability == pytest.approx(
                sim.success_probability, abs=ATOL
            )
            assert ana.queries == sim.queries
            assert ana.block_guess == sim.block_guess


class TestSureSuccessFamily:
    """grk-sure-success / grk-cwb: solved plans vs the statevector."""

    @pytest.mark.parametrize("n,k", SURE_SUCCESS_MATRIX)
    def test_sure_success_matches_simulator(self, n, k):
        ana, sim = _pair(n, k, "grk-sure-success", target=n // 3)
        assert ana.success_probability == pytest.approx(
            sim.success_probability, abs=ATOL
        )
        assert ana.success_probability >= 1.0 - 1e-9
        assert ana.queries == sim.queries

    def test_unsolvable_geometry_raises_analytic_unsupported(self):
        # (16, 4) has no sure-success phase solution; the forced analytic
        # tier must say so (simulation raises RuntimeError there too).
        from repro.analytic import AnalyticUnsupported

        with pytest.raises(AnalyticUnsupported, match="phase solve failed"):
            ENGINE.search(
                _request(16, 4, "grk-sure-success", engine="analytic", target=0)
            )

    @pytest.mark.parametrize("n,k", CWB_MATRIX)
    def test_cwb_matches_simulator(self, n, k):
        ana, sim = _pair(n, k, "grk-cwb", target=n // 3)
        assert ana.success_probability == pytest.approx(
            sim.success_probability, abs=ATOL
        )
        assert ana.success_probability >= 1.0 - 1e-9
        assert ana.queries == sim.queries
        assert ana.schedule["extra_queries"] <= 2


class TestNaiveBlocks:
    """Pinned left-out runs match exactly; the expectation averages them."""

    @pytest.mark.parametrize("n,k", [(16, 4), (36, 6), (64, 8)])
    def test_pinned_left_out_matches_simulator(self, n, k):
        b = n // k
        for left_out in range(k):
            # One target inside the left-out block, one outside it.
            inside = left_out * b
            outside = (inside + b) % n
            for target in (inside, outside):
                ana, sim = _pair(
                    n, k, "naive-blocks", target=target,
                    options={"left_out_block": left_out}, seed=11,
                )
                assert ana.success_probability == pytest.approx(
                    sim.success_probability, abs=ATOL
                )
                assert ana.queries == sim.queries
                assert ana.schedule["answer_kind"] == "exact"

    @pytest.mark.parametrize("n,k", [(16, 4), (36, 6), (64, 8)])
    def test_expectation_is_mean_over_left_out(self, n, k):
        from repro.analytic import get_model

        model = get_model("naive-blocks")
        target = n - 1
        expected = model.evaluate(
            _request(n, k, "naive-blocks", engine="analytic", target=target),
            target,
        )
        assert expected.answer_kind == "expected"
        pinned = [
            model.evaluate(
                _request(n, k, "naive-blocks", engine="analytic",
                         target=target,
                         options={"left_out_block": lo}),
                target,
            )
            for lo in range(k)
        ]
        mean = sum(p.success_probability for p in pinned) / k
        assert expected.success_probability == pytest.approx(mean, abs=1e-12)
        assert all(p.queries == expected.queries for p in pinned)


class TestGroverFull:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_plain_matches_simulator(self, n):
        ana, sim = _pair(n, 1, "grover-full", target=n // 5)
        assert ana.success_probability == pytest.approx(
            sim.success_probability, abs=ATOL
        )
        assert ana.queries == sim.queries
        assert ana.schedule["iterations"] == sim.schedule["iterations"]

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_exact_variant_matches_simulator(self, n):
        from repro.grover.exact import minimum_iterations

        ana, sim = _pair(n, 1, "grover-full", target=3,
                         options={"exact": True})
        assert ana.success_probability == 1.0
        assert sim.success_probability == pytest.approx(1.0, abs=ATOL)
        assert ana.queries == sim.queries == minimum_iterations(n) + 1


class TestClassical:
    """Scan accounting: every position, both strategies."""

    @pytest.mark.parametrize("n,k", [(16, 4), (36, 6), (64, 8)])
    def test_deterministic_every_target(self, n, k):
        for target in range(n):
            ana, sim = _pair(n, k, "classical", target=target)
            assert ana.success_probability == sim.success_probability == 1.0
            assert ana.queries == sim.queries
            assert ana.block_guess == sim.block_guess

    @pytest.mark.parametrize("n,k", [(16, 4), (64, 8)])
    def test_deterministic_pinned_left_out(self, n, k):
        for left_out in range(k):
            target = (left_out * (n // k) + 1) % n
            ana, sim = _pair(n, k, "classical", target=target,
                             options={"left_out_block": left_out})
            assert ana.queries == sim.queries
            assert ana.block_guess == sim.block_guess

    @pytest.mark.parametrize("n,k", [(16, 4), (36, 6), (64, 8), (256, 16)])
    def test_randomized_expectation_pins_closed_form(self, n, k):
        from repro.analytic import get_model
        from repro.classical.partial import expected_queries_randomized_partial

        request = _request(n, k, "classical", engine="analytic", target=1,
                           options={"strategy": "randomized"})
        answer = get_model("classical").evaluate(request, 1)
        assert answer.answer_kind == "expected"
        assert answer.success_probability == 1.0
        assert answer.schedule["expected_queries"] == pytest.approx(
            expected_queries_randomized_partial(n, k, exact=True), rel=1e-12
        )

    def test_randomized_expectation_matches_sampled_mean(self, rng):
        from repro.analytic import get_model
        from repro.classical.partial import sample_partial_search_query_counts

        n, k = 64, 8
        request = _request(n, k, "classical", engine="analytic", target=1,
                           options={"strategy": "randomized"})
        answer = get_model("classical").evaluate(request, 1)
        counts = sample_partial_search_query_counts(n, k, 20_000, rng=rng)
        sem = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - answer.schedule["expected_queries"]) < 5 * sem


def _batch_parity_params():
    """The single-call matrices above, restricted to n <= 64, as batches.

    naive-blocks and classical run with the option sets whose simulated
    rows are deterministic (pinned ``left_out_block``; the deterministic
    scan), as in the single-call tests.
    """
    def small(matrix):
        return [(n, k) for n, k in matrix if n <= 64]

    naive = [(16, 4), (36, 6), (64, 8)]
    cases = (
        [("grk", {}, n, k) for n, k in small(SCHEDULE_MATRIX)]
        + [("grk-simplified", {}, n, k) for n, k in small(SCHEDULE_MATRIX)]
        + [("grk-sure-success", {}, n, k)
           for n, k in small(SURE_SUCCESS_MATRIX)]
        + [("grk-cwb", {}, n, k) for n, k in small(CWB_MATRIX)]
        + [("naive-blocks", {"left_out_block": lo}, n, k)
           for n, k in naive for lo in range(k)]
        + [("grover-full", options, n, 1)
           for n in (16, 64) for options in ({}, {"exact": True})]
        + [("classical", {}, n, k) for n, k in naive]
        + [("classical", {"left_out_block": lo}, n, k)
           for n, k in ((16, 4), (64, 8)) for lo in range(k)]
    )
    for method, options, n, k in cases:
        label = ",".join(f"{key}={v}" for key, v in options.items())
        yield pytest.param(method, options, n, k,
                           id=f"{method}-{n}x{k}" + (f"-{label}" if label else ""))


class TestBatchParity:
    """The all-targets analytic batch against the simulated batch."""

    @pytest.mark.parametrize("method,options,n,k", list(_batch_parity_params()))
    def test_all_targets_batch_matches_simulated_batch(self, method, options,
                                                       n, k):
        ana = ENGINE.search_batch(_request(n, k, method, engine="analytic",
                                           options=options))
        sim = ENGINE.search_batch(_request(n, k, method, engine="simulate",
                                           options=options, seed=11))
        assert ana.execution["engine"] == "analytic"
        assert ana.execution["n_shards"] == 0
        assert sim.backend != "analytic"
        np.testing.assert_allclose(
            ana.success_probabilities, sim.success_probabilities, atol=ATOL
        )
        np.testing.assert_array_equal(ana.queries, sim.queries)
        # Guesses compare exactly for every method: naive-blocks' simulated
        # rows guess their most likely answer, not a sampled one.
        np.testing.assert_array_equal(ana.block_guesses, sim.block_guesses)
