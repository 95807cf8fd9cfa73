"""The AnalyticModel registry: registration mechanics, validity gates,
closed-form behaviour at sizes no statevector could ever hold, and batch
forms that answer exactly as per-row evaluation does."""

import math

import numpy as np
import pytest

from repro.analytic import (
    ANALYTIC_MAX_N_ITEMS,
    AnalyticAnswer,
    AnalyticBatchAnswer,
    AnalyticModel,
    AnalyticUnsupported,
    available_models,
    describe_models,
    get_model,
    has_model,
    register_builtin_models,
    register_model,
    unregister_model,
)
from repro.engine import SearchEngine, SearchRequest
from repro.engine.registry import available_methods

pytestmark = pytest.mark.analytic


def _request(n, k, method, *, target=None, options=None, epsilon=None):
    return SearchRequest(n_items=n, n_blocks=k, method=method, target=target,
                        options=options or {}, epsilon=epsilon,
                        wants="probability", engine="analytic")


@pytest.fixture
def restore_registry():
    """Any test that mutates the registry puts the builtins back."""
    yield
    register_builtin_models(replace=True)


class TestRegistry:
    def test_every_builtin_method_has_a_model(self):
        # The tentpole promise: the analytic registry mirrors the method
        # registry — every registered method is answerable in closed form.
        assert set(available_models()) == set(available_methods())

    def test_describe_models_rows_are_json_safe(self):
        import json

        rows = describe_models()
        assert {r["method"] for r in rows} == set(available_models())
        for row in rows:
            assert row["regime"] == "exact"  # all builtins are finite-(N,K)
            assert row["max_n_items"] == ANALYTIC_MAX_N_ITEMS
            assert row["description"]
        json.dumps(rows)  # must serialise as-is for /v1/methods

    def test_get_model_unknown_names_the_known_set(self):
        with pytest.raises(AnalyticUnsupported, match="no analytic model"):
            get_model("nope")
        assert not has_model("nope")

    def test_duplicate_registration_rejected(self, restore_registry):
        model = get_model("grk")
        with pytest.raises(ValueError, match="already registered"):
            register_model(model)
        register_model(model, replace=True)  # explicit replace is fine

    def test_unregister_then_reregister(self, restore_registry):
        unregister_model("grover-full")
        assert not has_model("grover-full")
        unregister_model("grover-full")  # missing names are a no-op
        register_builtin_models(replace=True)
        assert has_model("grover-full")

    def test_model_regime_is_validated(self):
        with pytest.raises(ValueError, match="regime"):
            AnalyticModel(method="x", regime="vibes", description="",
                          check=lambda r: None,
                          evaluate=lambda r, t: AnalyticAnswer(1.0, 1),
                          evaluate_batch=lambda r, ts: AnalyticBatchAnswer(
                              np.ones(ts.size), np.ones_like(ts), ts * 0))


class TestValidityGates:
    def test_size_bound(self):
        request = _request(ANALYTIC_MAX_N_ITEMS * 2, 2, "grk")
        with pytest.raises(AnalyticUnsupported, match="2\\*\\*63"):
            get_model("grk").check(request)

    def test_block_structure_required(self):
        with pytest.raises(AnalyticUnsupported, match="K >= 2"):
            get_model("grk").check(_request(64, 1, "grk"))
        with pytest.raises(AnalyticUnsupported, match="block size"):
            get_model("grk").check(_request(64, 64, "grk"))

    def test_unmodelled_options_rejected(self):
        request = _request(64, 8, "grk", options={"mystery_knob": 1})
        with pytest.raises(AnalyticUnsupported, match="mystery_knob"):
            get_model("grk").check(request)

    def test_naive_left_out_range(self):
        request = _request(64, 8, "naive-blocks",
                           options={"left_out_block": 9})
        with pytest.raises(AnalyticUnsupported, match="out of range"):
            get_model("naive-blocks").check(request)

    def test_classical_unknown_strategy(self):
        request = _request(64, 8, "classical",
                           options={"strategy": "psychic"})
        with pytest.raises(AnalyticUnsupported, match="psychic"):
            get_model("classical").check(request)

    def test_grover_full_negative_iterations(self):
        request = _request(64, 1, "grover-full", options={"iterations": -1})
        with pytest.raises(AnalyticUnsupported, match="iterations"):
            get_model("grover-full").check(request)

    def test_exact_grover_too_few_iterations(self):
        from repro.grover.exact import minimum_iterations

        too_few = minimum_iterations(1024)  # needs minimum + 1
        request = _request(1024, 1, "grover-full",
                           options={"exact": True, "iterations": too_few})
        with pytest.raises(AnalyticUnsupported, match="iterations"):
            get_model("grover-full").evaluate(request, 0)
        with pytest.raises(AnalyticUnsupported, match="iterations"):
            get_model("grover-full").evaluate_batch(request, np.arange(4))

    def test_mismatched_schedule_rejected(self):
        from repro.core.parameters import plan_schedule

        wrong = plan_schedule(256, 4)
        request = _request(64, 4, "grk", options={"schedule": wrong})
        with pytest.raises(AnalyticUnsupported, match="schedule is for"):
            get_model("grk").evaluate(request, 0)


class TestHugeN:
    """The point of the tier: exact answers where no state fits in RAM."""

    def test_grk_at_2_to_40(self):
        n, k = 1 << 40, 1 << 10
        answer = get_model("grk").evaluate(_request(n, k, "grk", target=12345), 12345)
        assert answer.answer_kind == "exact"
        assert answer.success_probability >= 1.0 - 4.0 / math.sqrt(n)
        # Section 3.1: fewer queries than full search's (pi/4) sqrt(N).
        assert 0 < answer.queries < (math.pi / 4.0) * math.sqrt(n)
        assert answer.block_guess == 12345 // (n // k)

    def test_sure_success_at_2_to_40(self):
        n, k = 1 << 40, 32
        answer = get_model("grk-sure-success").evaluate(
            _request(n, k, "grk-sure-success"), None
        )
        assert answer.success_probability >= 1.0 - 1e-9
        assert answer.queries < (math.pi / 4.0) * math.sqrt(n)

    def test_cwb_at_2_to_50(self):
        n, k = 1 << 50, 8
        answer = get_model("grk-cwb").evaluate(_request(n, k, "grk-cwb"), None)
        assert answer.success_probability >= 1.0 - 1e-9
        assert answer.schedule["extra_queries"] <= 2
        assert answer.queries < (math.pi / 4.0) * math.sqrt(n)

    def test_classical_deterministic_position_arithmetic_at_2_to_40(self):
        n, k = 1 << 40, 16
        b = n // k
        # Target at the very start of block 0: found on the first probe.
        first = get_model("classical").evaluate(
            _request(n, k, "classical", target=0), 0
        )
        assert first.queries == 1
        # Target in the (default, last) left-out block: full elimination.
        eliminated = get_model("classical").evaluate(
            _request(n, k, "classical", target=n - 1), n - 1
        )
        assert eliminated.queries == n - b
        assert eliminated.success_probability == 1.0

    def test_naive_blocks_expectation_at_2_to_40(self):
        n, k = 1 << 40, 16
        answer = get_model("naive-blocks").evaluate(
            _request(n, k, "naive-blocks"), None
        )
        assert answer.answer_kind == "expected"
        assert 1.0 / k < answer.success_probability <= 1.0
        # ~ (pi/4) sqrt((K-1) N / K) + 1 queries.
        m = n - n // k
        assert answer.queries == pytest.approx((math.pi / 4) * math.sqrt(m), rel=1e-3)


#: Every builtin model under each option set that changes how its answer
#: depends on the target.
BATCH_CASES = [
    ("grk", {}),
    ("grk-simplified", {}),
    ("grk-sure-success", {}),
    ("grk-cwb", {}),
    ("naive-blocks", {}),
    ("naive-blocks", {"left_out_block": 1}),
    ("grover-full", {}),
    ("grover-full", {"exact": True}),
    ("grover-full", {"iterations": 3}),
    ("classical", {}),
    ("classical", {"left_out_block": 0}),
    ("classical", {"strategy": "randomized"}),
]
#: From a small instance up to the models' bound N = 2**63.
BATCH_GEOMETRIES = [(16, 4), (64, 8), (1 << 20, 8), (1 << 40, 1 << 10),
                    (1 << 63, 2)]
#: Cold phase solves take seconds at (2**40, 2**10) and CWB's at
#: (2**63, 2), and (16, 4) has no sure-success solution at all; these
#: geometries solve in well under a second.
PHASE_SOLVED_GEOMETRIES = [(64, 8), (1 << 20, 8), (1 << 63, 8)]


def _batch_params():
    for method, options in BATCH_CASES:
        geometries = BATCH_GEOMETRIES
        if method in ("grk-sure-success", "grk-cwb"):
            geometries = PHASE_SOLVED_GEOMETRIES
        if method == "grover-full":
            # K = 1: the one block's size, 2**63, does not fit int64.
            geometries = geometries + [(1 << 63, 1)]
        label = ",".join(f"{k}={v}" for k, v in options.items()) or "default"
        for n, k in geometries:
            yield pytest.param(method, options, n, k,
                               id=f"{method}-{label}-2^{n.bit_length() - 1}x{k}")


class TestBatchIdentity:
    """``evaluate_batch`` rows are per-row ``evaluate`` answers, bit for bit."""

    def test_every_builtin_model_is_covered(self):
        assert {method for method, _ in BATCH_CASES} == set(available_models())

    @pytest.mark.parametrize("method,options,n,k", list(_batch_params()))
    def test_batch_rows_equal_per_row_evaluate(self, method, options, n, k):
        b = n // k
        edges = {t for t in (0, b - 1, b, (k - 1) * b, n - 1) if t < n}
        rng = np.random.default_rng(16)
        targets = np.concatenate([
            np.array(sorted(edges), dtype=np.int64),
            rng.integers(0, n - 1, size=16, endpoint=True),
        ])
        request = _request(n, k, method, options=options)
        report = SearchEngine().search_batch(request, targets=targets)
        assert report.backend == "analytic"
        assert report.success_probabilities.dtype == np.float64
        assert report.queries.dtype == report.block_guesses.dtype == np.intp

        model = get_model(method)
        rows = [model.evaluate(request, t) for t in report.targets.tolist()]
        np.testing.assert_array_equal(
            report.success_probabilities,
            [row.success_probability for row in rows],
        )
        np.testing.assert_array_equal(report.queries,
                                      [row.queries for row in rows])
        np.testing.assert_array_equal(report.block_guesses,
                                      [row.block_guess for row in rows])
        first = SearchEngine().search(request.replace(target=int(targets[0])))
        assert report.schedule == first.schedule
