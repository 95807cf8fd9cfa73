"""Unit tests for repro.util.minimize (bounded Brent minimisation).

Bit-for-bit agreement with scipy on the planners' objectives is pinned in
``tests/test_solver_pins.py``; these cover the search's own contract.
"""

import math

import pytest

from repro.util import minimize
from repro.util.minimize import minimize_bounded


class TestMinimizeBounded:
    @pytest.mark.parametrize("xatol", [1e-5, 1e-12])
    def test_interior_minimum_within_xatol(self, xatol):
        result = minimize_bounded(lambda x: (x - 0.3) ** 2, -2.0, 5.0, xatol=xatol)
        assert result.success
        # Brent's stopping rule: within 2 (sqrt(eps) |x| + xatol / 3).
        assert abs(result.x - 0.3) <= 2.0 * (math.sqrt(2.2e-16) * 0.3 + xatol / 3.0)
        assert result.fun == (result.x - 0.3) ** 2

    def test_bounds_are_never_evaluated(self):
        # A minimum on a bound is approached, not probed: callers whose
        # optimum may sit there compare the endpoints themselves.
        probes = []

        def f(x):
            probes.append(x)
            return x

        result = minimize_bounded(f, 1.0, 2.0, xatol=1e-9)
        assert 1.0 < min(probes) and max(probes) < 2.0
        assert result.x == min(probes)
        assert result.x - 1.0 < 1e-6

    def test_running_out_of_evaluations_is_reported(self, monkeypatch):
        monkeypatch.setattr(minimize, "_MAX_EVALUATIONS", 5)
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(3.0 * x)

        result = minimize_bounded(f, 0.0, 2.0, xatol=1e-12)
        assert not result.success
        assert len(calls) == 5

    def test_nan_is_reported(self):
        assert not minimize_bounded(lambda x: math.nan, 0.0, 1.0, xatol=1e-5).success

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_bounds_raise(self, bounds):
        with pytest.raises(ValueError):
            minimize_bounded(lambda x: x * x, *bounds, xatol=1e-5)
