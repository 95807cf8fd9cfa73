"""Sweep helpers."""

import math

import pytest

from repro.analysis.sweep import sweep_coefficients
from repro.engine import SearchEngine


def sweep_grid(*args, **kwargs):
    return SearchEngine().sweep(*args, **kwargs)


class TestSweepPartialSearch:
    def test_grid_rows(self):
        rows = sweep_grid([256, 1024], [2, 4])
        assert len(rows) == 4
        for row in rows:
            assert row["success"] > 0.97
            assert row["queries"] == row["l1"] + row["l2"] + 1

    def test_skips_non_divisible(self):
        rows = sweep_grid([100], [3, 5])
        assert [r["n_blocks"] for r in rows] == [5]

    def test_coefficient_definition(self):
        row = sweep_grid([4096], [4])[0]
        assert row["coefficient"] == pytest.approx(row["queries"] / 64.0)

    def test_success_plus_failure(self):
        row = sweep_grid([1 << 16], [8])[0]
        assert row["success"] + row["failure"] == pytest.approx(1.0, abs=1e-12)

    def test_huge_n_fast(self):
        rows = sweep_grid([1 << 40], [4])
        assert rows[0]["success"] > 1 - 1e-9


class TestSweepCoefficients:
    def test_ordering_invariants(self):
        for row in sweep_coefficients([2, 4, 8, 32]):
            assert row["lower"] < row["grk"] < row["naive"] < math.pi / 4 + 1e-12

    def test_savings_constant_converges(self):
        rows = sweep_coefficients([2**i for i in range(2, 12)])
        tail = [r["grk_savings_times_sqrt_k"] for r in rows[-3:]]
        for v in tail:
            assert v >= 0.42  # Theorem 1
            assert v < 0.50


class TestSimulateCrossCheck:
    def test_simulated_cells_match_subspace_prediction(self):
        rows = sweep_grid([64], [4, 8], simulate=True)
        for row in rows:
            assert row["sim_all_correct"] is True
            assert row["sim_worst_success"] == pytest.approx(
                row["success"], abs=1e-9
            )

    def test_non_power_of_two_cells_fall_back_to_kernels(self):
        (row,) = sweep_grid([12], [3], simulate=True)
        assert row["sim_all_correct"] is True
        assert row["sim_worst_success"] == pytest.approx(row["success"], abs=1e-9)

    def test_oversized_cells_are_skipped(self):
        (row,) = sweep_grid([1 << 20], [4], simulate=True)
        assert row["sim_worst_success"] is None
        assert row["sim_all_correct"] is None

    def test_simulate_off_adds_no_keys(self):
        (row,) = sweep_grid([64], [4])
        assert "sim_worst_success" not in row
