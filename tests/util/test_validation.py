"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    require,
    require_divides,
    require_in_range,
    require_int,
    require_power_of_two,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range("x", 0, 0, 10) == 0
        assert require_in_range("x", 10, 0, 10) == 10

    def test_exclusive_top(self):
        assert require_in_range("x", 9, 0, 10, inclusive=False) == 9
        with pytest.raises(ValueError):
            require_in_range("x", 10, 0, 10, inclusive=False)

    def test_below(self):
        with pytest.raises(ValueError, match="x=-1"):
            require_in_range("x", -1, 0, 10)


class TestRequireInt:
    def test_accepts_python_and_numpy_integers(self):
        assert require_int("j", 3, 0) == 3
        value = require_int("j", np.int64(3), 0, 4)
        assert value == 3 and type(value) is int
        assert require_int("j", np.uint8(0), 0, 1) == 0

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(False), "2",
                                       None])
    def test_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            require_int("j", value, 0)

    def test_bounds(self):
        with pytest.raises(ValueError, match="j=-1 must be >= 0"):
            require_int("j", -1, 0)
        with pytest.raises(ValueError, match=r"out of range \[0, 4\)"):
            require_int("j", 4, 0, 4)


class TestRequirePowerOfTwo:
    def test_accepts(self):
        assert require_power_of_two("n", 1024) == 1024

    def test_rejects_value(self):
        with pytest.raises(ValueError):
            require_power_of_two("n", 12)

    def test_rejects_type(self):
        with pytest.raises(TypeError):
            require_power_of_two("n", 4.0)
        with pytest.raises(TypeError):
            require_power_of_two("n", True)


class TestRequireDivides:
    def test_accepts(self):
        require_divides("k", 3, "n", 12)

    def test_rejects(self):
        with pytest.raises(ValueError):
            require_divides("k", 5, "n", 12)
        with pytest.raises(ValueError):
            require_divides("k", 0, "n", 12)
