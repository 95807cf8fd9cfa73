"""Unit tests for BlockSpec."""

import pytest

from repro.core import BlockSpec


class TestConstruction:
    def test_valid(self):
        spec = BlockSpec(64, 4)
        assert spec.block_size == 16

    @pytest.mark.parametrize("n,k", [(10, 3), (64, 0), (64, 1), (4, 8), (1, 2)])
    def test_invalid(self, n, k):
        with pytest.raises(ValueError):
            BlockSpec(n, k)

    def test_frozen(self):
        spec = BlockSpec(64, 4)
        with pytest.raises(Exception):
            spec.n_items = 128


class TestBitViews:
    def test_dyadic(self):
        spec = BlockSpec(64, 4)
        assert spec.address_bits == 6
        assert spec.block_bits == 2
        assert spec.is_dyadic

    def test_non_dyadic(self):
        spec = BlockSpec(12, 3)
        assert not spec.is_dyadic
        with pytest.raises(ValueError):
            _ = spec.block_bits

    def test_block_of_matches_first_bits(self):
        spec = BlockSpec(64, 4)
        for addr in range(64):
            assert spec.block_of(addr) == addr >> 4


class TestAddressing:
    def test_split_join_round_trip(self):
        spec = BlockSpec(20, 5)
        for addr in range(20):
            y, z = spec.split(addr)
            assert spec.join(y, z) == addr

    def test_slice_and_addresses(self):
        spec = BlockSpec(12, 3)
        assert spec.slice_of(1) == slice(4, 8)
        assert list(spec.addresses_of(2)) == [8, 9, 10, 11]

