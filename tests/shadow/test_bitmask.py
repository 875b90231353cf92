"""Tests for shadow bit-vector helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.shadow.bitmask import (is_secret, lowest_set_bit, popcount,
                                  spread_left, truncate, width_mask)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_full_byte(self):
        assert popcount(0xFF) == 8

    def test_sparse(self):
        assert popcount(0b1010_0001) == 3

    def test_large_mask(self):
        assert popcount((1 << 375120) - 1) == 375120

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestWidthMask:
    def test_widths(self):
        assert width_mask(0) == 0
        assert width_mask(1) == 1
        assert width_mask(8) == 0xFF
        assert width_mask(32) == 0xFFFFFFFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            width_mask(-2)

    def test_truncate(self):
        assert truncate(0xABCD, 8) == 0xCD
        assert truncate(0xFF, 0) == 0


class TestSpreadLeft:
    def test_empty_mask(self):
        assert spread_left(0, 8) == 0

    def test_lowest_bit_spreads_fully(self):
        assert spread_left(1, 8) == 0xFF

    def test_high_bit_only(self):
        assert spread_left(0x80, 8) == 0x80

    def test_middle(self):
        assert spread_left(0b0001_0000, 8) == 0b1111_0000

    def test_lowest_set_bit(self):
        assert lowest_set_bit(0) is None
        assert lowest_set_bit(1) == 0
        assert lowest_set_bit(0b1_0100) == 2

    @given(st.integers(0, 2**16 - 1))
    def test_spread_is_idempotent_and_superset(self, mask):
        spread = spread_left(mask, 16)
        assert spread & mask == mask
        assert spread_left(spread, 16) == spread


class TestByteSplitting:
    def test_is_secret(self):
        assert not is_secret(0)
        assert is_secret(1)
