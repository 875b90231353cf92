"""Tests for the secrecy transfer functions (Section 2.3).

The headline test is the *conservativeness property*: for every
operation, flipping only secret input bits must never change a result
bit that the transfer function marked public.  This is the exact
soundness condition the paper's bit-width analysis relies on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.shadow.bitmask import width_mask
from repro.shadow.transfer import (BINARY, COMPARISONS, binary_mask,
                                   transfer_select, transfer_sext,
                                   transfer_trunc, transfer_zext, unary_mask)

WIDTH = 8
W = width_mask(WIDTH)


def to_signed(x, width=WIDTH):
    sign = 1 << (width - 1)
    return (x & (sign - 1)) - (x & sign)


def evaluate(op, a, b, width=WIDTH):
    """Reference concrete semantics for each binary op (width-truncated).

    Shifts are non-modular (shifting by >= width clears / saturates);
    signed comparisons use two's complement at ``width``.
    """
    w = width_mask(width)
    if op == "add":
        return (a + b) & w
    if op == "sub":
        return (a - b) & w
    if op == "mul":
        return (a * b) & w
    if op == "div":
        return (a // b) & w if b else 0
    if op == "mod":
        return (a % b) & w if b else 0
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << b) & w if b < 64 else 0
    if op == "shr":
        return (a >> b) if b < 64 else 0
    if op == "sar":
        return (to_signed(a, width) >> min(b, 63)) & w
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "ult":
        return int(a < b)
    if op == "ule":
        return int(a <= b)
    if op == "ugt":
        return int(a > b)
    if op == "uge":
        return int(a >= b)
    if op == "lt":
        return int(to_signed(a, width) < to_signed(b, width))
    if op == "le":
        return int(to_signed(a, width) <= to_signed(b, width))
    if op == "gt":
        return int(to_signed(a, width) > to_signed(b, width))
    if op == "ge":
        return int(to_signed(a, width) >= to_signed(b, width))
    raise AssertionError(op)


class TestKnownAnswers:
    def test_and_with_public_constant_masks(self):
        # x & 0x0F with x fully secret keeps only 4 secret bits.
        assert binary_mask("and", 0xAB, 0xFF, 0x0F, 0, WIDTH) == 0x0F

    def test_and_fully_public(self):
        assert binary_mask("and", 3, 0, 5, 0, WIDTH) == 0

    def test_or_with_public_ones_clears(self):
        # x | 0xF0: the top 4 result bits are forced to 1 -> public.
        assert binary_mask("or", 0xAB, 0xFF, 0xF0, 0, WIDTH) == 0x0F

    def test_xor_unions(self):
        assert binary_mask("xor", 0, 0x0F, 0, 0xF0, WIDTH) == 0xFF

    def test_add_spreads_left_only(self):
        # Secret only in bit 4: bits 0-3 of the sum stay public.
        assert binary_mask("add", 0x10, 0x10, 0x01, 0, WIDTH) == 0xF0

    def test_mul_public_below_lowest_secret(self):
        assert binary_mask("mul", 0x10, 0x10, 0x03, 0, WIDTH) == 0xF0

    def test_div_all_or_nothing(self):
        assert binary_mask("div", 100, 0xFF, 7, 0, WIDTH) == 0xFF
        assert binary_mask("div", 100, 0, 7, 0, WIDTH) == 0

    def test_shl_public_amount_moves_mask(self):
        assert binary_mask("shl", 0x01, 0x01, 2, 0, WIDTH) == 0x04

    def test_shr_public_amount_moves_mask(self):
        assert binary_mask("shr", 0x80, 0x80, 3, 0, WIDTH) == 0x10

    def test_shift_secret_amount_taints_all(self):
        assert binary_mask("shl", 0x01, 0, 1, 0x07, WIDTH) == 0xFF

    def test_shift_of_known_zero_is_public(self):
        assert binary_mask("shl", 0, 0, 1, 0x07, WIDTH) == 0

    def test_sar_secret_sign_floods(self):
        assert binary_mask("sar", 0x80, 0x80, 2, 0, WIDTH) == 0xE0

    def test_comparison_one_bit(self):
        assert binary_mask("eq", 1, 0xFF, 1, 0, WIDTH) == 1
        assert binary_mask("eq", 1, 0, 1, 0, WIDTH) == 0
        # Width-independent: the fast pytrace session passes width 1
        # for every comparison instead of the widest operand's width.
        for op in sorted(COMPARISONS):
            for a_mask, b_mask, want in ((0xFF, 0, 1), (0, 1, 1),
                                         (0, 0, 0)):
                for width in (1, 8, 64, 200):
                    assert binary_mask(op, 0xAB, a_mask, 1 << 150, b_mask,
                                       width) == want, (op, width)

    def test_unary_ops(self):
        assert unary_mask("not", 0xAB, 0x0F, WIDTH) == 0x0F
        assert unary_mask("neg", 0x10, 0x10, WIDTH) == 0xF0
        assert unary_mask("lnot", 1, 1, WIDTH) == 1
        assert unary_mask("lnot", 1, 0, WIDTH) == 0

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            binary_mask("frobnicate", 0, 0, 0, 0, WIDTH)
        with pytest.raises(KeyError):
            unary_mask("frobnicate", 0, 0, WIDTH)


class TestWidthChanges:
    def test_zext_keeps_low_mask(self):
        assert transfer_zext(0xAB, 0xFF, 8, 16) == 0xFF

    def test_sext_replicates_secret_sign(self):
        assert transfer_sext(0x80, 0x80, 8, 16) == 0xFF80

    def test_sext_public_sign_no_spread(self):
        assert transfer_sext(0x80, 0x0F, 8, 16) == 0x0F

    def test_trunc(self):
        assert transfer_trunc(0xABCD, 0xFF00, 8) == 0x00


class TestSelect:
    def test_public_condition_picks_arm(self):
        assert transfer_select(1, 0, 0xAA, 0x0F, 0xBB, 0xF0, WIDTH) == 0x0F
        assert transfer_select(0, 0, 0xAA, 0x0F, 0xBB, 0xF0, WIDTH) == 0xF0

    def test_secret_condition_taints_all(self):
        assert transfer_select(1, 1, 0xAA, 0, 0xBB, 0, WIDTH) == 0xFF


mask_strategy = st.integers(0, W)
value_strategy = st.integers(0, W)


class TestConservativeness:
    """Flipping secret bits must never change a public result bit."""

    @settings(max_examples=300, deadline=None)
    @given(op=st.sampled_from(sorted(BINARY)),
           a=value_strategy, b=value_strategy,
           a_mask=mask_strategy, b_mask=mask_strategy,
           a_flip=mask_strategy, b_flip=mask_strategy)
    def test_binary_ops(self, op, a, b, a_mask, b_mask, a_flip, b_flip):
        if op in ("div", "mod"):
            # Division by zero traps in the VM; keep divisors non-zero on
            # both sides of the comparison.
            b |= 1
            b_mask &= ~1 & W
        result_mask = binary_mask(op, a, a_mask, b, b_mask, WIDTH)
        a2 = a ^ (a_flip & a_mask)
        b2 = b ^ (b_flip & b_mask)
        r1 = evaluate(op, a, b)
        r2 = evaluate(op, a2, b2)
        public_bits = W & ~result_mask
        if op in COMPARISONS:
            public_bits = 1 & ~result_mask
        assert r1 & public_bits == r2 & public_bits, (
            "op=%s a=%#x b=%#x a2=%#x b2=%#x r1=%#x r2=%#x mask=%#x"
            % (op, a, b, a2, b2, r1, r2, result_mask))

    @settings(max_examples=200, deadline=None)
    @given(a=value_strategy, a_mask=mask_strategy, a_flip=mask_strategy)
    def test_unary_neg(self, a, a_mask, a_flip):
        result_mask = unary_mask("neg", a, a_mask, WIDTH)
        a2 = a ^ (a_flip & a_mask)
        r1 = (-a) & W
        r2 = (-a2) & W
        assert r1 & ~result_mask & W == r2 & ~result_mask & W

    @settings(max_examples=200, deadline=None)
    @given(a=value_strategy, a_mask=mask_strategy, a_flip=mask_strategy)
    def test_unary_not(self, a, a_mask, a_flip):
        result_mask = unary_mask("not", a, a_mask, WIDTH)
        a2 = a ^ (a_flip & a_mask)
        assert (~a) & ~result_mask & W == (~a2) & ~result_mask & W

    @settings(max_examples=200, deadline=None)
    @given(c=st.integers(0, 1), c_mask=st.integers(0, 1),
           t=value_strategy, t_mask=mask_strategy,
           f=value_strategy, f_mask=mask_strategy,
           flips=st.tuples(st.integers(0, 1), mask_strategy, mask_strategy))
    def test_select(self, c, c_mask, t, t_mask, f, f_mask, flips):
        result_mask = transfer_select(c, c_mask, t, t_mask, f, f_mask, WIDTH)
        c2 = c ^ (flips[0] & c_mask)
        t2 = t ^ (flips[1] & t_mask)
        f2 = f ^ (flips[2] & f_mask)
        r1 = t if c else f
        r2 = t2 if c2 else f2
        assert r1 & ~result_mask & W == r2 & ~result_mask & W
