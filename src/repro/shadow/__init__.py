"""Bit-level shadow (secrecy) analysis -- Section 2.3.

Maintains, for every value, a shadow bit vector marking which bits might
be secret, with conservative per-operation transfer functions.  The
popcount of a value's mask is the capacity of its node in the flow
graph.
"""

from .bitmask import (is_secret, lowest_set_bit, popcount, spread_left,
                      truncate, width_mask)
from .fast import BACKENDS, resolve_backend
from .transfer import (BINARY, COMPARISONS, UNARY, binary_mask,
                       transfer_select, transfer_sext, transfer_trunc,
                       transfer_zext, unary_mask)

__all__ = [
    "is_secret", "lowest_set_bit", "popcount", "spread_left", "truncate",
    "width_mask",
    "BACKENDS", "resolve_backend",
    "BINARY", "COMPARISONS", "UNARY", "binary_mask", "unary_mask",
    "transfer_select", "transfer_sext", "transfer_trunc", "transfer_zext",
]
