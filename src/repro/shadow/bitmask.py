"""Shadow bit vectors (Section 2.3).

Every runtime value carries a *secrecy mask*: an integer whose bit ``i``
is set iff bit ``i`` of the value might contain secret information.  The
number of set bits bounds the information the value can convey, and
becomes the capacity of the value's node in the flow graph.

Masks are plain Python ints (arbitrary precision), so the same helpers
serve 8-bit VM bytes and multi-kilobyte byte strings in the Python
frontend.
"""

from __future__ import annotations

try:
    _BIT_COUNT = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - legacy interpreter fallback
    _BIT_COUNT = None


def popcount(mask):
    """Number of set bits in ``mask`` (the value's secret-bit capacity)."""
    if mask < 0:
        raise ValueError("masks are non-negative, got %r" % (mask,))
    if _BIT_COUNT is not None:
        return _BIT_COUNT(mask)
    return bin(mask).count("1")


def width_mask(width):
    """An all-secret mask for a ``width``-bit value."""
    if width < 0:
        raise ValueError("negative width %r" % (width,))
    return (1 << width) - 1


def truncate(mask, width):
    """Restrict a mask to the low ``width`` bits."""
    return mask & width_mask(width)


def lowest_set_bit(mask):
    """Index of the lowest set bit, or ``None`` for an empty mask."""
    if mask == 0:
        return None
    return (mask & -mask).bit_length() - 1


def spread_left(mask, width):
    """All bits at or above the lowest secret bit, within ``width``.

    Models leftward carry/overflow propagation: an addition's output bit
    can depend on any equal-or-lower input bit, so secrecy spreads toward
    the high end starting at the lowest secret input bit.
    """
    low = lowest_set_bit(mask)
    if low is None:
        return 0
    return width_mask(width) & ~width_mask(low)


def is_secret(mask):
    """Whether any bit of the value might be secret."""
    return mask != 0
