"""Burrows-Wheeler transform (the "block sorting" in block-sorting
compression).

Forward transform sorts all cyclic rotations of the block and emits the
last column plus the index of the original rotation.  The suffix ranks
are seeded by a *counting sort on byte values*: when the input bytes are
tracked secrets, each bucket access indexes an array with a secret --
an 8-bit implicit flow per byte, charged to the enclosing region
(Section 2.2's pointer rule).  After that seeding, ranks are public
integers already accounted for, and the prefix-doubling rounds run at
plain-Python speed.

The inverse transform reconstructs the block from the last column;
together they give the round-trip property the tests check.
"""

from __future__ import annotations

from ...pytrace.values import SecretInt


def _initial_ranks(data):
    """Counting-sort ranks of single bytes.

    ``data`` may mix plain ints and tracked bytes; indexing the count
    table with a tracked byte records the implicit flow that makes the
    later public processing sound.
    """
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1  # tracked byte -> __index__ -> implicit flow
    rank_of_byte = [0] * 256
    total = 0
    for value in range(256):
        rank_of_byte[value] = total
        if counts[value]:
            total += 1
    return [rank_of_byte[byte] for byte in data]


def rotation_sort(data):
    """Sort the cyclic rotations of ``data``; return the rotation order.

    Prefix doubling over cyclic indices: after round k, ``rank[i]`` is
    the rank of rotation i by its first 2^k characters.  All arithmetic
    after the initial counting sort is on public ranks.
    """
    n = len(data)
    if n == 0:
        return []
    rank = _initial_ranks(data)
    order = sorted(range(n), key=lambda i: rank[i])
    k = 1
    while k < n:
        def key(i):
            return (rank[i], rank[(i + k) % n])

        order.sort(key=key)
        new_rank = [0] * n
        for pos in range(1, n):
            prev, cur = order[pos - 1], order[pos]
            new_rank[cur] = new_rank[prev] + (1 if key(cur) != key(prev)
                                              else 0)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            break
        k *= 2
    return order


def bwt_forward(data):
    """Forward BWT: returns ``(last_column, primary_index)``.

    ``last_column`` elements are the *original* data values (tracked
    bytes keep their provenance -- copies create no nodes), so direct
    data flows from input to transform output are preserved.
    """
    n = len(data)
    if n == 0:
        return [], 0
    order = rotation_sort(data)
    last = [data[(i - 1) % n] for i in order]
    primary = order.index(0)
    return last, primary


def bwt_inverse(last, primary):
    """Inverse BWT over plain ints (the decompression side)."""
    n = len(last)
    if n == 0:
        return []
    counts = [0] * 256
    for byte in last:
        counts[byte] += 1
    firsts = [0] * 256
    total = 0
    for value in range(256):
        firsts[value] = total
        total += counts[value]
    # Transform vector: next[i] = position in 'last' of the rotation
    # that follows rotation i in sorted order.
    seen = [0] * 256
    nxt = [0] * n
    for i, byte in enumerate(last):
        nxt[firsts[byte] + seen[byte]] = i
        seen[byte] += 1
    out = []
    pos = nxt[primary]
    for _ in range(n):
        out.append(last[pos])
        pos = nxt[pos]
    return out
