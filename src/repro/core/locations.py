"""Code locations and calling-context hashing (Sections 3.2, 4.2).

Edges in the flow graph are labelled with a static code location plus,
optionally, a 64-bit hash of the calling context, "similarly to Bond and
McKinley's probabilistic calling context": the hash is updated on every
call as ``ctx' = 3 * ctx + callsite`` (mod 2**64) and restored on return.
Two dynamic instances of an instruction merge under collapsing iff their
locations (and, context-sensitively, their hashes) agree.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def callsite_hash(callsite_id):
    """A call site's 64-bit term in the context update, the same in
    every process.

    Python's ``hash`` of a string is salted per process, so contexts
    built from it differ between processes, and shards traced by two
    processes (two batches grown into one store, a service job resumed
    after a restart) would not collapse together.
    """
    digest = hashlib.blake2b(str(callsite_id).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Location:
    """A static program point: a source unit, a position, and a descriptor.

    ``unit`` is typically a file name or function name, ``point`` a line
    number or bytecode address, and ``detail`` an optional disambiguator
    (e.g. ``"then-store"``).  Locations are immutable, hashable, and
    render as ``unit:point`` for reports.
    """

    __slots__ = ("unit", "point", "detail", "_hash")

    def __init__(self, unit, point, detail=None):
        self.unit = unit
        self.point = point
        self.detail = detail
        # Locations key every label table and collapse bucket, so the
        # hash is precomputed once instead of per lookup.
        self._hash = hash((unit, point, detail))

    def __eq__(self, other):
        return (isinstance(other, Location)
                and self.unit == other.unit
                and self.point == other.point
                and self.detail == other.detail)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        base = "%s:%s" % (self.unit, self.point)
        if self.detail:
            base += "(%s)" % self.detail
        return base

    def __str__(self):
        return self.__repr__()


class ContextHasher:
    """Bond–McKinley-style probabilistic calling-context hash.

    Maintains a stack so that :meth:`pop_call` restores the caller's
    context exactly; the 64-bit multiplicative update makes collisions
    between distinct contexts improbable, which is all the collapsing
    machinery needs.
    """

    __slots__ = ("_stack", "_current")

    def __init__(self):
        self._stack = []
        self._current = 0

    @property
    def current(self):
        """The context hash for the currently executing frame."""
        return self._current

    @property
    def depth(self):
        """Current call depth."""
        return len(self._stack)

    def push_call(self, callsite_id):
        """Enter a callee from the call site identified by ``callsite_id``."""
        self._stack.append(self._current)
        self._current = (3 * self._current
                         + callsite_hash(callsite_id)) & _MASK64

    def pop_call(self):
        """Return to the caller, restoring its context hash."""
        if not self._stack:
            raise IndexError("pop_call with empty call stack")
        self._current = self._stack.pop()

    def reset(self):
        """Clear to the top-level (empty) context."""
        self._stack.clear()
        self._current = 0
