"""Lazy large-region operations (Section 4.3).

When an enclosure region's output is a large array, updating the tag of
every element at region exit would cost O(n) per exit -- quadratic in a
loop whose every iteration might modify the whole array.  The paper's
tool instead keeps a bounded set of *region descriptors*: each covers a
contiguous range of addresses (more than :data:`MIN_RANGE` locations)
and carries a list of excepted addresses (later single-location writes).
If a descriptor accumulates more than :data:`MAX_EXCEPTIONS` exceptions
it is shrunk (when the exceptions all fall in its first half) or
eliminated (materialized eagerly).

:class:`LazyRangeTable` is storage-agnostic: the owner supplies a
``materialize(start, length, exceptions, payload)`` callback that writes
the deferred per-element state for the covered, non-excepted addresses.
"""

from __future__ import annotations

#: Default maximum number of live descriptors (paper: 40).
MAX_DESCRIPTORS = 40
#: Minimum range length worth a descriptor (paper: "more than 10").
MIN_RANGE = 10
#: Maximum exceptions a descriptor may hold (paper: "up to 30").
MAX_EXCEPTIONS = 30


class RangeDescriptor:
    """Deferred updates covering ``[start, start + length)``.

    ``payloads`` is a list: repeated covers of the *same* range (the
    loop-with-a-region-exit-per-iteration pattern the paper's laziness
    exists for) compose in order rather than forcing materialization.
    """

    __slots__ = ("start", "length", "payloads", "exceptions")

    def __init__(self, start, length, payload):
        self.start = start
        self.length = length
        self.payloads = [payload]
        self.exceptions = set()

    @property
    def end(self):
        return self.start + self.length

    def contains(self, addr):
        return self.start <= addr < self.end and addr not in self.exceptions

    def __repr__(self):
        return "RangeDescriptor([%d,%d), %d exceptions)" % (
            self.start, self.end, len(self.exceptions))


class LazyRangeTable:
    """A bounded table of range descriptors with exception lists.

    Args:
        materialize: callback ``(start, length, exceptions, payload)``
            invoked when a descriptor is eliminated and its deferred
            state must be written out eagerly.
        max_descriptors / min_range / max_exceptions: the paper's limits,
            overridable for the ablation benchmarks.
    """

    def __init__(self, materialize, max_descriptors=MAX_DESCRIPTORS,
                 min_range=MIN_RANGE, max_exceptions=MAX_EXCEPTIONS):
        self._materialize = materialize
        self.max_descriptors = max_descriptors
        self.min_range = min_range
        self.max_exceptions = max_exceptions
        #: The live descriptors, oldest first.  The list object is never
        #: replaced, so an owner may keep it and test its truth rather
        #: than call ``len``.
        self.live = []
        self.stats = {"covers": 0, "eager_covers": 0, "eliminations": 0,
                      "shrinks": 0, "exceptions": 0}

    def __len__(self):
        return len(self.live)

    def descriptors(self):
        """A snapshot of the live descriptors (for tests/inspection)."""
        return list(self.live)

    def cover(self, start, length, payload):
        """Defer an update of ``[start, start + length)`` with ``payload``.

        Returns ``True`` when a descriptor was created; ``False`` when
        the range is too small to qualify, in which case the *caller*
        must apply the update eagerly.
        """
        if length <= self.min_range:
            self.stats["eager_covers"] += 1
            return False
        for desc in list(self.live):
            if desc.start == start and desc.length == length:
                # The recurring case: a region exit re-covers exactly
                # the same array each loop iteration.  Compose in place
                # -- O(1) per exit, the point of Section 4.3.  Clearing
                # the exceptions over-applies earlier payloads to
                # recently-written cells, which only adds flow (sound).
                desc.payloads.append(payload)
                desc.exceptions.clear()
                self.live.remove(desc)
                self.live.append(desc)
                self.stats["covers"] += 1
                return True
            if max(desc.start, start) < min(desc.end, start + length):
                # Partial overlap: materialize the old deferred state
                # first; the new cover composes on top of the cells'
                # then-current state.
                self._eliminate(desc)
        if len(self.live) >= self.max_descriptors:
            self._eliminate(self.live[0])
        self.live.append(RangeDescriptor(start, length, payload))
        self.stats["covers"] += 1
        return True

    def lookup(self, addr):
        """The deferred payloads at ``addr`` (oldest first), or ``None``.

        Descriptors are searched newest-first so the most recent cover of
        an address wins (older overlaps were materialized at cover time,
        but newest-first is also the correct tie-break).
        """
        for desc in reversed(self.live):
            if desc.contains(addr):
                return desc.payloads
        return None

    def exclude(self, addr):
        """Record a single-address write that overrides deferred state."""
        touched = False
        for desc in self.live:
            if desc.start <= addr < desc.end and addr not in desc.exceptions:
                desc.exceptions.add(addr)
                self.stats["exceptions"] += 1
                touched = True
        if touched:
            for desc in list(self.live):
                self._check_exceptions(desc)

    def flush(self):
        """Materialize every descriptor (e.g. at program exit)."""
        while self.live:
            self._eliminate(self.live[0])

    def discard(self):
        """Drop all deferred state without materializing.

        Sound at end of trace: a deferred update only matters when its
        location is later *read*, and reads materialize on demand -- a
        value nobody reads again contributes no further flow.
        """
        self.live.clear()

    # ------------------------------------------------------------------

    def _check_exceptions(self, desc):
        if desc not in self.live:
            return
        live = sum(1 for a in desc.exceptions if desc.start <= a < desc.end)
        if live <= self.max_exceptions:
            if live == desc.length:
                self.live.remove(desc)  # fully overwritten
            return
        midpoint = desc.start + desc.length // 2
        if all(a < midpoint for a in desc.exceptions):
            # All exceptions in the first half: shrink to the second
            # half, materializing the covered-but-dropped prefix so no
            # deferred state is lost.
            dropped = midpoint - desc.start
            if dropped > 0:
                for payload in desc.payloads:
                    self._materialize(desc.start, dropped,
                                      frozenset(desc.exceptions), payload)
            desc.length = desc.end - midpoint
            desc.start = midpoint
            desc.exceptions = set()
            self.stats["shrinks"] += 1
            if desc.length <= 0:
                self.live.remove(desc)
        else:
            self._eliminate(desc)

    def _eliminate(self, desc):
        self.live.remove(desc)
        self.stats["eliminations"] += 1
        for payload in desc.payloads:
            self._materialize(desc.start, desc.length,
                              frozenset(desc.exceptions), payload)
