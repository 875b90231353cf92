"""Shared event-level scenario builders for core tests.

These drive :class:`TraceBuilder` (or any tracker with the same event
interface) directly, without a language frontend, encoding the paper's
running examples at the level of abstract execution events.
"""

from repro.core import Location
from repro.core.tracker import TraceBuilder
from repro.shadow.bitmask import width_mask

FULL8 = width_mask(8)


def loc(point, detail=None):
    return Location("scenario", point, detail)


def compare(tracker, location, operands):
    """A comparison: 1-bit secret result iff any operand is secret."""
    operands = [op for op in operands if not op.is_public]
    if not operands:
        return tracker.public()
    return tracker.operation(location, 1, operands)


def count_punct_events(tracker, text, use_regions=True):
    """Replay Figure 2's count_punct on ``text`` against ``tracker``.

    Returns the tracker's ``finish()`` result.  With ``use_regions``
    disabled, every comparison's implicit flow escapes to the program
    output chain (the paper's 1855-bit default behaviour).
    """
    buf = [tracker.secret_value(loc(3, "read"), 8) for _ in text]

    # Region 1: the counting loop; outputs num_dot, num_qm.
    if use_regions:
        tracker.enter_region(loc(6))
    num_dot = 0
    num_qm = 0
    for i, ch in enumerate(text):
        not_nul = compare(tracker, loc(7, "cmp-nul"), [buf[i]])
        tracker.branch(loc(7), not_nul)
        is_dot = compare(tracker, loc(8, "cmp-dot"), [buf[i]])
        tracker.branch(loc(8), is_dot)
        if ch == ".":
            num_dot = (num_dot + 1) & 0xFF  # public data: counts only
        else:
            is_qm = compare(tracker, loc(10, "cmp-qm"), [buf[i]])
            tracker.branch(loc(10), is_qm)
            if ch == "?":
                num_qm = (num_qm + 1) & 0xFF
    # Final loop test on the terminator (public '\0' ends the loop, but
    # the test still reads a secret byte in the C original; our byte
    # array has no terminator so the last test is against end-of-data).
    if use_regions:
        exit1 = tracker.leave_region(loc(12))
        num_dot_prov = tracker.region_output(loc(12, "num_dot"), exit1,
                                             tracker.public(), 8)
        num_qm_prov = tracker.region_output(loc(12, "num_qm"), exit1,
                                            tracker.public(), 8)
    else:
        num_dot_prov = tracker.public()
        num_qm_prov = tracker.public()

    # Region 2: pick the more common character; outputs common, num.
    if use_regions:
        tracker.enter_region(loc(13))
    more_dots = compare(tracker, loc(14, "cmp"), [num_dot_prov, num_qm_prov])
    tracker.branch(loc(14), more_dots)
    if num_dot > num_qm:
        common, n = ".", num_dot
        num_prov = tracker.copy(num_dot_prov)
    else:
        common, n = "?", num_qm
        num_prov = tracker.copy(num_qm_prov)
    if use_regions:
        exit2 = tracker.leave_region(loc(21))
        common_prov = tracker.region_output(loc(21, "common"), exit2,
                                            tracker.public(), 8)
        num_prov = tracker.region_output(loc(21, "num"), exit2, num_prov, 8)
    else:
        common_prov = tracker.public()

    # while (num--) printf("%c", common);
    for _ in range(n):
        test = compare(tracker, loc(23, "test"), [num_prov])
        tracker.branch(loc(23), test)
        tracker.output(loc(24), [common_prov])
        if num_prov.is_public:
            pass  # decrementing a public counter stays public
        else:
            num_prov = tracker.operation(loc(23, "dec"), FULL8, [num_prov])
    final_test = compare(tracker, loc(23, "test"), [num_prov])
    tracker.branch(loc(23), final_test)
    return tracker.finish()


def unary_printer_events(tracker, n, byte_width=8):
    """The Section 3.2 program: read a secret byte, print n constant chars.

    The count alone carries the information; each loop test is a 1-bit
    implicit flow, so a per-iteration cut measures n+1 bits while a cut
    at the counter measures ``byte_width`` bits.
    """
    num = tracker.secret_value(loc(1, "read"), byte_width)
    for _ in range(n):
        test = tracker.operation(loc(2, "test"), 1, [num])
        tracker.branch(loc(2), test)
        tracker.output(loc(3), [])  # a constant character: no data flow
        num = tracker.operation(loc(2, "dec"), width_mask(byte_width), [num])
    final_test = tracker.operation(loc(2, "test"), 1, [num])
    tracker.branch(loc(2), final_test)
    return tracker.finish()


def fanout_events(tracker, width=32):
    """Figure 1: c = d = a + b with both c and d written to output."""
    a = tracker.secret_value(loc(1, "a"), width)
    b = tracker.secret_value(loc(2, "b"), width)
    s = tracker.operation(loc(3, "add"), width_mask(width), [a, b])
    c = tracker.copy(s)
    d = tracker.copy(s)
    tracker.output(loc(4), [c])
    tracker.output(loc(5), [d])
    return tracker.finish()


class EventCounter:
    """Counts the events that reach one tracker instance.

    Wraps the instance's ``operation`` and ``implicit_flow`` (``branch``
    and ``indexed`` call ``implicit_flow``), so a bound-site repeat,
    which a frontend only counts, does not show here: ``ops`` and
    ``flows`` are the events the tracker's generic path ran.
    """

    def __init__(self, tracker):
        self.ops = 0
        self.flows = 0
        operation = tracker.operation
        implicit_flow = tracker.implicit_flow

        def counted_operation(location, result_mask, operands):
            self.ops += 1
            return operation(location, result_mask, operands)

        def counted_flow(location, provenance, bits):
            self.flows += 1
            return implicit_flow(location, provenance, bits)

        tracker.operation = counted_operation
        tracker.implicit_flow = counted_flow
