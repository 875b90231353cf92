"""Tainting-based policy checking (Section 6.2).

Once measurement has produced a minimum cut, future runs can be checked
much more cheaply: re-run with plain bit-level tainting (no graph) and
treat the cut's program points as sanctioned declassification sites --
"the cut edges correspond to annotations that clear the taint bits on
data, while simultaneously incrementing a counter of information
revealed.  If any other tainted bits reach the output or an implicit
flow operation, they are conservatively counted in the same way, and the
location reported."

:class:`CheckTracker` implements the same event interface as
:class:`~repro.core.tracker.TraceBuilder`, so the FlowLang VM and the
Python frontend run unmodified against either.
"""

from __future__ import annotations

from ..errors import PolicyViolation, TraceError
from ..shadow.bitmask import popcount, width_mask
from .tracker import PUBLIC, Provenance, bits_for_arms

#: Sentinel node id marking "tainted" in check mode (no graph is built).
TAINTED = -1


class UnexpectedFlow:
    """A tainted flow observed at a location the cut does not sanction."""

    __slots__ = ("kind", "location", "bits")

    def __init__(self, kind, location, bits):
        self.kind = kind
        self.location = location
        self.bits = bits

    def __repr__(self):
        return "UnexpectedFlow(%s at %s, %d bits)" % (
            self.kind, self.location, self.bits)


class CheckResult:
    """Outcome of a tainting-based check of one run."""

    def __init__(self, revealed_bits, sanctioned_bits, unexpected, policy):
        self.revealed_bits = revealed_bits
        self.sanctioned_bits = sanctioned_bits
        self.unexpected = unexpected
        self.policy = policy

    @property
    def ok(self):
        """Whether the run stayed within the policy with no novel leaks."""
        return (not self.unexpected
                and self.policy.permits(self.revealed_bits))

    def enforce(self):
        """Raise :class:`PolicyViolation` unless the run passed."""
        if self.unexpected:
            first = self.unexpected[0]
            raise PolicyViolation(
                "tainted %s flow at unsanctioned location %s (%d bits; %d "
                "unexpected flows total)" % (first.kind, first.location,
                                             first.bits, len(self.unexpected)),
                measured=self.revealed_bits, allowed=self.policy.max_bits,
                location=first.location)
        self.policy.check(self.revealed_bits)
        return self

    def __repr__(self):
        return ("CheckResult(revealed=%d, sanctioned=%d, unexpected=%d, ok=%s)"
                % (self.revealed_bits, self.sanctioned_bits,
                   len(self.unexpected), self.ok))


class _CheckRegion:
    __slots__ = ("location", "tainted")

    def __init__(self, location):
        self.location = location
        self.tainted = False


class _CheckRegionExit:
    __slots__ = ("tainted", "location")

    def __init__(self, tainted, location):
        self.tainted = tainted
        self.location = location

    @property
    def had_implicit_flows(self):
        return self.tainted


class CheckTracker:
    """Drop-in replacement for ``TraceBuilder`` that checks a cut policy.

    Builds no graph; maintains only taint (via the same secrecy masks)
    and counters.  Runtime overhead is therefore that of tainting alone,
    which is the point of Section 6.2.
    """

    def __init__(self, policy):
        self.policy = policy
        self._regions = []
        self._revealed = 0
        self._sanctioned = 0
        self._unexpected = []
        self._finished = False
        self._stats = {"operations": 0, "implicit_flows": 0, "outputs": 0,
                       "secret_input_bits": 0, "tainted_output_bits": 0}

    # -- the TraceBuilder event interface ------------------------------

    def push_call(self, callsite_id):
        """Context hashes are not needed for checking; accepted for parity."""

    def pop_call(self):
        pass

    def public(self):
        return PUBLIC

    def secret_value(self, location, width, mask=None, category=None):
        if mask is None:
            mask = width_mask(width)
        if mask == 0:
            return PUBLIC
        self._stats["secret_input_bits"] += popcount(mask)
        if self.policy.allows_location("value", location):
            # The cut sits at the input itself (the whole value is
            # revealed): declassify-and-count right away.
            self._count(popcount(mask), sanctioned=True)
            return PUBLIC
        return Provenance(mask, TAINTED)

    def operation(self, location, result_mask, operands):
        self._stats["operations"] += 1
        if result_mask == 0:
            return PUBLIC
        bits = popcount(result_mask)
        if self.policy.allows_location("value", location):
            self._count(bits, sanctioned=True)
            return PUBLIC
        return Provenance(result_mask, TAINTED)

    def copy(self, provenance):
        return provenance

    def declassify(self, provenance):
        return PUBLIC

    def implicit_flow(self, location, provenance, bits):
        if provenance.node is None or bits == 0 or provenance.mask == 0:
            return
        self._stats["implicit_flows"] += 1
        if self.policy.allows_location("implicit", location):
            self._count(bits, sanctioned=True)
            return
        if self._regions:
            self._regions[-1].tainted = True
            return
        # A tainted implicit flow at an unsanctioned location outside any
        # region can reach the output chain: count it and report it.
        self._count(bits, sanctioned=False)
        self._unexpected.append(UnexpectedFlow("implicit", location, bits))

    def branch(self, location, condition, arms=2):
        self.implicit_flow(location, condition, bits_for_arms(arms))

    def indexed(self, location, index):
        self.implicit_flow(location, index, index.bits)

    def enter_region(self, location):
        self._regions.append(_CheckRegion(location))

    def leave_region(self, location):
        if not self._regions:
            raise TraceError("leave_region at %s without a matching enter"
                             % (location,))
        region = self._regions.pop()
        return _CheckRegionExit(region.tainted, location)

    def region_output(self, location, region_exit, old_provenance, width):
        if not region_exit.tainted:
            if (old_provenance.node is not None
                    and self.policy.allows_location("value", location)):
                self._count(popcount(old_provenance.mask), sanctioned=True)
                return PUBLIC
            return old_provenance
        if self.policy.allows_location("value", location):
            # A cut at this location accounts for everything the value
            # can carry -- the region's influence and the previous data
            # alike -- so the result continues as public.
            self._count(width, sanctioned=True)
            return PUBLIC
        return Provenance(width_mask(width), TAINTED)

    def region_outputs(self, location, region_exit, old_provenances, width):
        # Each element may count sanctioned bits: keep the per-element
        # loop (the reference semantics of the bulk event).
        return [self.region_output(location, region_exit, old, width)
                for old in old_provenances]

    def output(self, location, provenances):
        self._stats["outputs"] += 1
        for prov in provenances:
            if prov.node is None or prov.mask == 0:
                continue
            bits = popcount(prov.mask)
            self._stats["tainted_output_bits"] += bits
            if self.policy.allows_location("io", location):
                self._count(bits, sanctioned=True)
            else:
                self._count(bits, sanctioned=False)
                self._unexpected.append(UnexpectedFlow("io", location, bits))

    def finish(self, exit_observable=True):
        """End the run; returns a :class:`CheckResult`."""
        if self._finished:
            raise TraceError("check already finished")
        if self._regions:
            raise TraceError("check finished with %d open enclosure regions"
                             % len(self._regions))
        self._finished = True
        return CheckResult(self._revealed, self._sanctioned,
                           list(self._unexpected), self.policy)

    @property
    def stats(self):
        return dict(self._stats)

    @property
    def region_depth(self):
        return len(self._regions)

    # ------------------------------------------------------------------

    def _count(self, bits, sanctioned):
        self._revealed += bits
        if sanctioned:
            self._sanctioned += bits
