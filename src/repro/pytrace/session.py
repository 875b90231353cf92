"""Trace sessions: the Python frontend's connection to the analysis core.

A :class:`Session` owns a tracker (a
:class:`~repro.core.tracker.TraceBuilder` by default) and hands out
:class:`~repro.pytrace.values.SecretInt` values whose operations report
back to it.  Code locations are derived from the caller's Python source
position, so loops collapse by source line exactly as FlowLang loops
collapse by bytecode location.

Example (the login check from the package docstring)::

    session = Session()
    pin = session.secret_int(1234, width=16)
    if pin == 1234:
        session.output_str("welcome")
    report = session.measure()   # report.bits == 1
"""

from __future__ import annotations

import sys
import time

from .. import obs
from ..core.checking import CheckTracker
from ..core.locations import Location
from ..core.measure import measure_graph
from ..core.tracker import PUBLIC, CollapsingTraceBuilder, TraceBuilder
from ..errors import TraceError
from ..graph.flowgraph import INF
from ..shadow import resolve_backend, transfer
from ..shadow.bitmask import width_mask
from .values import SecretInt, _WidthInt, concrete_of, mask_of, width_of

#: Fast-backend binary evaluators: one closure per op instead of the
#: :meth:`Session._eval` string-comparison chain.  Each computes exactly
#: what the reference chain computes for that op (``w`` is the result
#: width mask).
_BIN_EVAL = {
    "add": lambda av, bv, w: (av + bv) & w,
    "sub": lambda av, bv, w: (av - bv) & w,
    "mul": lambda av, bv, w: (av * bv) & w,
    "div": lambda av, bv, w: (av // bv) & w,
    "mod": lambda av, bv, w: (av % bv) & w,
    "and": lambda av, bv, w: av & bv,
    "or": lambda av, bv, w: (av | bv) & w,
    "xor": lambda av, bv, w: (av ^ bv) & w,
    "shl": lambda av, bv, w: (av << bv) & w if bv < 4096 else 0,
    "shr": lambda av, bv, w: (av >> bv) if bv < 4096 else 0,
}

#: Fast-backend comparison evaluators; results are 1-bit, so the fast
#: path can skip result-width computation entirely when both operands
#: are public.
_CMP_EVAL = {
    "eq": lambda av, bv: av == bv,
    "ne": lambda av, bv: av != bv,
    "ult": lambda av, bv: av < bv,
    "ule": lambda av, bv: av <= bv,
    "ugt": lambda av, bv: av > bv,
    "uge": lambda av, bv: av >= bv,
}

#: Evaluator paired with its transfer function, so the fast binary-op
#: path resolves both with a single dict probe.
_CMP_PAIRS = {op: (fn, transfer.BINARY[op]) for op, fn in _CMP_EVAL.items()}
_BIN_PAIRS = {op: (fn, transfer.BINARY[op]) for op, fn in _BIN_EVAL.items()}


class Region:
    """Handle for an enclosure region opened with :meth:`Session.enclose`.

    Inside the ``with`` block, branches and indexed accesses on secrets
    are charged to the region.  After the block, :meth:`wrap` declares a
    value as a region output, returning its post-region tracked form.
    """

    def __init__(self, session, location):
        self._session = session
        self._location = location
        self._exit = None

    @property
    def closed(self):
        return self._exit is not None

    @property
    def had_implicit_flows(self):
        if self._exit is None:
            return False
        return self._exit.had_implicit_flows

    def wrap(self, value, width=None, name=None):
        """Declare ``value`` as an output of this (closed) region.

        Returns a :class:`SecretInt` whose provenance includes the
        region's implicit flows; if no implicit flow occurred the value
        is returned as-is.
        """
        self._check_closed("wrap")
        width = width if width is not None else width_of(value, default=8)
        old_prov = value.prov if isinstance(value, SecretInt) else PUBLIC
        loc = self._output_location(name)
        new_prov = self._session.tracker.region_output(loc, self._exit,
                                                       old_prov, width)
        return self._wrapped(loc, value, old_prov, new_prov, width)

    def wrap_all(self, values, width=8, name=None):
        """:meth:`wrap` applied to a list, as one bulk tracker event.

        All elements share one output location (like one store
        instruction executing per element), so collapsed graph size
        stays independent of the list length.  The location is built
        once and the tracker gets one
        :meth:`~repro.core.tracker.TraceBuilder.region_outputs` call --
        one per run of equal widths when ``width`` is ``None``, where
        each element takes :meth:`wrap`'s ``width_of(v, default=8)``.
        Results follow :meth:`wrap`'s rules element by element; an
        interceptor sees the elements in order after the bulk call.
        """
        self._check_closed("wrap_all")
        values = list(values)
        loc = self._output_location(name)
        olds = [v.prov if isinstance(v, SecretInt) else PUBLIC
                for v in values]
        tracker = self._session.tracker
        if width is not None:
            widths = [width] * len(values)
            news = tracker.region_outputs(loc, self._exit, olds, width)
        else:
            widths = [width_of(v, default=8) for v in values]
            news = []
            start = 0
            for end in range(1, len(values) + 1):
                if end == len(values) or widths[end] != widths[start]:
                    news.extend(tracker.region_outputs(
                        loc, self._exit, olds[start:end], widths[start]))
                    start = end
        wrapped = self._wrapped
        return [wrapped(loc, v, old, new, w)
                for v, old, new, w in zip(values, olds, news, widths)]

    def _check_closed(self, method):
        if self._exit is None:
            raise TraceError("Region.%s() before the with-block closed"
                             % method)

    def _output_location(self, name):
        return Location(self._location.unit, self._location.point,
                        name or "out")

    def _wrapped(self, loc, value, old_prov, new_prov, width):
        """:meth:`wrap`'s result for ``value`` once the tracker has
        turned its old provenance into ``new_prov``."""
        session = self._session
        concrete = concrete_of(value)
        if session.interceptor is not None:
            concrete = session.intercept_value(loc, concrete, width)
        if new_prov is old_prov and not self._exit.had_implicit_flows:
            if (session.interceptor is not None
                    and isinstance(value, SecretInt)):
                return SecretInt(session, concrete, width, value.mask,
                                 value.prov)
            if session.interceptor is not None:
                return concrete
            return value
        if new_prov.mask == 0:
            return concrete
        return SecretInt(session, concrete, width, new_prov.mask, new_prov)


class _RegionContext:
    __slots__ = ("session", "region")

    def __init__(self, session, region):
        self.session = session
        self.region = region

    def __enter__(self):
        session = self.session
        session.tracker.enter_region(self.region._location)
        depth = session.tracker.region_depth
        if depth > session._max_region_depth:
            session._max_region_depth = depth
        return self.region

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            # Unwind without validating: the exception already aborts
            # the analysis; leaving the tracker region keeps it usable.
            try:
                self.region._exit = self.session.tracker.leave_region(
                    self.region._location)
            except TraceError:
                pass
            return False
        self.region._exit = self.session.tracker.leave_region(
            self.region._location)
        return False


class _Scope:
    __slots__ = ("session", "name")

    def __init__(self, session, name):
        self.session = session
        self.name = name

    def __enter__(self):
        self.session.tracker.push_call(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.session.tracker.pop_call()
        return False


class Session:
    """A tracing session for plain Python code.

    Args:
        tracker: defaults to a fresh :class:`TraceBuilder`; pass a
            :class:`~repro.core.checking.CheckTracker` for deployment
            checking or a ``NullTracker`` for lockstep runs.
        interceptor: optional lockstep interceptor (Section 6.3).
        online_collapse: collapse the graph by code location *while
            tracing* (Section 5.2 online): ``"context"`` (or ``True``)
            merges by (location, calling-context hash), ``"location"``
            by location only, so the live graph stays coverage-sized on
            long runs.  Mutually exclusive with ``tracker``.
        backend: ``"reference"``, ``"fast"``, or ``"auto"``/``None``
            (consult ``REPRO_BACKEND``, then ``"fast"``).  The fast
            backend swaps in dict-dispatched operator evaluation,
            inlined call-site lookup, and bulk secret introduction.
            Reports are bit-identical across backends (see
            ``docs/backends.md``).
    """

    def __init__(self, tracker=None, interceptor=None, online_collapse=None,
                 backend=None):
        if online_collapse:
            if tracker is not None:
                raise TraceError(
                    "pass either tracker or online_collapse, not both")
            mode = "context" if online_collapse is True else online_collapse
            if mode not in ("context", "location"):
                raise TraceError(
                    "online_collapse must be 'context' or 'location', "
                    "got %r" % (online_collapse,))
            tracker = CollapsingTraceBuilder(
                context_sensitive=(mode == "context"), backend=backend)
        self.tracker = tracker if tracker is not None else TraceBuilder()
        self.interceptor = interceptor
        self.backend = resolve_backend(backend)
        self._location_sites = {}
        self._fused_sites = {}
        if self.backend == "fast":
            # Bound-method swap: callers (SecretInt dunders, user code)
            # keep identical call depths, so location derivation is
            # unchanged.
            self.binary_op = self._binary_op_fast
            self._caller_location = self._caller_location_fast
            if getattr(self.tracker, "secret_values", None) is not None:
                # Checking trackers have no bulk entry point and keep
                # the reference per-byte loop.
                self.secret_bytes = self._secret_bytes_fast
            if isinstance(self.tracker, TraceBuilder):
                # These inline the TraceBuilder delegations (indexed /
                # branch are defined as implicit_flow calls), so they
                # only apply to trackers with those semantics.  With a
                # fast collapsing tracker the fused variants also
                # inline its repeat-cache hit path.
                fused = (isinstance(self.tracker, CollapsingTraceBuilder)
                         and self.tracker._fast)
                self.index_on = (self._index_on_fused if fused
                                 else self._index_on_fast)
                if interceptor is None:
                    self.branch_on = (self._branch_on_fused if fused
                                      else self._branch_on_fast)
        self.outputs = []
        self._locations = {}
        self._finished = False
        # Always-on frontend counters (plain int bumps are cheap enough
        # to keep unconditionally); published to repro.obs at finish().
        self._shadow_ops = 0
        self._implicit_events = 0
        self._max_region_depth = 0
        # Session lifetime, recorded retroactively as a pytrace.session
        # span at finish() (the span covers __init__ through finish).
        self._t0_epoch = time.time()
        self._t0_perf = time.perf_counter()

    # ------------------------------------------------------------------
    # Locations

    def _caller_location(self, depth, detail=None):
        frame = sys._getframe(depth)
        key = (frame.f_code.co_filename, frame.f_lineno, detail)
        loc = self._locations.get(key)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, detail)
            self._locations[key] = loc
        return loc

    def _caller_location_fast(self, depth, detail=None):
        # Keyed by (code object, bytecode offset) instead of
        # (filename, line): avoids the lazy f_lineno computation on
        # hits.  Distinct sites on one line intern to equal Locations,
        # so labels and buckets are unchanged.
        frame = sys._getframe(depth)
        key = (frame.f_code, frame.f_lasti, detail)
        loc = self._location_sites.get(key)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, detail)
            self._location_sites[key] = loc
        return loc

    def scope(self, name):
        """Context manager adding ``name`` to the calling-context hash."""
        return _Scope(self, name)

    # ------------------------------------------------------------------
    # Inputs

    def secret_int(self, value, width=8, name=None, category=None):
        """Introduce a secret input value of ``width`` bits.

        ``category`` optionally tags the secret's class (e.g.
        ``"alice"`` vs ``"bob"``) for the §10.1 per-category analysis;
        see :meth:`measure_by_category`.
        """
        loc = self._caller_location(2, name or "secret")
        prov = self.tracker.secret_value(loc, width, category=category)
        if prov.mask == 0:
            # A checking tracker may declassify at the cut right away.
            return value & width_mask(width)
        return SecretInt(self, value, width, prov.mask, prov)

    def secret_bytes(self, data, name=None, category=None):
        """Introduce a secret byte string as a list of tracked u8s."""
        loc = self._caller_location(2, name or "secret_bytes")
        out = []
        for byte in data:
            prov = self.tracker.secret_value(loc, 8, category=category)
            if prov.mask == 0:
                out.append(byte)
            else:
                out.append(SecretInt(self, byte, 8, prov.mask, prov))
        return out

    def _secret_bytes_fast(self, data, name=None, category=None):
        """Fast-backend :meth:`secret_bytes`: one bulk tracker call.

        Produces the same tracked values and the same graph as the
        per-byte reference loop; with a collapsing tracker the bulk
        call is O(1) in ``len(data)``.  Counted under
        ``shadow.fast.batch_ops`` / ``shadow.fast.batch_values``.
        """
        loc = self._caller_location(2, name or "secret_bytes")
        provs = self.tracker.secret_values(loc, 8, len(data),
                                           category=category)
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.incr("shadow.fast.batch_ops")
            metrics.incr("shadow.fast.batch_values", len(provs))
        return [byte if prov.mask == 0
                else SecretInt(self, byte, 8, prov.mask, prov)
                for byte, prov in zip(data, provs)]

    def public(self, value):
        """Explicitly mark a plain value as public (identity helper)."""
        return concrete_of(value)

    def widen(self, value, width):
        """Zero-extend a value to ``width`` bits (a free copy).

        Use before accumulating sums that must not wrap at the operand
        width: ``total = session.widen(0, 16)`` then ``total += byte``.
        """
        if isinstance(value, SecretInt):
            if width < value.width:
                raise TraceError("widen() cannot narrow %d -> %d bits"
                                 % (value.width, width))
            return SecretInt(self, value.value, width, value.mask,
                             value.prov)
        return _WidthInt(int(value), width)

    # ------------------------------------------------------------------
    # Operations (called from SecretInt)

    #: Upper bound on how far a left shift may widen a value.
    MAX_WIDTH = 4096

    @staticmethod
    def _result_width(op, a, b, av, bv):
        """Width of the result under FlowLang-like unsigned semantics.

        Python-frontend arithmetic is *non-wrapping* where Python's own
        semantics would be (sums and products widen; left shifts widen
        by the public shift amount), while masking with a plain
        constant narrows to the constant's width and a plain modulus
        narrows to the modulus's width.  Subtraction keeps the max
        operand width and wraps there (unsigned underflow), so C-style
        down-counters behave; truncate explicitly (``& mask``) for
        C-style wrapping elsewhere.
        """
        wa = width_of(a)
        wb = width_of(b, default=1)
        width = max(wa, wb)
        cap = Session.MAX_WIDTH
        if op == "add":
            return min(width + 1, cap)
        if op == "mul":
            return min(wa + wb, cap)
        if op == "shl":
            if isinstance(b, SecretInt):
                return min(wa + (1 << wb) - 1, cap)
            return min(wa + bv, cap)
        if op == "and" and not isinstance(b, SecretInt):
            return max(min(width, bv.bit_length()), 1)
        if op == "and" and not isinstance(a, SecretInt):
            return max(min(width, av.bit_length()), 1)
        if op == "mod" and not isinstance(b, SecretInt) and bv > 0:
            return max(min(width, (bv - 1).bit_length()), 1)
        return width

    def binary_op(self, op, a, b, reflected=False):
        if reflected:
            a, b = b, a
        self._shadow_ops += 1
        av, bv = concrete_of(a), concrete_of(b)
        am, bm = mask_of(a), mask_of(b)
        width = self._result_width(op, a, b, av, bv)
        value = self._eval(op, av, bv, width)
        mask = transfer.binary_mask(op, av, am, bv, bm, width)
        result_width = 1 if op in transfer.COMPARISONS else width
        mask &= width_mask(result_width)
        loc = self._caller_location(3, op)
        if mask == 0:
            if self.interceptor is not None:
                value = self.intercept_value(loc, value, result_width)
            return value
        operands = []
        if isinstance(a, SecretInt):
            operands.append(a.prov)
        if isinstance(b, SecretInt):
            operands.append(b.prov)
        prov = self.tracker.operation(loc, mask, operands)
        if prov.mask == 0:
            return value  # declassified at a cut (checking mode)
        return SecretInt(self, value, result_width, mask, prov)

    def _binary_op_fast(self, op, a, b, reflected=False):
        """Fast-backend :meth:`binary_op`.

        Identical results to the reference: same concrete values, same
        transfer masks, same tracker events.  The speedups are dict
        dispatch instead of the ``_eval`` if-chain, operand unwrapping
        and caller-site lookup inlined, skipping the transfer function
        when both operands are public (it returns 0 there), and
        skipping result-width computation for comparisons (their
        result is 1-bit, and ``transfer_compare`` ignores the width).
        """
        if reflected:
            a, b = b, a
        self._shadow_ops += 1
        sa = isinstance(a, SecretInt)
        sb = isinstance(b, SecretInt)
        if sa:
            av, am = a.value, a.mask
        else:
            av, am = int(a), 0
        if sb:
            bv, bm = b.value, b.mask
        else:
            bv, bm = int(b), 0
        pair = _CMP_PAIRS.get(op)
        if pair is not None:
            width = 1
            value = int(pair[0](av, bv))
            mask = (pair[1](av, am, bv, bm, 1) & 1) if am or bm else 0
        else:
            pair = _BIN_PAIRS.get(op)
            if pair is None:
                raise TraceError("unsupported operation %r" % op)
            width = self._result_width(op, a, b, av, bv)
            w = width_mask(width)
            value = pair[0](av, bv, w)
            mask = (pair[1](av, am, bv, bm, width) & w) if am or bm else 0
        if am == 0 and bm == 0 and self.interceptor is None:
            return value
        # Inline _caller_location_fast (same frame as the reference's
        # ``_caller_location(3, op)`` resolves: the operator dunder).
        frame = sys._getframe(2)
        site = (frame.f_code, frame.f_lasti, op)
        loc = self._location_sites.get(site)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, op)
            self._location_sites[site] = loc
        if mask == 0:
            if self.interceptor is not None:
                value = self.intercept_value(loc, value, width)
            return value
        if sa:
            operands = [a.prov, b.prov] if sb else [a.prov]
        else:
            operands = [b.prov] if sb else []
        prov = self.tracker.operation(loc, mask, operands)
        if prov.mask == 0:
            return value  # declassified at a cut (checking mode)
        return SecretInt(self, value, width, mask, prov)

    def unary_op(self, op, a):
        self._shadow_ops += 1
        av, am = concrete_of(a), mask_of(a)
        width = width_of(a)
        w = width_mask(width)
        value = ((-av) & w) if op == "neg" else ((~av) & w)
        mask = transfer.unary_mask(op, av, am, width)
        loc = self._caller_location(3, op)
        if mask == 0:
            return value
        prov = self.tracker.operation(loc, mask, [a.prov])
        if prov.mask == 0:
            return value
        return SecretInt(self, value, width, mask, prov)

    @staticmethod
    def _eval(op, av, bv, width):
        w = width_mask(width)
        if op == "add":
            return (av + bv) & w
        if op == "sub":
            return (av - bv) & w
        if op == "mul":
            return (av * bv) & w
        if op == "div":
            return (av // bv) & w
        if op == "mod":
            return (av % bv) & w
        if op == "and":
            return av & bv
        if op == "or":
            return (av | bv) & w
        if op == "xor":
            return (av ^ bv) & w
        if op == "shl":
            return (av << bv) & w if bv < 4096 else 0
        if op == "shr":
            return av >> bv if bv < 4096 else 0
        if op == "eq":
            return int(av == bv)
        if op == "ne":
            return int(av != bv)
        if op == "ult":
            return int(av < bv)
        if op == "ule":
            return int(av <= bv)
        if op == "ugt":
            return int(av > bv)
        if op == "uge":
            return int(av >= bv)
        raise TraceError("unsupported operation %r" % op)

    # ------------------------------------------------------------------
    # Implicit flows (called from SecretInt dunders)

    def branch_on(self, secret):
        if secret.mask == 0:
            return
        self._implicit_events += 1
        loc = self._caller_location(3, "branch")
        if self.interceptor is not None:
            # Lockstep: substitute the recorded branch outcome.
            new_value = self.intercept_branch(loc, secret.value)
            secret.value = new_value
        self.tracker.branch(loc, secret.prov)

    def index_on(self, secret):
        if secret.mask == 0:
            return
        self._implicit_events += 1
        loc = self._caller_location(3, "index")
        self.tracker.indexed(loc, secret.prov)

    def _branch_on_fast(self, secret):
        # branch_on with TraceBuilder.branch inlined (one implicit flow
        # of ``bits_for_arms(2) == 1`` bit); bound only when no
        # interceptor is installed.
        if secret.mask == 0:
            return
        self._implicit_events += 1
        frame = sys._getframe(2)
        key = (frame.f_code, frame.f_lasti, "branch")
        loc = self._location_sites.get(key)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, "branch")
            self._location_sites[key] = loc
        self.tracker.implicit_flow(loc, secret.prov, 1)

    def _index_on_fast(self, secret):
        # index_on with _caller_location and TraceBuilder.indexed
        # (an implicit flow of the index's secret bits) inlined.
        if secret.mask == 0:
            return
        self._implicit_events += 1
        frame = sys._getframe(2)
        key = (frame.f_code, frame.f_lasti, "index")
        loc = self._location_sites.get(key)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, "index")
            self._location_sites[key] = loc
        prov = secret.prov
        self.tracker.implicit_flow(loc, prov, prov.bits)

    # The fused handlers inline
    # :meth:`CollapsingTraceBuilder._implicit_flow_fast`'s repeat-cache
    # hit path (bit-identical: same counters, same INF saturation);
    # anything else falls back to the tracker method.  The bodies are
    # duplicated rather than shared -- a helper would re-add the call
    # frame these exist to remove.

    def _branch_on_fused(self, secret):
        if secret.mask == 0:
            return
        self._implicit_events += 1
        frame = sys._getframe(2)
        prov = secret.prov
        tracker = self.tracker
        regions = tracker._regions
        region = regions[-1] if regions else None
        target = region.node if region is not None else tracker._pending
        key = (frame.f_code, frame.f_lasti, prov.node, target,
               tracker._active_ctx)
        entry = self._fused_sites.get(key)
        if entry is not None and not tracker._finished:
            tracker._implicit_events += 1
            tracker._virtual_edges += 1
            tracker._collapser.merge_hits += 1
            if region is not None:
                region.bits += 1
            cap = entry.capacity
            entry.capacity = cap + 1 if cap < INF else INF
            return
        self._fused_fallback(frame, "branch", prov, 1, target, key)

    def _index_on_fused(self, secret):
        if secret.mask == 0:
            return
        self._implicit_events += 1
        frame = sys._getframe(2)
        prov = secret.prov
        tracker = self.tracker
        regions = tracker._regions
        region = regions[-1] if regions else None
        target = region.node if region is not None else tracker._pending
        key = (frame.f_code, frame.f_lasti, prov.node, target,
               tracker._active_ctx)
        entry = self._fused_sites.get(key)
        if entry is not None and not tracker._finished:
            bits = prov.bits
            tracker._implicit_events += 1
            tracker._virtual_edges += 1
            tracker._collapser.merge_hits += 1
            if region is not None:
                region.bits += bits
            cap = entry.capacity
            entry.capacity = (INF if cap >= INF or bits >= INF
                              else cap + bits)
            return
        self._fused_fallback(frame, "index", prov, prov.bits, target, key)

    def _fused_fallback(self, frame, detail, prov, bits, target, fused_key):
        """Cold path of the fused handlers: resolve the location, run
        the full tracker event, then remember the bucket it landed in."""
        site = (frame.f_code, frame.f_lasti, detail)
        loc = self._location_sites.get(site)
        if loc is None:
            loc = Location(frame.f_code.co_filename.rsplit("/", 1)[-1],
                           frame.f_lineno, detail)
            self._location_sites[site] = loc
        tracker = self.tracker
        tracker.implicit_flow(loc, prov, bits)
        if target is not None:
            edge = tracker._implicit_cache.get(
                (loc, prov.node, target, tracker._active_ctx))
            if edge is not None:
                self._fused_sites[fused_key] = edge

    # ------------------------------------------------------------------
    # Regions

    def enclose(self, name=None):
        """Open an enclosure region (a ``with`` context manager).

        Declare the region's outputs after the block with
        :meth:`Region.wrap` / :meth:`Region.wrap_all`.
        """
        loc = self._caller_location(2, name or "enclose")
        return _RegionContext(self, Region(self, loc))

    # ------------------------------------------------------------------
    # Outputs and declassification

    def output(self, *values, name=None):
        """A public output event carrying ``values``."""
        loc = self._caller_location(2, name or "output")
        provs = [v.prov for v in values if isinstance(v, SecretInt)]
        concrete = [concrete_of(v) for v in values]
        self.outputs.extend(concrete)
        if self.interceptor is not None:
            for c in concrete:
                self.interceptor.output(c)
        self.tracker.output(loc, provs)

    def output_bytes(self, data, name=None):
        """Output a byte sequence (possibly of tracked bytes) as one event."""
        loc = self._caller_location(2, name or "output_bytes")
        provs = [v.prov for v in data if isinstance(v, SecretInt)]
        concrete = [concrete_of(v) & 0xFF for v in data]
        self.outputs.extend(concrete)
        if self.interceptor is not None:
            self.interceptor.output(bytes(concrete))
        self.tracker.output(loc, provs)
        return bytes(concrete)

    def output_str(self, text, name=None):
        """Output a constant string (public event; no data flow)."""
        loc = self._caller_location(2, name or "output_str")
        self.outputs.append(text)
        if self.interceptor is not None:
            self.interceptor.output(text)
        self.tracker.output(loc, [])

    def declassify(self, value):
        """Deliberately release a value: returns the plain int."""
        if isinstance(value, SecretInt):
            self.tracker.declassify(value.prov)
            return value.value
        return value

    # ------------------------------------------------------------------
    # Lockstep plumbing

    def intercept_value(self, loc, value, width):
        if self.interceptor.at_cut("value", loc):
            return self.interceptor.intercept("value", loc, value, width)
        return value

    def intercept_branch(self, loc, value):
        if self.interceptor.at_cut("implicit", loc):
            return self.interceptor.intercept("implicit", loc, value, 1)
        return value

    # ------------------------------------------------------------------
    # Finishing

    def finish(self, exit_observable=True):
        """End the trace; returns the tracker's result (graph/result)."""
        if self._finished:
            raise TraceError("session already finished")
        self._finished = True
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.incr("pytrace.shadow_ops", self._shadow_ops)
            metrics.incr("pytrace.implicit_events", self._implicit_events)
            metrics.gauge_max("pytrace.enclosure_depth_max",
                              self._max_region_depth)
        result = self.tracker.finish(exit_observable=exit_observable)
        obs.get_tracer().record(
            "pytrace.session", self._t0_epoch,
            time.perf_counter() - self._t0_perf,
            shadow_ops=self._shadow_ops,
            implicit_events=self._implicit_events)
        return result

    def measure(self, collapse=None, exit_observable=True):
        """Finish and measure; returns a FlowReport.

        ``collapse`` defaults to the tracker's own online-collapse mode
        when one is set (so an ``online_collapse="location"`` session
        measures by location without repeating the mode here) and to
        ``"context"`` otherwise.  Only valid for measuring sessions
        (TraceBuilder-backed).
        """
        if collapse is None:
            collapse = getattr(self.tracker, "collapse_mode", None) or "context"
        graph = self.finish(exit_observable=exit_observable)
        return measure_graph(graph, collapse=collapse,
                             stats=self.tracker.stats)

    def snapshot_bits(self, collapse="location"):
        """The flow bound so far, without finishing the session.

        The pytrace counterpart of the §8.1 real-time mode: call after
        interesting outputs to watch the bound grow.  Only meaningful
        for measuring sessions.
        """
        if self._finished:
            raise TraceError("session already finished")
        return measure_graph(self.tracker.graph, collapse=collapse).bits

    def measure_by_category(self, collapse="none", exit_observable=True,
                            jobs=1):
        """Finish and measure per secret category (§10.1).

        Returns a :class:`~repro.core.multisecret.CategoryBounds`; only
        meaningful when inputs were tagged with ``category=...``.
        ``jobs > 1`` solves the categories in parallel worker processes
        with identical results.
        """
        from ..core.multisecret import measure_by_category
        graph = self.finish(exit_observable=exit_observable)
        return measure_by_category(graph, self.tracker.category_edges,
                                   collapse=collapse,
                                   stats=self.tracker.stats, jobs=jobs)

    def check_result(self, exit_observable=True):
        """Finish a checking session; returns its CheckResult."""
        if not isinstance(self.tracker, CheckTracker):
            raise TraceError("check_result() needs a CheckTracker session")
        return self.finish(exit_observable=exit_observable)
