"""Trace-to-graph construction (Sections 2 and 4.2).

:class:`TraceBuilder` is the measurement core: frontends (the FlowLang VM
and the Python ``pytrace`` frontend) report execution events to it --
secret inputs, operations, branches, indexed accesses, enclosure-region
entry/exit, outputs -- and it incrementally builds the flow graph whose
maximum s-t flow bounds the information revealed.

Graph shape (one value = one split node, per Figure 1):

* A value with secrecy mask ``m`` becomes a capped node of capacity
  ``popcount(m)``; fully-public results create no node at all (the
  paper's tag 0).
* An operation adds edges from each secret operand's node to the result
  node, each with capacity equal to the operand's secret-bit count.
* Copies reuse the operand's node (no new nodes or edges, Section 2.1).
* A branch on a secret condition adds a ⌈log2(arms)⌉-bit *implicit* edge
  from the condition's node to the innermost enclosure target; an
  indexed access through a secret index contributes ``popcount(index
  mask)`` bits the same way (Section 2.2).
* The default, whole-program enclosure target is a time-ordered chain of
  output events: an implicit flow can escape through any *subsequent*
  public output, and program termination itself is the final observable
  event (which is how the unary-encoding loop of Section 3.2 measures
  n+1 bits).
* When an enclosure region exits having absorbed implicit flows, each of
  its declared output locations receives a fresh all-secret value fed by
  both its previous node and the region node.

Every edge carries an :class:`~repro.graph.flowgraph.EdgeLabel` with the
reporting code location and the current calling-context hash, enabling
the collapsing and multi-run combining of Sections 3.2 and 5.2.

:class:`CollapsingTraceBuilder` is the online-collapse variant: it
performs the Section 5.2 collapse *while tracing*, so the live graph is
coverage-sized throughout instead of runtime-sized until a post-hoc
pass.  Frontends drive both builders through the identical event API.
"""

from __future__ import annotations

from .. import obs
from ..errors import TraceError
from ..obs import resources
from ..graph.collapse import CollapseStats, OnlineCollapser
from ..graph.flowgraph import INF, EdgeLabel, FlowGraph
from ..shadow.bitmask import popcount, width_mask
from ..shadow.fast import resolve_backend
from .locations import ContextHasher, Location

_LOG2_CACHE = {1: 0, 2: 1}

_SOURCE = FlowGraph.SOURCE
_SINK = FlowGraph.SINK


def bits_for_arms(arms):
    """Bits revealed by an ``arms``-way control transfer: ⌈log2(arms)⌉."""
    bits = _LOG2_CACHE.get(arms)
    if bits is None:
        if arms < 1:
            raise ValueError("a control transfer needs at least one arm")
        bits = (arms - 1).bit_length()
        _LOG2_CACHE[arms] = bits
    return bits


class Provenance:
    """A value's graph identity: its secrecy mask and (outer) node id.

    ``node is None`` means the value is untracked (tag 0 in the paper);
    its mask is then necessarily zero.
    """

    __slots__ = ("mask", "node", "_bits")

    def __init__(self, mask, node):
        self.mask = mask
        self.node = node
        self._bits = None

    @property
    def is_public(self):
        return self.node is None

    @property
    def bits(self):
        """Secret-bit capacity of this value (cached; masks are immutable)."""
        bits = self._bits
        if bits is None:
            bits = self._bits = popcount(self.mask)
        return bits

    def __repr__(self):
        if self.node is None:
            return "Provenance(public)"
        return "Provenance(mask=%#x, node=%d)" % (self.mask, self.node)


#: The shared provenance of all untracked values.
PUBLIC = Provenance(0, None)


class RegionExit:
    """Token returned by :meth:`TraceBuilder.leave_region`.

    ``node`` is the region's collector node, or ``None`` when no implicit
    flow occurred inside the region (in which case region outputs keep
    their old provenance unchanged).
    """

    __slots__ = ("node", "location", "implicit_bits")

    def __init__(self, node, location, implicit_bits):
        self.node = node
        self.location = location
        self.implicit_bits = implicit_bits

    @property
    def had_implicit_flows(self):
        return self.node is not None


class _Region:
    __slots__ = ("node", "location", "bits")

    def __init__(self, location):
        self.node = None  # created lazily on the first implicit flow
        self.location = location
        self.bits = 0  # implicit capacity absorbed by this instance


class TraceBuilder:
    """Builds a flow graph from a stream of execution events.

    All graph mutations go through the small ``_g_*`` backend hooks so
    that :class:`CollapsingTraceBuilder` can swap the runtime-sized
    per-value graph for an incrementally collapsed one without touching
    the event semantics.

    Args:
        context_sensitive: attach the calling-context hash to edge labels
            (can be stripped later by context-insensitive collapsing).
    """

    def __init__(self, context_sensitive=True):
        self.context = ContextHasher()
        self.context_sensitive = context_sensitive
        self._regions = []
        self._finished = False
        self._output_events = 0
        self._implicit_events = 0
        self._operation_events = 0
        self._secret_input_bits = 0
        self._tainted_output_bits = 0
        #: category -> list of input-edge refs (Section 10.1); for the
        #: default builder these are edge indices into ``graph.edges``.
        self.category_edges = {}
        #: ctx -> {(kind, location) -> interned EdgeLabel}.  The table
        #: of the *current* context is kept in ``_active_labels`` (and
        #: swapped on push/pop), so the hot ``_label`` lookup hashes a
        #: 2-tuple instead of rebuilding a 3-tuple key per event.
        self._label_tables = {}
        self._active_ctx = self.context.current if context_sensitive else None
        self._active_labels = self._label_tables.setdefault(
            self._active_ctx, {})
        self._trace_published = {}  # stat key -> amount already published
        self._setup()
        self._pending = self._g_node()  # tail of the output chain

    # ------------------------------------------------------------------
    # Graph backend hooks (overridden by CollapsingTraceBuilder)

    def _setup(self):
        self.graph = FlowGraph()

    def _g_node(self):
        """Allocate a plain node."""
        return self.graph.add_node()

    def _g_value(self, capacity, label):
        """Allocate a split (inner, outer) value-node pair."""
        return self.graph.add_capped_node(capacity, label)

    def _g_edge(self, tail, head, capacity, label):
        """Add an edge; returns an opaque edge ref (here: its index)."""
        return self.graph.add_edge(tail, head, capacity, label)

    def _g_head(self, tail, capacity, label):
        """Allocate a node fed by an edge from ``tail``; returns it."""
        head = self.graph.add_node()
        self.graph.add_edge(tail, head, capacity, label)
        return head

    def _g_size(self):
        return self.graph.num_nodes, self.graph.num_edges

    def _result(self):
        """The finished trace result handed back by :meth:`finish`."""
        return self.graph

    # ------------------------------------------------------------------
    # Labels and bookkeeping

    def _label(self, location, kind):
        table = self._active_labels
        key = (kind, location)
        label = table.get(key)
        if label is None:
            label = EdgeLabel(location, self._active_ctx, kind)
            table[key] = label
        return label

    def _activate_context(self, ctx):
        self._active_ctx = ctx
        table = self._label_tables.get(ctx)
        if table is None:
            table = self._label_tables[ctx] = {}
        self._active_labels = table

    def _check_live(self):
        if self._finished:
            raise TraceError("trace already finished")

    def push_call(self, callsite_id):
        """Record entry to a callee (updates the calling-context hash)."""
        self.context.push_call(callsite_id)
        if self.context_sensitive:
            self._activate_context(self.context.current)

    def pop_call(self):
        """Record return to the caller."""
        self.context.pop_call()
        if self.context_sensitive:
            self._activate_context(self.context.current)

    # ------------------------------------------------------------------
    # Values

    def public(self):
        """Provenance for an untracked value."""
        return PUBLIC

    def secret_value(self, location, width, mask=None, category=None):
        """Introduce a secret input value of ``width`` bits.

        ``mask`` defaults to all-secret; the source feeds the new node
        with the mask's full bit count.  ``category`` optionally tags
        the input's secret class for per-category analysis (§10.1, see
        :mod:`repro.core.multisecret`).
        """
        self._check_live()
        if mask is None:
            mask = width_mask(width)
        if mask == 0:
            return PUBLIC
        bits = popcount(mask)
        self._secret_input_bits += bits
        inner, outer = self._g_value(bits, self._label(location, "value"))
        edge_ref = self._g_edge(_SOURCE, inner, bits,
                                self._label(location, "input"))
        if category is not None:
            self.category_edges.setdefault(category, []).append(edge_ref)
        return Provenance(mask, outer)

    def secret_values(self, location, width, count, mask=None,
                      category=None):
        """Introduce ``count`` identically-shaped secret inputs at once.

        Bit-identical to ``count`` calls of :meth:`secret_value` with
        the same arguments (this reference implementation *is* that
        loop); returns the list of ``count`` provenances.  The bulk
        entry point exists so fast-backend frontends can hand over whole
        buffers in one call -- :class:`CollapsingTraceBuilder` overrides
        it with an O(1)-per-batch arithmetic update.
        """
        return [self.secret_value(location, width, mask=mask,
                                  category=category)
                for _ in range(count)]

    def operation(self, location, result_mask, operands):
        """Record a basic operation producing a value with ``result_mask``.

        ``operands`` is an iterable of :class:`Provenance`.  Returns the
        result's provenance; public results (mask 0) create no node.
        """
        self._check_live()
        self._operation_events += 1
        if result_mask == 0:
            return PUBLIC
        bits = popcount(result_mask)
        inner, outer = self._g_value(bits, self._label(location, "value"))
        seen_input = False
        for op in operands:
            if op.node is not None and op.mask:
                self._g_edge(op.node, inner, popcount(op.mask),
                             self._label(location, "data"))
                seen_input = True
        if not seen_input:
            # A secret result must have a secret ancestor; frontends only
            # report non-zero result masks when some operand was secret,
            # so this indicates a transfer-function/frontend mismatch.
            raise TraceError(
                "operation at %s produced secret mask %#x from public operands"
                % (location, result_mask))
        return Provenance(result_mask, outer)

    def copy(self, provenance):
        """Copies create no nodes or edges (Section 2.1)."""
        return provenance

    def declassify(self, provenance):
        """Deliberately mark a value as public (Section 8.1's GUI carve-out)."""
        return PUBLIC

    # ------------------------------------------------------------------
    # Implicit flows and enclosure regions

    def implicit_flow(self, location, provenance, bits):
        """An implicit flow of up to ``bits`` bits from ``provenance``.

        No-op for public values or zero capacities.
        """
        self._check_live()
        if provenance.node is None or bits == 0 or provenance.mask == 0:
            return
        self._implicit_events += 1
        label = self._label(location, "implicit")
        if self._regions:
            region = self._regions[-1]
            region.bits += bits
            if region.node is None:
                region.node = self._g_head(provenance.node, bits, label)
                return
            target = region.node
        else:
            target = self._pending
        self._g_edge(provenance.node, target, bits, label)

    def branch(self, location, condition, arms=2):
        """A control-flow branch on ``condition`` with ``arms`` targets."""
        self.implicit_flow(location, condition, bits_for_arms(arms))

    def indexed(self, location, index):
        """An indirect load/store/jump through ``index``.

        Capacity is the number of secret bits in the index (Section 2.2).
        """
        self.implicit_flow(location, index, index.bits)

    def enter_region(self, location):
        """Enter an enclosure region (ENTER_ENCLOSE)."""
        self._check_live()
        self._regions.append(_Region(location))

    def leave_region(self, location):
        """Leave the innermost region; returns a :class:`RegionExit`.

        The caller is responsible for routing every *declared output* of
        the region through :meth:`region_output` with the returned token.
        """
        self._check_live()
        if not self._regions:
            raise TraceError("leave_region at %s without a matching enter"
                             % (location,))
        region = self._regions.pop()
        return RegionExit(region.node, location, region.bits)

    def region_output(self, location, region_exit, old_provenance, width):
        """Produce the post-region provenance of one declared output.

        If the region saw no implicit flow the old provenance is returned
        unchanged.  Otherwise the location's value becomes all-secret at
        ``width`` bits, fed by the region node (capacity ``width``) and
        by its previous node (its previous capacity).
        """
        self._check_live()
        if region_exit.node is None:
            return old_provenance
        mask = width_mask(width)
        inner, outer = self._g_value(width, self._label(location, "value"))
        self._g_edge(region_exit.node, inner, width,
                     self._label(location, "region"))
        if old_provenance.node is not None and old_provenance.mask:
            self._g_edge(old_provenance.node, inner,
                         popcount(old_provenance.mask),
                         self._label(location, "data"))
        return Provenance(mask, outer)

    def region_outputs(self, location, region_exit, old_provenances, width):
        """Produce the post-region provenances of many declared outputs.

        Bit-identical to one :meth:`region_output` call per element of
        the sequence ``old_provenances``, in order, all at ``location``
        and ``width`` (this reference implementation *is* that loop);
        returns the list of new provenances.  The bulk entry point
        exists so frontends can hand over whole buffers in one call --
        :class:`CollapsingTraceBuilder` overrides it with an update
        that costs O(distinct provenances) instead of O(elements).
        """
        return [self.region_output(location, region_exit, old, width)
                for old in old_provenances]

    @property
    def region_depth(self):
        """Number of currently active enclosure regions."""
        return len(self._regions)

    # ------------------------------------------------------------------
    # Outputs and termination

    def output(self, location, provenances):
        """A public output event carrying the given values.

        Creates the next link of the output chain; earlier implicit flows
        (attached to the previous pending node) can escape through it.
        """
        self._check_live()
        self._output_events += 1
        chain_label = self._label(location, "chain")
        event = self._g_head(self._pending, INF, chain_label)
        for prov in provenances:
            if prov.node is not None and prov.mask:
                bits = popcount(prov.mask)
                self._tainted_output_bits += bits
                self._g_edge(prov.node, event, bits,
                             self._label(location, "io"))
        self._g_edge(event, _SINK, INF, self._label(location, "output"))
        self._pending = self._g_head(self._pending, INF, chain_label)

    def finish(self, exit_observable=True):
        """End the trace; returns the completed :class:`FlowGraph`.

        With ``exit_observable`` (the default), program termination is a
        final output event, so implicit flows after the last explicit
        output still escape -- the choice that makes a loop printing n
        items reveal n+1 bits under a per-iteration cut (Section 3.2).
        """
        self._check_live()
        if self._regions:
            raise TraceError("trace finished with %d open enclosure regions"
                             % len(self._regions))
        if exit_observable:
            self._g_edge(self._pending, _SINK, INF,
                         self._label(Location("<program>", "exit"),
                                     "output"))
        self._finished = True
        metrics = obs.get_metrics()
        if metrics.enabled:
            self.publish_trace_counters(metrics)
        return self._result()

    # ------------------------------------------------------------------
    # Statistics

    #: stat keys published as catalogued ``trace.*`` counters at finish().
    _TRACE_COUNTERS = (
        ("operations", "trace.operations"),
        ("implicit_flows", "trace.implicit_flows"),
        ("outputs", "trace.outputs"),
        ("secret_input_bits", "trace.secret_input_bits"),
        ("tainted_output_bits", "trace.tainted_output_bits"),
    )

    def publish_trace_counters(self, metrics):
        """Publish the event counters as ``trace.*`` metric deltas.

        Only the growth since the previous publish is added, so the call
        is idempotent for a quiescent builder: downstream code can take
        any number of report snapshots of one builder without
        double-counting (the republish-per-measurement wart documented
        in earlier versions of ``docs/observability.md``).
        """
        stats = self.stats
        ledger = self._trace_published
        for stat_key, metric_name in self._TRACE_COUNTERS:
            amount = stats.get(stat_key, 0) - ledger.get(stat_key, 0)
            if amount:
                metrics.incr(metric_name, amount)
                ledger[stat_key] = stats[stat_key]

    @property
    def stats(self):
        """Event counts: dict with operations/implicit/outputs/input bits."""
        nodes, edges = self._g_size()
        return {
            "operations": self._operation_events,
            "implicit_flows": self._implicit_events,
            "outputs": self._output_events,
            "secret_input_bits": self._secret_input_bits,
            "tainted_output_bits": self._tainted_output_bits,
            "graph_nodes": nodes,
            "graph_edges": edges,
        }


def _repeat_adds(cap, adds, n):
    """A bucket's capacity after ``n`` events that each add ``adds``.

    The per-step rule is :meth:`_OnlineEdge.add_capacity`'s: ``INF if
    cap >= INF or bits >= INF else cap + bits``, the ``adds`` of each
    event in order.  While the total stays below INF that is a plain
    sum.  Otherwise whole events are added in bulk while they keep the
    capacity below INF and the rest is replayed step by step, so an
    overshoot past INF snaps to INF on the next add, as the tracker
    does (``graph.collapse._add_repeated`` freezes at the overshoot).
    """
    step = sum(adds)
    total = cap + n * step
    if total < INF:
        return total
    if cap < INF:
        whole = min(n, (INF - 1 - cap) // step)
        cap += whole * step
        n -= whole
    for _ in range(n):
        for bits in adds:
            cap = INF if cap >= INF or bits >= INF else cap + bits
        if cap == INF:
            break
    return cap


class _OpSite:
    """The fast backend's record of one operation site.

    Holds the site's value and data buckets, the operand ids folded
    into the data bucket's tail class, the site's interned result
    provenances, and the one binding of it that has unsettled counts.
    """

    __slots__ = ("pair_edge", "data_edge", "merged", "provs", "pending")

    def __init__(self, pair_edge, data_edge):
        self.pair_edge = pair_edge
        self.data_edge = data_edge
        #: operand node ids already folded into the data bucket's tail
        #: class (classes never split, so membership is permanent)
        self.merged = set()
        #: result mask -> the shared ``Provenance(mask, outer)``
        self.provs = {}
        self.pending = None


class _OpBinding:
    """A bound operation site: the result mask and the operands it was
    bound for, the result's interned provenance, the bits each repeat
    adds to the data bucket, and ``n``, the repeats not yet settled."""

    __slots__ = ("site", "merged", "mask", "a", "b", "prov", "adds", "n")

    def __init__(self, site, mask, a, b, adds):
        self.site = site
        self.merged = site.merged
        self.mask = mask
        self.a = a
        self.b = b
        self.prov = site.provs[mask]
        self.adds = adds
        self.n = 0

    def settle(self, tracker, n):
        """Apply ``n`` repeats: exactly what ``n`` ``operation`` calls
        with the bound mask and operands would have done."""
        site = self.site
        site.pending = None
        adds = self.adds
        edges = n * (1 + len(adds))
        tracker._operation_events += n
        tracker._virtual_nodes += 2 * n
        tracker._virtual_edges += edges
        tracker._collapser.merge_hits += edges
        edge = site.pair_edge
        edge.capacity = _repeat_adds(edge.capacity,
                                     (self.mask.bit_count(),), n)
        edge = site.data_edge
        edge.capacity = _repeat_adds(edge.capacity, adds, n)


class _FlowSite:
    """A bound implicit-flow site: its bucket, the region that was
    current when it was bound, its bits per event and its count."""

    __slots__ = ("edge", "region", "bits", "n")

    def __init__(self, edge, region, bits):
        self.edge = edge
        self.region = region
        self.bits = bits
        self.n = 0

    def settle(self, tracker, n):
        """Apply ``n`` repeats of the bound implicit flow."""
        tracker._implicit_events += n
        tracker._virtual_edges += n
        tracker._collapser.merge_hits += n
        if self.region is not None:
            self.region.bits += n * self.bits
        edge = self.edge
        edge.capacity = _repeat_adds(edge.capacity, (self.bits,), n)


class CollapsingTraceBuilder(TraceBuilder):
    """A trace builder that collapses by code location *while tracing*.

    Section 5.2's post-hoc collapse shrinks the graph from runtime-sized
    to coverage-sized only after the whole per-value graph has been
    materialized, so peak memory and a large share of wall time still
    scale with trace length.  This builder never materializes that
    intermediate graph: nodes and edges are merged by
    :class:`~repro.graph.flowgraph.EdgeLabel` key as events arrive (an
    already-seen label adds its capacity to the existing collapsed edge,
    saturating at INF), through an incremental union-find that keeps
    :attr:`Provenance.node` ids stable for live values.

    :meth:`finish` returns the collapsed :class:`FlowGraph`, annotated
    with ``precollapsed`` (the equivalent collapse mode, ``"context"``
    or ``"location"``) and ``collapse_stats`` (a
    :class:`~repro.graph.collapse.CollapseStats` whose *before* numbers
    are the sizes a plain :class:`TraceBuilder` would have built, from
    counters kept during tracing), so
    :func:`~repro.core.measure.measure_graph` skips the post-hoc
    collapse.  The resulting graph is equivalent to post-hoc collapsing
    the plain builder's graph: same partition, same collapsed edge
    capacities, same max-flow bound.

    Not for multi-run combination: Section 3.2 combines finished run
    graphs (:func:`~repro.core.measure.measure_runs`), and the post-hoc
    :func:`~repro.graph.collapse.collapse_graphs` stays the reference
    implementation for this builder's equivalence suite.

    Args:
        context_sensitive: merge edges by (kind, location, context hash)
            when true, by (kind, location) when false — the latter is
            the smaller, coverage-sized graph.
        backend: ``"reference"`` runs the generic event methods alone;
            ``"fast"`` adds a table of bound sites whose exact repeats
            (the common case in loops) a frontend only counts, and
            interns each operation site's results so that a frontend
            can recognise those repeats.  ``None``/``"auto"`` consult
            ``REPRO_BACKEND``, then ``"fast"``.
            Both backends are bit-identical (see ``docs/backends.md``
            and the equivalence suite).
    """

    def __init__(self, context_sensitive=True, backend=None):
        self._fast = resolve_backend(backend) == "fast"
        #: (location, ctx) -> _OpSite
        self._op_sites = {}
        #: The bound-site table: a frontend's site key -> the
        #: _OpBinding or _FlowSite whose repeats only count (see "bound
        #: sites" below).
        self._bound = {}
        #: bound sites whose count is not yet settled
        self._dirty = []
        #: keys of the bound _FlowSites, dropped when the target changes
        self._flow_keys = []
        #: implicit bucket -> the bits per event of its bound _FlowSites
        self._flow_bits = {}
        super().__init__(context_sensitive=context_sensitive)
        if self._fast:
            # Bound as an instance attribute; the reference backend
            # keeps the unmodified TraceBuilder method.
            self.operation = self._operation_fast

    def _setup(self):
        self._collapser = OnlineCollapser(
            context_sensitive=self.context_sensitive)
        # Sizes a plain TraceBuilder would have reached (source + sink
        # pre-allocated), kept for CollapseStats' "before" numbers.
        self._virtual_nodes = 2
        self._virtual_edges = 0
        # Weakly registered so the telemetry resource sampler can read
        # live graph sizes mid-trace (resource.graph_*_live gauges).
        resources.track_builder(self)

    @property
    def collapse_mode(self):
        """The post-hoc collapse mode this builder is equivalent to."""
        return "context" if self.context_sensitive else "location"

    # -- backend hooks ------------------------------------------------

    def _g_node(self):
        self._virtual_nodes += 1
        return self._collapser.new_node()

    def _g_value(self, capacity, label):
        self._virtual_nodes += 2
        self._virtual_edges += 1
        return self._collapser.capped_pair(capacity, label)

    def _g_edge(self, tail, head, capacity, label):
        self._virtual_edges += 1
        return self._collapser.add_edge(tail, head, capacity, label)

    def _g_head(self, tail, capacity, label):
        self._virtual_nodes += 1
        self._virtual_edges += 1
        return self._collapser.head_for(tail, capacity, label)

    def _g_size(self):
        # Trace-equivalent sizes, so ``stats`` agrees with what a plain
        # TraceBuilder reports for the same events; the collapsed sizes
        # live in ``live_nodes``/``live_edges`` and CollapseStats.
        return self._virtual_nodes, self._virtual_edges

    # -- interned operation results ------------------------------------

    def _operation_fast(self, location, result_mask, operands):
        """:meth:`TraceBuilder.operation`, then the site's record: the
        buckets and operand classes binding needs, and the result
        interned per mask.  The site's outer node is fixed and no code
        mutates a Provenance, so its results can share one; blocks,
        which match operands by identity, then see repeats as such."""
        operands = tuple(operands)
        prov = TraceBuilder.operation(self, location, result_mask, operands)
        if prov is PUBLIC:
            return prov
        site_key = (location, self._active_ctx)
        site = self._op_sites.get(site_key)
        if site is None:
            bucket_for = self._collapser.bucket_for
            site = self._op_sites[site_key] = _OpSite(
                bucket_for(self._label(location, "value")),
                bucket_for(self._label(location, "data")))
        for op in operands:
            if op.node is not None and op.mask:
                site.merged.add(op.node)
        return site.provs.setdefault(result_mask, prov)

    # -- bound sites ----------------------------------------------------
    #
    # A frontend reports a site's event, binds a key of its own to it
    # (bind_operation / bind_flow), and from then on a probe of
    # ``_bound`` that matches is a hit, which only counts:
    # ``if not record.n:`` register it (``_pend`` for an _OpBinding,
    # ``_dirty.append`` for a _FlowSite), then ``record.n += 1``.
    # ``_settle`` folds the counts in before any other method reads or
    # writes the state.  Flow keys leave the target out, so flow records
    # are dropped whenever it changes (an output, a region entry or
    # exit); every record is dropped at finish.  Past INF the order of
    # a bucket's adds matters, so no bucket holds counts of two add
    # patterns: ``_pend`` settles before a second binding of an op site
    # counts, and flow records sharing a bucket add the same bits.  The
    # contract is in docs/backends.md ("Bound sites").

    def _check_live(self):
        if self._dirty:
            self._settle()
        if self._finished:
            raise TraceError("trace already finished")

    def _settle(self):
        dirty = self._dirty
        for record in dirty:
            n = record.n
            record.n = 0
            record.settle(self, n)
        dirty.clear()

    def _drop_flows(self):
        if self._flow_keys:
            bound = self._bound
            for key in self._flow_keys:
                bound.pop(key, None)
            self._flow_keys.clear()
            self._flow_bits.clear()

    def _pend(self, binding):
        """An op binding's first repeat since the last settle.

        At most one binding of a site has counts, so that the order of
        the repeats each of the site's buckets receives is known.
        """
        if binding.site.pending is not None:
            self._settle()
        binding.site.pending = binding
        self._dirty.append(binding)

    def bind_operation(self, key, location, mask, a, b):
        """Bind ``key`` to the operation just reported at ``location``.

        ``a`` and ``b`` are its operand provenances (``PUBLIC`` for a
        public one).  A later probe that finds the binding and the same
        operands -- the same objects, or each secret one with the same
        mask and its class folded into ``binding.merged`` -- is a hit:
        the operation's repeat, whose result is ``binding.prov``.  The
        key or the probe must fix ``mask`` too.
        """
        if self._dirty:
            self._settle()
        site = self._op_sites.get((location, self._active_ctx))
        if (site is None or site.data_edge is None or self._finished
                or mask not in site.provs):
            return
        adds = []
        for op in (a, b):
            if op.node is not None and op.mask:
                if op.node not in site.merged:
                    return
                adds.append(op.mask.bit_count())
        if adds:
            self._bound[key] = _OpBinding(site, mask, a, b, tuple(adds))

    def bind_flow(self, key, location, provenance, bits):
        """Bind ``key`` to the implicit flow just reported at ``location``.

        A later probe that finds the key is a hit: a repeat of the flow
        of ``bits`` bits from ``provenance``'s node into the current
        target, so the key must fix the node and the bits.
        """
        if self._dirty:
            self._settle()
        node = provenance.node
        if node is None or not bits or not provenance.mask or self._finished:
            return
        regions = self._regions
        region = regions[-1] if regions else None
        target = self._pending if region is None else region.node
        collapser = self._collapser
        edge = collapser.bucket_for(self._label(location, "implicit"))
        find = collapser._uf.find
        # A repeat is exact once both endpoints are in the bucket's
        # classes: its merges are no-ops.
        if (edge is None or target is None
                or find(edge.tail) != find(node)
                or find(edge.head) != find(target)
                or self._flow_bits.setdefault(edge, bits) != bits):
            return
        self._bound[key] = _FlowSite(edge, region, bits)
        self._flow_keys.append(key)

    def enter_region(self, location):
        super().enter_region(location)
        self._drop_flows()

    def leave_region(self, location):
        exit_token = super().leave_region(location)
        self._drop_flows()
        return exit_token

    def push_call(self, callsite_id):
        if self._dirty:
            self._settle()
        super().push_call(callsite_id)

    def pop_call(self):
        if self._dirty:
            self._settle()
        super().pop_call()

    @property
    def stats(self):
        if self._dirty:
            self._settle()
        return TraceBuilder.stats.fget(self)

    # -- bulk events ---------------------------------------------------

    def secret_values(self, location, width, count, mask=None,
                      category=None):
        """Bulk :meth:`~TraceBuilder.secret_value`, O(1) per batch.

        The first value goes through the normal path (creating or
        reusing the location's value and input buckets); each of the
        remaining ``count - 1`` events is an exact repeat -- same label
        keys, same endpoints, same capacity -- so the whole tail reduces
        to arithmetic on the two buckets, the virtual-size counters, and
        the category refs.  The equivalence suite asserts the result
        matches the reference loop bucket-for-bucket.
        """
        self._check_live()
        if count <= 0:
            return []
        if mask is None:
            mask = width_mask(width)
        if mask == 0:
            return [PUBLIC] * count
        first = self.secret_value(location, width, mask=mask,
                                  category=category)
        extra = count - 1
        if extra:
            bits = first.bits
            self._collapser.repeat_edge(
                self._label(location, "value"), bits, extra)
            self._collapser.repeat_edge(
                self._label(location, "input"), bits, extra)
            self._secret_input_bits += extra * bits
            self._virtual_nodes += 2 * extra
            self._virtual_edges += 2 * extra
            if category is not None:
                refs = self.category_edges[category]
                refs.extend(refs[-1:] * extra)
        return [first] * count

    def region_outputs(self, location, region_exit, old_provenances, width):
        """Bulk :meth:`~TraceBuilder.region_output`, O(secret elements).

        The first element whose old provenance carries no secret bits
        goes through the normal path (creating or reusing the
        location's value and region buckets, and folding the region
        node into the region bucket's tail).  Every later such element
        is an exact repeat -- same label keys, same endpoints, capacity
        ``width`` -- so it reduces to arithmetic on those two buckets
        and the counters, and shares the first one's provenance.
        Elements with a secret old provenance still take the normal
        path, in order, because their data edge folds a new tail class.
        Every addition to the value and region buckets is ``width``,
        so folding the repeats after the loop leaves each bucket with
        the loop's capacity, INF saturation included.  The equivalence
        suite asserts the result matches the reference loop.
        """
        if region_exit.node is None:
            if old_provenances:
                self._check_live()
            return list(old_provenances)
        region_output = self.region_output
        out = []
        shared = None
        repeats = 0
        for old in old_provenances:
            if old.node is not None and old.mask:
                out.append(region_output(location, region_exit, old, width))
            elif shared is None:
                shared = region_output(location, region_exit, old, width)
                out.append(shared)
            else:
                repeats += 1
                out.append(shared)
        if repeats:
            collapser = self._collapser
            collapser.repeat_edge(
                self._label(location, "value"), width, repeats)
            collapser.repeat_edge(
                self._label(location, "region"), width, repeats)
            self._virtual_nodes += 2 * repeats
            self._virtual_edges += 2 * repeats
        return out

    def output(self, location, provenances):
        """:meth:`TraceBuilder.output` with repeated provenances folded.

        All of one event's ``io`` edges share a bucket; once a node has
        fed it, a later value with the same node is an exact repeat
        whose merges are no-ops, so it only adds its bits to the bucket
        (saturating at INF exactly as ``add_capacity`` does) and bumps
        the counters.  Capacities are added in element order.
        """
        self._check_live()
        self._drop_flows()
        self._output_events += 1
        chain_label = self._label(location, "chain")
        event = self._g_head(self._pending, INF, chain_label)
        collapser = self._collapser
        io_edge = None
        fed = set()
        for prov in provenances:
            node = prov.node
            if node is None or not prov.mask:
                continue
            bits = prov.bits
            self._tainted_output_bits += bits
            if node in fed:
                self._virtual_edges += 1
                collapser.merge_hits += 1
                cap = io_edge.capacity
                io_edge.capacity = (INF if cap >= INF or bits >= INF
                                    else cap + bits)
                continue
            fed.add(node)
            io_edge = self._g_edge(node, event, bits,
                                   self._label(location, "io"))
        self._g_edge(event, _SINK, INF, self._label(location, "output"))
        self._pending = self._g_head(self._pending, INF, chain_label)

    # -- results ------------------------------------------------------

    @property
    def graph(self):
        """The current collapsed graph, materialized on demand.

        Rebuilding is O(collapsed size), so mid-trace snapshots (the
        §8.1 real-time mode) stay cheap even on long traces.
        """
        return self._materialize()

    @property
    def live_nodes(self):
        """Current live collapsed node count (the O(coverage) gauge)."""
        return self._collapser.live_nodes

    @property
    def live_edges(self):
        """Current live collapsed edge-bucket count."""
        return self._collapser.live_edges

    @property
    def peak_live_nodes(self):
        """High-water mark of the live collapsed node count."""
        return self._collapser.peak_live_nodes

    def _materialize(self):
        if self._dirty:
            self._settle()
        span = obs.get_tracer().span("collapse.online.materialize",
                                     nodes_live=self._collapser.live_nodes,
                                     edges_live=self._collapser.live_edges)
        with span:
            graph = self._collapser.materialize()
            span.set(nodes=graph.num_nodes, edges=graph.num_edges)
        graph.precollapsed = self.collapse_mode
        graph.collapse_stats = CollapseStats(
            self._virtual_nodes, self._virtual_edges,
            graph.num_nodes, graph.num_edges)
        return graph

    def _result(self):
        # Finished: every later event takes the generic path and raises.
        self._drop_flows()
        self._bound.clear()
        graph = self._materialize()
        # Collapsed-edge refs -> final edge indices (self-loops dropped).
        self.category_edges = {
            category: [ref.index for ref in refs if ref.index is not None]
            for category, refs in self.category_edges.items()}
        metrics = obs.get_metrics()
        if metrics.enabled:
            collapser = self._collapser
            metrics.incr("collapse.online.builds")
            metrics.incr("collapse.online.merge_hits", collapser.merge_hits)
            metrics.gauge("collapse.online.nodes_live", collapser.live_nodes)
            metrics.gauge("collapse.online.edges_live", collapser.live_edges)
            metrics.gauge_max("collapse.online.nodes_peak",
                              collapser.peak_live_nodes)
        return graph
