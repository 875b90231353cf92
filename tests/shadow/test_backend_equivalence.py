"""Randomized reference ≡ fast backend equivalence.

The backend contract (``docs/backends.md``): ``backend="fast"``
changes only how events are computed, never what they are.  Bounds,
cuts, combined graphs, outputs, and tracker statistics must be
bit-identical to ``backend="reference"``.  These suites drive
randomized workloads (seeded, so failures reproduce) through both
backends on both frontends and compare everything observable.
"""

import io
import os
import random

import pytest

from repro.apps.bzip2 import measure_compression_flow
from repro.apps.pi import workload_of_size
from repro.cli import main as cli_main
from repro.core.checking import CheckTracker
from repro.core.lockstep import RecordingInterceptor, ReplayInterceptor
from repro.core.locations import Location
from repro.core.measure import measure_graph
from repro.core.policy import CutPolicy
from repro.core.tracker import PUBLIC, CollapsingTraceBuilder, TraceBuilder
from repro.graph.flowgraph import INF
from repro.graph.serialize import dump_graph
from repro.lang import measure as lang_measure
from repro.lang import measure_many
from repro.lang.runner import compile_source, execute
from repro.lang.vm import NullTracker
from repro.errors import TraceError
from repro.pytrace import SecretInt, Session
from repro.shadow import BACKENDS, resolve_backend
from repro.shadow.fast import ENV_VAR

MIXED_OPS = """
fn main() {
    var buf: u8[48];
    var n: u32 = read_secret(buf, 48);
    var acc: u32 = 0;
    var prod: u32 = 1;
    var i: u32 = 0;
    while (i < n) {
        var x: u8 = buf[i];
        var wide: u32 = u32(x);
        acc = acc + wide;
        acc = acc ^ (wide << 2);
        prod = (prod * (wide | 1)) & 65535;
        if (x > 127) {
            acc = acc - (wide >> 1);
        }
        if (wide % 7 == 0) {
            output(acc);
        }
        i = i + 1;
    }
    var s: i8 = i8(buf[0]);
    output(u32(s / 3));
    output(u32(s % 3));
    output(acc);
    output(prod);
    output_bytes(buf, 16);
}
"""


def graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def cut_fingerprint(cut):
    entries = []
    for ce in cut.edges:
        if ce.label is None:
            entries.append((None, None, ce.capacity))
        else:
            entries.append((ce.label.kind, str(ce.label.location),
                            ce.capacity))
    return sorted(entries, key=repr)


def random_secret(seed, length=48):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))


class TestRegistry:
    def test_backends_tuple(self):
        assert BACKENDS == ("reference", "fast")

    def test_detect_is_valid(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend("auto") in BACKENDS

    def test_auto_resolves_to_fast(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend("auto") == "fast"

    def test_explicit_names_pass_through(self):
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("fast") == "fast"

    def test_explicit_native_unavailable_raises(self, monkeypatch):
        # There is no compiled backend: "native" is an unknown name,
        # rejected with the same error as any other, which names both
        # real backends.  It is not an alias of "fast".
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("native")
        message = str(excinfo.value)
        assert "'native'" in message
        assert "reference/fast" in message
        assert resolve_backend("auto") == "fast"
        assert resolve_backend(None) == "fast"

    def test_env_native_unavailable_raises(self, monkeypatch):
        # REPRO_BACKEND=native is as explicit as backend="native".
        monkeypatch.setenv(ENV_VAR, "native")
        with pytest.raises(ValueError) as excinfo:
            resolve_backend(None)
        assert "reference/fast" in str(excinfo.value)

    def test_cli_rejects_native(self, tmp_path, capsys):
        program = tmp_path / "p.fl"
        program.write_text("fn main() { output(secret_u8() & 1); }\n")
        with pytest.raises(SystemExit) as exit_:
            cli_main(["measure", str(program), "--secret-hex", "ff",
                      "--backend", "native"])
        assert exit_.value.code == 2
        assert "invalid choice: 'native'" in capsys.readouterr().err

    def test_none_and_auto_detect(self):
        old = os.environ.pop(ENV_VAR, None)
        try:
            assert resolve_backend(None) == "fast"
            assert resolve_backend("auto") == "fast"
        finally:
            if old is not None:
                os.environ[ENV_VAR] = old

    def test_environment_override(self):
        old = os.environ.get(ENV_VAR)
        try:
            os.environ[ENV_VAR] = "reference"
            assert resolve_backend(None) == "reference"
            assert resolve_backend("auto") == "reference"
            # Explicit arguments beat the environment.
            assert resolve_backend("fast") == "fast"
        finally:
            if old is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = old

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("simd")


class TestVMEquivalence:
    @pytest.mark.parametrize("seed,online", [
        (101, False), (102, True), (103, False), (104, True),
    ])
    def test_single_run_bit_identical(self, seed, online):
        secret = random_secret(seed)
        results = {}
        for backend in BACKENDS:
            run = lang_measure(MIXED_OPS, secret_input=secret,
                               backend=backend, online=online)
            results[backend] = (
                run.bits,
                run.outputs,
                bytes(run.output_bytes),
                graph_text(run.report.graph),
                cut_fingerprint(run.report.mincut),
                run.report.secret_input_bits,
                run.report.tainted_output_bits,
            )
        for backend, observed in results.items():
            assert observed == results["reference"], backend

    def test_multi_run_bit_identical(self):
        secrets = [random_secret(seed, length=24) for seed in (7, 8, 9)]
        results = {}
        for backend in BACKENDS:
            combined, per_run = measure_many(MIXED_OPS, secrets,
                                             backend=backend)
            results[backend] = (
                combined.bits,
                graph_text(combined.graph),
                cut_fingerprint(combined.mincut),
                [r.bits for r in per_run],
                [r.outputs for r in per_run],
            )
        for backend, observed in results.items():
            assert observed == results["reference"], backend


def drive_session(backend, seed, tracker_mode):
    """A randomized pytrace workload touching every fast-path branch."""
    rng = random.Random(seed)
    secret = bytes(rng.randrange(256) for _ in range(24))
    if tracker_mode == "plain":
        session = Session(backend=backend)
    else:
        session = Session(backend=backend, online_collapse=tracker_mode)
    data = session.secret_bytes(secret, name="key")
    acc = session.widen(0, 32)
    for x in data:
        choice = rng.randrange(6)
        if choice == 0:
            acc = acc + x
        elif choice == 1:
            acc = acc ^ (x * 3)
        elif choice == 2:
            acc = acc + (x % 13)
        elif choice == 3:
            if x > 127:          # secret branch
                acc = acc + 1
        elif choice == 4:
            _ = x == 65          # secret comparison, discarded
        else:
            acc = acc + (x >> 2)
        _ = 5 + 9                # public arithmetic stays public
    session.output(acc)
    report = session.measure()
    return (report.bits, graph_text(report.graph),
            cut_fingerprint(report.mincut), session.outputs,
            dict(session.tracker.stats))


def drive_compressor(backend, size, tracker_mode):
    """The Figure 3 compressor on ``size`` bytes, collapsed online."""
    result = measure_compression_flow(workload_of_size(size), online=True,
                                      backend=backend)
    return (result.flow_bits, graph_text(result.report.graph),
            cut_fingerprint(result.report.mincut))


class TestSessionEquivalence:
    @pytest.mark.parametrize("seed,tracker_mode", [
        (201, "plain"), (202, "plain"),
        (203, "context"), (204, "context"),
        (205, "location"),
        # The largest Figure 3 input: a real program's operation mix.
        (4096, "compressor"),
    ])
    def test_session_bit_identical(self, seed, tracker_mode):
        drive = drive_compressor if tracker_mode == "compressor" \
            else drive_session
        reference = drive("reference", seed, tracker_mode)
        for backend in BACKENDS:
            if backend == "reference":
                continue
            assert drive(backend, seed, tracker_mode) == reference, backend

    def test_session_records_backend(self):
        assert Session(backend="fast").backend == "fast"
        assert Session(backend="reference").backend == "reference"


class TestBulkSecretValues:
    """``secret_values`` must equal ``count`` × ``secret_value``."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_plain_builder_identical(self, count):
        from repro.core.locations import Location
        loc = Location("unit", 3, "secret")

        bulk = TraceBuilder()
        bulk_provs = bulk.secret_values(loc, 8, count)
        loop = TraceBuilder()
        loop_provs = [loop.secret_value(loc, 8) for _ in range(count)]

        assert [p.mask for p in bulk_provs] == [p.mask for p in loop_provs]
        assert graph_text(bulk.finish()) == graph_text(loop.finish())
        assert bulk.stats == loop.stats

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 100])
    def test_collapsing_builder_identical(self, count):
        from repro.core.locations import Location
        loc = Location("unit", 3, "secret")

        bulk = CollapsingTraceBuilder()
        bulk.secret_values(loc, 8, count, category="alice")
        loop = CollapsingTraceBuilder()
        for _ in range(count):
            loop.secret_value(loc, 8, category="alice")

        assert len(bulk.category_edges.get("alice", [])) == \
            len(loop.category_edges.get("alice", []))
        assert bulk.stats == loop.stats
        assert graph_text(bulk.finish()) == graph_text(loop.finish())

    def test_zero_mask_is_public(self):
        from repro.core.locations import Location
        from repro.core.tracker import PUBLIC
        loc = Location("unit", 3, "secret")
        builder = CollapsingTraceBuilder()
        assert builder.secret_values(loc, 8, 4, mask=0) == [PUBLIC] * 4


# ----------------------------------------------------------------------
# Bulk region outputs and output repeats: the per-element loop is the
# oracle on every tracker.

OUT_LOC = Location("unit", 9, "out")
OUTPUT_LOC = Location("unit", 10, "output")

#: tracker kind -> factory; the check trackers run without and with a
#: cut at the region output.
TRACKERS = {
    "plain": TraceBuilder,
    "collapsing-reference":
        lambda: CollapsingTraceBuilder(backend="reference"),
    "collapsing-fast": lambda: CollapsingTraceBuilder(backend="fast"),
    "collapsing-location":
        lambda: CollapsingTraceBuilder(context_sensitive=False,
                                       backend="fast"),
    "check": lambda: CheckTracker(CutPolicy(64, {})),
    "check-cut":
        lambda: CheckTracker(CutPolicy(64, {("value", str(OUT_LOC)): 8})),
    "null": NullTracker,
}

#: Old-provenance patterns: ``p`` public, a digit one of three secrets.
PATTERNS = {
    "public": "pppppppp",
    "secret": "01200112",
    "mixed": "0pp1p00p2pp1",
    "secret-first": "1ppp0pp",
}


def observe_tracker(tracker, olds, news):
    """Everything a bulk event may not change, for one tracker."""
    seen = {"masks": [p.mask for p in news],
            "same": [new is old for new, old in zip(news, olds)]}
    if isinstance(tracker, NullTracker):
        return seen
    tracker.output(OUTPUT_LOC, news)
    result = tracker.finish()
    seen["stats"] = tracker.stats
    if isinstance(tracker, CheckTracker):
        seen["check"] = (result.revealed_bits, result.sanctioned_bits,
                         [repr(flow) for flow in result.unexpected])
    else:
        # The text renders every capacity >= INF alike; the exact
        # saturated values are compared too.
        seen["graph"] = graph_text(result)
        seen["capacities"] = [edge.capacity for edge in result.edges]
    if isinstance(tracker, CollapsingTraceBuilder):
        seen["merge_hits"] = tracker._collapser.merge_hits
    return seen


def drive_region_outputs(kind, pattern, bulk, implicit=True, width=8,
                         near_inf=None):
    """One region over a pattern of old provenances, through the bulk
    event or the per-element loop; ``near_inf`` first seeds every
    bucket the event touches and sets it ``near_inf`` below INF."""
    tracker = TRACKERS[kind]()
    secrets = [tracker.secret_value(Location("unit", 1, "secret"), 8)
               for _ in range(3)]
    tracker.enter_region(Location("unit", 2, "region"))
    if implicit:
        tracker.branch(Location("unit", 3, "branch"), secrets[0])
    exit_token = tracker.leave_region(Location("unit", 4, "region"))
    if near_inf is not None:
        tracker.region_output(OUT_LOC, exit_token, secrets[2], width)
        for kind_name in ("value", "region", "data"):
            bucket = tracker._collapser.bucket_for(
                tracker._label(OUT_LOC, kind_name))
            bucket.capacity = INF - near_inf
    olds = [PUBLIC if c == "p" else secrets[int(c)] for c in pattern]
    if bulk:
        news = tracker.region_outputs(OUT_LOC, exit_token, olds, width)
    else:
        news = [tracker.region_output(OUT_LOC, exit_token, old, width)
                for old in olds]
    return observe_tracker(tracker, olds, news)


class TestBulkRegionOutputs:
    """``region_outputs`` must equal the ``region_output`` loop."""

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("kind", sorted(TRACKERS))
    def test_bulk_equals_loop(self, kind, pattern):
        bulk = drive_region_outputs(kind, PATTERNS[pattern], bulk=True)
        loop = drive_region_outputs(kind, PATTERNS[pattern], bulk=False)
        assert bulk == loop

    @pytest.mark.parametrize("kind", sorted(TRACKERS))
    def test_no_implicit_flow_returns_the_same_objects(self, kind):
        bulk = drive_region_outputs(kind, PATTERNS["mixed"], bulk=True,
                                    implicit=False)
        loop = drive_region_outputs(kind, PATTERNS["mixed"], bulk=False,
                                    implicit=False)
        assert bulk == loop
        if kind != "check-cut":  # a cut declassifies at the output
            assert all(bulk["same"])

    @pytest.mark.parametrize("kind", sorted(TRACKERS))
    def test_empty(self, kind):
        assert drive_region_outputs(kind, "", bulk=True) == \
            drive_region_outputs(kind, "", bulk=False)

    @pytest.mark.parametrize("near_inf", [1, 8, 20, 24, 25, 1000])
    @pytest.mark.parametrize("pattern", ["public", "mixed"])
    @pytest.mark.parametrize("kind", ["collapsing-reference",
                                      "collapsing-fast"])
    def test_inf_boundary(self, kind, pattern, near_inf):
        # The repeats are folded after the loop; every value/region
        # addend is ``width``, so saturation lands on the same value.
        bulk = drive_region_outputs(kind, PATTERNS[pattern], bulk=True,
                                    near_inf=near_inf)
        loop = drive_region_outputs(kind, PATTERNS[pattern], bulk=False,
                                    near_inf=near_inf)
        assert bulk == loop

    def test_repeats_share_one_provenance(self):
        tracker = CollapsingTraceBuilder(backend="fast")
        secret = tracker.secret_value(Location("unit", 1, "secret"), 8)
        tracker.enter_region(Location("unit", 2, "region"))
        tracker.branch(Location("unit", 3, "branch"), secret)
        exit_token = tracker.leave_region(Location("unit", 4, "region"))
        news = tracker.region_outputs(OUT_LOC, exit_token,
                                      [PUBLIC] * 5, 8)
        assert len({id(p) for p in news}) == 1


def drive_outputs(provs_of, tracker, near_inf=None, generic=False):
    """Secrets, an operation, then one output event carrying the
    provenances ``provs_of(secrets, derived)`` picks."""
    loc = Location("unit", 1, "secret")
    secrets = [tracker.secret_value(loc, 8) for _ in range(3)]
    derived = tracker.operation(Location("unit", 2, "xor"), 0x0F,
                                secrets[:2])
    if near_inf is not None:
        tracker.output(OUTPUT_LOC, [secrets[0]])
        tracker._collapser.bucket_for(
            tracker._label(OUTPUT_LOC, "io")).capacity = INF - near_inf
    provs = provs_of(secrets, derived)
    if generic:
        TraceBuilder.output(tracker, OUTPUT_LOC, provs)
    else:
        tracker.output(OUTPUT_LOC, provs)
    return tracker


OUTPUT_CASES = {
    "repeated": lambda s, d: [s[0]] * 6,
    "distinct": lambda s, d: [s[0], s[1], s[2], d],
    "public": lambda s, d: [PUBLIC] * 4,
    "mixed": lambda s, d: [s[0], PUBLIC, d, s[0], d, PUBLIC, s[2], s[0]],
}


class TestCollapsingOutputRepeats:
    """The collapsing ``output`` folds repeated provenances by
    arithmetic; the plain builder plus post-hoc collapse, and the
    generic per-value ``add_edge`` path, are its oracles."""

    @pytest.mark.parametrize("collapse", ["context", "location"])
    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_matches_post_hoc_collapse(self, backend, case, collapse):
        plain = drive_outputs(OUTPUT_CASES[case], TraceBuilder())
        offline = measure_graph(plain.finish(), collapse=collapse,
                                stats=plain.stats)
        online_builder = drive_outputs(
            OUTPUT_CASES[case],
            CollapsingTraceBuilder(context_sensitive=collapse == "context",
                                   backend=backend))
        online = measure_graph(online_builder.finish(), collapse=collapse,
                               stats=online_builder.stats)
        assert online.bits == offline.bits
        assert online_builder.stats == plain.stats
        assert graph_text(online.graph) == graph_text(offline.graph)
        assert (online.collapse_stats.original_nodes,
                online.collapse_stats.original_edges) == (
                offline.collapse_stats.original_nodes,
                offline.collapse_stats.original_edges)

    @pytest.mark.parametrize("near_inf", [None, 1, 8, 17, 1000])
    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    def test_matches_generic_path(self, case, near_inf):
        folded = drive_outputs(OUTPUT_CASES[case],
                               CollapsingTraceBuilder(backend="fast"),
                               near_inf=near_inf)
        generic = drive_outputs(OUTPUT_CASES[case],
                                CollapsingTraceBuilder(backend="fast"),
                                near_inf=near_inf, generic=True)
        assert folded._collapser.merge_hits == \
            generic._collapser.merge_hits
        assert folded.stats == generic.stats
        folded_graph, generic_graph = folded.finish(), generic.finish()
        assert graph_text(folded_graph) == graph_text(generic_graph)
        assert [edge.capacity for edge in folded_graph.edges] == \
            [edge.capacity for edge in generic_graph.edges]


class _ValueCuts:
    """A policy whose only cuts are region outputs named ``cut``."""

    def allows_location(self, kind, location):
        return kind == "value" and location.detail == "cut"


def describe(value):
    if isinstance(value, SecretInt):
        return ("secret", value.value, value.width, value.mask)
    return ("plain", value)


def drive_wrap(bulk, width, implicit, tracker, interceptor):
    """Region outputs of mixed values through ``wrap_all`` or a
    per-element ``wrap`` loop, under ``interceptor``."""
    session = Session(tracker=tracker, interceptor=interceptor,
                      backend="fast")
    data = session.secret_bytes(b"\x05\xf0\x33\x81", name="payload")
    with session.enclose("region") as region:
        first = 7
        if implicit and data[0] > 3:
            first = 9
        values = [first, data[1], session.widen(data[2] & 0x3F, 12), 300,
                  data[1], 0, session.widen(5, 16)]
    if bulk:
        wrapped = region.wrap_all(values, width=width, name="cut")
    else:
        wrapped = [region.wrap(v, width=width, name="cut") for v in values]
    session.output(*wrapped)
    seen = [describe(v) for v in wrapped]
    if isinstance(tracker, TraceBuilder):
        seen.append(graph_text(tracker.finish()))
        seen.append(tracker.stats)
    return seen


class TestWrapAllEqualsWrap:
    """``Region.wrap_all`` ≡ per-element ``Region.wrap``, including
    under a lockstep interceptor and with per-element widths."""

    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("width", [8, None])
    @pytest.mark.parametrize("tracker", ["null", "plain", "collapsing"])
    def test_lockstep(self, tracker, width, implicit):
        make = {"null": NullTracker, "plain": TraceBuilder,
                "collapsing": CollapsingTraceBuilder}[tracker]
        recorded = {}
        for bulk in (True, False):
            recorder = RecordingInterceptor(_ValueCuts())
            seen = drive_wrap(bulk, width, implicit, make(), recorder)
            recorded[bulk] = (seen, recorder.cut_values, recorder.cut_bits,
                              recorder.outputs)
        assert recorded[True] == recorded[False]
        cut_values = recorded[True][1]
        assert cut_values, "the region outputs are cut points"
        # The replaying copy substitutes every recorded cut value.
        substituted = [(kind, loc, value ^ 1)
                       for kind, loc, value in cut_values]
        replayed = {}
        for bulk in (True, False):
            replayer = ReplayInterceptor(_ValueCuts(), substituted)
            seen = drive_wrap(bulk, width, implicit, make(), replayer)
            replayed[bulk] = (seen, replayer.outputs,
                              replayer.desynchronized,
                              replayer.fully_consumed)
        assert replayed[True] == replayed[False]
        assert not replayed[True][2] and replayed[True][3]

    @pytest.mark.parametrize("width", [8, None])
    def test_without_interceptor(self, width):
        assert drive_wrap(True, width, True, TraceBuilder(), None) == \
            drive_wrap(False, width, True, TraceBuilder(), None)

    def test_before_the_block_closes(self):
        session = Session()
        with session.enclose("region") as region:
            with pytest.raises(TraceError):
                region.wrap_all([1, 2])
            with pytest.raises(TraceError):
                region.wrap(1)


# ----------------------------------------------------------------------
# Fused binary ops: a repeated secret op on a fast collapsing session
# runs the tracker's repeat arithmetic inline.  Its oracle is the same
# session over the generic collapsing tracker, whose ops go through
# ``_binary_op_fast`` and ``TraceBuilder.operation``.


def fused_session(mode, fused):
    if fused:
        session = Session(online_collapse=mode, backend="fast")
        assert session._binder is session.tracker
    else:
        session = Session(tracker=CollapsingTraceBuilder(
            context_sensitive=mode == "context", backend="reference"),
            backend="fast")
        assert session._binder is None
    return session


def count_operations(tracker):
    """Record the location of every ``tracker.operation`` call."""
    calls = []
    operation = tracker.operation

    def counted(location, result_mask, operands):
        calls.append(location)
        return operation(location, result_mask, operands)

    tracker.operation = counted
    return calls


def tracker_state(tracker):
    """Everything a fused op may not change, graph included."""
    graph = tracker.graph
    return (graph_text(graph), [edge.capacity for edge in graph.edges],
            tracker.stats, tracker._collapser.merge_hits,
            tracker._operation_events, tracker._virtual_nodes,
            tracker._virtual_edges)


def fused_stream(session, near_inf=None):
    """Repeated secret ops of every shape, each round with an operand
    class the op sites have not folded yet; ``near_inf`` sets every
    bucket that far below INF after the first round."""
    tracker = session.tracker
    xs = session.secret_bytes(b"\x03\x05\x07\x03\xf0", name="xs")
    z = session.secret_int(0x1234, width=16, name="z")
    table = list(range(256))
    seen, states = [], []
    for round_ in range(4):
        y = session.secret_int(9 + round_, name="y%d" % round_)
        for x in xs:
            seen.append(x == xs[0])          # two secret operands
            seen.append(x + y)               # y: a new class per round
            seen.append(3 - x)               # reflected, secret-public
            seen.append(x < 4)               # secret-public compare
            seen.append((x & 0x0F) * y)      # an op result as operand
            seen.append(x ^ z)
            table[x]
            if x == xs[0]:
                seen.append(x | 0x40)
            with session.scope("inner"):     # a context switch
                seen.append(x * 3)
        with session.enclose("region") as region:
            v = xs[1] + y
            if v > 10:
                seen.append(v - 1)
        seen.append(region.wrap(v, name="v"))
        if near_inf is not None and round_ == 0:
            for bucket in tracker._collapser._buckets.values():
                bucket.capacity = INF - near_inf
        states.append(tracker_state(tracker))
    seen = [describe(value) for value in seen]
    graph = session.finish()
    return (seen, states, graph_text(graph),
            [edge.capacity for edge in graph.edges], tracker.stats)


class TestFusedBinaryOp:
    @pytest.mark.parametrize("near_inf", [None, 1, 9, 40])
    @pytest.mark.parametrize("mode", ["context", "location"])
    def test_matches_generic_tracker(self, mode, near_inf):
        fused = fused_session(mode, fused=True)
        calls = count_operations(fused.tracker)
        observed = fused_stream(fused, near_inf)
        assert observed == fused_stream(fused_session(mode, fused=False),
                                        near_inf)
        # Most ops were fused: only first occurrences and new operand
        # classes reached the tracker.
        assert 0 < len(calls) < fused.tracker._operation_events // 4

    @pytest.mark.parametrize("mode", ["context", "location"])
    def test_matches_reference_session(self, mode):
        # Same graph text as the reference backend, so the fused op
        # resolves the reference's Location.
        reference = Session(online_collapse=mode, backend="reference")
        assert fused_stream(fused_session(mode, fused=True))[2:] == \
            fused_stream(reference)[2:]

    def test_first_occurrence_and_new_class_take_the_tracker_path(self):
        session = fused_session("location", fused=True)
        calls = count_operations(session.tracker)
        x, = session.secret_bytes(b"\x05", name="x")
        y0 = session.secret_int(3, name="y0")
        y1 = session.secret_int(4, name="y1")
        for y, expected in ((y0, 1), (y0, 1), (y0, 1), (y1, 2), (y1, 2),
                            (y0, 2)):
            x ^ y
            assert len(calls) == expected

    def test_location_is_the_operator_dunder(self):
        # A Python-frontend op is labelled with the SecretInt dunder's
        # line, exactly as the reference resolves it.
        session = fused_session("location", fused=True)
        x, y = session.secret_bytes(b"\x05\x06")
        for _ in range(3):
            x == y
        line = SecretInt.__eq__.__code__.co_firstlineno + 1
        ops = {str(edge.label.location) for edge in session.finish().edges
               if edge.label is not None and edge.label.kind == "data"}
        assert ops == {str(Location("values.py", line, "eq"))}

    @pytest.mark.parametrize("fused", [True, False])
    def test_event_after_finish_raises(self, fused):
        session = fused_session("location", fused)
        x, y = session.secret_bytes(b"\x05\x06")
        for _ in range(3):
            x == y
        session.finish()
        with pytest.raises(TraceError):
            x == y

    def test_repeats_share_one_provenance(self):
        session = fused_session("location", fused=True)
        x, y = session.secret_bytes(b"\x05\x06")
        results = [x ^ y for _ in range(4)]
        assert len({id(r.prov) for r in results}) == 1
        assert len({id(r) for r in results}) == 4

    def test_repeated_vm_op_returns_one_interned_provenance(self):
        tracker = CollapsingTraceBuilder(backend="fast")
        returned = {}
        operation = tracker.operation

        def recording(location, result_mask, operands):
            prov = operation(location, result_mask, operands)
            returned.setdefault((location, result_mask), []).append(prov)
            return prov

        tracker.operation = recording
        execute(compile_source(MIXED_OPS), secret_input=random_secret(7),
                tracker=tracker, backend="fast")
        assert max(len(provs) for provs in returned.values()) > 1
        for provs in returned.values():
            assert all(prov is provs[0] for prov in provs)


RECYCLED_SOURCE = """
def probe(data, table):
    for x in data:
        table[x]
        if x == data[0]:
            pass
"""


@pytest.mark.parametrize("mode", ["context", "location"])
def test_recycled_code_ids_keep_their_own_sites(mode):
    # Each source differs only in its first line, so every code object
    # has the same size and CPython tends to hand a dropped one's
    # address (its id) to the next.  The fused index and branch sites
    # key on that id; the session pins each keyed code object, so no
    # site is charged to a dead one's line.
    graphs = {}
    for backend in ("reference", "fast"):
        session = Session(online_collapse=mode, backend=backend)
        data = session.secret_bytes(b"\x01\x02\x01\x04", name="data")
        table = list(range(256))
        for line in range(12):
            namespace = {}
            exec(compile("\n" * line + RECYCLED_SOURCE, "recycled.py",
                         "exec"), namespace)
            namespace["probe"](data, table)
            namespace.clear()  # frees the code: nothing else holds it
        graphs[backend] = graph_text(session.finish())
    assert graphs["fast"] == graphs["reference"]
    assert graphs["fast"].count("recycled.py") >= 24
