"""Bound sites: repeated tracker events that only count.

A fast :class:`CollapsingTraceBuilder` keeps a table of bound sites
(``repro.core.tracker``, "bound sites").  FlowLang blocks bind their
secret BINOPs and JZs, the Python frontend its fused ops, branches and
indexes; a repeat of a bound site only counts, and the tracker settles
the counts before anything reads or changes its state.  These tests run
the fast backend (blocks, fast tracker) against the reference backend
(interpreter, reference tracker) and compare the whole tracker state at
every observation point: ``stats`` (read first, so it must settle by
itself), graph text, capacities, merge hits and the virtual sizes.
"""

import random

import pytest

from repro.core.measure import measure_graph
from repro.core.tracker import CollapsingTraceBuilder
from repro.errors import TraceError, VMError
from repro.graph.flowgraph import INF
from repro.graph.serialize import dumps_graph
from repro.lang import compile_cached
from repro.lang.vm import VM
from repro.pytrace import SecretInt, Session

from ..lang.test_soundness_fuzz import ProgramGenerator
from ..lang.test_vm_dispatch import APP_CASES
from .helpers import EventCounter

BACKENDS = ("reference", "fast")
MODES = ("context", "location")

#: A loop over secret bytes: secret compares and branches, arithmetic,
#: an enclose entered on every iteration, with a loop of repeated secret
#: branches and a nested enclose inside, and outputs mid-loop.
LOOP = """
var count: u32 = 0;

fn main() {
    var buf: u8[32];
    var n: u32 = read_secret(buf, 32);
    var i: u32 = 0;
    var acc: u8 = 0;
    var flags: u32 = 0;
    while (i < n) {
        var c: u8 = buf[i];
        if (c == 46) {
            count = count + 1;
        }
        acc = acc + (c & 15) * 3;
        enclose (flags, acc) {
            var k: u32 = 0;
            while (k < 3) {
                if (c > 100) {
                    enclose (acc) {
                        if (c < 200) {
                            acc = acc ^ 1;
                        }
                    }
                    flags = flags + 1;
                }
                k = k + 1;
            }
        }
        if (i % 4 == 3) {
            output(acc);
        }
        i = i + 1;
    }
    output(count);
    output(flags & 255);
}
"""

_RNG = random.Random(5)
SECRET = bytes(_RNG.randrange(256) for _ in range(32))


def state(tracker):
    """Everything a bound site may not change, read ``stats`` first."""
    stats = tracker.stats
    graph = tracker.graph
    return (stats, dumps_graph(graph), [edge.capacity for edge in graph.edges],
            tracker._collapser.merge_hits, tracker._virtual_nodes,
            tracker._virtual_edges)


def record_exits(tracker):
    """Record each region exit's implicit bits, read at ``leave_region``."""
    exits = []
    leave_region = tracker.leave_region

    def recording(location):
        token = leave_region(location)
        exits.append((str(location), token.node is not None,
                      token.implicit_bits))
        return token

    tracker.leave_region = recording
    return exits


def count_operations(tracker):
    calls = []
    operation = tracker.operation

    def counted(location, result_mask, operands):
        calls.append(location)
        return operation(location, result_mask, operands)

    tracker.operation = counted
    return calls


def run(source, secret, mode, backend, hook=None, max_steps=None):
    """One VM run; the state after every output and at the end."""
    tracker = CollapsingTraceBuilder(context_sensitive=mode == "context",
                                     backend=backend)
    exits = record_exits(tracker)
    calls = count_operations(tracker)
    states = []

    def output_hook(vm):
        # The paper's "recompute the flow on every output" mode.
        states.append(state(vm.tracker))
        states.append(measure_graph(vm.tracker.graph, collapse=mode).bits)
        if hook is not None:
            hook(vm)

    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    vm = VM(compile_cached(source), tracker, secret_input=secret,
            backend=backend, output_hook=output_hook, **kwargs)
    error = None
    try:
        vm.run(finish=False)
    except (VMError, TraceError) as exc:
        error = (type(exc).__name__, str(exc))
    if error is None or error[0] == "VMError":
        states.append(state(tracker))
    result = {"states": states, "exits": exits, "error": error,
              "steps": vm.steps, "outputs": list(vm.outputs)}
    return result, tracker, calls


def assert_same(source, secret, mode, **kwargs):
    reference, _, _ = run(source, secret, mode, "reference", **kwargs)
    fast, tracker, calls = run(source, secret, mode, "fast", **kwargs)
    assert fast == reference
    return fast, tracker, calls


@pytest.mark.parametrize("mode", MODES)
def test_loop_matches_reference_at_every_output(mode):
    result, tracker, calls = assert_same(LOOP, SECRET, mode)
    assert result["error"] is None and len(result["outputs"]) == 10
    # Regions were entered and left on every iteration, nested ones too.
    assert len(result["exits"]) > 40
    # Most secret BINOPs were counted, not reported.  Those on a value
    # a region exit just rewrote miss: its provenance is a new object.
    assert 0 < len(calls) < tracker._operation_events // 2


@pytest.mark.parametrize("near_inf", [1, 9, 40])
@pytest.mark.parametrize("mode", MODES)
def test_buckets_seeded_below_inf(mode, near_inf):
    # After the first output every bucket sits just below INF, so the
    # counts of the next loop iterations cross it within one settle.
    seeded = set()

    def seed(vm):
        if vm not in seeded:
            for bucket in vm.tracker._collapser._buckets.values():
                bucket.capacity = INF - near_inf
            seeded.add(vm)

    result, _, _ = assert_same(LOOP, SECRET, mode, hook=seed)
    assert INF in result["states"][-1][2]


@pytest.mark.parametrize("mode", MODES)
def test_event_after_finish_raises(mode):
    # The hook finishes the trace at the first output; the loop goes on
    # to secret compares that the fast backend had bound.
    def finish(vm):
        if not vm.tracker._finished:
            vm.tracker.finish()

    result, tracker, _ = assert_same(LOOP, SECRET, mode, hook=finish)
    assert result["error"] == ("TraceError", "trace already finished")
    assert not tracker._bound


@pytest.mark.parametrize("mode", MODES)
def test_step_budget_mid_loop_then_stats(mode):
    total = run(LOOP, SECRET, mode, "reference")[0]["steps"]
    for budget in range(total // 3, total // 3 + 40):
        result, _, _ = assert_same(LOOP, SECRET, mode, max_steps=budget)
        assert result["error"][0] == "VMError"


@pytest.mark.parametrize("seed", range(60))
def test_fuzz_programs_agree(seed):
    source = ProgramGenerator(random.Random(seed)).program()
    for mode in MODES:
        for secret in (b"\x00\x17", b"\x5a\xff\x80\x01"):
            assert_same(source, secret, mode, max_steps=4000)


# ----------------------------------------------------------------------
# The VM's own probes: UNOP and CAST through ``VM._operation``, secret
# array indexes through ``VM._indexed``

#: Secret casts, unary ``-`` and ``~``, and secret-indexed loads and
#: stores, in inner loops outside and inside an enclose entered on
#: every iteration.  ``c & k`` alternates its mask on the same operand
#: objects (the secret bytes share one provenance), so a probe that
#: ignored the mask would count a repeat with the wrong result; the
#: cast of it gives an index with one node and two masks.
PROBES = """
fn main() {
    var buf: u8[32];
    var n: u32 = read_secret(buf, 32);
    var table: u8[256];
    var hist: u8[16];
    var i: u32 = 0;
    var acc: u8 = 0;
    var wide: u32 = 0;
    while (i < n) {
        var c: u8 = buf[i];
        var r: u32 = 0;
        while (r < 4) {
            var k: u8 = 15;
            if (r % 2 == 1) {
                k = 255;
            }
            acc = acc + table[u32(c & k)];
            table[u32(~c)] = u8(-i16(c));
            wide = wide + u32(-i32(c));
            r = r + 1;
        }
        enclose (hist[..], acc) {
            var q: u32 = 0;
            while (q < 3) {
                var h: u32 = u32(c) & 15;
                hist[h] = hist[h] + 1;
                acc = acc ^ ~c;
                table[u32(-c)] = u8(h);
                q = q + 1;
            }
        }
        if (i % 8 == 7) {
            output(acc);
        }
        i = i + 1;
    }
    output(u8(wide));
    output(acc);
}
"""


def counted_run(source, secret, public=b"", mode="context"):
    """A fast VM run; the events that reached the tracker."""
    tracker = CollapsingTraceBuilder(context_sensitive=mode == "context",
                                     backend="fast")
    counter = EventCounter(tracker)
    VM(compile_cached(source), tracker, secret_input=secret,
       public_input=public, backend="fast").run()
    return counter, tracker


@pytest.mark.parametrize("mode", MODES)
def test_vm_probes_match_reference_at_every_output(mode):
    result, _, _ = assert_same(PROBES, SECRET, mode)
    assert result["error"] is None and len(result["outputs"]) == 6
    # Most unary ops, casts and secret indexes were counted, not
    # reported; what still reaches the tracker is the alternating-mask
    # line and the ops on values a region exit rewrote.
    counter, tracker = counted_run(PROBES, SECRET, mode=mode)
    assert counter.ops <= 469 < tracker._operation_events // 4
    assert counter.flows <= 224 < tracker._implicit_events // 2


@pytest.mark.parametrize("near_inf", [1, 9, 40])
@pytest.mark.parametrize("mode", MODES)
def test_vm_probes_seeded_below_inf(mode, near_inf):
    seeded = set()

    def seed(vm):
        if vm not in seeded:
            for bucket in vm.tracker._collapser._buckets.values():
                bucket.capacity = INF - near_inf
            seeded.add(vm)

    result, _, _ = assert_same(PROBES, SECRET, mode, hook=seed)
    assert INF in result["states"][-1][2]


@pytest.mark.parametrize("mode", MODES)
def test_vm_probes_step_budget_sweep(mode):
    # Budgets every 7 steps across one outer iteration (308 steps) stop
    # the run at offsets inside and outside the enclose.
    total = run(PROBES, SECRET, mode, "reference")[0]["steps"]
    for budget in range(total // 2, total // 2 + 308, 7):
        result, _, _ = assert_same(PROBES, SECRET, mode, max_steps=budget)
        assert result["error"][0] == "VMError"


#: name -> the most (operations, implicit flows) a fast run of the
#: ``APP_CASES`` program sends to the tracker, in either collapse mode;
#: every other event is a bound-site repeat that only counts.
EVENT_CEILINGS = {
    "checksum": (8, 2),
    "count_punct_paper": (7, 12),
    "count_punct_text": (7, 13),
    "grid": (10, 4),
    "metrics": (5, 3),
    "scheduler": (25, 10),
    "tinystack": (1, 0),
}


def test_every_app_case_has_an_event_ceiling():
    assert set(EVENT_CEILINGS) == set(APP_CASES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(EVENT_CEILINGS))
def test_app_events_reaching_the_tracker(name, mode):
    counter, _ = counted_run(*APP_CASES[name], mode=mode)
    ops, flows = EVENT_CEILINGS[name]
    assert counter.ops <= ops and counter.flows <= flows


# ----------------------------------------------------------------------
# The Python frontend's bound sites


def python_stream(session, near_inf=None):
    """Indexes, branches and ops in a loop, with an enclose entered on
    every iteration; ``near_inf`` seeds every bucket after round 0.  The
    state is read after every iteration."""
    tracker = session.tracker
    xs = session.secret_bytes(b"\x03\x35\x07\x93\xf0\x11", name="xs")
    table = list(range(256))
    states, seen = [], []
    for round_ in range(4):
        for x in xs:
            # Two index sites on one bucket (one line) adding 4 and 8
            # bits in the order A B A between two settles: 10 below INF,
            # only the last add decides.
            for i in range(3):
                table[x & 0x0F], (table[x] if i < 2 else None)
            # Two bindings of one op site (the ``__mul__`` dunder) with
            # 6- and 10-bit results, in the order A B B A between two
            # settles: 24 below INF, only the last add decides whether
            # the bucket ends at INF or past it.
            seen.append((x & 0x0F) * 3)
            seen.append(x * 3)
            seen.append(x * 3)
            seen.append((x & 0x0F) * 3)
            with session.enclose("outer") as outer:
                for _ in range(3):
                    if x > 0x10:
                        with session.enclose("inner") as inner:
                            if x & 1:
                                seen.append(x + 1)
                        seen.append(inner.wrap(x, name="ix"))
            seen.append(outer.wrap(x ^ 0x55, name="ox"))
            if x == xs[0]:
                session.output(x, name="first")
            states.append(state(tracker))
        if near_inf is not None and round_ == 0:
            for bucket in tracker._collapser._buckets.values():
                bucket.capacity = INF - near_inf
    seen = [(type(v).__name__, int(v.value if isinstance(v, SecretInt)
                                   else v)) for v in seen]
    return seen, states, dumps_graph(session.finish()), tracker.stats


@pytest.mark.parametrize("near_inf", [None, 1, 10, 24])
@pytest.mark.parametrize("mode", MODES)
def test_python_frontend_matches_reference(mode, near_inf):
    fast = Session(online_collapse=mode, backend="fast")
    assert fast._binder is fast.tracker
    reference = Session(online_collapse=mode, backend="reference")
    assert python_stream(fast, near_inf) == \
        python_stream(reference, near_inf)


@pytest.mark.parametrize("online", [None, "location"])
@pytest.mark.parametrize("make", [lambda data: (b for b in data), list,
                                  bytearray], ids=["generator", "list",
                                                   "bytearray"])
def test_secret_bytes_takes_any_iterable(make, online):
    results = {}
    for backend in BACKENDS:
        session = Session(online_collapse=online, backend=backend)
        values = session.secret_bytes(make(b"ab\x00\xff"), name="s")
        total = session.widen(0, 16)
        for value in values:
            total = total + value
        session.output(total)
        results[backend] = ([(v.value, v.width, v.mask) for v in values],
                            dumps_graph(session.finish()))
    assert results["fast"] == results["reference"]
    assert len(results["fast"][0]) == 4
