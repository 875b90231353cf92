"""CollapsingTraceBuilder: online-collapsed traces == post-hoc collapse.

Every comparison here runs the *same program twice* — once under the
default TraceBuilder (measured with the post-hoc collapse) and once
under the online-collapsing tracker — and asserts the reports agree
bit-for-bit: flow bound, collapsed graph size, min-cut capacity, and
the CollapseStats before/after numbers.
"""

import random

import pytest

from repro import obs
from repro.core.measure import measure_graph
from repro.core.tracker import CollapsingTraceBuilder, TraceBuilder
from repro.errors import TraceError
from repro.lang.runner import measure as lang_measure
from repro.lang.runner import measure_live
from repro.pytrace import Session


def random_pytrace_program(session, seed, n_bytes=24):
    """A randomized but seed-deterministic traced program touching
    arithmetic, branches, loops, and mixed-width accumulation."""
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(n_bytes))
    data = session.secret_bytes(payload, name="payload")
    total = session.widen(0, 32)
    parity = session.widen(0, 8)
    for b in data:
        total = total + b
        parity = parity ^ b
        if (b & 3) == 0:
            session.output_str("quarter")
        if (b & 64) != 0:
            session.output(b >> 6, name="topbits")
    session.output(total, name="total")
    session.output(parity, name="parity")


def random_region_program(session, seed, n_bytes=16):
    """A second seed-deterministic traced program, through enclosure
    regions: ``wrap_all`` over mixed public and secret values (a fixed
    width, or per-element widths), and multi-value outputs that repeat
    a provenance."""
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(n_bytes))
    data = session.secret_bytes(payload, name="payload")
    for _ in range(rng.randint(2, 4)):
        branchy = rng.random() < 0.8
        with session.enclose("round") as region:
            values = []
            for b in data[:rng.randint(1, n_bytes)]:
                pick = rng.randrange(4)
                if branchy and pick == 0:
                    # A public value written under a secret branch.
                    values.append(7 if b > rng.randrange(256) else 300)
                elif pick == 1:
                    values.append(b)
                elif pick == 2:
                    values.append(session.widen(b & rng.randrange(1, 256),
                                                rng.choice([8, 12])))
                else:
                    values.append(rng.randrange(1 << rng.randint(1, 10)))
        wrapped = region.wrap_all(values, width=rng.choice([8, None]),
                                  name=rng.choice(["block", "tail"]))
        picks = [rng.choice(wrapped) for _ in range(rng.randint(1, 6))]
        session.output(*picks, name="picks")
        session.output_bytes(wrapped, name="block")


def run_both(program, collapse, backend=None):
    offline = Session(backend=backend)
    program(offline)
    off = offline.measure(collapse=collapse)
    online = Session(online_collapse=collapse, backend=backend)
    program(online)
    on = online.measure()
    return off, on


def assert_reports_match(off, on):
    assert on.bits == off.bits
    assert on.graph.num_nodes == off.graph.num_nodes
    assert on.graph.num_edges == off.graph.num_edges
    assert on.mincut.capacity == off.mincut.capacity
    assert (on.collapse_stats.original_nodes,
            on.collapse_stats.original_edges) == (
            off.collapse_stats.original_nodes,
            off.collapse_stats.original_edges)
    assert (on.collapse_stats.collapsed_nodes,
            on.collapse_stats.collapsed_edges) == (
            off.collapse_stats.collapsed_nodes,
            off.collapse_stats.collapsed_edges)
    assert on.stats == off.stats


class TestPytraceEquivalence:
    @pytest.mark.parametrize("collapse", ["context", "location"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed, collapse):
        off, on = run_both(
            lambda s: random_pytrace_program(s, seed), collapse)
        assert_reports_match(off, on)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("collapse", ["context", "location"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_region_programs(self, seed, collapse, backend):
        off, on = run_both(
            lambda s: random_region_program(s, seed), collapse, backend)
        assert_reports_match(off, on)

    @pytest.mark.parametrize("collapse", ["context", "location"])
    def test_regions_and_scopes(self, collapse):
        def program(session):
            key = session.secret_int(0xA5, width=8, name="key")
            with session.scope("round"):
                with session.enclose("sbox") as region:
                    if key > 128:
                        hi = 1
                    else:
                        hi = 0
                out = region.wrap(session.widen(hi, 4), width=4)
            session.output(out, key & 1)

        off, on = run_both(program, collapse)
        assert_reports_match(off, on)

    def test_categories_joint_identical_per_category_sound(self):
        def program(session):
            a = session.secret_int(3, width=8, name="a", category="alice")
            b = session.secret_int(5, width=8, name="b", category="bob")
            session.output(a & 7, name="a_out")
            session.output(b & 3, name="b_out")
            return session

        off = program(Session()).measure_by_category()
        on = program(Session(online_collapse="context")).measure_by_category()
        assert on.joint == off.joint
        # Per-category solves run on the collapsed graph (there is no
        # raw graph in online mode), so the bounds may be coarser than
        # the raw-graph bounds — but never lower (collapse is sound).
        for category, bound in off.per_category.items():
            assert on.per_category[category] >= bound
            assert on.per_category[category] <= on.joint

    def test_snapshot_bits_mid_session(self):
        offline, online = Session(), Session(online_collapse="location")
        for session in (offline, online):
            secret = session.secret_int(0x5A, width=8)
            session.output(secret & 0xF)
            assert session.snapshot_bits() == 4
            session.output(secret >> 4)
        assert offline.measure(collapse="location").bits == \
            online.measure().bits == 8

    def test_live_graph_stays_coverage_sized(self):
        def loop_program(session, iterations):
            data = session.secret_bytes(bytes(range(256)) * (iterations // 256 or 1))
            acc = session.widen(0, 16)
            for b in data:
                acc = acc ^ b
            session.output(acc)

        small = Session(online_collapse="context")
        loop_program(small, 256)
        small.finish()
        large = Session(online_collapse="context")
        loop_program(large, 2048)
        large.finish()
        # 8x the iterations, same code coverage: same-sized live graph.
        assert large.tracker.peak_live_nodes == small.tracker.peak_live_nodes


FLOWLANG_PROGRAMS = {
    "xor_loop": """
        fn main() {
          var i: u8 = 0; var acc: u8 = 0;
          while (i < 12) {
            var b: u8 = secret_u8();
            acc = acc ^ b;
            if (b > 200) { output(1); }
            i = i + 1;
          }
          output(acc);
        }
    """,
    "calls": """
        fn low(x: u8): u8 { return x & 15; }
        fn main() {
          var a: u8 = secret_u8();
          var b: u8 = secret_u8();
          output(low(a));
          output(low(b));
        }
    """,
}


class TestFlowLangEquivalence:
    @pytest.mark.parametrize("collapse", ["context", "location"])
    @pytest.mark.parametrize("name", sorted(FLOWLANG_PROGRAMS))
    def test_programs(self, name, collapse):
        source = FLOWLANG_PROGRAMS[name]
        secret = bytes(range(64))
        off = lang_measure(source, secret_input=secret, collapse=collapse)
        on = lang_measure(source, secret_input=secret, collapse=collapse,
                          online=True)
        assert_reports_match(off.report, on.report)
        assert on.outputs == off.outputs

    def test_live_series_identical(self):
        source = FLOWLANG_PROGRAMS["xor_loop"]
        secret = bytes(range(64))
        _, off_series = measure_live(source, secret_input=secret)
        _, on_series = measure_live(source, secret_input=secret, online=True)
        assert on_series == off_series

    def test_online_rejects_collapse_none(self):
        with pytest.raises(ValueError):
            lang_measure(FLOWLANG_PROGRAMS["calls"], secret_input=b"ab",
                         collapse="none", online=True)


class TestModeThreading:
    def test_session_rejects_tracker_and_online(self):
        with pytest.raises(TraceError):
            Session(tracker=TraceBuilder(), online_collapse="context")

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(TraceError):
            Session(online_collapse="everything")

    def test_measure_rejects_context_after_location_collapse(self):
        session = Session(online_collapse="location")
        session.output(session.secret_int(1, width=1))
        with pytest.raises(ValueError):
            session.measure(collapse="context")

    def test_location_refines_context_collapsed_graph(self):
        # context-collapsed online graph + collapse="location" refines
        # post-hoc; the result matches an offline location measurement.
        def program(session):
            x = session.secret_int(9, width=8)
            with session.scope("a"):
                session.output(x & 3)
            with session.scope("b"):
                session.output(x >> 6)

        offline = Session()
        program(offline)
        off = offline.measure(collapse="location")
        online = Session(online_collapse="context")
        program(online)
        on = online.measure(collapse="location")
        assert on.bits == off.bits
        assert on.graph.num_nodes == off.graph.num_nodes
        assert on.graph.num_edges == off.graph.num_edges

    def test_collapse_stats_report_raw_trace_size(self):
        tracker = CollapsingTraceBuilder()
        loc_sessions = Session(tracker=tracker)
        secret = loc_sessions.secret_int(7, width=8)
        loc_sessions.output(secret & 1)
        report = loc_sessions.measure()
        raw = Session()
        s2 = raw.secret_int(7, width=8)
        raw.output(s2 & 1)
        raw_graph = raw.finish()
        assert report.collapse_stats.original_nodes == raw_graph.num_nodes
        assert report.collapse_stats.original_edges == raw_graph.num_edges

    def test_online_metrics_published(self):
        obs.enable()
        try:
            session = Session(online_collapse="context")
            secret = session.secret_int(5, width=8)
            session.output(secret & 3)
            report = session.measure()
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snap["collapse.online.builds"] == 1
        assert snap["collapse.online.nodes_live"] > 0
        assert snap["collapse.online.nodes_peak"] >= \
            snap["collapse.online.nodes_live"]
        # No post-hoc collapse ran, so its gauges stayed zero.
        assert snap["collapse.nodes_after"] == 0
        assert report.metrics["collapse.online.builds"] == 1
