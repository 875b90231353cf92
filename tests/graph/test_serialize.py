"""Tests for flow-graph persistence."""

import io

import pytest

from repro.errors import GraphError
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.maxflow import dinic_max_flow
from repro.graph.serialize import (dump_graph, dumps_graph, load_graph,
                                   read_graph, save_graph)
from repro.lang import measure


def round_trip(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    buffer.seek(0)
    return load_graph(buffer)


class TestRoundTrip:
    def test_structure_preserved(self):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.source, a, 7)
        g.add_edge(a, g.sink, INF)
        loaded = round_trip(g)
        assert loaded.num_nodes == g.num_nodes
        assert [(e.tail, e.head) for e in loaded.edges] == \
            [(e.tail, e.head) for e in g.edges]
        assert loaded.edges[1].capacity >= INF

    def test_labels_preserved(self):
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 3,
                   EdgeLabel("file.fl:7(main+2)", 12345, "implicit"))
        loaded = round_trip(g)
        label = loaded.edges[0].label
        assert label.kind == "implicit"
        assert label.location == "file.fl:7(main+2)"
        assert label.context == 12345

    def test_line_breaks_in_names_become_spaces(self):
        # A newline kept in a field would split its record in two.
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 3, EdgeLabel("a.fl:1\nx", 5, "data"))
        g.add_edge(g.source, g.sink, 2, EdgeLabel("b.fl:2\r\t", None, "io"))
        text = dumps_graph(g, category_edges={"car\rol\n": [1]})
        loaded = load_graph(io.StringIO(text))
        assert [e.label.location for e in loaded.edges] == \
            ["a.fl:1 x", "b.fl:2  "]
        assert loaded.category_edges == {"car ol ": [1]}
        assert dumps_graph(loaded) == text

    def test_unlabelled_edges(self):
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 4)
        assert round_trip(g).edges[0].label is None

    def test_measured_trace_survives(self):
        result = measure("fn main() { output(secret_u8() & 0x1F); }",
                         secret_input=b"\xFF", collapse="none")
        graph = result.report.graph
        loaded = round_trip(graph)
        assert dinic_max_flow(loaded)[0] == dinic_max_flow(graph)[0] == 5

    def test_collapse_still_works_after_reload(self):
        from repro.graph.collapse import collapse_graph
        result = measure("fn main() { var i: u32 = 0; while (i < 9) {"
                         " output(secret_u8()); i = i + 1; } }",
                         secret_input=bytes(9), collapse="none")
        loaded = round_trip(result.report.graph)
        collapsed, stats = collapse_graph(loaded, context_sensitive=False)
        assert stats.collapsed_edges < stats.original_edges
        assert dinic_max_flow(collapsed)[0] == 72

    def test_file_helpers(self, tmp_path):
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 9)
        path = save_graph(str(tmp_path / "g.fgr"), g)
        assert read_graph(path).edges[0].capacity == 9

    def test_bad_header_rejected(self):
        with pytest.raises(GraphError):
            load_graph(io.StringIO("nonsense\n"))

    def test_bad_record_rejected(self):
        with pytest.raises(GraphError):
            load_graph(io.StringIO("flowgraph-v1\nx\t1\n"))


class TestCategoryRecords:
    """§10.1 category tags survive the artifact boundary."""

    def tagged_session_graph(self):
        from repro.pytrace import Session
        session = Session()
        alice = session.secret_int(0xAB, 8, category="alice")
        bob = session.secret_int(0x12, 8, category="bob")
        session.output(alice ^ bob)
        graph = session.finish()
        return graph, session.tracker.category_edges

    def test_explicit_tags_round_trip(self):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.source, a, 8, EdgeLabel("in:1", None, "input"))
        g.add_edge(g.source, a, 8, EdgeLabel("in:2", None, "input"))
        g.add_edge(a, g.sink, 16)
        buffer = io.StringIO()
        dump_graph(g, buffer, category_edges={"bob": [1], "alice": [0]})
        buffer.seek(0)
        loaded = load_graph(buffer)
        assert loaded.category_edges == {"alice": [0], "bob": [1]}

    def test_untagged_graph_gains_no_attribute(self):
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 4)
        assert not hasattr(round_trip(g), "category_edges")

    def test_traced_categories_round_trip_and_sweep(self):
        from repro.core.multisecret import measure_by_category
        graph, category_edges = self.tagged_session_graph()
        buffer = io.StringIO()
        dump_graph(graph, buffer, category_edges=category_edges)
        buffer.seek(0)
        loaded = load_graph(buffer)
        assert loaded.category_edges == {
            category: list(indices)
            for category, indices in category_edges.items()}
        original = measure_by_category(graph, category_edges)
        reloaded = measure_by_category(loaded, loaded.category_edges)
        assert reloaded.per_category == original.per_category
        assert reloaded.joint == original.joint

    def test_loaded_tags_auto_redump(self):
        graph, category_edges = self.tagged_session_graph()
        first = io.StringIO()
        dump_graph(graph, first, category_edges=category_edges)
        first.seek(0)
        second = io.StringIO()
        dump_graph(load_graph(first), second)
        assert "c\talice" in second.getvalue()
        assert first.getvalue() == second.getvalue()

    def test_out_of_range_index_rejected(self):
        text = "flowgraph-v1\nn\t2\ne\t0\t1\t4\nc\talice\t7\n"
        with pytest.raises(GraphError):
            load_graph(io.StringIO(text))

    def test_nameless_category_rejected(self):
        text = "flowgraph-v1\nn\t2\ne\t0\t1\t4\nc\t\t0\n"
        with pytest.raises(GraphError):
            load_graph(io.StringIO(text))


def cut_fingerprint(cut):
    """A min cut in comparable terms: sorted (kind, location, capacity)."""
    entries = []
    for ce in cut.edges:
        if ce.label is None:
            entries.append((None, None, ce.capacity))
        else:
            entries.append((ce.label.kind, str(ce.label.location),
                            ce.capacity))
    return sorted(entries, key=repr)


class TestCollapsedBzip2RoundTrip:
    """§5.3-style artifact boundary: a collapsed compressor-trace graph
    written with save_graph and reloaded with read_graph yields the same
    max-flow value and the same minimum cut."""

    @pytest.fixture(scope="class")
    def collapsed(self):
        from repro.apps.bzip2.compressor import compress
        from repro.apps.pi import workload_of_size
        from repro.graph.collapse import collapse_graph
        from repro.pytrace import Session
        session = Session()
        data = session.secret_bytes(workload_of_size(128))
        out = compress(data, session=session)
        session.output_bytes(out)
        graph, _stats = collapse_graph(session.finish(),
                                       context_sensitive=False)
        return graph

    def test_round_trip_preserves_flow_and_cut(self, collapsed, tmp_path):
        from repro.graph.mincut import min_cut
        path = save_graph(str(tmp_path / "bzip2.fgr"), collapsed)
        loaded = read_graph(path)
        assert loaded.num_nodes == collapsed.num_nodes
        assert loaded.num_edges == collapsed.num_edges
        value, cut = min_cut(collapsed)
        loaded_value, loaded_cut = min_cut(loaded)
        assert loaded_value == value > 0
        assert loaded_cut.capacity == cut.capacity == value
        assert cut_fingerprint(loaded_cut) == cut_fingerprint(cut)

    def test_round_trip_is_idempotent(self, collapsed, tmp_path):
        first = save_graph(str(tmp_path / "once.fgr"), collapsed)
        twice = save_graph(str(tmp_path / "twice.fgr"), read_graph(first))
        with open(first) as a, open(twice) as b:
            assert a.read() == b.read()


def valid_dump_text():
    """A representative dump: labelled + unlabelled + inf + categories."""
    g = FlowGraph()
    a = g.add_node()
    b = g.add_node()
    g.add_edge(g.source, a, 8, EdgeLabel("in.fl:1(main+0)", 7, "input"))
    g.add_edge(g.source, b, 8, EdgeLabel("in.fl:2(main+1)", None, "input"))
    g.add_edge(a, b, 3)
    g.add_edge(b, g.sink, INF, EdgeLabel("out.fl:9(main+4)", 7, "output"))
    buffer = io.StringIO()
    dump_graph(g, buffer, category_edges={"alice": [0], "bob": [1]})
    return buffer.getvalue()


class TestMalformedRecords:
    """The robustness contract: malformed input raises GraphError (with
    the offending line number), never a bare ValueError/IndexError."""

    @pytest.mark.parametrize("line", [
        "n",                       # truncated node record
        "n\tx",                    # non-integer node count
        "n\t1\t2",                 # too many fields
        "e\t0\t1",                 # too few edge fields
        "e\t0\t1\t4\tvalue",       # label needs all three extra fields
        "e\t0\t1\t4\tvalue\tloc\t-\textra",  # too many edge fields
        "e\t0\tx\t4",              # non-integer node reference
        "e\t0\t1\tcap",            # non-integer capacity
        "e\t0\t99\t4",             # head out of range (FlowGraph check)
        "e\t0\t1\t-4",             # negative capacity (FlowGraph check)
        "e\t0\t1\t4\tvalue\tloc\tctx",  # non-integer context
        "c\talice\tx",             # non-integer category index
        "c\talice\t99",            # category index out of range
        "z\t1\t2",                 # unknown record type
    ])
    def test_malformed_record_is_graph_error(self, line):
        text = "flowgraph-v1\nn\t4\ne\t0\t1\t4\n%s\n" % line
        with pytest.raises(GraphError):
            load_graph(io.StringIO(text))

    def test_error_carries_line_number(self):
        text = "flowgraph-v1\nn\t4\ne\t0\t1\t4\ne\t0\tx\t4\n"
        with pytest.raises(GraphError, match="line 4"):
            load_graph(io.StringIO(text))

    def test_missing_header_names_what_it_got(self):
        with pytest.raises(GraphError, match="flowgraph-v1"):
            load_graph(io.StringIO("e\t0\t1\t4\n"))


class TestTruncationFuzz:
    """Every truncation of a valid dump loads cleanly or raises
    GraphError — the failure mode a batch parent depends on when a
    killed worker ships home a half-written graph."""

    def assert_loads_or_graph_error(self, text):
        try:
            load_graph(io.StringIO(text))
        except GraphError:
            pass  # the contract allows (and expects) exactly this

    def test_every_line_truncation(self):
        lines = valid_dump_text().splitlines(keepends=True)
        for count in range(len(lines) + 1):
            self.assert_loads_or_graph_error("".join(lines[:count]))

    def test_every_character_truncation(self):
        text = valid_dump_text()
        for count in range(len(text) + 1):
            self.assert_loads_or_graph_error(text[:count])

    def test_mid_line_corruption(self):
        text = valid_dump_text()
        for index, char in enumerate(text):
            if char == "\t":
                self.assert_loads_or_graph_error(
                    text[:index] + " " + text[index + 1:])
