"""Tests for the measurement pipeline and reports."""

import pytest

from repro.core import measure_graph
from repro.core.measure import COLLAPSE_MODES
from repro.core.policy import CutPolicy
from repro.core.report import FlowReport
from repro.core.tracker import TraceBuilder

from .helpers import count_punct_events, fanout_events, loc


def sample_graph_and_stats(text="........????"):
    t = TraceBuilder()
    g = count_punct_events(t, text)
    return g, t.stats


class TestMeasureGraph:
    def test_all_collapse_modes_agree_here(self):
        g, stats = sample_graph_and_stats()
        bits = {mode: measure_graph(g, collapse=mode).bits
                for mode in COLLAPSE_MODES}
        assert set(bits.values()) == {9}

    def test_invalid_mode_rejected(self):
        g, _ = sample_graph_and_stats()
        with pytest.raises(ValueError):
            measure_graph(g, collapse="everything")

    def test_collapse_shrinks_graph(self):
        g, _ = sample_graph_and_stats("." * 40 + "?" * 10)
        report = measure_graph(g, collapse="location")
        assert report.collapse_stats is not None
        assert report.collapse_stats.collapsed_nodes < report.collapse_stats.original_nodes

    def test_stats_carried_through(self):
        g, stats = sample_graph_and_stats()
        report = measure_graph(g, stats=stats)
        assert report.secret_input_bits == stats["secret_input_bits"]
        assert report.tainted_output_bits == stats["tainted_output_bits"]

    def test_warnings_carried(self):
        g, _ = sample_graph_and_stats()
        report = measure_graph(g, warnings=["be careful"])
        assert report.warnings == ["be careful"]


class TestFlowReport:
    def test_describe_mentions_bits_and_cut(self):
        g, stats = sample_graph_and_stats()
        report = measure_graph(g, stats=stats)
        text = report.describe()
        assert "flow bound: 9 bits" in text
        assert "minimum cut" in text
        assert "tainting would report: 64 bits" in text

    def test_describe_without_stats(self):
        g, _ = sample_graph_and_stats()
        text = measure_graph(g, collapse="none").describe()
        assert "flow bound: 9 bits" in text

    def test_repr(self):
        g, _ = sample_graph_and_stats()
        report = measure_graph(g)
        assert "bits=9" in repr(report)

    def test_cut_description_locations(self):
        g, _ = sample_graph_and_stats()
        report = measure_graph(g, collapse="none")
        locations = report.cut.locations()
        assert len(locations) == 2
        assert all(isinstance(k, str) and isinstance(l, str)
                   for k, l in locations)

    def test_policy_from_report_checks(self):
        g, _ = sample_graph_and_stats()
        report = measure_graph(g, collapse="none")
        policy = CutPolicy.from_report(report)
        assert policy.permits(report.bits)
        assert not policy.permits(report.bits + 1)


class TestFanoutViaPipeline:
    def test_fig1_through_all_modes(self):
        for mode in COLLAPSE_MODES:
            g = fanout_events(TraceBuilder())
            assert measure_graph(g, collapse=mode).bits == 32
