"""Tests for multi-run soundness (Section 3): Kraft, combining."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core import measure_graph, measure_runs
from repro.core.combine import (code_lengths_for, demonstrate_inconsistency,
                                kraft_satisfied, kraft_sum)
from repro.core.tracker import TraceBuilder

from .helpers import unary_printer_events


class TestKraft:
    def test_single_zero_bound_saturates(self):
        assert kraft_sum([0]) == 1
        assert kraft_satisfied([0])

    def test_two_one_bit_messages(self):
        assert kraft_satisfied([1, 1])
        assert not kraft_satisfied([1, 1, 1])

    def test_papers_unsoundness_example(self):
        # Section 3.2: sum over n in [0,255] of 2^-min(8, n+1) = 503/256.
        bounds = [min(8, n + 1) for n in range(256)]
        assert kraft_sum(bounds) == Fraction(503, 256)
        assert not kraft_satisfied(bounds)

    def test_consistent_binary_encoding_is_sound(self):
        assert kraft_satisfied([8] * 256)
        assert kraft_sum([8] * 256) == 1

    def test_consistent_unary_encoding_is_sound(self):
        # Unary: n+1 bits per message, over any prefix of messages.
        assert kraft_satisfied([n + 1 for n in range(50)])

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            kraft_sum([3, -1])

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
    def test_exact_fraction_matches_float(self, bounds):
        exact = kraft_sum(bounds)
        approx = sum(2.0 ** -k for k in bounds)
        assert abs(float(exact) - approx) < 1e-9


class TestCodeLengths:
    def test_one_message_free(self):
        assert code_lengths_for(1) == 0

    def test_powers_of_two(self):
        assert code_lengths_for(2) == 1
        assert code_lengths_for(256) == 8

    def test_rounds_up(self):
        assert code_lengths_for(3) == 2
        assert code_lengths_for(257) == 9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            code_lengths_for(0)


class TestCombinedRuns:
    """Combining graphs forces a single consistent cut (Section 3.2)."""

    def run_graph(self, n):
        t = TraceBuilder()
        g = unary_printer_events(t, n)
        return g, t.stats

    def test_independent_bounds_are_min_8_n_plus_1(self):
        for n, expected in [(0, 1), (3, 4), (20, 8)]:
            g, _ = self.run_graph(n)
            assert measure_graph(g, collapse="none").bits == expected

    def test_combined_bound_uses_one_cut(self):
        # Runs n=5 (unary favours 6) and n=200 (binary favours 8):
        # independently min-cuts sum to 14, but no single code achieves
        # that; the combined graph must charge both runs at the counter,
        # giving 8 + 8 = 16.
        graphs, stats = zip(*(self.run_graph(n) for n in (5, 200)))
        report = measure_runs(list(graphs), stats_list=list(stats))
        assert report.bits == 16

    def test_combined_small_runs_stay_unary(self):
        # n = 0..3: unary is the consistent optimum: 1+2+3+4 = 10 < 4*8.
        graphs, stats = zip(*(self.run_graph(n) for n in range(4)))
        report = measure_runs(list(graphs), stats_list=list(stats))
        assert report.bits == 10

    def test_combined_at_least_sum_of_consistent_codes(self):
        # Whatever the combined bound is, splitting it evenly over the
        # runs must satisfy Kraft for those runs' message count.
        ns = [0, 1, 2, 5, 9]
        graphs, stats = zip(*(self.run_graph(n) for n in ns))
        report = measure_runs(list(graphs), stats_list=list(stats))
        assert report.bits >= code_lengths_for(len(ns)) * 1  # sanity
        individual = [measure_graph(g, collapse="none").bits
                      for g, _ in (self.run_graph(n) for n in ns)]
        assert report.bits >= max(individual)

    def test_consistent_bounds_helper(self):
        graphs, stats = zip(*(self.run_graph(n) for n in (1, 2)))
        report = measure_runs(list(graphs), stats_list=list(stats))
        assert report.bits == 5  # unary cut: 2 + 3

    def test_merged_stats_summed(self):
        graphs, stats = zip(*(self.run_graph(n) for n in (1, 2)))
        report = measure_runs(list(graphs), stats_list=list(stats))
        assert report.stats["secret_input_bits"] == 16


class TestDemonstrateInconsistency:
    def test_reports_violation(self):
        result = demonstrate_inconsistency([min(8, n + 1) for n in range(256)])
        assert not result["sound"]
        assert result["kraft_sum"] == Fraction(503, 256)
        assert result["kraft_sum_float"] == pytest.approx(503 / 256)

    def test_reports_soundness(self):
        result = demonstrate_inconsistency([8] * 200)
        assert result["sound"]
