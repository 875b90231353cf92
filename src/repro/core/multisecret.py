"""Different kinds of secret (Section 10.1, implemented).

The paper sketches analyzing multiple secret classes -- Alice's secrets
vs. Bob's, "classified" vs. "top secret" -- and notes the obvious
approach (run the tool once per class) shares no work, while true
multi-commodity flow would be unsound (flows can share capacity via
coding).

This module implements the sound middle ground the paper hints at: one
instrumented execution builds one graph whose *source edges* are tagged
with their secret's category; per-category bounds come from re-solving
the same graph with the other categories' source edges closed.  That
shares the expensive part (instrumentation + graph construction) across
categories and additionally exposes the *crowding-out* effect the paper
mentions: the joint bound can be less than the sum of the per-category
bounds when classes compete for the same channel.
"""

from __future__ import annotations

from ..graph.maxflow import dinic_max_flow
from ..graph.mincut import min_cut_from_residual
from .measure import measure_graph

#: Category used when callers don't specify one.
DEFAULT_CATEGORY = "secret"


class CategoryBounds:
    """Per-category and joint flow bounds from one execution.

    ``failures`` is normally empty; a parallel sweep running under
    ``on_error="collect"`` records there the
    :class:`~repro.batch.engine.JobFailure` of every category whose
    solve job failed — those categories are then missing from
    ``per_category``, and the sweep is partial.
    """

    def __init__(self, per_category, joint, reports, failures=()):
        self.per_category = dict(per_category)
        self.joint = joint
        self.reports = reports
        self.failures = list(failures)

    @property
    def partial(self):
        return bool(self.failures)

    @property
    def sum_of_categories(self):
        return sum(self.per_category.values())

    @property
    def crowding_out(self):
        """Bits saved by analyzing jointly: sum of parts minus joint.

        Positive when the categories compete for shared channel
        capacity (a byte can carry 8 of Alice's bits or 8 of Bob's, but
        not both at once).
        """
        return self.sum_of_categories - self.joint

    def __repr__(self):
        parts = ", ".join("%s=%d" % kv
                          for kv in sorted(self.per_category.items()))
        return "CategoryBounds(%s, joint=%d)" % (parts, self.joint)


def _restricted_copy(graph, category_edges, enabled):
    """A copy of ``graph`` with only ``enabled`` categories' sources open."""
    allowed = set()
    for category in enabled:
        allowed.update(category_edges.get(category, ()))
    all_tagged = set()
    for indices in category_edges.values():
        all_tagged.update(indices)
    restricted = graph.copy()
    for index in all_tagged - allowed:
        restricted.edges[index].capacity = 0
    return restricted


def _solve_with_categories(graph, category_edges, enabled):
    """Max-flow with only ``enabled`` categories' source edges open."""
    restricted = _restricted_copy(graph, category_edges, enabled)
    value, residual = dinic_max_flow(restricted)
    return value, min_cut_from_residual(restricted, residual)


def measure_by_category(graph, category_edges, collapse="none", stats=None):
    """Measure one graph per-category and jointly.

    Args:
        graph: the finished trace graph.
        category_edges: mapping category -> list of *input-edge indices*
            (as recorded by ``TraceBuilder.category_edges``).
        collapse: collapsing is applied to the *joint* report only; the
            per-category solves run on the graph as given, where the
            edge indices are valid.  With the default builder that is
            the raw trace graph; with an online-collapsing builder it is
            the collapsed graph, which can make per-category bounds
            coarser (never lower) when categories share program points
            — see ``docs/performance.md``.
        stats: optional tracker stats for the joint report.

    Returns a :class:`CategoryBounds`.  The parallel sweep, with
    identical bounds and cuts, is
    :func:`repro.batch.measure_by_category_jobs`.
    """
    per_category = {}
    reports = {}
    for category in sorted(category_edges):
        value, cut = _solve_with_categories(graph, category_edges,
                                            [category])
        per_category[category] = value
        reports[category] = cut
    joint = measure_graph(graph, collapse=collapse, stats=stats)
    return CategoryBounds(per_category, joint.bits,
                          {"joint": joint, **reports})
