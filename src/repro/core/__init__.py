"""The paper's primary contribution: flow measurement and checking.

Frontends report execution events to a :class:`TraceBuilder` (measuring
mode) or a :class:`CheckTracker` (deployment checking); the measurement
pipeline collapses the resulting graph, computes a maximum flow and
minimum cut, and reports a sound per-execution bound in bits.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".locations": ("ContextHasher", "Location"),
    ".tracker": ("PUBLIC", "CollapsingTraceBuilder", "Provenance",
                 "RegionExit", "TraceBuilder", "bits_for_arms"),
    ".regions": ("DeclaredOutput", "RegionWriteChecker"),
    ".lazyranges": ("LazyRangeTable", "MAX_DESCRIPTORS", "MAX_EXCEPTIONS",
                    "MIN_RANGE", "RangeDescriptor"),
    ".modes": ("COLLAPSE_MODES", "MULTI_RUN_COLLAPSE_MODES"),
    ".measure": ("measure_graph", "measure_runs"),
    ".multisecret": ("CategoryBounds", "measure_by_category"),
    ".combine": ("IncrementalKraft", "StreamingCombiner", "code_lengths_for",
                 "demonstrate_inconsistency", "kraft_satisfied", "kraft_sum"),
    ".report": ("CutDescription", "FlowReport"),
    ".policy": ("CutPolicy", "FlowPolicy"),
    ".checking": ("CheckResult", "CheckTracker", "UnexpectedFlow"),
    ".lockstep": ("LockstepResult", "RecordingInterceptor",
                  "ReplayInterceptor", "run_lockstep"),
})

__all__ = [
    "ContextHasher", "Location",
    "PUBLIC", "CollapsingTraceBuilder", "Provenance", "RegionExit",
    "TraceBuilder", "bits_for_arms",
    "DeclaredOutput", "RegionWriteChecker",
    "LazyRangeTable", "MAX_DESCRIPTORS", "MAX_EXCEPTIONS", "MIN_RANGE",
    "RangeDescriptor",
    "COLLAPSE_MODES", "MULTI_RUN_COLLAPSE_MODES", "measure_graph",
    "measure_runs",
    "CategoryBounds", "measure_by_category",
    "IncrementalKraft", "StreamingCombiner", "code_lengths_for",
    "demonstrate_inconsistency", "kraft_satisfied", "kraft_sum",
    "CutDescription", "FlowReport",
    "CutPolicy", "FlowPolicy",
    "CheckResult", "CheckTracker", "UnexpectedFlow",
    "LockstepResult", "RecordingInterceptor", "ReplayInterceptor",
    "run_lockstep",
]
