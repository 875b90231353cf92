"""The paper's primary contribution: flow measurement and checking.

Frontends report execution events to a :class:`TraceBuilder` (measuring
mode) or a :class:`CheckTracker` (deployment checking); the measurement
pipeline collapses the resulting graph, computes a maximum flow and
minimum cut, and reports a sound per-execution bound in bits.
"""

from .locations import ContextHasher, Location
from .tracker import (PUBLIC, CollapsingTraceBuilder, Provenance,
                      RegionExit, TraceBuilder, bits_for_arms)
from .regions import DeclaredOutput, RegionWriteChecker
from .lazyranges import (LazyRangeTable, MAX_DESCRIPTORS, MAX_EXCEPTIONS,
                         MIN_RANGE, RangeDescriptor)
from .measure import (COLLAPSE_MODES, MULTI_RUN_COLLAPSE_MODES,
                      measure_graph, measure_runs)
from .multisecret import CategoryBounds, measure_by_category
from .combine import (IncrementalKraft, StreamingCombiner,
                      code_lengths_for, demonstrate_inconsistency,
                      kraft_satisfied, kraft_sum)
from .report import CutDescription, FlowReport
from .policy import CutPolicy, FlowPolicy
from .checking import CheckResult, CheckTracker, UnexpectedFlow
from .lockstep import (LockstepResult, RecordingInterceptor,
                       ReplayInterceptor, run_lockstep)

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
