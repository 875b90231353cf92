"""Parallel batch measurement (process-pool fan-out).

The measurement workloads of Sections 3.2, 8, and 10.1 are
embarrassingly parallel between executions; this package fans them out
across worker processes while guaranteeing results bit-identical to the
serial pipeline.  See :mod:`repro.batch.engine` for the execution model
and :mod:`repro.batch.runs` for the frontends; the higher-level entry
points are ``measure_runs(..., jobs=N)``, ``combine_runs(...,
jobs=N)``, ``measure_by_category(..., jobs=N)``, and the ``repro
batch`` CLI subcommand.

Fault tolerance is configured with a :class:`FaultPolicy` (per-job
timeouts, bounded retries of transient pool failures, and the
``on_error`` raise/collect switch); failed jobs surface as
:class:`JobFailure` records and partial results are explicitly marked.
"""

from __future__ import annotations

from .engine import (ON_ERROR_MODES, PENDING, BatchEngine, FaultPolicy,
                     JobFailure, shutdown_pools)
from .runs import (BATCH_COLLAPSE_MODES, BatchResult, ProgramResult,
                   StoreCombineResult, combine_graphs_jobs,
                   combine_store_jobs, measure_by_category_jobs,
                   measure_program_runs, measure_programs)

__all__ = [
    "BatchEngine", "FaultPolicy", "JobFailure", "ON_ERROR_MODES", "PENDING",
    "shutdown_pools",
    "BATCH_COLLAPSE_MODES", "BatchResult", "ProgramResult",
    "StoreCombineResult", "combine_graphs_jobs", "combine_store_jobs",
    "measure_by_category_jobs", "measure_program_runs",
    "measure_programs",
]
