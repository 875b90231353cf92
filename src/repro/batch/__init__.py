"""Parallel batch measurement (process-pool fan-out).

The measurement workloads of Sections 3.2, 8, and 10.1 are
embarrassingly parallel between executions; this package fans them out
across worker processes while guaranteeing results bit-identical to the
serial pipeline.  See :mod:`repro.batch.engine` for the execution model
and :mod:`repro.batch.runs` for the frontends: ``measure_program_runs``,
``measure_programs``, ``measure_by_category_jobs`` and
``combine_store_jobs``, the one parallel and corpus §3.2 combine (its
serial one-shot reference is :func:`repro.core.measure_runs`).  The
``repro batch`` and ``repro combine`` CLI subcommands run on them.  The
lower layers (``repro.graph``, ``repro.core``) never import this
package.

Fault tolerance is configured with a :class:`FaultPolicy` (per-job
timeouts, bounded retries of transient pool failures, and the
``on_error`` raise/collect switch); failed jobs surface as
:class:`JobFailure` records and partial results are explicitly marked.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("ON_ERROR_MODES", "PENDING", "BatchEngine", "FaultPolicy",
                "JobFailure", "shutdown_pools"),
    ".runs": ("BatchResult", "ProgramResult", "StoreCombineResult",
              "combine_store_jobs", "measure_by_category_jobs",
              "measure_program_runs", "measure_programs"),
})

__all__ = [
    "BatchEngine", "FaultPolicy", "JobFailure", "ON_ERROR_MODES", "PENDING",
    "shutdown_pools",
    "BatchResult", "ProgramResult", "StoreCombineResult",
    "combine_store_jobs", "measure_by_category_jobs",
    "measure_program_runs", "measure_programs",
]
