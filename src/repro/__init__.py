"""Quantitative information flow as network flow capacity.

A from-scratch reproduction of McCamant & Ernst, PLDI 2008: measure how
many bits of a program's secret inputs its public outputs reveal, by
modelling an execution as a capacitated flow network and computing a
maximum flow (the bound) and minimum cut (a checkable policy).

Quick start::

    from repro.pytrace import Session

    session = Session()
    pin = session.secret_int(1234, width=16, name="pin")
    ok = pin == 1234            # comparisons stay tracked
    if ok:                      # branching on a secret records 1 bit
        session.output_str("welcome")
    else:
        session.output_str("denied")
    report = session.measure()
    print(report.bits)          # -> 1

The FlowLang frontend (``repro.lang``) runs C-like programs on an
instrumented VM -- the stand-in for the paper's Valgrind-based tool --
and ``repro.apps`` contains re-implementations of the paper's case
studies (battleship, ssh-style auth, image transforms, scheduling,
text drawing, and a block-sorting compressor).
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("core", "CheckTracker", "CutPolicy", "FlowPolicy", "FlowReport",
              "Location", "TraceBuilder", "measure_graph", "measure_runs"),
    ".graph": ("graph",), ".obs": ("obs",), ".shadow": ("shadow",),
    ".errors": ("CompileError", "GraphError", "LangError", "LexError",
                "ParseError", "PolicyViolation", "RegionError", "ReproError",
                "StoreError", "TraceError", "TypeCheckError", "VMError"),
    ".store": ("ShardStore",),
})

__all__ = [
    "core", "graph", "obs", "shadow",
    "CheckTracker", "CutPolicy", "FlowPolicy", "FlowReport", "Location",
    "ShardStore", "TraceBuilder", "measure_graph", "measure_runs",
    "CompileError", "GraphError", "LangError", "LexError", "ParseError",
    "PolicyViolation", "RegionError", "ReproError", "StoreError",
    "TraceError", "TypeCheckError", "VMError",
]
