"""Collapse-mode names.

Imports nothing, so a command-line parser can offer the modes as
choices without loading the measurement pipeline;
:mod:`repro.core.measure` re-exports both tuples.
"""

#: Collapse modes: ``"none"`` solves the raw per-value graph,
#: ``"context"`` merges edges by (location, calling-context hash),
#: ``"location"`` merges by location only (smallest graph).
COLLAPSE_MODES = ("none", "context", "location")

#: Collapse modes that can combine several runs: merging the runs'
#: graphs needs a merge key, which ``"none"`` does not have.
MULTI_RUN_COLLAPSE_MODES = ("context", "location")
