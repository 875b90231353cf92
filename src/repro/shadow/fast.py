"""The fast shadow-propagation backend and the backend registry.

The measurement pipeline has two interchangeable implementations of
its hot kernels, selected by name:

* ``"reference"`` -- the straightforward per-value / per-bit code the
  rest of this package documents.  It exists to be read against the
  paper and to serve as the oracle in equivalence tests.
* ``"fast"`` -- specialised dispatch paths installed by the frontends
  (:class:`repro.pytrace.session.Session`, :class:`repro.lang.vm.VM`),
  the bulk tracker entry point
  (:meth:`repro.core.tracker.TraceBuilder.secret_values`), and the
  collapsing tracker's repeat-event cache.  It is the production path.

The contract between them is *bit identity*: for any program and input,
both backends must produce the same trace-event stream and therefore
the same flow graph, capacities, min-cut value, and
:class:`~repro.core.report.FlowReport` bounds.  ``docs/backends.md``
spells the contract out; ``tests/shadow/test_backend_equivalence.py``
enforces it on randomized programs.

``"auto"`` resolves to ``"fast"``.  The ``REPRO_BACKEND`` environment
variable overrides the *auto* choice (useful for running a whole suite
on the reference oracle); an explicit ``backend=`` argument always wins
over the environment.
"""

from __future__ import annotations

import os

#: Recognised backend names, in preference order for documentation.
BACKENDS = ("reference", "fast")

#: Environment variable consulted when a caller asks for ``"auto"``.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend=None):
    """Resolve a backend selector to a concrete backend name.

    ``None`` and ``"auto"`` consult :data:`ENV_VAR` and then default to
    ``"fast"``; explicit names pass through.  Raises ``ValueError`` for
    anything outside :data:`BACKENDS`, from an argument or from the
    environment alike.
    """
    if backend is None or backend == "auto":
        backend = os.environ.get(ENV_VAR, "").strip().lower() or "auto"
        if backend == "auto":
            backend = "fast"
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s, or "
                         "'auto')" % (backend, "/".join(BACKENDS)))
    return backend
