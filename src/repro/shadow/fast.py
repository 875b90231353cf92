"""The fast shadow-propagation backend and the backend registry.

The measurement pipeline has three interchangeable implementations of
its hot kernels, selected by name:

* ``"reference"`` -- the straightforward per-value / per-bit code the
  rest of this package documents.  It exists to be read against the
  paper and to serve as the oracle in equivalence tests.
* ``"fast"`` -- specialised dispatch paths installed by the frontends
  (:class:`repro.pytrace.session.Session`, :class:`repro.lang.vm.VM`),
  the bulk tracker entry point
  (:meth:`repro.core.tracker.TraceBuilder.secret_values`), and the
  collapsing tracker's repeat-event cache.
* ``"native"`` -- the fast backend with two compiled kernel slots
  filled from the optional extension :mod:`repro._native`: the
  session's fused binary-op evaluate+transfer and Dinic's
  blocking-flow solve.  Available only when the extension was built
  (``setup.py`` marks it ``optional=True``, so a missing C compiler
  never breaks installation); inputs outside the machine-word fast
  path fall back to the pure-Python kernels call by call.

The contract between them is *bit identity*: for any program and input,
all backends must produce the same trace-event stream and therefore
the same flow graph, capacities, min-cut value, and
:class:`~repro.core.report.FlowReport` bounds.  ``docs/backends.md``
spells the contract out; ``tests/shadow/test_backend_equivalence.py``
enforces it on randomized programs.

``"auto"`` resolves to ``"native"`` when the extension imports and to
the always-available pure-Python ``"fast"`` otherwise.  The
``REPRO_BACKEND`` environment variable overrides the *auto* choice
(useful for CI matrix legs); an explicit ``backend=`` argument always
wins over the environment.  Explicitly requesting ``"native"`` where
the extension is missing raises ``ValueError`` (auto never does).
"""

from __future__ import annotations

import os

#: Recognised backend names, in preference order for documentation.
BACKENDS = ("reference", "fast", "native")

#: Environment variable consulted when a caller asks for ``"auto"``.
ENV_VAR = "REPRO_BACKEND"

# The compiled-kernel probe result; filled on first use.  Tests
# monkeypatch ``_NATIVE = None`` / ``_NATIVE_PROBED = True`` to simulate
# a build without the extension.
_NATIVE = None
_NATIVE_PROBED = False


def native_kernels():
    """The compiled kernel module of :mod:`repro._native`, or ``None``.

    ``None`` means the extension is not importable (not built, wrong
    platform, or a stale ABI) and the native backend is unavailable.
    """
    global _NATIVE, _NATIVE_PROBED
    if not _NATIVE_PROBED:
        try:
            from .. import _native
            _NATIVE = _native.load()
        except Exception:
            _NATIVE = None
        _NATIVE_PROBED = True
    return _NATIVE


def native_available():
    """Whether the compiled ``"native"`` backend can be selected."""
    return native_kernels() is not None


def detect_backend():
    """The best backend available in this interpreter.

    Prefers ``"native"`` when the compiled :mod:`repro._native`
    extension imports; otherwise the pure-Python fast path
    (precomputed dispatch tables, bulk tracker calls), which is always
    available.
    """
    return "native" if native_available() else "fast"


def resolve_backend(backend=None):
    """Resolve a backend selector to a concrete backend name.

    ``None`` and ``"auto"`` consult :data:`ENV_VAR` and then
    :func:`detect_backend`; explicit names pass through.  Raises
    ``ValueError`` for anything outside :data:`BACKENDS`, and for an
    explicit ``"native"`` request (argument or environment) when the
    compiled extension is unavailable -- only ``"auto"`` is allowed to
    fall back silently.
    """
    if backend is None or backend == "auto":
        backend = os.environ.get(ENV_VAR, "").strip().lower() or "auto"
        if backend == "auto":
            backend = detect_backend()
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s, or "
                         "'auto')" % (backend, "/".join(BACKENDS)))
    if backend == "native" and not native_available():
        raise ValueError(
            "backend 'native' was requested but the compiled "
            "repro._native extension is not importable here; build it "
            "with a C compiler (`pip install .` or `python setup.py "
            "build_ext --inplace`) or use the pure-Python 'fast' "
            "backend, which 'auto' falls back to automatically")
    return backend
