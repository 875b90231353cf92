"""Tests for the shared exception hierarchy and top-level exports."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import (BatchError, CompileError, GraphError, JobError,
                          JobTimeout, LangError, LexError, ParseError,
                          PolicyViolation, RegionError, ReproError,
                          TraceError, TypeCheckError, VMError, VMTimeout)


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for exc in (GraphError, TraceError, RegionError, PolicyViolation,
                    LangError, LexError, ParseError, TypeCheckError,
                    CompileError, VMError, VMTimeout, BatchError, JobError,
                    JobTimeout):
            assert issubclass(exc, ReproError)

    def test_vm_timeout_is_vm_error(self):
        # Batch workers rely on this: a run past its wall-clock deadline
        # is a deterministic program failure, not a transient pool one.
        assert issubclass(VMTimeout, VMError)
        err = VMTimeout("too slow", deadline_seconds=1.5, steps=42)
        assert err.deadline_seconds == 1.5
        assert err.steps == 42

    def test_batch_errors_nest(self):
        assert issubclass(JobError, BatchError)
        assert issubclass(JobTimeout, JobError)
        err = JobTimeout("job 3 timed out", index=3, seconds=2.0)
        assert err.index == 3
        assert err.seconds == 2.0

    def test_lang_errors_under_lang_error(self):
        for exc in (LexError, ParseError, TypeCheckError, CompileError):
            assert issubclass(exc, LangError)

    def test_region_error_is_trace_error(self):
        assert issubclass(RegionError, TraceError)

    def test_lang_error_formats_position(self):
        err = ParseError("unexpected token", 12, 5)
        assert "line 12:5" in str(err)
        assert err.line == 12

    def test_lang_error_without_position(self):
        err = ParseError("oops")
        assert str(err) == "oops"
        assert err.line is None

    def test_policy_violation_fields(self):
        err = PolicyViolation("too much", measured=9, allowed=8,
                              location="f:1")
        assert err.measured == 9
        assert err.allowed == 8
        assert err.location == "f:1"

    def test_vm_error_location_prefix(self):
        err = VMError("boom", location="main+3")
        assert "main+3" in str(err)


LAZY_PACKAGES = ["repro", "repro.core", "repro.graph", "repro.lang",
                 "repro.batch", "repro.obs"]

PARITY_SCRIPT = textwrap.dedent("""
    import importlib, sys
    name = sys.argv[1]
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert export in listed, export
        value = getattr(package, export)
        scope = {}
        exec("from %s import %s as value" % (name, export), scope)
        assert scope["value"] is value, export
    star = {}
    exec("from %s import *" % name, star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(package.__all__)
    try:
        package.no_such_name
    except AttributeError as error:
        assert repr(name) in str(error), error
    else:
        raise AssertionError("an unknown name resolved")
""")


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_namespace_matches_eager_one(self, package):
        # In a fresh interpreter, so each name is resolved on first
        # access rather than found already cached by another test.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", PARITY_SCRIPT, package],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr

    def test_one_stop_imports(self):
        # The advertised workflow types are importable from the root.
        assert repro.TraceBuilder
        assert repro.CheckTracker
        assert repro.CutPolicy
        assert repro.measure_graph

    def test_catching_the_base_class(self):
        from repro.lang import compile_source
        with pytest.raises(ReproError):
            compile_source("fn main() { undeclared = 1; }")
        with pytest.raises(ReproError):
            compile_source("fn main() { @ }")
