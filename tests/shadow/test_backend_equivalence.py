"""Randomized reference ≡ fast ≡ native backend equivalence.

The backend contract (``docs/backends.md``): ``backend="fast"`` and
``backend="native"`` change only how events are computed, never what
they are.  Bounds, cuts, combined graphs, outputs, and tracker
statistics must be bit-identical to ``backend="reference"``.  These
suites drive randomized workloads (seeded, so failures reproduce)
through every backend on both frontends and compare everything
observable.  Native legs skip when the compiled ``repro._native``
extension is absent; the pure-Python pair always runs.
"""

import io
import os
import random

import pytest

from repro.apps.bzip2 import measure_compression_flow
from repro.apps.pi import workload_of_size
from repro.core.tracker import CollapsingTraceBuilder, TraceBuilder
from repro.graph.serialize import dump_graph
from repro.lang import measure as lang_measure
from repro.lang import measure_many
from repro.pytrace import Session
from repro.shadow import (BACKENDS, detect_backend, native_available,
                          resolve_backend)
from repro.shadow import fast as fast_mod
from repro.shadow.fast import ENV_VAR

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled repro._native extension not built here")


def available_backends():
    return tuple(b for b in BACKENDS
                 if b != "native" or native_available())

MIXED_OPS = """
fn main() {
    var buf: u8[48];
    var n: u32 = read_secret(buf, 48);
    var acc: u32 = 0;
    var prod: u32 = 1;
    var i: u32 = 0;
    while (i < n) {
        var x: u8 = buf[i];
        var wide: u32 = u32(x);
        acc = acc + wide;
        acc = acc ^ (wide << 2);
        prod = (prod * (wide | 1)) & 65535;
        if (x > 127) {
            acc = acc - (wide >> 1);
        }
        if (wide % 7 == 0) {
            output(acc);
        }
        i = i + 1;
    }
    var s: i8 = i8(buf[0]);
    output(u32(s / 3));
    output(u32(s % 3));
    output(acc);
    output(prod);
    output_bytes(buf, 16);
}
"""


def graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def cut_fingerprint(cut):
    entries = []
    for ce in cut.edges:
        if ce.label is None:
            entries.append((None, None, ce.capacity))
        else:
            entries.append((ce.label.kind, str(ce.label.location),
                            ce.capacity))
    return sorted(entries, key=repr)


def random_secret(seed, length=48):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))


class TestRegistry:
    def test_backends_tuple(self):
        assert BACKENDS == ("reference", "fast", "native")

    def test_detect_is_valid(self):
        assert detect_backend() in BACKENDS

    def test_detect_prefers_native_when_available(self):
        expected = "native" if native_available() else "fast"
        assert detect_backend() == expected

    def test_explicit_names_pass_through(self):
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("fast") == "fast"

    @needs_native
    def test_explicit_native_passes_through(self):
        assert resolve_backend("native") == "native"

    def test_explicit_native_unavailable_raises(self, monkeypatch):
        # Simulate a host without the compiled extension: the probe has
        # run and found nothing.  Explicit requests must fail loudly
        # (naming the fallback); "auto" must degrade silently to fast.
        monkeypatch.setattr(fast_mod, "_NATIVE", None)
        monkeypatch.setattr(fast_mod, "_NATIVE_PROBED", True)
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("native")
        message = str(excinfo.value)
        assert "native" in message
        assert "fast" in message
        assert resolve_backend("auto") == "fast"
        assert resolve_backend(None) == "fast"

    def test_env_native_unavailable_raises(self, monkeypatch):
        # REPRO_BACKEND=native is as explicit as backend="native".
        monkeypatch.setattr(fast_mod, "_NATIVE", None)
        monkeypatch.setattr(fast_mod, "_NATIVE_PROBED", True)
        monkeypatch.setenv(ENV_VAR, "native")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_none_and_auto_detect(self):
        old = os.environ.pop(ENV_VAR, None)
        try:
            assert resolve_backend(None) == detect_backend()
            assert resolve_backend("auto") == detect_backend()
        finally:
            if old is not None:
                os.environ[ENV_VAR] = old

    def test_environment_override(self):
        old = os.environ.get(ENV_VAR)
        try:
            os.environ[ENV_VAR] = "reference"
            assert resolve_backend(None) == "reference"
            assert resolve_backend("auto") == "reference"
            # Explicit arguments beat the environment.
            assert resolve_backend("fast") == "fast"
        finally:
            if old is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = old

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("simd")


class TestVMEquivalence:
    @pytest.mark.parametrize("seed,online", [
        (101, False), (102, True), (103, False), (104, True),
    ])
    def test_single_run_bit_identical(self, seed, online):
        secret = random_secret(seed)
        results = {}
        for backend in available_backends():
            run = lang_measure(MIXED_OPS, secret_input=secret,
                               backend=backend, online=online)
            results[backend] = (
                run.bits,
                run.outputs,
                bytes(run.output_bytes),
                graph_text(run.report.graph),
                cut_fingerprint(run.report.mincut),
                run.report.secret_input_bits,
                run.report.tainted_output_bits,
            )
        for backend, observed in results.items():
            assert observed == results["reference"], backend

    def test_multi_run_bit_identical(self):
        secrets = [random_secret(seed, length=24) for seed in (7, 8, 9)]
        results = {}
        for backend in available_backends():
            combined, per_run = measure_many(MIXED_OPS, secrets,
                                             backend=backend)
            results[backend] = (
                combined.bits,
                graph_text(combined.graph),
                cut_fingerprint(combined.mincut),
                [r.bits for r in per_run],
                [r.outputs for r in per_run],
            )
        for backend, observed in results.items():
            assert observed == results["reference"], backend


def drive_session(backend, seed, tracker_mode):
    """A randomized pytrace workload touching every fast-path branch."""
    rng = random.Random(seed)
    secret = bytes(rng.randrange(256) for _ in range(24))
    if tracker_mode == "plain":
        session = Session(backend=backend)
    else:
        session = Session(backend=backend, online_collapse=tracker_mode)
    data = session.secret_bytes(secret, name="key")
    acc = session.widen(0, 32)
    for x in data:
        choice = rng.randrange(6)
        if choice == 0:
            acc = acc + x
        elif choice == 1:
            acc = acc ^ (x * 3)
        elif choice == 2:
            acc = acc + (x % 13)
        elif choice == 3:
            if x > 127:          # secret branch
                acc = acc + 1
        elif choice == 4:
            _ = x == 65          # secret comparison, discarded
        else:
            acc = acc + (x >> 2)
        _ = 5 + 9                # public arithmetic stays public
    session.output(acc)
    report = session.measure()
    return (report.bits, graph_text(report.graph),
            cut_fingerprint(report.mincut), session.outputs,
            dict(session.tracker.stats))


def drive_compressor(backend, size, tracker_mode):
    """The Figure 3 compressor on ``size`` bytes, collapsed online."""
    result = measure_compression_flow(workload_of_size(size), online=True,
                                      backend=backend)
    return (result.flow_bits, graph_text(result.report.graph),
            cut_fingerprint(result.report.mincut))


class TestSessionEquivalence:
    @pytest.mark.parametrize("seed,tracker_mode", [
        (201, "plain"), (202, "plain"),
        (203, "context"), (204, "context"),
        (205, "location"),
        # The largest Figure 3 input: a real program's operation mix.
        (4096, "compressor"),
    ])
    def test_session_bit_identical(self, seed, tracker_mode):
        drive = drive_compressor if tracker_mode == "compressor" \
            else drive_session
        reference = drive("reference", seed, tracker_mode)
        for backend in available_backends():
            if backend == "reference":
                continue
            assert drive(backend, seed, tracker_mode) == reference, backend

    def test_session_records_backend(self):
        assert Session(backend="fast").backend == "fast"
        assert Session(backend="reference").backend == "reference"

    @needs_native
    def test_session_records_native_backend(self):
        assert Session(backend="native").backend == "native"


class TestBulkSecretValues:
    """``secret_values`` must equal ``count`` × ``secret_value``."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_plain_builder_identical(self, count):
        from repro.core.locations import Location
        loc = Location("unit", 3, "secret")

        bulk = TraceBuilder()
        bulk_provs = bulk.secret_values(loc, 8, count)
        loop = TraceBuilder()
        loop_provs = [loop.secret_value(loc, 8) for _ in range(count)]

        assert [p.mask for p in bulk_provs] == [p.mask for p in loop_provs]
        assert graph_text(bulk.finish()) == graph_text(loop.finish())
        assert bulk.stats == loop.stats

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 100])
    def test_collapsing_builder_identical(self, count):
        from repro.core.locations import Location
        loc = Location("unit", 3, "secret")

        bulk = CollapsingTraceBuilder()
        bulk.secret_values(loc, 8, count, category="alice")
        loop = CollapsingTraceBuilder()
        for _ in range(count):
            loop.secret_value(loc, 8, category="alice")

        assert len(bulk.category_edges.get("alice", [])) == \
            len(loop.category_edges.get("alice", []))
        assert bulk.stats == loop.stats
        assert graph_text(bulk.finish()) == graph_text(loop.finish())

    def test_zero_mask_is_public(self):
        from repro.core.locations import Location
        from repro.core.tracker import PUBLIC
        loc = Location("unit", 3, "secret")
        builder = CollapsingTraceBuilder()
        assert builder.secret_values(loc, 8, 4, mask=0) == [PUBLIC] * 4
