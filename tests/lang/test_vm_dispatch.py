"""Step-exact pins for the FlowLang VM's dispatch loop.

The backend-equivalence suites compare the backends with each other,
but every backend runs the same dispatch loop (``VM._execute``), so a
bug there moves all of them together and those suites stay green.
These tests pin absolute figures instead: step counts, output bytes,
bits, collapsed edge counts and raw-graph digests for every FlowLang
source in :mod:`repro.apps`, plus the loop's frame-switch, region-write,
interception, budget, error and deadline contracts.  The figures are
part of the VM's observable behaviour; a loop change that moves any of
them is a behaviour change, not an optimisation.
"""

import pytest

from repro.apps.countpunct import FLOWLANG_SOURCE as COUNTPUNCT_SOURCE
from repro.apps.countpunct import PAPER_INPUT
from repro.apps.flowlang_sources import (CHECKSUM_SOURCE, GRID_SOURCE,
                                         METRICS_SOURCE)
from repro.apps.interp import INTERPRETER_SOURCE
from repro.apps.interp import PROGRAMS as TINYSTACK_PROGRAMS
from repro.apps.scheduler.flowlang import FLOWLANG_SOURCE as SCHEDULER_SOURCE
from repro.apps.scheduler.flowlang import encode_appointments
from repro.core.policy import CutPolicy
from repro.core.tracker import TraceBuilder
from repro.errors import RegionError, VMError, VMTimeout
from repro.graph.serialize import graph_digest
from repro.lang import compile_source, execute, lockstep, measure
from repro.lang.vm import DEADLINE_POLL_STEPS, VM, NullTracker

#: The loop is shared, so each pin must hold on both backends.
BACKENDS = ("reference", "fast")

COUNTPUNCT_TEXT = (b"Is it? Yes. No... maybe? Fine. Why? Because. "
                   b"Go on. Stop? Never. Done.")

#: name -> (source, secret input, public input)
APP_CASES = {
    "count_punct_paper": (COUNTPUNCT_SOURCE, PAPER_INPUT, b""),
    "count_punct_text": (COUNTPUNCT_SOURCE, COUNTPUNCT_TEXT, b""),
    "checksum": (CHECKSUM_SOURCE, bytes(range(0, 240, 6)), b""),
    "metrics": (METRICS_SOURCE, b"Hello mimi World", b""),
    "grid": (GRID_SOURCE, bytes([5, 30]), b""),
    "scheduler": (SCHEDULER_SOURCE,
                  encode_appointments([(600, 660), (900, 1000)]),
                  bytes([2])),
    "tinystack": (INTERPRETER_SOURCE, b"\xab\x17",
                  TINYSTACK_PROGRAMS["mask_low"]),
}

#: name -> (vm.steps, bytes(vm.output_bytes), bits, collapsed edges,
#: SHA-256 of the uncollapsed graph's flowgraph-v1 text)
APP_PINS = {
    "checksum": (
        1531, b"\x12" + bytes(8), 32, 27,
        "32a5d3c348a0d4588e98f2c41a059b723e825c796dff2b35effc01828b2b2fef"),
    "count_punct_paper": (
        389, b"." * 8, 9, 28,
        "f1eb7f163bfac8c0c591f913af5d00580b8e6638374713e3c1acaaf5e11b3424"),
    "count_punct_text": (
        1617, b"." * 9, 9, 28,
        "276904e412d9f39ebff95e17069a692b148b0e4d0207a89bb5d18bdd26f83a3d"),
    "grid": (
        101, b"\x01\x01\x01\x00", 16, 34,
        "dc74311354084dc31ab6a56ea444950283f87f4abf17d0ffefa4cbf250f217bc"),
    "metrics": (
        662, b"p\x0e", 21, 26,
        "906d5391c3db3f80bec18eaa3bd4dae88c1f96e4677fa5402b91660c9d247fc8"),
    "scheduler": (
        1059, bytes([0, 0, 1, 1] + [0] * 8 + [1, 1, 1, 1, 0, 0]), 18, 55,
        "8cc7bcb9e0439283bf763b5c8e62e03a06c0cadc082225442e8fa7f655f27572"),
    "tinystack": (
        189, b"\x0b", 4, 8,
        "6f49615c1bc3114deb88640fadfef94239bcca110088a9c82e58e058f15cf3a7"),
}

#: fib(10) through 177 CALL/RET pairs: (vm.steps, vm.outputs)
FIB_PIN = (1776, [55])

_UNDECLARED = ("region at <source>:7(main+8:enclose) wrote undeclared "
               "location ('local', 1, %d)")

#: (vm.steps, vm.outputs, vm.warnings): ``c`` (slot 2) and ``i`` (slot 3)
#: are written in the region but not declared as its outputs.
REGION_PIN = (74, [6], [_UNDECLARED % slot for slot in (2, 3, 2, 3, 3)])

#: (vm.steps, bytes(vm.output_bytes), the branch values seen by the
#: interceptor, the outputs it saw) with the fourth branch inverted.
INTERCEPT_PIN = (
    379, b"." * 7,
    [1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1,
     1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0],
    [46] * 7)

#: DIV_SOURCE on a zero secret: the division is step DIV_STEP.
DIV_STEP = 11
DIV_ERROR = "<source>:5(main+10): division by zero"
DIV_OK_STEPS = 13

#: (ok, bits forwarded, real outputs) of the Section 6.3 check.
LOCKSTEP_PIN = (True, 9, b"." * 8)

FIB_SOURCE = """
fn fib(n: u32): u32 {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

fn main() {
    var n: u8 = secret_u8();
    output(u8(fib(u32(n & 0x0F))));
}
"""

#: STOREs inside an enclosure region: ``b`` is declared, ``c`` is not.
REGION_SOURCE = """
fn main() {
    var a: u8 = secret_u8();
    var b: u8 = 0;
    var c: u8 = 0;
    var i: u8 = 0;
    enclose (b) {
        while (i < 3) {
            if (a > i) { b = b + 1; c = c + 2; }
            i = i + 1;
        }
    }
    output(b + c);
}
"""

DIV_SOURCE = """
fn main() {
    var x: u8 = secret_u8();
    var y: u8 = x + 1;
    output(250 / (y - 1));
}
"""

#: The CLI smoke program of ``.github/workflows/ci.yml``, which runs it
#: with ``--max-steps SMOKE_STEPS``.
SMOKE_SOURCE = "fn main() { output(secret_u8() & 0x0F); }"
SMOKE_STEPS = 5

LOOP_SOURCE = "fn main() { var i: u32 = 0; while (true) { i = i + 1; } }"


def run_vm(source, secret=b"", public=b"", backend="reference",
           tracker=None, **kwargs):
    """Run ``source`` on a fresh VM; returns the VM (raises through)."""
    vm = VM(compile_source(source),
            tracker if tracker is not None else TraceBuilder(),
            secret_input=secret, public_input=public, backend=backend,
            **kwargs)
    vm.run()
    return vm


def app_figures(name, backend):
    source, secret, public = APP_CASES[name]
    result = measure(source, secret_input=secret, public_input=public,
                     backend=backend)
    _vm, graph = execute(compile_source(source), secret, public,
                         TraceBuilder(), backend=backend)
    return (result.vm.steps, result.output_bytes, result.bits,
            result.report.collapse_stats.collapsed_edges,
            graph_digest(graph))


class FlipNthBranch:
    """Lockstep interceptor cutting at every branch; inverts one."""

    def __init__(self, flip_at):
        self.flip_at = flip_at
        self.calls = []
        self.outputs = []

    def at_cut(self, kind, location):
        return kind == "implicit"

    def intercept(self, kind, location, value, width):
        self.calls.append(value)
        if len(self.calls) - 1 == self.flip_at:
            return 1 - value
        return value

    def output(self, value):
        self.outputs.append(value)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_app_figures_pinned(name, backend):
    assert app_figures(name, backend) == APP_PINS[name]


@pytest.mark.parametrize("backend", BACKENDS)
class TestLoopPaths:
    def test_recursion_switches_frames(self, backend):
        vm = run_vm(FIB_SOURCE, b"\x0a", backend=backend)
        assert (vm.steps, vm.outputs) == FIB_PIN
        assert vm._frames == []

    def test_region_stores_are_noted(self, backend):
        vm = run_vm(REGION_SOURCE, b"\x02", backend=backend)
        assert (vm.steps, vm.outputs, vm.warnings) == REGION_PIN
        with pytest.raises(RegionError):
            run_vm(REGION_SOURCE, b"\x02", backend=backend,
                   region_check="strict")

    def test_intercepted_branches(self, backend):
        interceptor = FlipNthBranch(flip_at=3)
        vm = run_vm(COUNTPUNCT_SOURCE, PAPER_INPUT, backend=backend,
                    tracker=NullTracker(), region_check="off",
                    lazy_regions=False, interceptor=interceptor)
        assert (vm.steps, bytes(vm.output_bytes), interceptor.calls,
                interceptor.outputs) == INTERCEPT_PIN

    # count_punct_text runs past one deadline poll (1617 steps).
    @pytest.mark.parametrize("deadline", [None, 60.0])
    @pytest.mark.parametrize("name", ["count_punct_paper",
                                      "count_punct_text"])
    def test_budget_boundary(self, backend, name, deadline):
        steps = APP_PINS[name][0]
        source, secret, _public = APP_CASES[name]
        assert run_vm(source, secret, backend=backend, max_steps=steps,
                      deadline_seconds=deadline).steps == steps
        vm = VM(compile_source(source), TraceBuilder(), secret_input=secret,
                backend=backend, max_steps=steps - 1,
                deadline_seconds=deadline)
        with pytest.raises(VMError) as err:
            vm.run()
        assert type(err.value) is VMError
        assert "(%d steps)" % (steps - 1) in str(err.value)
        assert vm.steps == steps

    def test_ci_smoke_program_budget(self, backend):
        vm = run_vm(SMOKE_SOURCE, b"\xff", backend=backend,
                    max_steps=SMOKE_STEPS)
        assert (vm.steps, vm.outputs) == (SMOKE_STEPS, [0x0F])
        with pytest.raises(VMError):
            run_vm(SMOKE_SOURCE, b"\xff", backend=backend,
                   max_steps=SMOKE_STEPS - 1)

    def test_raising_step_is_not_counted(self, backend):
        vm = VM(compile_source(DIV_SOURCE), TraceBuilder(),
                secret_input=b"\x00", backend=backend)
        with pytest.raises(VMError) as err:
            vm.run()
        assert str(err.value) == DIV_ERROR
        # The division is step k; it raised, so k - 1 steps completed.
        assert vm.steps == DIV_STEP - 1
        assert run_vm(DIV_SOURCE, b"\x05", backend=backend).steps \
            == DIV_OK_STEPS

    def test_deadline_polls_on_step_multiples(self, backend):
        vm = VM(compile_source(LOOP_SOURCE), TraceBuilder(),
                backend=backend, deadline_seconds=0.05)
        with pytest.raises(VMTimeout) as err:
            vm.run()
        assert err.value.steps > 0
        assert err.value.steps % DEADLINE_POLL_STEPS == 0
        assert vm.steps == err.value.steps
        assert err.value.deadline_seconds == 0.05


def test_lockstep_countpunct_pinned():
    report = measure(COUNTPUNCT_SOURCE, secret_input=PAPER_INPUT).report
    result = lockstep(COUNTPUNCT_SOURCE, CutPolicy.from_report(report),
                      real_secret=PAPER_INPUT,
                      dummy_secret=b"?.?.?.?.?.?.")
    assert (result.ok, result.bits_forwarded,
            bytes(result.real_outputs)) == LOCKSTEP_PIN
