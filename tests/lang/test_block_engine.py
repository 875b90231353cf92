"""Differential tests: the fast backend's block engine against the interpreter.

Under ``backend="fast"`` the VM runs compiled basic blocks
(:mod:`repro.lang.blocks`); under ``backend="reference"`` it runs the
step-exact interpreter alone.  These tests run the same programs both
ways and require the same observable run: steps, outputs, warnings,
raised errors and the raw flow graph, including where a budget, a
deadline poll or a raising instruction falls inside a block.
"""

import random

import pytest

from repro.core.tracker import TraceBuilder
from repro.errors import VMError
from repro.graph.serialize import graph_digest
from repro.lang import compile_cached, compile_source
from repro.lang.blocks import block_spans
from repro.lang.bytecode import Op
from repro.lang.vm import VM

from .test_soundness_fuzz import ProgramGenerator
from .test_vm_dispatch import APP_CASES, FlipNthBranch

FUZZ_SEEDS = range(40)
FUZZ_SECRETS = (b"\x00", b"\x5a", b"\xff")

#: How many consecutive budgets the sweeps try: enough loop iterations
#: that the budget falls at every offset of every loop block.
SWEEP = 200


def run_once(source, secret, public, backend, **kwargs):
    """One run on a fresh VM: everything a backend must agree on."""
    tracker = TraceBuilder()
    vm = VM(compile_cached(source), tracker, secret_input=secret,
            public_input=public, backend=backend, **kwargs)
    error = None
    try:
        vm.run(finish=False)
    except VMError as exc:
        error = (type(exc).__name__, str(exc))
    # The raw graph as the trace left it: an aborted run may leave an
    # enclosure region open, which ``finish`` refuses.
    return {"steps": vm.steps, "outputs": list(vm.outputs),
            "output_bytes": bytes(vm.output_bytes),
            "warnings": list(vm.warnings), "error": error,
            "graph": graph_digest(tracker.graph), "stats": tracker.stats}


def assert_same(source, secret, public=b"", **kwargs):
    reference = run_once(source, secret, public, "reference", **kwargs)
    fast = run_once(source, secret, public, "fast", **kwargs)
    assert fast == reference
    return reference


def sweep_window(source, secret, public):
    """``SWEEP`` budgets from a fifth into the run (fewer if it is short)."""
    total = run_once(source, secret, public, "reference")["steps"]
    first = max(1, total // 5)
    return first, min(first + SWEEP, total)


def fuzz_source(seed):
    return ProgramGenerator(random.Random(7000 + seed)).program()


@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_apps_agree(name):
    source, secret, public = APP_CASES[name]
    assert assert_same(source, secret, public)["error"] is None


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_programs_agree(seed):
    source = fuzz_source(seed)
    for secret in FUZZ_SECRETS:
        assert_same(source, secret)


# count_punct_text: 1617 steps, a loop iteration of 15-25 steps in five
# blocks; scheduler and tinystack also cross CALL/RET frame switches.
@pytest.mark.parametrize("name", ["count_punct_text", "checksum",
                                  "scheduler", "tinystack"])
def test_budget_at_every_offset(name):
    source, secret, public = APP_CASES[name]
    first, last = sweep_window(source, secret, public)
    for max_steps in range(first, last):
        result = assert_same(source, secret, public, max_steps=max_steps)
        assert result["steps"] == max_steps + 1
        assert result["error"] == (
            "VMError", "execution budget exceeded (%d steps)" % max_steps)


def test_budget_around_a_deadline_poll():
    """Budgets just before, at and after the first deadline poll."""
    source, secret, public = APP_CASES["count_punct_text"]
    for max_steps in range(1000, 1060):
        result = assert_same(source, secret, public, max_steps=max_steps,
                             deadline_seconds=60.0)
        assert result["steps"] == max_steps + 1


def test_budget_sweep_covers_every_block_offset():
    """The count_punct_text sweep stops inside every loop block, at
    every offset: step the interpreter through the sweep's budgets and
    record where the instruction that would cross each one sits."""
    source, secret, public = APP_CASES["count_punct_text"]
    program = compile_source(source)
    function = program.functions["count_punct"]
    spans = dict(block_spans(function.code))
    vm = VM(program, TraceBuilder(), secret_input=secret,
            public_input=public, backend="reference")
    vm._check_at = vm.max_steps + 1
    vm._push_frame(program.functions["main"])
    first, last = sweep_window(source, secret, public)
    vm._interpret(limit=first)
    seen = set()
    for _ in range(first, last):
        frame = vm._frames[-1]
        if frame.function is function:
            start = max(s for s in spans if s <= frame.pc)
            if frame.pc < spans[start]:
                seen.add((start, frame.pc - start))
        vm._interpret(limit=vm.steps + 1)
    # The while loop is pcs 11-40: its test, both if arms, the step.
    loop = [(s, e) for s, e in spans.items() if 11 <= s < 41]
    assert len(loop) == 6
    for start, end in loop:
        assert {(start, k) for k in range(end - start)} <= seen


DIV_TEMPLATE = """
fn same(v: u8): u8 { return v; }
fn main() {
    var x: u8 = secret_u8();
    var y: u8 = 0;
    var z: u8 = x;
    %s
    output(z);
}
"""

OOB_TEMPLATE = """
fn shifted(v: u8): u32 { return u32(v) + 4; }
fn main() {
    var tab: u8[4];
    var x: u8 = secret_u8();
    var y: u8 = 0;
    var z: u8 = x;
    %s
    output(z);
}
"""

#: Statements that end in a division by zero / an index out of bounds,
#: at different offsets in their block (the first at offset 0: the
#: operand comes back from a call, so the faulting op starts a block).
DIV_FAULTS = ["z = 250 / same(y);"] + [
    "z = z ^ x; " * k + "z = x; " * j + "z = 250 / y;"
    for k in range(3) for j in range(2)]
OOB_FAULTS = ["z = tab[shifted(y)];"] + [
    "z = z ^ x; " * k + "z = x; " * j + "z = tab[u32(y) + 4];"
    for k in range(3) for j in range(2)]


def fault_offset(source, op):
    """Offset, within its block, of ``main``'s last ``op`` instruction."""
    code = compile_source(source).functions["main"].code
    pc = max(pc for pc, instr in enumerate(code) if instr.op == op)
    for start, end in block_spans(code):
        if start <= pc < end:
            return pc - start
    raise AssertionError("faulting instruction is in no block")


@pytest.mark.parametrize("template, faults, op, message", [
    (DIV_TEMPLATE, DIV_FAULTS, Op.BINOP, "division by zero"),
    (OOB_TEMPLATE, OOB_FAULTS, Op.ALOAD, "array index 4 out of bounds"),
], ids=["div", "oob"])
def test_raising_instruction_at_every_offset(template, faults, op, message):
    offsets = set()
    for statement in faults:
        source = template % statement
        offsets.add(fault_offset(source, op))
        result = assert_same(source, b"\x07")
        assert result["error"][0] == "VMError"
        assert message in result["error"][1]
    assert 0 in offsets and len(offsets) == len(faults), offsets


def test_raising_step_count_is_exact():
    """Straight-line code: steps == instructions before the fault."""
    for statement in DIV_FAULTS[1:]:
        source = DIV_TEMPLATE % statement
        code = compile_source(source).functions["main"].code
        div_pc = max(pc for pc, instr in enumerate(code)
                     if instr.op == Op.BINOP)
        for backend in ("reference", "fast"):
            assert run_once(source, b"\x07", b"", backend)["steps"] == div_pc


# A block reads a public, in-bounds ALOAD itself; a secret index, an
# index out of bounds and a live lazy descriptor take VM._array_load.

SECRET_INDEX = """
fn main() {
    var tab: u8[8];
    var k: u32 = 0;
    while (k < 8) { tab[k] = u8(k * 3); k = k + 1; }
    var x: u8 = secret_u8();
    var z: u8 = 0;
    k = 0;
    while (k < 4) { z = z ^ tab[(u32(x) + k) & 7]; k = k + 1; }
    output(z);
}
"""

LOOP_PAST_END = """
fn main() {
    var tab: u8[4];
    var x: u8 = secret_u8();
    var z: u8 = x;
    var k: u32 = 0;
    while (k < 6) { z = z ^ tab[k]; k = k + 1; }
    output(z);
}
"""

LOAD_UNDER_DESCRIPTOR = """
fn main() {
    var arr: u8[32];
    var s: u8 = secret_u8();
    enclose (arr[..]) {
        arr[u32(s) % 32] = 7;
    }
    var z: u8 = 0;
    var k: u32 = 0;
    while (k < 32) { z = z ^ arr[k] ^ arr[k]; k = k + 1; }
    output(z);
}
"""


class IndexCounting(TraceBuilder):
    def __init__(self):
        super().__init__()
        self.indexed_calls = 0

    def indexed(self, location, index):
        self.indexed_calls += 1
        super().indexed(location, index)


class TestLoadFallbacks:
    def test_secret_index_is_reported(self):
        assert_same(SECRET_INDEX, b"\x05")
        calls = []
        for backend in ("reference", "fast"):
            tracker = IndexCounting()
            VM(compile_cached(SECRET_INDEX), tracker, secret_input=b"\x05",
               backend=backend).run()
            calls.append(tracker.indexed_calls)
        assert calls == [4, 4]

    def test_index_past_the_end(self):
        result = assert_same(LOOP_PAST_END, b"\x07")
        assert result["error"][0] == "VMError"
        assert "array index 4 out of bounds (len 4)" in result["error"][1]

    def test_live_descriptor_materializes_each_element_once(self,
                                                            monkeypatch):
        applied = {}
        real = VM._apply_region_to_element

        def counting(vm, array, i, *args):
            applied.setdefault(vm.backend, []).append(i)
            return real(vm, array, i, *args)

        monkeypatch.setattr(VM, "_apply_region_to_element", counting)
        assert_same(LOAD_UNDER_DESCRIPTOR, b"\x09")
        assert sorted(applied["fast"]) == list(range(32))
        assert applied["fast"] == applied["reference"]


class TestWhereBlocksRun:
    def test_blocks_are_cached_on_the_function(self):
        source, secret, public = APP_CASES["count_punct_paper"]
        program = compile_source(source)
        assert all(f.blocks is None for f in program.functions.values())
        VM(program, TraceBuilder(), secret_input=secret,
           backend="fast").run()
        blocks = {name: f.blocks for name, f in program.functions.items()}
        assert all(b is not None for b in blocks.values())
        VM(program, TraceBuilder(), secret_input=secret,
           backend="fast").run()
        assert all(program.functions[name].blocks is b
                   for name, b in blocks.items())

    def test_reference_backend_never_compiles_blocks(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        source, secret, public = APP_CASES["count_punct_paper"]
        program = compile_source(source)
        VM(program, TraceBuilder(), secret_input=secret).run()
        assert all(f.blocks is None for f in program.functions.values())

    def test_interceptor_runs_the_interpreter(self):
        source, secret, public = APP_CASES["count_punct_paper"]
        program = compile_source(source)
        VM(program, TraceBuilder(), secret_input=secret, backend="fast",
           interceptor=FlipNthBranch(flip_at=3)).run()
        assert all(f.blocks is None for f in program.functions.values())

    def test_every_frame_local_instruction_is_in_a_block(self):
        """Only frame switches (and unknown operations) stay outside."""
        outside = {Op.CALL, Op.CALLB, Op.RET, Op.ENTER, Op.LEAVE, Op.HALT,
                   Op.DECLARR}
        for source, _secret, _public in APP_CASES.values():
            for function in compile_source(source).functions.values():
                covered = set()
                for start, end in block_spans(function.code):
                    covered.update(range(start, end))
                for pc, instr in enumerate(function.code):
                    assert (pc in covered) == (instr.op not in outside)
