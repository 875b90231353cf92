"""Tests for FlowLang execution semantics (concrete behaviour).

These check the VM as a language implementation -- arithmetic,
signedness, control flow, arrays, functions -- independent of the flow
analysis, by running programs on public data and checking outputs.
"""

import pytest

from repro.batch import runs as batch_runs
from repro.core.tracker import TraceBuilder
from repro.errors import VMError
from repro.lang import compile_source, measure
from repro.lang.vm import VM


def run(source, secret=b"", public=b""):
    """Run a program; return its concrete output list."""
    return measure(source, secret_input=secret, public_input=public).outputs


def run_main(body, secret=b"", public=b""):
    return run("fn main() { %s }" % body, secret, public)


class TestArithmetic:
    def test_basic_ops(self):
        assert run_main("output(2 + 3); output(7 - 2); output(6 * 7);"
                        "output(17 / 5); output(17 % 5);") == [5, 5, 42, 3, 2]

    def test_unsigned_wrapping(self):
        assert run_main("var a: u8 = 250; a = a + 10; output(a);") == [4]
        assert run_main("var a: u8 = 3; a = a - 5; output(a);") == [254]

    def test_u32_wrapping(self):
        assert run_main("var a: u32 = 0xFFFFFFFF; a = a + 2;"
                        "output(a);") == [1]

    def test_signed_arithmetic(self):
        assert run_main("var a: i32 = 0 - 7; var b: i32 = 2;"
                        "output(u32(a / b)); output(u32(a % b));") == [
            (-3) & 0xFFFFFFFF, (-1) & 0xFFFFFFFF]

    def test_signed_comparisons(self):
        assert run_main("var a: i8 = 0 - 1; var b: i8 = 1;"
                        "if (a < b) { output(1); } else { output(0); }"
                        ) == [1]

    def test_unsigned_comparisons(self):
        # 0xFF as u8 is 255, not -1.
        assert run_main("var a: u8 = 0xFF; var b: u8 = 1;"
                        "if (a < b) { output(1); } else { output(0); }"
                        ) == [0]

    def test_bitwise(self):
        assert run_main("output(0xF0 & 0x3C); output(0xF0 | 0x0F);"
                        "output(0xFF ^ 0x0F);") == [0x30, 0xFF, 0xF0]

    def test_shifts(self):
        assert run_main("var a: u8 = 0x81; output(a << u32(1));"
                        "output(a >> u32(4));") == [0x02, 0x08]

    def test_arithmetic_shift_signed(self):
        assert run_main("var a: i8 = 0 - 8; var b: i8 = a >> u32(1);"
                        "output(u8(b));") == [0xFC]

    def test_unary(self):
        assert run_main("var a: u8 = 1; output(-a); output(~a);") == [
            0xFF, 0xFE]

    def test_logical_not(self):
        assert run_main("var t: bool = true;"
                        "if (!t) { output(1); } else { output(0); }") == [0]

    def test_division_by_zero_traps(self):
        with pytest.raises(VMError):
            run_main("var a: u8 = 1; var b: u8 = 0; output(a / b);")

    def test_strict_logic_ops(self):
        # && evaluates both sides (no short-circuit): dividing by zero on
        # the right traps even when the left is false.
        with pytest.raises(VMError):
            run_main("var z: u8 = 0;"
                     "if (1 == 2 && 1 / z == 0) { output(1); }")

    def test_cast_sign_extension(self):
        assert run_main("var a: i8 = 0 - 1; output(u32(a));") == [0xFFFFFFFF]

    def test_cast_zero_extension(self):
        assert run_main("var a: u8 = 0xFF; output(u32(a));") == [0xFF]

    def test_cast_truncation(self):
        assert run_main("var a: u32 = 0x1234; output(u8(a));") == [0x34]


class TestControlFlow:
    def test_if_else(self):
        assert run_main("if (1 < 2) { output(1); } else { output(2); }"
                        ) == [1]

    def test_while_loop(self):
        assert run_main("var i: u32 = 0; var s: u32 = 0;"
                        "while (i < 5) { s = s + i; i = i + 1; }"
                        "output(s);") == [10]

    def test_for_loop(self):
        assert run_main("var s: u32 = 0;"
                        "for (var i: u32 = 1; i <= 4; i = i + 1)"
                        "{ s = s * 10 + i; } output(s);") == [1234]

    def test_break(self):
        assert run_main("var i: u32 = 0;"
                        "while (true) { if (i == 3) { break; }"
                        " i = i + 1; } output(i);") == [3]

    def test_continue(self):
        assert run_main("var s: u32 = 0;"
                        "for (var i: u32 = 0; i < 6; i = i + 1) {"
                        " if (i % 2 == 0) { continue; } s = s + i; }"
                        "output(s);") == [9]

    def test_nested_loops(self):
        assert run_main("var c: u32 = 0;"
                        "for (var i: u32 = 0; i < 3; i = i + 1) {"
                        " for (var j: u32 = 0; j < 4; j = j + 1) {"
                        "  c = c + 1; } } output(c);") == [12]

    def test_infinite_loop_budget(self):
        source = "fn main() { while (true) { } }"
        compiled = compile_source(source)
        with pytest.raises(VMError) as err:
            measure(compiled, max_steps=10_000)
        assert "budget" in str(err.value)


BAD_BUDGETS = [{"max_steps": 0}, {"max_steps": -3},
               {"deadline_seconds": 0}, {"deadline_seconds": -1.5},
               {"deadline_seconds": float("nan")}]


class TestBudgetValidation:
    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_vm_rejects_non_positive_budget(self, budget):
        compiled = compile_source("fn main() { output(1); }")
        with pytest.raises(ValueError) as err:
            VM(compiled, TraceBuilder(), **budget)
        assert next(iter(budget)) in str(err.value)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_measure_rejects_before_compiling(self, budget):
        # Not even valid FlowLang: the budget is checked first.
        with pytest.raises(ValueError):
            measure("not a program", **budget)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_batch_frontends_reject_before_any_pool(self, budget,
                                                    monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(batch_runs, "BatchEngine", no_pool)
        with pytest.raises(ValueError):
            batch_runs.measure_program_runs("fn main() { }", [b"a", b"b"],
                                            jobs=2, **budget)
        with pytest.raises(ValueError):
            batch_runs.measure_programs([("p", "fn main() { }", b"a")],
                                        jobs=2, **budget)

    def test_smallest_budgets_are_accepted(self):
        result = measure("fn main() { }", max_steps=1,
                         deadline_seconds=1e-9)
        assert result.vm.steps == 1


class TestFunctions:
    def test_call_and_return(self):
        assert run("fn sq(x: u32): u32 { return x * x; }"
                   "fn main() { output(sq(9)); }") == [81]

    def test_recursion(self):
        assert run("fn fib(n: u32): u32 {"
                   " if (n < 2) { return n; }"
                   " return fib(n - 1) + fib(n - 2); }"
                   "fn main() { output(fib(10)); }") == [55]

    def test_fallthrough_returns_zero(self):
        assert run("fn f(): u32 { }"
                   "fn main() { output(f()); }") == [0]

    def test_array_passed_by_reference(self):
        assert run("fn fill(a: u8[]) { a[0] = 7; }"
                   "fn main() { var b: u8[2]; fill(b); output(b[0]); }"
                   ) == [7]

    def test_multiple_args_order(self):
        assert run("fn sub(a: u32, b: u32): u32 { return a - b; }"
                   "fn main() { output(sub(10, 4)); }") == [6]

    def test_globals_shared(self):
        assert run("var g: u32 = 5;"
                   "fn bump() { g = g + 1; }"
                   "fn main() { bump(); bump(); output(g); }") == [7]


class TestArrays:
    def test_element_roundtrip(self):
        assert run_main("var a: u32[4]; a[2] = 99; output(a[2]);") == [99]

    def test_zero_initialized(self):
        assert run_main("var a: u8[3]; output(a[1]);") == [0]

    def test_string_initializer(self):
        assert run_main('var s: u8[] = "AB"; output(s[0]); output(s[1]);'
                        ) == [65, 66]

    def test_len(self):
        assert run_main("var a: u8[7]; output(len(a));") == [7]

    def test_len_through_param(self):
        assert run("fn f(a: u8[]): u32 { return len(a); }"
                   "fn main() { var b: u8[9]; output(f(b)); }") == [9]

    def test_bounds_checked(self):
        with pytest.raises(VMError) as err:
            run_main("var a: u8[3]; output(a[5]);")
        assert "out of bounds" in str(err.value)

    def test_global_arrays(self):
        assert run('var tab: u8[] = "xyz";'
                   "fn main() { output(tab[2]); }") == [122]


class TestInputOutput:
    def test_read_secret_returns_count(self):
        assert run_main("var b: u8[8]; output(read_secret(b, 8));"
                        "output(b[0]);", secret=b"\x42\x43") == [2, 0x42]

    def test_read_public(self):
        assert run_main("var b: u8[8]; var n: u32 = read_public(b, 8);"
                        "output(b[1]);", public=b"xy") == [ord("y")]

    def test_scalar_reads_little_endian(self):
        assert run_main("output(secret_u32());",
                        secret=b"\x01\x02\x03\x04") == [0x04030201]

    def test_secret_u8_sequence(self):
        assert run_main("output(secret_u8()); output(secret_u8());",
                        secret=b"\x0A\x0B") == [0x0A, 0x0B]

    def test_output_bytes(self):
        result = measure(
            'fn main() { var s: u8[] = "hi"; output_bytes(s, 2); }')
        assert result.output_bytes == b"hi"

    def test_print_char_stream(self):
        result = measure(
            "fn main() { print_char('o'); print_char('k'); }")
        assert result.output_bytes == b"ok"

    def test_check_builtin(self):
        run_main("check(1 < 2);")
        with pytest.raises(VMError):
            run_main("check(1 > 2);")

    def test_reads_capped_by_input_length(self):
        assert run_main("var b: u8[8]; output(read_secret(b, 8));",
                        secret=b"ab") == [2]
