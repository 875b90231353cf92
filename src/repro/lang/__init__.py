"""FlowLang: the C-like analysis substrate (Section 4 stand-in).

The paper's tool instruments x86 binaries under Valgrind; this package
provides the equivalent controllable substrate: a small C-like language
with a lexer, parser, type checker, bytecode compiler, and a virtual
machine that reports every analysis-relevant event (operations,
branches, indexed accesses, I/O, enclosure annotations) to the
measurement core.

Language cheat sheet::

    var g: u32 = 0;                       // globals (literal init)

    fn weigh(buf: u8[], n: u32): u32 {    // typed functions
        var total: u32 = 0;
        var i: u32 = 0;
        enclose (total) {                 // ENTER/LEAVE_ENCLOSE
            while (i < n) {
                if (buf[i] > 128) { total = total + 1; }
                i = i + 1;
            }
        }
        return total;
    }

    fn main() {
        var buf: u8[64];
        var n: u32 = read_secret(buf, 64);  // secret input bytes
        output(weigh(buf, n));              // public output
    }

Types: ``u8 u16 u32 i8 i16 i32 bool``, fixed-size arrays.  ``&&``/``||``
are strict (both operands evaluate), so every implicit flow appears as
an explicit ``if``/``while`` branch.  Casts are written ``u16(x)``.
Builtins: ``read_secret``, ``read_public``, ``secret_u8/16/32``,
``input_u8/u32``, ``output``, ``output_bytes``, ``print_char``,
``declassify``, ``check``, ``len``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".lexer": ("Lexer", "tokenize"),
    ".parser": ("Parser", "parse"),
    ".checker": ("Checker", "check_program"),
    ".compiler": ("compile_program",),
    ".vm": ("VM", "NullTracker"),
    ".runner": ("RunResult", "check", "compile_cached", "compile_source",
                "execute", "lockstep", "measure", "measure_live",
                "measure_many"),
})

__all__ = [
    "Lexer", "tokenize", "Parser", "parse", "Checker", "check_program",
    "compile_program", "VM", "NullTracker",
    "RunResult", "check", "compile_cached", "compile_source", "execute",
    "lockstep", "measure", "measure_live", "measure_many",
]
