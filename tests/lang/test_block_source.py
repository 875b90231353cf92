"""Guard on the Python source generated for FlowLang basic blocks.

The measurement service compiles tenant programs, and the fast backend
turns their bytecode into Python source that is passed to ``compile``.
That source must be built from fixed template text and integers only:
no string literal, and no identifier, constant text or file name taken
from the program.  Everything else a block needs is bound by name in
its namespace (:mod:`repro.lang.blocks`).
"""

import io
import random
import re
import tokenize

import pytest

from repro.lang import compile_source, measure
from repro.lang.blocks import block_source, compile_blocks

from .test_soundness_fuzz import ProgramGenerator
from .test_vm_dispatch import APP_CASES

#: Every name a block's template may spell.
TEMPLATE_NAMES = frozenset([
    # keywords and builtins
    "def", "try", "except", "BaseException", "raise", "return", "if",
    "else", "is", "None", "or", "and", "not", "isinstance",
    # the block's parameters and step index
    "vm", "frame", "stack", "slots", "i",
    # fixed namespace bindings
    "PUBLIC", "VMError", "UNINIT", "LOCAL", "GLOBAL", "ArrayObject",
    # attributes the template reads or calls
    "pop", "append", "steps", "tracker", "operation", "implicit_flow",
    "_array_load", "_array_store", "_note_write", "_declare_local",
    "_regions", "globals", "frame_id", "length", "_unop", "_cast",
    "_deferred", "values", "masks", "provs",
    # the bound-site probe of a secret BINOP or JZ
    "_binder", "_bound", "get", "_active_ctx", "mask", "a", "b", "n",
    "_pend", "_dirty", "prov", "node", "_operation", "_branch",
])

#: Numbered names: block functions (``b``), temporaries (``s t x m p``)
#: and per-instruction bindings (``K L I E T``), each a letter plus a
#: ``%d`` integer.
NUMBERED = re.compile(r"[bstxmpKLIET][0-9]+\Z")

ALLOWED_TOKENS = frozenset([tokenize.NAME, tokenize.NUMBER, tokenize.OP,
                            tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER])

#: A FlowLang program whose identifiers and initialisers read as Python.
HOSTILE_SOURCE = '''
var __builtins__: u8[] = "__import__('os').system('true')";
var exec: u8 = 7;
fn eval(__import__: u8, os: u8[]): u8 {
    var system: u8 = __import__ ^ os[0];
    var getattr: u8[] = "\\"; import os; os._exit(3) #";
    var __class__: u32 = 0;
    while (__class__ < 3) {
        system = system + getattr[__class__] + exec;
        __class__ = __class__ + 1;
    }
    exec = system;
    return system;
}

fn main() {
    var lambda: u8[8];
    var globals_: u32 = read_secret(lambda, 8);
    var compile: u8 = eval(lambda[0], __builtins__);
    output(compile);
}
'''

#: Identifiers from HOSTILE_SOURCE that must never reach generated source.
HOSTILE_NAMES = ["__builtins__", "__import__", "exec", "eval", "os",
                 "system", "getattr", "__class__", "lambda", "globals_",
                 "compile", "main"]


def fuzz_sources(count=30):
    return [ProgramGenerator(random.Random(9000 + seed)).program()
            for seed in range(count)]


def all_sources():
    sources = {"app:" + name: case[0] for name, case in APP_CASES.items()}
    for seed, source in enumerate(fuzz_sources()):
        sources["fuzz:%d" % seed] = source
    sources["hostile"] = HOSTILE_SOURCE
    return sources


def check_source(text):
    """Raise AssertionError unless ``text`` is template text plus ints."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    for token in tokens:
        assert token.type in ALLOWED_TOKENS, token
        if token.type == tokenize.NAME:
            assert (token.string in TEMPLATE_NAMES
                    or NUMBERED.match(token.string)), token
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit(), token
    assert "'" not in text and '"' not in text and "#" not in text


@pytest.mark.parametrize("name, source", sorted(all_sources().items()))
def test_generated_source_is_template_text(name, source):
    for function in compile_source(source).functions.values():
        text = block_source(function)
        check_source(text)
        # What runs is what was checked: every block comes from it.
        for pc, entry in enumerate(compile_blocks(function)):
            if entry is not None:
                assert "def b%d(" % pc in text


def test_hostile_program_identifiers_stay_out():
    program = compile_source(HOSTILE_SOURCE)
    assert set(program.functions) == {"eval", "main"}
    text = "\n".join(block_source(f) for f in program.functions.values())
    names = {token.string for token
             in tokenize.generate_tokens(io.StringIO(text).readline)
             if token.type == tokenize.NAME}
    for name in HOSTILE_NAMES:
        assert name not in names
    # And it runs as FlowLang, the same on both backends.
    runs = [measure(HOSTILE_SOURCE, secret_input=b"\x01" * 8,
                    backend=backend) for backend in ("reference", "fast")]
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].bits == runs[1].bits


def test_checker_rejects_quotes_and_foreign_names():
    """The guard itself bites."""
    for bad in ("x = 'a'\n", "x = os\n", "x = 1.5\n", "x = 0x1F\n",
                "x = 1  # note\n"):
        with pytest.raises(AssertionError):
            check_source(bad)
