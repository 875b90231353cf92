"""FlowLang basic blocks compiled to Python: the fast backend's engine.

The paper's tool runs on Valgrind, which translates each basic block of
the guest program into instrumented code once and then runs the
translation.  This module does the same for FlowLang bytecode.  The
first time a function runs under the fast backend,
:func:`compile_blocks` splits it into basic blocks and compiles each
into one generated Python function, cached on the
:class:`~repro.lang.bytecode.Function` (so it lives and dies with the
compiled program).  ``VM._run_blocks`` then runs a whole block per
dispatch; the per-instruction loop ``VM._interpret`` stays the
step-exact semantics and runs everything a block does not.

A block is a maximal run of frame-local instructions.  It starts at a
leader -- pc 0, a jump target, or the instruction after a jump or after
an instruction that gets no block -- and ends at a jump or before the
next leader.  The frame-switching opcodes (CALL, CALLB, RET, ENTER,
LEAVE, HALT, DECLARR) get no block.

What a block keeps of the interpreter's behaviour:

* **Same tracker state at every read.**  Each instruction reports what
  the interpreter reports (``tracker.operation``, a secret branch's
  implicit flow, ``tracker.indexed``, the region-write notes after a
  store), with the same arguments, the same ``VMError`` text and the
  same location.  A secret branch calls ``implicit_flow(L, p, 1)``:
  every tracker's ``branch(L, p)`` is exactly that.  Under a fast
  collapsing tracker (``vm._binder``) a secret BINOP or JZ first probes
  the tracker's bound-site table by its instruction and context; a hit
  only counts the repeat, and the tracker settles the counts before
  anything reads or changes its state (:mod:`repro.core.tracker`,
  "bound sites").  A miss reports the event as above and binds the
  site (``VM._operation``, ``VM._branch``).  UNOP, CAST and a secret
  array index call the VM methods, which probe and bind themselves.
* **Public work inline.**  The BINOPs in ``_INLINE_BINOPS`` are
  template arithmetic; the others call an evaluator from
  :func:`_compile_binop`.  An ALOAD reads ``values``, ``masks`` and
  ``provs`` itself when its operand is an array, its index is public
  and in bounds, and ``vm._deferred`` (the lazy table's live
  descriptors) is empty; any other load, and every ASTORE, goes
  through ``VM._array_load`` / ``_array_store``.
* **Steps.**  A block that returns normally counts as its length.  The
  local ``i`` is set to an instruction's index in the block before each
  instruction that can raise; if one raises, the handler adds ``i`` to ``vm.steps`` and re-raises, so the
  raising instruction is not counted.
* **The operand stack lives in locals.**  Values pushed and popped
  inside the block never touch ``frame.stack``; what is left at the
  end is pushed there, in order.  Triples built in the block are kept
  as their three parts until something needs the tuple.

Generated source holds only this module's template text and integers
formatted with ``%d``.  Every Location, Instr, constant triple,
evaluator and transfer function, and ``ArrayObject``, is bound by name
in the namespace the source runs in.  The service compiles tenant
programs, so nothing a program spells -- identifiers, string
initialisers, file names -- ever reaches ``compile``.
"""

from __future__ import annotations

from ..core.tracker import PUBLIC
from ..errors import VMError
from ..shadow import transfer
from ..shadow.bitmask import width_mask
from .bytecode import Op

_JUMPS = (Op.JZ, Op.JMP)

#: The opcodes a block may contain; none of them switches frames.
_BLOCK_OPS = frozenset([
    Op.CONST, Op.LOAD, Op.STORE, Op.GLOAD, Op.GSTORE, Op.AREF, Op.ALOAD,
    Op.ASTORE, Op.ALEN, Op.DECL, Op.BINOP, Op.UNOP, Op.CAST, Op.JMP,
    Op.JZ, Op.POP,
])

#: Opcodes that never raise, so need no step index set before them.
_CANNOT_RAISE = (Op.CONST, Op.JMP)

#: The interpreter's error text for a LOAD from an unset slot.
_UNINIT = "read of uninitialized local"


def _signed_value(value, width):
    sign = 1 << (width - 1)
    return (value & (sign - 1)) - (value & sign)


#: BINOPs a block computes inline, as template text filled with the
#: operands' value expressions ``a`` and ``b`` and the width mask ``w``.
#: Each computes what ``VM._eval_binop`` computes for its name.
_INLINE_BINOPS = {
    "add": "(%(a)s + %(b)s) & %(w)d",
    "sub": "(%(a)s - %(b)s) & %(w)d",
    "mul": "(%(a)s * %(b)s) & %(w)d",
    "and": "%(a)s & %(b)s",
    "or": "%(a)s | %(b)s",
    "xor": "%(a)s ^ %(b)s",
    "shl": "(%(a)s << %(b)s) & %(w)d if %(b)s < 64 else 0",
    "shr": "%(a)s >> %(b)s if %(b)s < 64 else 0",
    "eq": "1 if %(a)s == %(b)s else 0",
    "ne": "1 if %(a)s != %(b)s else 0",
    "ult": "1 if %(a)s < %(b)s else 0",
    "ule": "1 if %(a)s <= %(b)s else 0",
    "ugt": "1 if %(a)s > %(b)s else 0",
    "uge": "1 if %(a)s >= %(b)s else 0",
}


def _compile_binop(name, width, signed):
    """Build an evaluator for one (name, width, signed) BINOP that a
    block calls rather than inlines: division, remainder, arithmetic
    shift and the signed comparisons.

    Returns ``evaluator(av, bv, loc)``, which yields what
    ``VM._eval_binop`` yields (and raises its :class:`~repro.errors.VMError`
    on division by zero); ``None`` for any other name (an unknown one
    gets no block, and the interpreter raises the right error).
    """
    w = width_mask(width)
    if name == "sar":
        fn = lambda av, bv, loc: \
            (_signed_value(av, width) >> min(bv, 63)) & w
    elif name in ("div", "mod"):
        def fn(av, bv, loc, _div=(name == "div")):
            if bv == 0:
                raise VMError("division by zero", loc)
            if signed:
                sa = _signed_value(av, width)
                sb = _signed_value(bv, width)
                if _div:
                    quotient = abs(sa) // abs(sb)
                    if (sa < 0) != (sb < 0):
                        quotient = -quotient
                    return quotient & w
                remainder = abs(sa) % abs(sb)
                if sa < 0:
                    remainder = -remainder
                return remainder & w
            return (av // bv) & w if _div else (av % bv) & w
    elif name in ("lt", "le", "gt", "ge"):
        op = name
        def fn(av, bv, loc, _op=op):
            sa = _signed_value(av, width)
            sb = _signed_value(bv, width)
            if _op == "lt":
                return int(sa < sb)
            if _op == "le":
                return int(sa <= sb)
            if _op == "gt":
                return int(sa > sb)
            return int(sa >= sb)
    else:
        return None
    return fn


def _in_block(instr):
    if instr.op == Op.BINOP:
        # An unknown operation is left to the interpreter, which raises.
        return (instr.arg[0] in _INLINE_BINOPS
                or _compile_binop(*instr.arg) is not None)
    return instr.op in _BLOCK_OPS


def block_spans(code):
    """The ``(start, end)`` pc ranges of ``code``'s basic blocks."""
    in_block = [_in_block(instr) for instr in code]
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr.op in _JUMPS:
            leaders.add(instr.arg)
            leaders.add(pc + 1)
        elif not in_block[pc]:
            leaders.add(pc + 1)
    spans = []
    pc = 0
    while pc < len(code):
        if not in_block[pc]:
            pc += 1
            continue
        end = pc + 1
        while (end < len(code) and in_block[end] and end not in leaders
               and code[end - 1].op not in _JUMPS):
            end += 1
        spans.append((pc, end))
        pc = end
    return spans


class _Value:
    """One operand-stack entry of a block being generated.

    ``name`` is an expression for the whole entry (a triple, or an array
    reference), or ``None`` while a triple exists only as ``parts``, the
    expressions for its value, mask and provenance.
    """

    __slots__ = ("name", "parts")

    def __init__(self, name, parts=None):
        self.name = name
        self.parts = parts

    def part(self, k):
        if self.parts is not None:
            return self.parts[k]
        return "%s[%d]" % (self.name, k)

    def whole(self):
        if self.name is not None:
            return self.name
        return "(%s, %s, %s)" % self.parts


class _BlockWriter:
    """Generates the source of one block, binding what it refers to."""

    def __init__(self, namespace):
        self.namespace = namespace
        self.lines = []
        self.stack = []
        self.temps = 0

    def emit(self, line, *args):
        self.lines.append("        " + (line % args if args else line))

    def temp(self, prefix):
        self.temps += 1
        return "%s%d" % (prefix, self.temps)

    def bind(self, prefix, pc, obj):
        name = "%s%d" % (prefix, pc)
        self.namespace[name] = obj
        return name

    def pop(self):
        if self.stack:
            return self.stack.pop()
        name = self.temp("s")
        self.emit("%s = stack.pop()", name)
        return _Value(name)

    def push_call(self, call, *args):
        name = self.temp("t")
        self.emit("%s = " + call, name, *args)
        self.stack.append(_Value(name))

    def flush(self):
        """Push what is left on the block's stack onto the frame's."""
        for value in self.stack:
            self.emit("stack.append(%s)", value.whole())
        self.stack = []

    def probe(self, pc, instr, key, test=""):
        """Emit the probe of the bound-site table for one instruction's
        tracker event (see :mod:`repro.core.tracker`, "bound sites").

        The key is the instruction, then ``key``, then the context.
        Returns the names of the binding tracker (``None`` when the VM
        binds no site) and of the site found (false on a miss).
        """
        tracker = self.temp("t")
        site = self.temp("s")
        self.emit("    %s = vm._binder", tracker)
        self.emit("    %s = %s%s and %s._bound.get((%s%s, %s._active_ctx))",
                  site, test, tracker, tracker, self.bind("I", pc, instr),
                  key, tracker)
        return tracker, site

    def count(self, first, site):
        """Emit a hit on a bound site: it only counts.  ``first`` is
        the call that registers the site's first count."""
        self.emit("        if not %s.n:", site)
        self.emit("            %s(%s)", first, site)
        self.emit("        %s.n += 1", site)

    def note_write(self, key):
        self.emit("if vm._regions:")
        self.emit("    vm._note_write(%s)", key)

    # -- one method per opcode ----------------------------------------

    def op_CONST(self, pc, instr):
        value = instr.arg[0]
        triple = self.bind("K", pc, (value, 0, PUBLIC))
        self.stack.append(_Value(triple, ("%d" % value, "0", "PUBLIC")))

    def op_LOAD(self, pc, instr):
        name = self.temp("t")
        self.emit("%s = slots[%d]", name, instr.arg)
        self.emit("if %s is None:", name)
        self.emit("    raise VMError(UNINIT, %s)",
                  self.bind("L", pc, instr.loc))
        self.stack.append(_Value(name))

    def op_STORE(self, pc, instr):
        self.emit("slots[%d] = %s", instr.arg, self.pop().whole())
        self.note_write("(LOCAL, frame.frame_id, %d)" % instr.arg)

    def op_DECL(self, pc, instr):
        self.emit("slots[%d] = %s", instr.arg, self.pop().whole())
        self.emit("if vm._regions:")
        self.emit("    vm._declare_local((LOCAL, frame.frame_id, %d))",
                  instr.arg)

    def op_GLOAD(self, pc, instr):
        self.push_call("vm.globals[%d]", instr.arg)

    def op_GSTORE(self, pc, instr):
        self.emit("vm.globals[%d] = %s", instr.arg, self.pop().whole())
        self.note_write("(GLOBAL, 0, %d)" % instr.arg)

    def op_AREF(self, pc, instr):
        storage, slot = instr.arg
        if storage == "global":
            self.push_call("vm.globals[%d]", slot)
        else:
            self.push_call("slots[%d]", slot)

    def op_ALOAD(self, pc, instr):
        index = self.pop()
        array = self.pop().whole()
        j = index.part(0)
        if index.parts is None:
            j = self.temp("x")
            self.emit("%s = %s[0]", j, index.name)
        # A public, in-bounds index into an array with no deferred
        # region update is read here; anything else takes the VM's path.
        test = ["isinstance(%s, ArrayObject)" % array,
                "0 <= %s < %s.length" % (j, array), "not vm._deferred"]
        if index.part(1) != "0":
            test.insert(0, "not %s" % index.part(1))
        parts = (self.temp("x"), self.temp("m"), self.temp("p"))
        self.emit("if %s:", " and ".join(test))
        for name, field in zip(parts, ("values", "masks", "provs")):
            self.emit("    %s = %s.%s[%s]", name, array, field, j)
        self.emit("else:")
        self.emit("    %s = vm._array_load(%s, %s, %s)", ", ".join(parts),
                  self.bind("I", pc, instr), array, index.whole())
        self.stack.append(_Value(None, parts))

    def op_ASTORE(self, pc, instr):
        value = self.pop()
        index = self.pop()
        array = self.pop()
        self.emit("vm._array_store(%s, %s, %s, %s)",
                  self.bind("I", pc, instr), array.whole(), index.whole(),
                  value.whole())

    def op_ALEN(self, pc, instr):
        name = self.temp("t")
        self.emit("%s = %s.length", name, self.pop().whole())
        self.stack.append(_Value(None, (name, "0", "PUBLIC")))

    def op_BINOP(self, pc, instr):
        name, width, _signed = instr.arg
        result_width = 1 if name in transfer.COMPARISONS else width
        b = self.pop()
        a = self.pop()
        value = self.temp("x")
        template = _INLINE_BINOPS.get(name)
        if template is not None:
            self.emit("%s = %s", value, template % {
                "a": a.part(0), "b": b.part(0), "w": width_mask(width)})
        else:
            self.emit("%s = %s(%s, %s, %s)", value,
                      self.bind("E", pc, _compile_binop(*instr.arg)),
                      a.part(0), b.part(0), self.bind("L", pc, instr.loc))
        secret = [m for m in (a.part(1), b.part(1)) if m != "0"]
        if not secret:
            self.stack.append(_Value(None, (value, "0", "PUBLIC")))
            return
        mask = self.temp("m")
        prov = self.temp("p")
        self.emit("if %s:", " or ".join(secret))
        if name in transfer.COMPARISONS:
            # transfer_compare is 1 whenever an operand is secret.
            self.emit("    %s = 1", mask)
            test = ""
        else:
            self.emit("    %s = %s(%s, %s, %s, %s, %d) & %d", mask,
                      self.bind("T", pc, transfer.BINARY[name]), a.part(0),
                      a.part(1), b.part(0), b.part(1), width,
                      width_mask(result_width))
            test = mask + " and "
        tracker, site = self.probe(pc, instr, "", test)
        self.emit("    if %s and %s.mask == %s and %s.a is %s and %s.b is %s:",
                  site, site, mask, site, a.part(2), site, b.part(2))
        self.count(tracker + "._pend", site)
        self.emit("        %s = %s.prov", prov, site)
        self.emit("    else:")
        self.emit("        %s = vm._operation(%s, %s, %s, %s)", prov,
                  self.bind("I", pc, instr), mask, a.part(2), b.part(2))
        self.emit("else:")
        self.emit("    %s = 0", mask)
        self.emit("    %s = PUBLIC", prov)
        self.stack.append(_Value(None, (value, mask, prov)))

    def op_UNOP(self, pc, instr):
        self.push_call("vm._unop(%s, %s)", self.bind("I", pc, instr),
                       self.pop().whole())

    def op_CAST(self, pc, instr):
        self.push_call("vm._cast(%s, %s)", self.bind("I", pc, instr),
                       self.pop().whole())

    def op_POP(self, pc, instr):
        self.pop()

    def op_JMP(self, pc, instr):
        self.flush()
        self.emit("return %d", instr.arg)

    def op_JZ(self, pc, instr):
        cond = self.pop()
        if cond.part(1) != "0":
            self.emit("if %s:", cond.part(1))
            tracker, site = self.probe(pc, instr, ", %s.node" % cond.part(2))
            self.emit("    if %s:", site)
            self.count(tracker + "._dirty.append", site)
            self.emit("    else:")
            self.emit("        vm._branch(%s, %s)", self.bind("I", pc, instr),
                      cond.part(2))
        self.flush()
        self.emit("if %s == 0:", cond.part(0))
        self.emit("    return %d", instr.arg)
        self.emit("return %d", pc + 1)


def _namespace():
    from .vm import ArrayObject  # the VM module imports this one
    return {"PUBLIC": PUBLIC, "VMError": VMError, "UNINIT": _UNINIT,
            "LOCAL": "local", "GLOBAL": "global",
            "ArrayObject": ArrayObject}


def _generate(function, namespace):
    """Source text defining ``b<start>`` for every block of ``function``."""
    code = function.code
    spans = block_spans(code)
    chunks = []
    for start, end in spans:
        writer = _BlockWriter(namespace)
        for pc in range(start, end):
            if pc > start and code[pc].op not in _CANNOT_RAISE:
                writer.emit("i = %d", pc - start)
            getattr(writer, "op_" + code[pc].op)(pc, code[pc])
        if code[end - 1].op not in _JUMPS:
            writer.flush()
            writer.emit("return %d", end)
        chunks.append("def b%d(vm, frame, stack, slots):\n"
                      "    i = 0\n"
                      "    try:\n"
                      "%s\n"
                      "    except BaseException:\n"
                      "        vm.steps += i\n"
                      "        raise\n" % (start, "\n".join(writer.lines)))
    return "\n".join(chunks), spans


def block_source(function):
    """The generated Python source of ``function``'s blocks."""
    return _generate(function, _namespace())[0]


def compile_blocks(function):
    """Compile ``function``'s blocks once; cached on ``function.blocks``.

    Returns a list indexed by pc: ``(block, length)`` where a block
    starts, ``None`` elsewhere.  ``block(vm, frame, stack, slots)`` runs
    ``length`` instructions and returns the next pc.
    """
    namespace = _namespace()
    source, spans = _generate(function, namespace)
    exec(compile(source, "<flowlang blocks>", "exec"), namespace)
    blocks = [None] * len(function.code)
    for start, end in spans:
        blocks[start] = (namespace["b%d" % start], end - start)
    function.blocks = blocks
    return blocks
