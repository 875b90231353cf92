"""Bytecode for the FlowLang virtual machine.

The compiler lowers checked ASTs to a small stack machine.  Every
instruction carries a :class:`~repro.core.locations.Location` -- these
are the labels that identify edges for collapsing, multi-run combining,
and cut reporting, playing the role of instruction addresses in the
paper's binary-level tool.
"""

from __future__ import annotations


class Op:
    """Opcode name constants."""

    CONST = "CONST"        # arg: (value, width) -> push public TV
    LOAD = "LOAD"          # arg: slot -> push local
    STORE = "STORE"        # arg: slot; pops value
    GLOAD = "GLOAD"        # arg: index -> push global
    GSTORE = "GSTORE"      # arg: index; pops value
    AREF = "AREF"          # arg: ("local"|"global", slot) -> push array ref
    ALOAD = "ALOAD"        # pops index, array ref -> push element
    ASTORE = "ASTORE"      # pops value, index, array ref
    ALEN = "ALEN"          # pops array ref -> push length (public u32)
    DECL = "DECL"          # arg: slot; pops init value; marks region-local
    DECLARR = "DECLARR"    # arg: (slot, bytes|None); array decl (+init)
    BINOP = "BINOP"        # arg: (opname, width, signed); pops b, a
    UNOP = "UNOP"          # arg: (opname, width, signed); pops a
    CAST = "CAST"          # arg: (from_width, from_signed, to_width, to_signed)
    JMP = "JMP"            # arg: target pc
    JZ = "JZ"              # arg: target pc; pops cond (branch event)
    CALL = "CALL"          # arg: (function_name, nargs)
    CALLB = "CALLB"        # arg: (builtin_name, nargs, pushes_result)
    RET = "RET"            # arg: has_value (bool)
    ENTER = "ENTER"        # arg: region_id; pops dynamic lengths
    LEAVE = "LEAVE"        # arg: region_id
    POP = "POP"            # pops and discards
    HALT = "HALT"


class Instr:
    """One bytecode instruction."""

    __slots__ = ("op", "arg", "loc")

    def __init__(self, op, arg, loc):
        self.op = op
        self.arg = arg
        self.loc = loc

    def __repr__(self):
        return "%-8s %r" % (self.op, self.arg)


class OutputDesc:
    """A declared output of an enclosure region, compiled form.

    ``kind`` is ``"scalar"`` or ``"array"``; ``storage`` is ``"local"``
    or ``"global"``; ``slot`` indexes the frame or the globals.  For
    arrays, ``static_length`` is the declared element count or ``None``
    when the length is dynamic (computed by code emitted before ENTER).
    """

    __slots__ = ("kind", "storage", "slot", "width", "static_length",
                 "dynamic_length", "name")

    def __init__(self, kind, storage, slot, width, static_length,
                 dynamic_length, name):
        self.kind = kind
        self.storage = storage
        self.slot = slot
        self.width = width
        self.static_length = static_length
        self.dynamic_length = dynamic_length
        self.name = name

    def __repr__(self):
        return "OutputDesc(%s %s %s[%r])" % (self.kind, self.storage,
                                             self.name, self.slot)


class RegionInfo:
    """Compiled enclosure region: its outputs and source location."""

    __slots__ = ("region_id", "outputs", "loc")

    def __init__(self, region_id, outputs, loc):
        self.region_id = region_id
        self.outputs = outputs
        self.loc = loc


class ArrayInit:
    """A local array to allocate at frame entry."""

    __slots__ = ("slot", "width", "size", "name")

    def __init__(self, slot, width, size, name):
        self.slot = slot
        self.width = width
        self.size = size
        self.name = name


class Function:
    """A compiled function."""

    __slots__ = ("name", "params", "num_slots", "code", "arrays", "decl_loc",
                 "blocks")

    def __init__(self, name, params, num_slots, code, arrays, decl_loc):
        self.name = name
        self.params = params      # list of (slot, is_array, width)
        self.num_slots = num_slots
        self.code = code          # list of Instr
        self.arrays = arrays      # list of ArrayInit
        self.decl_loc = decl_loc
        #: The fast backend's compiled basic blocks, built on first run
        #: (:func:`repro.lang.blocks.compile_blocks`).
        self.blocks = None

    def disassemble(self):
        """Human-readable listing, for debugging and tests."""
        lines = ["fn %s (%d slots)" % (self.name, self.num_slots)]
        for pc, instr in enumerate(self.code):
            lines.append("  %4d  %-8s %-24r %s"
                         % (pc, instr.op, instr.arg, instr.loc))
        return "\n".join(lines)


class CompiledProgram:
    """A whole compiled program: functions, globals, regions."""

    __slots__ = ("functions", "globals", "regions", "filename")

    def __init__(self, functions, globals_, regions, filename):
        self.functions = functions    # name -> Function
        self.globals = globals_       # list of (name, type, init)
        self.regions = regions        # region_id -> RegionInfo
        self.filename = filename

    def disassemble(self):
        return "\n\n".join(f.disassemble()
                           for f in self.functions.values())
