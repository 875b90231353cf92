"""The instrumented FlowLang virtual machine (Section 4).

Executes compiled bytecode while reporting every analysis-relevant event
to a tracker (a :class:`~repro.core.tracker.TraceBuilder` for
measurement, a :class:`~repro.core.checking.CheckTracker` for cheap
deployment checking, or a :class:`NullTracker` for the lockstep mode of
Section 6.3).  This plays the role of Valgrind-based instruction
rewriting in the paper: the VM *is* the instrumentation.

Every runtime scalar is a ``(value, mask, prov)`` triple: the concrete
value, the shadow secrecy bitmask (Section 2.3), and the value's flow
graph identity (Section 4.2's tags).  Arrays live in a flat address
space so that the lazy large-region machinery of Section 4.3 can defer
whole-array region updates in O(1).
"""

from __future__ import annotations

import time

from .. import obs
from ..core.lazyranges import LazyRangeTable
from ..core.regions import DeclaredOutput, RegionWriteChecker
from ..core.tracker import PUBLIC, CollapsingTraceBuilder, Provenance
from ..errors import VMError, VMTimeout
from ..shadow import resolve_backend, transfer
from ..shadow.bitmask import width_mask
from .blocks import compile_blocks
from .bytecode import Op

#: Default execution budget; loops that exceed it are reported rather
#: than hanging the analysis.
DEFAULT_MAX_STEPS = 50_000_000

#: The wall-clock deadline is polled every this many steps; between
#: polls a step pays only the one comparison it shares with the budget.
DEADLINE_POLL_STEPS = 1024


def check_budgets(max_steps=None, deadline_seconds=None):
    """Raise ``ValueError`` unless each given execution budget is positive.

    ``None`` means "not given".  Callers that fan runs out to a worker
    pool call this first, so a bad budget fails once, up front, instead
    of inside every worker.
    """
    if max_steps is not None and not max_steps >= 1:
        raise ValueError("max_steps must be at least 1, got %r"
                         % (max_steps,))
    if deadline_seconds is not None and not deadline_seconds > 0:
        raise ValueError("deadline_seconds must be positive or None, "
                         "got %r" % (deadline_seconds,))


class NullTracker:
    """Tracker that records nothing: the uninstrumented lockstep mode."""

    region_depth = 0

    class _Exit:
        node = None
        had_implicit_flows = False
        implicit_bits = 0

    def public(self):
        return PUBLIC

    def secret_value(self, location, width, mask=None, category=None):
        return PUBLIC

    def secret_values(self, location, width, count, mask=None,
                      category=None):
        return [PUBLIC] * count

    def operation(self, location, result_mask, operands):
        return PUBLIC

    def copy(self, provenance):
        return provenance

    def declassify(self, provenance):
        return PUBLIC

    def implicit_flow(self, location, provenance, bits):
        pass

    def branch(self, location, condition, arms=2):
        pass

    def indexed(self, location, index):
        pass

    def enter_region(self, location):
        pass

    def leave_region(self, location):
        return self._Exit()

    def region_output(self, location, region_exit, old_provenance, width):
        return old_provenance

    def region_outputs(self, location, region_exit, old_provenances, width):
        return list(old_provenances)

    def output(self, location, provenances):
        pass

    def push_call(self, callsite_id):
        pass

    def pop_call(self):
        pass

    def finish(self, exit_observable=True):
        return None

    @property
    def stats(self):
        return {}


class ArrayObject:
    """A FlowLang array: concrete values plus parallel shadow state."""

    __slots__ = ("array_id", "base_addr", "width", "length", "values",
                 "masks", "provs", "name")

    def __init__(self, array_id, base_addr, width, length, name):
        self.array_id = array_id
        self.base_addr = base_addr
        self.width = width
        self.length = length
        self.values = [0] * length
        self.masks = [0] * length
        self.provs = [PUBLIC] * length
        self.name = name

    def __repr__(self):
        return "ArrayObject(%s, len=%d, w=%d)" % (self.name, self.length,
                                                  self.width)


class Frame:
    """An activation record: local slots and an operand stack."""

    __slots__ = ("function", "slots", "stack", "pc", "frame_id")

    def __init__(self, function, frame_id):
        self.function = function
        self.slots = [None] * function.num_slots
        self.stack = []
        self.pc = 0
        self.frame_id = frame_id


class _ActiveRegion:
    """Runtime state of an entered enclosure region."""

    __slots__ = ("info", "lengths", "checker", "frame_id")

    def __init__(self, info, lengths, checker, frame_id):
        self.info = info
        self.lengths = lengths  # output name -> element count (arrays)
        self.checker = checker
        self.frame_id = frame_id


class VM:
    """Executes a compiled program against a tracker.

    Args:
        program: a :class:`~repro.lang.bytecode.CompiledProgram`.
        tracker: any object implementing the TraceBuilder event
            interface (TraceBuilder, CheckTracker, NullTracker).
        secret_input: bytes consumed by ``read_secret``/``secret_*``.
        public_input: bytes consumed by ``read_public``/``input_*``.
        region_check: ``"off"``, ``"warn"`` (collect undeclared-write
            warnings), or ``"strict"`` (raise RegionError).
        interceptor: optional lockstep interceptor (Section 6.3); when
            set, values produced at the policy's cut locations are
            routed through ``interceptor.intercept``.
        lazy_regions: enable the Section 4.3 deferred array updates.
        max_steps: execution budget (steps); ``ValueError`` below 1.
        deadline_seconds: wall-clock execution budget; ``None`` (the
            default) means unlimited; ``ValueError`` unless positive.
            Enforced in the step loop every
            :data:`DEADLINE_POLL_STEPS` steps, raising
            :class:`~repro.errors.VMTimeout`.
        backend: ``"reference"``, ``"fast"``, or ``"auto"``/``None``
            (consult ``REPRO_BACKEND``, then ``"fast"``).  The fast
            backend runs compiled basic blocks (:mod:`repro.lang.blocks`)
            unless an interceptor is set, and reads secret arrays in
            bulk.  Results are bit-identical to the reference (see
            ``docs/backends.md``).
    """

    def __init__(self, program, tracker, secret_input=b"", public_input=b"",
                 region_check="warn", interceptor=None, lazy_regions=True,
                 max_steps=DEFAULT_MAX_STEPS, deadline_seconds=None,
                 output_hook=None, backend=None):
        self.program = program
        self.tracker = tracker
        self.backend = resolve_backend(backend)
        self.secret_input = bytes(secret_input)
        self.public_input = bytes(public_input)
        self._secret_pos = 0
        self._public_pos = 0
        self.region_check = region_check
        self.interceptor = interceptor
        #: The tracker whose bound-site table compiled blocks and the
        #: event methods below probe: a fast collapsing one with no
        #: interceptor, else ``None``.
        self._binder = (tracker if isinstance(tracker, CollapsingTraceBuilder)
                        and tracker._fast and interceptor is None else None)
        check_budgets(max_steps, deadline_seconds)
        self.max_steps = max_steps
        self.deadline_seconds = deadline_seconds
        #: Called as ``output_hook(vm)`` after every output event -- the
        #: paper's "recompute the flow on every program output" mode.
        self.output_hook = output_hook
        self.outputs = []          # concrete output values, in order
        self.output_bytes = bytearray()  # print_char/output_bytes stream
        self.warnings = []
        self.steps = 0

        self._frames = []
        self._next_frame_id = 1
        self._next_array_id = 1
        self._next_addr = 0
        self._arrays_by_base = {}
        self._regions = []
        self.globals = []
        if lazy_regions:
            self.lazy = LazyRangeTable(self._materialize_range)
        else:
            self.lazy = None
        #: The lazy table's live descriptor list (``()`` without one):
        #: non-empty exactly while deferred region state exists.  A
        #: truth test on it is no call, so compiled blocks use it too.
        self._deferred = self.lazy.live if lazy_regions else ()
        self._init_globals()

    # ------------------------------------------------------------------
    # Setup

    def _init_globals(self):
        from . import types as T
        for name, type_, init in self.program.globals:
            if T.is_array(type_):
                array = self._alloc_array(type_.element.width, type_.size,
                                          name)
                if isinstance(init, bytes):
                    for i, byte in enumerate(init):
                        array.values[i] = byte
                self.globals.append(array)
            else:
                self.globals.append((init or 0, 0, PUBLIC))

    def _alloc_array(self, width, length, name):
        array = ArrayObject(self._next_array_id, self._next_addr, width,
                            length, name)
        self._next_array_id += 1
        self._next_addr += length
        self._arrays_by_base[array.base_addr] = array
        return array

    # ------------------------------------------------------------------
    # Running

    def run(self, entry="main", finish=True, exit_observable=True):
        """Execute from ``entry``; returns ``tracker.finish()``'s result.

        With ``finish=False`` the tracker is left open (callers that
        merge several program runs into one trace use this).
        """
        function = self.program.functions.get(entry)
        if function is None:
            raise VMError("no function named %r" % entry)
        if function.params:
            raise VMError("entry function %r must take no parameters"
                          % entry)
        frame = self._push_frame(function)
        self._execute()
        if self.lazy is not None:
            # Dead deferred updates need no graph nodes: reads already
            # materialized on demand, so remaining descriptors cover
            # only locations the program never looked at again.
            self.lazy.discard()
        if finish:
            return self.tracker.finish(exit_observable=exit_observable)
        return None

    def _push_frame(self, function):
        frame = Frame(function, self._next_frame_id)
        self._next_frame_id += 1
        for init in function.arrays:
            frame.slots[init.slot] = self._alloc_array(
                init.width, init.size, init.name)
        self._frames.append(frame)
        return frame

    def _execute(self):
        """Run until the entry frame returns (or a budget runs out).

        The fast backend runs compiled basic blocks (:meth:`_run_blocks`);
        the reference backend, and any VM with a lockstep interceptor,
        runs the step-exact interpreter (:meth:`_interpret`) alone.
        """
        # The budget and the deadline are both checked only once
        # ``steps`` reaches ``_check_at``: the step past the budget, or
        # the next multiple of DEADLINE_POLL_STEPS when a deadline is set.
        self._deadline = None
        self._check_at = self.max_steps + 1
        if self.deadline_seconds is not None:
            self._deadline = time.monotonic() + self.deadline_seconds
            self._check_at = min(self._check_at,
                                 (self.steps | (DEADLINE_POLL_STEPS - 1)) + 1)
        if self.backend == "fast" and self.interceptor is None:
            self._run_blocks()
        else:
            self._interpret()

    def _check_budget(self, steps):
        """Raise if ``steps`` is past a budget; else set the next check.

        Called once ``steps`` reaches ``_check_at``, after that step.
        """
        if steps > self.max_steps:
            raise VMError("execution budget exceeded (%d steps)"
                          % self.max_steps)
        # Within budget, so this is a deadline poll.
        if time.monotonic() > self._deadline:
            raise VMTimeout(
                "wall-clock deadline exceeded (%.3fs budget, %d steps)"
                % (self.deadline_seconds, steps),
                deadline_seconds=self.deadline_seconds, steps=steps)
        self._check_at = min(self.max_steps + 1,
                             steps + DEADLINE_POLL_STEPS)

    def _run_blocks(self):
        """The fast backend's dispatch loop: one basic block per iteration.

        Each pc the loop reaches starts a block or holds an instruction
        that gets none (see :mod:`repro.lang.blocks`).  A block runs
        whole when it ends before ``_check_at``.  The interpreter runs
        the rest, stopping after the same instructions: a block that
        would reach a budget check or deadline poll, step by step, and
        an instruction without a block (a frame switch), alone.
        """
        frames = self._frames
        interpret = self._interpret
        while frames:
            frame = frames[-1]
            blocks = frame.function.blocks or compile_blocks(frame.function)
            stack = frame.stack
            slots = frame.slots
            pc = frame.pc
            steps = self.steps
            check_at = self._check_at
            while True:
                entry = blocks[pc]
                if entry is None:
                    length = 1
                    break
                block, length = entry
                if steps + length >= check_at:
                    break
                # A raising block adds its finished instructions.
                self.steps = steps
                pc = block(self, frame, stack, slots)
                steps += length
            frame.pc = pc
            self.steps = steps
            interpret(steps + length)

    def _interpret(self, limit=None):
        """The step-exact interpreter: one instruction per iteration.

        Runs until the entry frame returns, or, given ``limit``, until
        ``steps`` reaches it.  The eight opcodes that make up 99.7% of a
        countpunct run's steps are inlined here in frequency order;
        every other opcode goes to :meth:`_execute_rare`.
        """
        # Write-back contract.  The current frame's code, stack, slots
        # and pc, and the step count, live in locals.  ``frame.pc`` is
        # written back before every ``_execute_rare`` call (the only code
        # that switches frames) and when ``limit`` stops the loop, and
        # all frame state is reloaded from ``self._frames[-1]`` after a
        # rare opcode.  ``self.steps`` is written back in the
        # ``finally``, so it is exact however the loop ends: a budget or
        # deadline error counts the step that crossed the budget, and an
        # instruction that raises is not counted.
        CONST, LOAD, STORE, BINOP = Op.CONST, Op.LOAD, Op.STORE, Op.BINOP
        JZ, JMP, AREF, ALOAD = Op.JZ, Op.JMP, Op.AREF, Op.ALOAD
        public = PUBLIC
        tracker = self.tracker
        interceptor = self.interceptor
        binop = self._binop
        array_load = self._array_load
        execute_rare = self._execute_rare
        frames = self._frames
        regions = self._regions
        globals_ = self.globals
        if limit is None:
            # The budget check raises first, so this never stops the loop.
            limit = self.max_steps + 1
        steps = self.steps
        check_at = self._check_at
        # One comparison per step covers the checks and the limit.
        stop = min(check_at, limit)
        frame = frames[-1]
        code = frame.function.code
        stack = frame.stack
        slots = frame.slots
        pc = frame.pc
        try:
            while frames:
                instr = code[pc]
                pc += 1
                op = instr.op
                if op == LOAD:
                    cell = slots[instr.arg]
                    if cell is None:
                        raise VMError("read of uninitialized local",
                                      instr.loc)
                    stack.append(cell)
                elif op == BINOP:
                    binop(instr, stack)
                elif op == CONST:
                    stack.append((instr.arg[0], 0, public))
                elif op == JZ:
                    cond = stack.pop()
                    if interceptor is not None:
                        cond = self._intercept_branch(instr, cond)
                    if cond[1]:
                        tracker.branch(instr.loc, cond[2])
                    if cond[0] == 0:
                        pc = instr.arg
                elif op == AREF:
                    storage, slot = instr.arg
                    stack.append(globals_[slot] if storage == "global"
                                 else slots[slot])
                elif op == ALOAD:
                    index = stack.pop()
                    stack.append(array_load(instr, stack.pop(), index))
                elif op == STORE:
                    slots[instr.arg] = stack.pop()
                    if regions:
                        self._note_write(("local", frame.frame_id,
                                          instr.arg))
                elif op == JMP:
                    pc = instr.arg
                else:
                    frame.pc = pc
                    execute_rare(instr, frame)
                    if frames:
                        frame = frames[-1]
                        code = frame.function.code
                        stack = frame.stack
                        slots = frame.slots
                        pc = frame.pc
                steps += 1
                if steps >= stop:
                    if steps >= check_at:
                        self._check_budget(steps)
                        check_at = self._check_at
                    if steps >= limit:
                        frame.pc = pc
                        return
                    stop = min(check_at, limit)
        finally:
            self.steps = steps

    def _execute_rare(self, instr, frame):
        """Execute one opcode that :meth:`_execute` does not inline."""
        op = instr.op
        stack = frame.stack
        if op == Op.ASTORE:
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            self._array_store(instr, array, index, value)
        elif op == Op.ALEN:
            array = stack.pop()
            stack.append((array.length, 0, PUBLIC))
        elif op == Op.GLOAD:
            stack.append(self.globals[instr.arg])
        elif op == Op.GSTORE:
            self.globals[instr.arg] = stack.pop()
            if self._regions:
                self._note_write(("global", 0, instr.arg))
        elif op == Op.UNOP:
            stack.append(self._unop(instr, stack.pop()))
        elif op == Op.CAST:
            stack.append(self._cast(instr, stack.pop()))
        elif op == Op.CALL:
            self._call(instr, frame)
        elif op == Op.CALLB:
            self._call_builtin(instr, frame)
        elif op == Op.RET:
            has_value = instr.arg
            result = frame.stack.pop() if has_value else None
            self._frames.pop()
            if self._frames:
                # Returning to a caller: unwind the context hash and
                # deliver the return value.
                self.tracker.pop_call()
                if result is not None:
                    self._frames[-1].stack.append(result)
        elif op == Op.DECL:
            # A declaration: like STORE, but a local declared *inside* an
            # enclosure region is region-local and needs no output
            # annotation (it cannot be read after the region).
            frame.slots[instr.arg] = stack.pop()
            if self._regions:
                self._declare_local(("local", frame.frame_id, instr.arg))
        elif op == Op.DECLARR:
            slot, data = instr.arg
            array = frame.slots[slot]
            if data is not None:
                for i, byte in enumerate(data):
                    self._store_element_raw(array, i, (byte, 0, PUBLIC))
            for region in self._regions:
                if region.checker is not None:
                    for i in range(array.length):
                        region.checker.declare_local(
                            ("heap", array.array_id, i))
        elif op == Op.POP:
            stack.pop()
        elif op == Op.ENTER:
            self._enter_region(instr, frame)
        elif op == Op.LEAVE:
            self._leave_region(instr, frame)
        elif op == Op.HALT:
            self._frames.pop()
        else:
            raise VMError("unknown opcode %r" % op, instr.loc)

    # ------------------------------------------------------------------
    # Arithmetic

    def _binop(self, instr, stack):
        name, width, signed = instr.arg
        b = stack.pop()
        a = stack.pop()
        value = self._eval_binop(name, a[0], b[0], width, signed, instr.loc)
        result_width = 1 if name in transfer.COMPARISONS else width
        if a[1] == 0 and b[1] == 0:
            stack.append(self._intercept_value(instr, (value, 0, PUBLIC),
                                               result_width))
            return
        mask = transfer.binary_mask(name, a[0], a[1], b[0], b[1], width)
        mask &= width_mask(result_width)
        if mask == 0:
            stack.append(self._intercept_value(instr, (value, 0, PUBLIC),
                                               result_width))
            return
        prov = self.tracker.operation(instr.loc, mask, [a[2], b[2]])
        stack.append(self._intercept_value(instr, (value, mask, prov),
                                           result_width))

    def _operation(self, instr, mask, a, b):
        """The result provenance of a secret BINOP, UNOP or CAST (``b``
        is ``PUBLIC`` for the one-operand ones); none for a public
        result.  Under a binding tracker a bound repeat with the same
        mask and operand objects only counts; a miss reports the event
        and binds the site."""
        if not mask:
            return PUBLIC
        binder = self._binder
        if binder is None:
            return self.tracker.operation(instr.loc, mask, [a, b])
        key = (instr, binder._active_ctx)
        site = binder._bound.get(key)
        if (site is not None and site.mask == mask and site.a is a
                and site.b is b):
            if not site.n:
                binder._pend(site)
            site.n += 1
            return site.prov
        prov = self.tracker.operation(instr.loc, mask, [a, b])
        binder.bind_operation(key, instr.loc, mask, a, b)
        return prov

    def _branch(self, instr, cond):
        """A block's secret JZ whose bound-site probe missed."""
        # ``branch(L, p)`` is ``implicit_flow(L, p, bits_for_arms(2))``
        # on every tracker, and two arms reveal one bit.
        self.tracker.implicit_flow(instr.loc, cond, 1)
        binder = self._binder
        if binder is not None:
            binder.bind_flow((instr, cond.node, binder._active_ctx),
                             instr.loc, cond, 1)

    def _eval_binop(self, name, av, bv, width, signed, loc):
        w = width_mask(width)
        if name == "add":
            return (av + bv) & w
        if name == "sub":
            return (av - bv) & w
        if name == "mul":
            return (av * bv) & w
        if name == "and":
            return av & bv
        if name == "or":
            return av | bv
        if name == "xor":
            return av ^ bv
        if name == "shl":
            return (av << bv) & w if bv < 64 else 0
        if name == "shr":
            return av >> bv if bv < 64 else 0
        if name == "sar":
            return (self._signed(av, width) >> min(bv, 63)) & w
        if name in ("div", "mod"):
            if bv == 0:
                raise VMError("division by zero", loc)
            if signed:
                sa, sb = self._signed(av, width), self._signed(bv, width)
                if name == "div":
                    quotient = abs(sa) // abs(sb)
                    if (sa < 0) != (sb < 0):
                        quotient = -quotient
                    return quotient & w
                remainder = abs(sa) % abs(sb)
                if sa < 0:
                    remainder = -remainder
                return remainder & w
            return (av // bv) & w if name == "div" else (av % bv) & w
        if name == "eq":
            return int(av == bv)
        if name == "ne":
            return int(av != bv)
        if name in ("lt", "le", "gt", "ge"):
            sa, sb = self._signed(av, width), self._signed(bv, width)
        else:
            sa, sb = av, bv
        if name in ("lt", "ult"):
            return int(sa < sb)
        if name in ("le", "ule"):
            return int(sa <= sb)
        if name in ("gt", "ugt"):
            return int(sa > sb)
        if name in ("ge", "uge"):
            return int(sa >= sb)
        raise VMError("unknown binary operation %r" % name, loc)

    @staticmethod
    def _signed(value, width):
        sign = 1 << (width - 1)
        return (value & (sign - 1)) - (value & sign)

    def _unop(self, instr, a):
        """The result triple of UNOP ``instr`` on operand ``a``."""
        name, width, _signed = instr.arg
        w = width_mask(width)
        if name == "neg":
            value = (-a[0]) & w
        elif name == "not":
            value = (~a[0]) & w
        else:  # lnot
            value = 0 if a[0] else 1
        if a[1] == 0:
            return self._intercept_value(instr, (value, 0, PUBLIC), width)
        mask = transfer.unary_mask(name, a[0], a[1], width)
        if mask == 0:
            return self._intercept_value(instr, (value, 0, PUBLIC), width)
        prov = self._operation(instr, mask, a[2], PUBLIC)
        return self._intercept_value(instr, (value, mask, prov), width)

    def _cast(self, instr, a):
        """The result triple of CAST ``instr`` on operand ``a``."""
        from_width, from_signed, to_width, to_signed = instr.arg
        if from_signed:
            value = self._signed(a[0], from_width) & width_mask(to_width)
        else:
            value = a[0] & width_mask(to_width)
        if a[1] == 0:
            return self._intercept_value(instr, (value, 0, PUBLIC), to_width)
        if to_width > from_width:
            if from_signed:
                mask = transfer.transfer_sext(a[0], a[1], from_width,
                                              to_width)
            else:
                mask = transfer.transfer_zext(a[0], a[1], from_width,
                                              to_width)
        else:
            mask = transfer.transfer_trunc(a[0], a[1], to_width)
        if mask == 0:
            return (value, 0, PUBLIC)
        prov = self._operation(instr, mask, a[2], PUBLIC)
        return self._intercept_value(instr, (value, mask, prov), to_width)

    # ------------------------------------------------------------------
    # Arrays

    def _indexed(self, instr, index):
        """The implicit flow of secret ``index`` at an array access.

        Under a binding tracker a bound repeat only counts.  The key
        fixes the node and, through the mask, the bits, as ``bind_flow``
        asks.
        """
        binder = self._binder
        if binder is None:
            self.tracker.indexed(instr.loc, index)
            return
        key = (instr, index.node, binder._active_ctx, index.mask)
        site = binder._bound.get(key)
        if site is not None:
            if not site.n:
                binder._dirty.append(site)
            site.n += 1
            return
        self.tracker.indexed(instr.loc, index)
        binder.bind_flow(key, instr.loc, index, index.bits)

    def _array_load(self, instr, array, index):
        if not isinstance(array, ArrayObject):
            raise VMError("indexing a non-array", instr.loc)
        if index[1]:
            self._indexed(instr, index[2])
        i = index[0]
        if not (0 <= i < array.length):
            raise VMError("array index %d out of bounds (len %d)"
                          % (i, array.length), instr.loc)
        if self._deferred:
            self._materialize_single(array, i)
        return (array.values[i], array.masks[i], array.provs[i])

    def _array_store(self, instr, array, index, value):
        if not isinstance(array, ArrayObject):
            raise VMError("indexing a non-array", instr.loc)
        if index[1]:
            self._indexed(instr, index[2])
        i = index[0]
        if not (0 <= i < array.length):
            raise VMError("array index %d out of bounds (len %d)"
                          % (i, array.length), instr.loc)
        self._store_element(instr, array, i, value)

    def _store_element(self, instr, array, i, value):
        if self._deferred:
            self.lazy.exclude(array.base_addr + i)
        array.values[i] = value[0]
        array.masks[i] = value[1]
        array.provs[i] = value[2]
        if self._regions:
            self._note_write(("heap", array.array_id, i))

    # ------------------------------------------------------------------
    # Calls

    def _call(self, instr, frame):
        name, nargs = instr.arg
        function = self.program.functions[name]
        args = [frame.stack.pop() for _ in range(nargs)]
        args.reverse()
        self.tracker.push_call(str(instr.loc))
        callee = self._push_frame(function)
        for (slot, is_array, _width), arg in zip(function.params, args):
            callee.slots[slot] = arg

    def _call_builtin(self, instr, frame):
        from .builtins import BUILTINS
        name, nargs, pushes = instr.arg
        builtin = BUILTINS[name]
        args = [frame.stack.pop() for _ in range(nargs)]
        args.reverse()
        result = builtin.execute(self, instr.loc, args)
        if pushes:
            frame.stack.append(result)

    # ------------------------------------------------------------------
    # I/O (called from builtins)

    def read_into_array(self, loc, array, max_count, secret):
        if not isinstance(array, ArrayObject):
            raise VMError("read target is not an array", loc)
        stream = self.secret_input if secret else self.public_input
        pos = self._secret_pos if secret else self._public_pos
        count = min(max_count, array.length, len(stream) - pos)
        if secret and count > 1 and self.backend == "fast":
            secret_values = getattr(self.tracker, "secret_values", None)
            if secret_values is not None:
                return self._read_into_array_bulk(loc, array, stream, pos,
                                                  count, secret_values)
        for i in range(count):
            byte = stream[pos + i]
            if secret:
                prov = self.tracker.secret_value(loc, 8)
                value = (byte, prov.mask, prov)
            else:
                value = (byte, 0, PUBLIC)
            self._store_element_raw(array, i, value)
        if secret:
            self._secret_pos = pos + count
        else:
            self._public_pos = pos + count
        return (count, 0, PUBLIC)

    def _read_into_array_bulk(self, loc, array, stream, pos, count,
                              secret_values):
        """Fast-backend secret array read: one tracker call, slice stores.

        Equivalent to the per-byte reference loop: the tracker's
        ``secret_values`` produces the same graph as ``count`` calls to
        ``secret_value`` (for a collapsing builder, in O(1) instead of
        O(count)), and the slice assignments store the same
        (value, mask, prov) triples.  Counted under
        ``shadow.fast.batch_ops`` / ``shadow.fast.batch_values``.
        """
        provs = secret_values(loc, 8, count)
        lazy = self.lazy
        if lazy is not None:
            base = array.base_addr
            for i in range(count):
                if not len(lazy):
                    break
                lazy.exclude(base + i)
        array.values[:count] = list(stream[pos:pos + count])
        array.masks[:count] = [p.mask for p in provs]
        array.provs[:count] = provs
        self._secret_pos = pos + count
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.incr("shadow.fast.batch_ops")
            metrics.incr("shadow.fast.batch_values", count)
        return (count, 0, PUBLIC)

    def _store_element_raw(self, array, i, value):
        """Store without write-checking: input arrival, not program writes."""
        if self._deferred:
            self.lazy.exclude(array.base_addr + i)
        array.values[i] = value[0]
        array.masks[i] = value[1]
        array.provs[i] = value[2]

    def read_scalar(self, loc, width, secret):
        stream = self.secret_input if secret else self.public_input
        pos = self._secret_pos if secret else self._public_pos
        nbytes = width // 8
        raw = stream[pos:pos + nbytes]
        value = int.from_bytes(raw.ljust(nbytes, b"\0"), "little")
        if secret:
            self._secret_pos = pos + nbytes
            prov = self.tracker.secret_value(loc, width)
            return (value, prov.mask, prov)
        self._public_pos = pos + nbytes
        return (value, 0, PUBLIC)

    def write_output(self, loc, tv):
        if self.interceptor is not None:
            self.interceptor.output(tv[0])
        self.outputs.append(tv[0])
        self.output_bytes.append(tv[0] & 0xFF)
        self.tracker.output(loc, [tv[2]] if tv[1] else [])
        if self.output_hook is not None:
            self.output_hook(self)

    def write_output_array(self, loc, array, count):
        if not isinstance(array, ArrayObject):
            raise VMError("output source is not an array", loc)
        count = min(count, array.length)
        provs = []
        for i in range(count):
            if self._deferred:
                self._materialize_single(array, i)
            self.outputs.append(array.values[i])
            self.output_bytes.append(array.values[i] & 0xFF)
            if array.masks[i]:
                provs.append(array.provs[i])
        if self.interceptor is not None:
            self.interceptor.output(bytes(array.values[i] & 0xFF
                                          for i in range(count)))
        self.tracker.output(loc, provs)
        if self.output_hook is not None:
            self.output_hook(self)

    # ------------------------------------------------------------------
    # Enclosure regions

    def _enter_region(self, instr, frame):
        info = self.program.regions[instr.arg]
        lengths = {}
        # Dynamic lengths were pushed in declaration order; pop reversed.
        dynamic = [out for out in info.outputs if out.dynamic_length]
        for out in reversed(dynamic):
            length_tv = frame.stack.pop()
            if length_tv[1]:
                raise VMError(
                    "enclosure output length for %r is secret" % out.name,
                    instr.loc)
            lengths[out.name] = length_tv[0]
        checker = None
        if self.region_check != "off":
            declared = []
            for out in info.outputs:
                key, length = self._output_key(out, frame, lengths)
                declared.append(DeclaredOutput(key, out.width, length))
            checker = RegionWriteChecker(
                declared, instr.loc, strict=(self.region_check == "strict"))
        self._regions.append(_ActiveRegion(info, lengths, checker,
                                           frame.frame_id))
        self.tracker.enter_region(instr.loc)

    def _output_key(self, out, frame, lengths):
        if out.kind == "scalar":
            if out.storage == "global":
                return ("global", 0, out.slot), 1
            return ("local", frame.frame_id, out.slot), 1
        array = (self.globals[out.slot] if out.storage == "global"
                 else frame.slots[out.slot])
        length = lengths.get(out.name, out.static_length)
        if length is None:
            length = array.length
        length = min(length, array.length)
        return ("heap", array.array_id, 0), length

    def _leave_region(self, instr, frame):
        if not self._regions:
            raise VMError("LEAVE without a matching ENTER", instr.loc)
        region = self._regions.pop()
        if region.checker is not None:
            undeclared = region.checker.validate()
            for key in undeclared[:10]:
                self.warnings.append(
                    "region at %s wrote undeclared location %r"
                    % (region.info.loc, key))
        exit_token = self.tracker.leave_region(instr.loc)
        for out in region.info.outputs:
            self._apply_region_output(instr, frame, region, exit_token, out)

    def _apply_region_output(self, instr, frame, region, exit_token, out):
        out_loc = instr.loc
        if out.kind == "scalar":
            if out.storage == "global":
                old = self.globals[out.slot]
            else:
                old = frame.slots[out.slot]
            if old is None:
                old = (0, 0, PUBLIC)
            old_prov = old[2] if old[1] else PUBLIC
            new_prov = self.tracker.region_output(
                self._detail_loc(out_loc, out.name), exit_token, old_prov,
                out.width)
            if new_prov is not old_prov or exit_token.had_implicit_flows:
                new = (old[0], new_prov.mask, new_prov)
            else:
                new = old
            new = self._intercept_value(instr, new, out.width,
                                        loc=self._detail_loc(out_loc,
                                                             out.name))
            if out.storage == "global":
                self.globals[out.slot] = new
            else:
                frame.slots[out.slot] = new
            if self._regions:
                self._note_write_outer(("global", 0, out.slot)
                                       if out.storage == "global"
                                       else ("local", frame.frame_id,
                                             out.slot))
            return
        # Array output.
        if not exit_token.had_implicit_flows:
            return
        array = (self.globals[out.slot] if out.storage == "global"
                 else frame.slots[out.slot])
        length = region.lengths.get(out.name, out.static_length)
        if length is None:
            length = array.length
        length = min(length, array.length)
        payload = (array, exit_token, self._detail_loc(out_loc, out.name),
                   out.width)
        covered = False
        if self.lazy is not None:
            covered = self.lazy.cover(array.base_addr, length, payload)
        if not covered:
            for i in range(length):
                self._apply_region_to_element(array, i, exit_token,
                                              payload[2], out.width)
        if self._regions:
            for i in range(length):
                self._note_write_outer(("heap", array.array_id, i))

    @staticmethod
    def _detail_loc(loc, name):
        from ..core.locations import Location
        return Location(loc.unit, loc.point,
                        "%s:%s" % (loc.detail or "", name))

    def _apply_region_to_element(self, array, i, exit_token, out_loc, width):
        old_prov = array.provs[i] if array.masks[i] else PUBLIC
        new_prov = self.tracker.region_output(out_loc, exit_token, old_prov,
                                              width)
        array.masks[i] = new_prov.mask
        array.provs[i] = new_prov

    def _materialize_single(self, array, i):
        """Apply any deferred region updates for one element, on demand."""
        addr = array.base_addr + i
        payloads = self.lazy.lookup(addr)
        if payloads is None:
            return
        for payload in list(payloads):
            p_array, exit_token, out_loc, width = payload
            self._apply_region_to_element(p_array, i, exit_token, out_loc,
                                          width)
        self.lazy.exclude(addr)

    def _materialize_range(self, start, length, exceptions, payload):
        """LazyRangeTable callback: write out a whole deferred descriptor."""
        p_array, exit_token, out_loc, width = payload
        base = p_array.base_addr
        for addr in range(start, start + length):
            if addr in exceptions:
                continue
            self._apply_region_to_element(p_array, addr - base, exit_token,
                                          out_loc, width)

    # ------------------------------------------------------------------
    # Region write bookkeeping

    def _note_write(self, key):
        for region in self._regions:
            if region.checker is not None:
                region.checker.note_write(key)

    def _declare_local(self, key):
        """Mark ``key`` as declared inside every active region."""
        for region in self._regions:
            if region.checker is not None:
                region.checker.declare_local(key)

    def _note_write_outer(self, key):
        """Note a region-exit update as a write in *enclosing* regions."""
        self._note_write(key)

    # ------------------------------------------------------------------
    # Lockstep interception

    def _intercept_value(self, instr, tv, width, loc=None):
        if self.interceptor is None:
            return tv
        loc = loc if loc is not None else instr.loc
        if not self.interceptor.at_cut("value", loc):
            return tv
        new_value = self.interceptor.intercept("value", loc, tv[0], width)
        if new_value != tv[0]:
            return (new_value, tv[1], tv[2])
        return tv

    def _intercept_branch(self, instr, cond):
        if not self.interceptor.at_cut("implicit", instr.loc):
            return cond
        new_value = self.interceptor.intercept("implicit", instr.loc,
                                               cond[0], 1)
        return (new_value, cond[1], cond[2])
