"""The dispatch loop of the compiled engine.

:func:`run_native` executes one :class:`repro.core.bytecode.FnCode` inside a
live :class:`~repro.core.interpreter.Interpreter` activation.  Called by
``Interpreter._execute_call_body``, it finds the parameter objects already
allocated and written, and its returned :class:`CValue` goes through the
same return-value post-processing the walker uses.
Called by a direct call (``OP_DCALL``) from another native function, it
takes the parameters as raw register values and returns a raw value.

Design notes
------------

* **One frame per activation.**  A whole function body runs inside one
  Python frame: a ``while`` loop over a tuple of instruction tuples,
  registers in a plain list.  A direct call (``OP_DCALL``) re-enters
  :func:`run_native` for the callee, so a chain of native calls costs one
  Python frame per C activation.  Fast paths touch raw ints only
  (``v.__class__ is int``); the ``UNINIT`` sentinel and boxed values
  automatically fail that test and fall into slow helpers that rebuild the
  walker's exact behavior by calling the *shared* helpers of
  :mod:`repro.core.plans` and the walker (``_read_with_plan``,
  ``_write_with_plan``, ``apply_binary``, ``to_boolean``, ...), so error
  kinds, messages, and order never fork from the walker's semantics.
* **Two-level dispatch.**  Opcodes are numbered densely by measured
  dynamic frequency (see the opcode table in :mod:`repro.core.bytecode`).
  The loop tests the group of eight first (``op < 8``, ``op < 16``, ...)
  and the opcode within its group second, so the hottest opcode costs two
  tests and none costs more than twelve.
* **Compare-and-branch.**  A ``BINOP`` or ``PCMP`` whose result the next
  ``JZ`` tests is one instruction (``BINJZ``, ``PCMPJZ``).  It writes its
  destination, charges the step count that rode on the jump, then
  branches; the slow paths are ``_binop_slow`` and ``_cond_slow``, in the
  order the two instructions called them.  Plain jumps carry a step charge
  too, so the ``STEP`` that ends a block costs no dispatch of its own.
* **Memory slots are pointer registers.**  A slot's register holds the
  fast form of the pointer to its object's first byte: a local slot's
  ``ALLOC`` and a static local's ``SDECL`` write it where the walker makes
  the object, so naming a local array or taking ``&x`` costs no dispatch;
  a unit-level object, or a parameter whose address is taken, is bound by
  ``DECAY`` on first use (the register is ``UNINIT`` until then).  Every
  load and store of a flat integer in memory is then ``PLD`` or ``PST``
  through a pointer register: ``a[i]`` like ``p[i]``, and a scalar slot
  at offset 0.  Only an initializer's ``INIT`` writes a fresh object
  directly, untracked as the walker's initialization is.
* **Pointer registers** hold ``UNINIT``, a boxed ``PointerValue`` (null,
  function, or dangling-base pointers, and anything stranger a slow path
  produced), or the fast form ``(obj, offset, elem)``: the
  ``MemoryObject`` the pointer's base names, the byte offset, and the
  object's interned element type (None when it has none, e.g. heap
  storage or ``_Bool``).  The pointer's type is the instruction's static
  type, which the compiler keeps equal to the run-time type.  A fast path
  runs only when it reaches the result the shared helper would:
  arithmetic needs a live object and an offset within ``0..size``; an
  access needs a live object, an in-bounds aligned offset, ``elem``
  identical to the target type, a writable object (stores), no pending
  sequenced write (loads), and concrete bytes, which the object's byte
  store reads and writes as integers (``read_int``/``write_int``).
  Otherwise the slow path boxes the operands and calls ``_pointer_add``,
  ``apply_binary``, ``_subscript_to_lvalue``, ``_deref_to_lvalue``,
  ``_read_with_plan``/``_write_with_plan``, ``_incdec_value`` or
  ``convert``, so every memory verdict comes from the same code as the
  walker's.  A compiled run keeps every object of nonzero size in an
  ``ArenaBytes`` or, from ``SPARSE_OBJECT_THRESHOLD`` bytes on, a
  ``SparseBytes``, and both have the integer path.
* **Sequencing** keeps feeding ``Memory.locs_written`` with plain
  ``(base, offset)`` tuples (hash-equal to the ``ByteLocation`` entries of
  the generic path), so unsequenced-conflict detection composes with any
  non-native code in the same program.
* **Steps** accumulate in a local and are synchronized with
  ``interp._steps`` around every boundary that can observe them (calls,
  a static local's first run, returns, resource-limit raises).  Most
  charges ride on a jump or ``RET`` (its ``steps`` operand): the compiler
  moves a block's charge past the register-only instructions after it, so
  a loop iteration pays no ``STEP`` dispatch.  An undefined-behavior error
  raised before its block's charge meets the walker's order in
  :func:`_walker_first`: the VM adds the steps the walker has charged by
  then (``FnCode.pending`` for the instruction, or the count a deferred
  read carries plus the instruction's ``FnCode.carried``), and past
  ``max_steps`` raises the step limit instead.
* **Checked arithmetic** is one call of the operation's plan on the fast
  path (``ins[4](a, b)``); the plan's range tests are inline, so an
  overflow check costs no further call until a value leaves its range.
* **Direct calls** keep every observable part of the interpreter's call:
  the call-site sequence point, ``max_call_depth``, a fresh ``Frame``
  with the next frame id, ``current_function``, the diagnostic's function
  name, the callee's ``kill_frame`` and an empty ``locs_written`` on
  return.  The parameters live only in registers, so no parameter object
  is allocated, but their bases are *reserved* (``Memory.reserve_bases``):
  every later object gets the base it would get on the generic path, and
  ``%p`` output and pointer-to-integer casts do not move.
* **Reserved bases** cover register locals too: a register declaration
  allocates nothing, and ``OP_RSV`` reserves the bases of a run of them
  before the next allocation, jump or return, in the order the walker's
  declarations take them.  A scalar compound literal read as a value
  reserves its base the same way.
"""

from __future__ import annotations

from repro.cfront import ctypes as ct
from repro.core.bytecode import (
    CompiledProgram,
    FnCode,
    INTERNED_INTS,
    OP_BINDP,
    OP_BINDR,
    OP_BINJZ,
    OP_BINOP,
    OP_BOOL,
    OP_CALL,
    OP_CONV,
    OP_ALLOC,
    OP_DCALL,
    OP_DECAY,
    OP_INC,
    OP_INIT,
    OP_JMP,
    OP_JNZ,
    OP_JZ,
    OP_LOADI,
    OP_MOV,
    OP_NOT,
    OP_PADD,
    OP_PCMP,
    OP_PCMPJZ,
    OP_PCONV,
    OP_PDCHK,
    OP_PDIFF,
    OP_PINC,
    OP_PLD,
    OP_POPSC,
    OP_PST,
    OP_PUSHSC,
    OP_RAISE,
    OP_RDCHK,
    OP_RET,
    OP_RSV,
    OP_SDECL,
    OP_SEQPT,
    OP_STEP,
    OP_STR,
    OP_UNOP,
    UNINIT,
)
from repro.core.conversions import convert, to_boolean
from repro.core.environment import Frame
from repro.core.memory import StorageKind
from repro.core.plans import _read_with_plan, _write_with_plan
from repro.core.values import (
    ConcreteByte,
    IndeterminateValue,
    IntValue,
    PointerValue,
    UnknownByte,
    decode_value,
    encode_value,
    unknown_bytes,
)
from repro.errors import ResourceLimitError, UBKind, UndefinedBehaviorError

__all__ = ["run_native"]


# ---------------------------------------------------------------------------
# Boxing between registers and CValues
# ---------------------------------------------------------------------------

def _box(value, ctype: ct.CType, profile):
    """Box a register value for a shared helper (slow paths only)."""
    if value.__class__ is int:
        return IntValue(value, ctype)
    if value.__class__ is tuple:
        return PointerValue(base=value[0].base, offset=value[1], type=ctype)
    if value is UNINIT:
        try:
            size = ct.size_of(ctype, profile)
        except ct.LayoutError:
            size = 0
        return IndeterminateValue(type=ctype, data=tuple(unknown_bytes(size)))
    return value  # already a CValue (string-literal pointer)


def _unbox(value):
    """Unbox a shared-helper result back into a register value."""
    if type(value) is IntValue:
        return value.value
    if type(value) is IndeterminateValue:
        return UNINIT
    return value


def _elem_of(obj):
    """The interned integer type a fast pointer into ``obj`` may load and
    store natively; None for heap objects, aggregates and _Bool."""
    declared = obj.declared_type
    if declared.__class__ is ct.ArrayType:
        declared = declared.element
    if declared.__class__ is ct.IntType:
        return INTERNED_INTS.get(declared.unqualified())
    return None


def _unbox_ptr(memory, value):
    """A shared-helper result as a pointer register value: the fast form
    ``(obj, offset, elem)`` for a pointer to an existing object."""
    if value.__class__ is PointerValue:
        if value.function is None:
            obj = memory.objects.get(value.base)
            if obj is not None:
                return (obj, value.offset, _elem_of(obj))
        return value
    if value.__class__ is IndeterminateValue and any(
        byte.__class__ is UnknownByte for byte in value.data
    ):
        return UNINIT
    return value


class _DeferredRead(Exception):
    """An indeterminate register read found by its consumer.  ``read`` is
    the compiler's ``(message, steps)``: the walker reads it that many steps
    into the block, so :func:`run_native` decides which verdict comes first."""

    def __init__(self, read: tuple, line: int) -> None:
        self.read = read
        self.line = line


def _raise_read(read: tuple, line: int):
    raise _DeferredRead(read, line)


def _walker_first(fn: FnCode, charged: int, error: UndefinedBehaviorError):
    """Raise ``error`` unless the walker, which charges every node before
    evaluating it, would have run past ``max_steps`` after ``charged`` steps
    and so stopped at the step limit first."""
    if charged > fn.max_steps:
        raise ResourceLimitError(fn.limit_message) from None
    raise error


def _deferred_read(interp, value, msg, line: int) -> None:
    """Raise a register read's uninitialized-read error, if it applies."""
    if value is UNINIT and msg is not None and interp.options.check_uninitialized:
        _raise_read(msg, line)


_UNSEQ_WRITE = (
    "Unsequenced side effect on scalar object with side effect of same object."
)


# ---------------------------------------------------------------------------
# Slot binding
# ---------------------------------------------------------------------------

def _slot_pointer(obj) -> tuple:
    """The fast form of the pointer to ``obj``'s first byte."""
    return (obj, 0, _elem_of(obj))


def _bind_slot(interp, name: str) -> tuple:
    """``OP_DECAY``: the pointer to a parameter's or a unit-level object's
    object.  A native function's locals make no frame bindings, so a name
    in the frame is a parameter."""
    binding = interp.frames[-1].lookup(name)
    if binding is None:
        binding = interp.global_bindings[name]
    return _slot_pointer(interp.memory.objects[binding.base])


def _alloc_slot(interp, ins: tuple) -> tuple:
    """``OP_ALLOC``: the automatic object the walker's declaration makes,
    owned by the innermost run-time scope so it dies with its block."""
    _op, _reg, ctype, name, size, fill, seal = ins
    frame = interp.frames[-1]
    memory = interp.memory
    obj = memory.allocate(
        size, StorageKind.AUTO, name=name, declared_type=ctype, frame=frame.frame_id
    )
    if fill is True:
        obj.zero_fill()
    elif fill:
        obj.data[0 : len(fill)] = [ConcreteByte(byte) for byte in fill]
    frame.scopes[-1].owned_bases.append(obj.base)
    if seal:
        memory.mark_not_writable(obj.base)
    return _slot_pointer(obj)


def _init_slow(interp, obj, value, offset: int, elem: ct.CType) -> None:
    """An initializer's store of a non-int value (an indeterminate one):
    its bytes, written unchecked like the walker's initialization of a
    fresh object."""
    profile = interp.profile
    data = encode_value(_box(value, elem.unqualified(), profile), elem, profile)
    obj.data[offset : offset + len(data)] = data


def _bind_pointer(interp, name: str, ctype: ct.CType):
    """Load a pointer parameter from its freshly written object."""
    memory = interp.memory
    obj = memory.objects[interp.frames[-1].lookup(name).base]
    value = decode_value(obj.data[0 : obj.size], ctype, interp.profile)
    return _unbox_ptr(memory, value)


# ---------------------------------------------------------------------------
# Slow helpers (cold paths; every one defers to the shared semantics)
# ---------------------------------------------------------------------------

def _cond_slow(interp, value, rdmsg, rdline: int, line: int) -> bool:
    """A branch condition that is not a raw int (UNINIT or boxed)."""
    if value.__class__ is tuple:
        return True  # a pointer to an object is never null
    if value is UNINIT:
        _deferred_read(interp, value, rdmsg, rdline)
        value = IndeterminateValue(type=ct.INT, data=())
    return to_boolean(value, interp.options, line=line)


def _read_checks(interp, a, lmsg, lline, b, rmsg, rline, order_mode: int) -> None:
    """Raise the deferred uninitialized reads of two operands, in the order
    the walker evaluates them."""
    if order_mode == 0:
        _deferred_read(interp, a, lmsg, lline)
        _deferred_read(interp, b, rmsg, rline)
    else:
        _deferred_read(interp, b, rmsg, rline)
        _deferred_read(interp, a, lmsg, lline)


def _binop_boxed(interp, a, b, slow, order_mode: int):
    op, line, ltype, rtype, lmsg, lline, rmsg, rline = slow
    _read_checks(interp, a, lmsg, lline, b, rmsg, rline, order_mode)
    profile = interp.profile
    return interp.apply_binary(
        op, _box(a, ltype, profile), _box(b, rtype, profile), line
    )


def _binop_slow(interp, a, b, slow, order_mode: int):
    return _unbox(_binop_boxed(interp, a, b, slow, order_mode))


def _subscript_slow(interp, left, right, operands, order_mode: int):
    """The element ``left[right]`` designates, resolved as the walker's
    subscript does (deferred reads first)."""
    _op, line, ltype, rtype, lmsg, lline, rmsg, rline = operands
    _read_checks(interp, left, lmsg, lline, right, rmsg, rline, order_mode)
    profile = interp.profile
    return interp._subscript_to_lvalue(
        _box(left, ltype, profile), _box(right, rtype, profile), line
    )


def _padd_slow(interp, pointer, index, slow, order_mode: int):
    """Pointer plus integer, as ``apply_binary`` or a subscript computes it."""
    subscript, swapped, operands = slow
    left, right = (index, pointer) if swapped else (pointer, index)
    if subscript:
        result = _subscript_slow(interp, left, right, operands, order_mode).pointer
    else:
        result = _binop_boxed(interp, left, right, operands, order_mode)
    return _unbox_ptr(interp.memory, result)


def _pld_slow(interp, pointer, index, slow, order_mode: int):
    """Load through a pointer (``swapped`` None) or a pointer subscript,
    resolved at the operands' line and read at ``read_line``."""
    swapped, operands, info, read_line = slow
    _op, line, ptype, _itype, pmsg, pline, _imsg, _iline = operands
    if swapped is None:
        _deferred_read(interp, pointer, pmsg, pline)
        boxed = _box(pointer, ptype, interp.profile)
        lvalue = interp._deref_to_lvalue(boxed, line)
    else:
        left, right = (index, pointer) if swapped else (pointer, index)
        lvalue = _subscript_slow(interp, left, right, operands, order_mode)
    return _unbox(_read_with_plan(interp, lvalue, info[1:], read_line))


def _pst_slow(interp, pointer, value, slow):
    """Store through a pointer that is not on the fast path."""
    line, target_line, ptype, pmsg, pline, info = slow
    _deferred_read(interp, pointer, pmsg, pline)
    profile = interp.profile
    lvalue = interp._deref_to_lvalue(_box(pointer, ptype, profile), target_line)
    boxed = _box(value, info[0].unqualified(), profile)
    _write_with_plan(interp, lvalue, info[1:], boxed, line)


def _pdchk_slow(interp, pointer, slow):
    """A store target's read and dereferenceability, checked early."""
    ptype, rdmsg, rdline, line = slow
    if pointer is UNINIT and rdmsg is not None:
        _raise_read(rdmsg, rdline)
    interp._deref_to_lvalue(_box(pointer, ptype, interp.profile), line)


def _pinc_slow(interp, pointer, slow):
    line, ptype, rdmsg, delta = slow
    _deferred_read(interp, pointer, rdmsg, line)
    boxed = _box(pointer, ptype, interp.profile)
    return _unbox_ptr(interp.memory, interp._incdec_value(boxed, delta, ptype, line))


def _pconv_slow(interp, value, slow):
    """Convert to a pointer type (a cast, or the value an assignment stores)."""
    source, target, line, rdmsg, rdline, explicit = slow
    _deferred_read(interp, value, rdmsg, rdline)
    converted = convert(
        _box(value, source, interp.profile),
        target,
        interp.options,
        line=line,
        explicit=explicit,
        pointer_registry=interp.pointer_registry,
    )
    return _unbox_ptr(interp.memory, converted)


def _unop_slow(interp, value, slow):
    what, line, ctype, rdmsg, rdline, plan = slow
    _deferred_read(interp, value, rdmsg, rdline)
    checked = interp._require_arithmetic(_box(value, ctype, interp.profile), line, what)
    return plan(checked.value)


def _conv_slow(interp, value, slow):
    target, line, rdmsg, rdline, source = slow
    if value is UNINIT:
        _deferred_read(interp, value, rdmsg, rdline)
        return UNINIT  # convert() passes indeterminate values through
    # A pointer, or a builtin's result of unknown run-time type.
    boxed = _box(value, source, interp.profile)
    converted = convert(
        boxed,
        target,
        interp.options,
        line=line,
        pointer_registry=interp.pointer_registry,
    )
    return _unbox(converted)


def _inc_slow(interp, value, slow):
    """Increment of an indeterminate register value; returns (old, new)."""
    line, vtype, rdmsg, plan = slow
    _deferred_read(interp, value, rdmsg, line)
    checked = interp._require_arithmetic(
        _box(value, vtype, interp.profile), line, "operand of ++/--"
    )
    old = checked.value
    return old, plan(old)


def _seq_conflict_check(memory, base: int, start: int, size: int, line: int) -> None:
    """The fast-path port of ``write_bytes``'s unsequenced-write detection."""
    locs = memory.locs_written
    if locs:
        for offset in range(start, start + size):
            if (base, offset) in locs:
                raise UndefinedBehaviorError(
                    UBKind.UNSEQUENCED_SIDE_EFFECT, _UNSEQ_WRITE, line=line
                )
    for offset in range(start, start + size):
        locs.add((base, offset))


def _generic_call(interp, R: list, ins: tuple, order_mode: int) -> None:
    """``OP_CALL``: the interpreter's own call path.  The deferred argument
    reads first, in evaluation order, then the boxed arguments through
    ``_convert_arguments`` and ``call_function``."""
    dst, name, ftype, args, line, pointer_result = ins[1:]
    interp.current_line = line
    if interp.options.check_uninitialized and args:
        scan = args if order_mode == 0 else reversed(args)
        for reg, _ctype, rdmsg, rdline in scan:
            if R[reg] is UNINIT and rdmsg is not None:
                _raise_read(rdmsg, rdline)
    profile = interp.profile
    values = [_box(R[reg], ctype, profile) for reg, ctype, _m, _l in args]
    values = interp._convert_arguments(values, name, ftype, line)
    interp.memory.sequence_point()
    result = interp.call_function(name, values, line, declared_type=ftype)
    if dst >= 0:
        R[dst] = _unbox_ptr(interp.memory, result) if pointer_result else _unbox(result)


# ---------------------------------------------------------------------------
# The dispatch loop
# ---------------------------------------------------------------------------

def run_native(interp, program: CompiledProgram, fn: FnCode, args=None):
    """Run one compiled function body.

    Called by ``Interpreter._execute_call_body`` (``args`` None), it
    returns the boxed return value for the shared post-processing (None
    means "fell off the end", exactly like a walker body that never raised
    ``ReturnSignal``).  Called by ``OP_DCALL`` with ``args``, the converted
    parameter values, it seeds the parameter registers, skips the prologue
    and returns the raw register value the caller receives (UNINIT when the
    body falls off the end).
    """
    code = fn.code
    if args is None:
        R = list(fn.r_init)
        pc = 0
    else:
        R = args
        R += fn.r_tail
        pc = fn.entry
    memory = interp.memory
    options = program.options
    check_seq = options.check_sequencing
    check_uninit = options.check_uninitialized
    order_mode = program.order_mode
    max_steps = fn.max_steps
    steps = interp._steps
    try:
        while True:
            ins = code[pc]
            pc += 1
            op = ins[0]
            if op < 8:
                if op == OP_BINOP:
                    a = R[ins[2]]
                    b = R[ins[3]]
                    if a.__class__ is int and b.__class__ is int:
                        R[ins[1]] = ins[4](a, b)
                    else:
                        R[ins[1]] = _binop_slow(interp, a, b, ins[5], order_mode)
                elif op == OP_JMP:
                    steps += ins[2]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                    pc = ins[1]
                elif op == OP_BINJZ:
                    a = R[ins[2]]
                    b = R[ins[3]]
                    if a.__class__ is int and b.__class__ is int:
                        value = R[ins[1]] = ins[4](a, b)
                    else:
                        value = R[ins[1]] = _binop_slow(
                            interp, a, b, ins[5], order_mode
                        )
                    steps += ins[6]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                    if value.__class__ is not int:
                        value = _cond_slow(interp, value, ins[9], ins[10], ins[8])
                    if not value:
                        pc = ins[7]
                elif op == OP_INC:
                    value = R[ins[1]]
                    if value.__class__ is int:
                        R[ins[1]] = ins[3](value)
                        if ins[2] >= 0:
                            R[ins[2]] = value
                    else:
                        old, new = _inc_slow(interp, value, ins[4])
                        R[ins[1]] = new
                        if ins[2] >= 0:
                            R[ins[2]] = old
                elif op == OP_PLD:
                    pointer = R[ins[2]]
                    index = R[ins[3]]
                    if pointer.__class__ is tuple and index.__class__ is int:
                        obj = pointer[0]
                        esize = ins[4]
                        offset = pointer[1] + index * esize
                        if (
                            pointer[2] is ins[5]
                            and obj.alive
                            and 0 <= offset <= obj.size - esize
                            and offset % esize == 0
                            and not (check_seq and memory.locs_written)
                        ):
                            value = obj.data.read_int(offset, esize, ins[6])
                            if value is not None:
                                R[ins[1]] = value
                                continue
                    R[ins[1]] = _pld_slow(interp, pointer, index, ins[7], order_mode)
                elif op == OP_PADD:
                    pointer = R[ins[2]]
                    index = R[ins[3]]
                    if pointer.__class__ is tuple and index.__class__ is int:
                        obj = pointer[0]
                        offset = pointer[1] + index * ins[4]
                        if obj.alive and 0 <= offset <= obj.size:
                            R[ins[1]] = (obj, offset, pointer[2])
                            continue
                    R[ins[1]] = _padd_slow(interp, pointer, index, ins[5], order_mode)
                elif op == OP_RDCHK:
                    if R[ins[1]] is UNINIT:
                        _raise_read(ins[2], ins[3])
                elif op == OP_CONV:
                    value = R[ins[2]]
                    if value.__class__ is int:
                        R[ins[1]] = ins[3](value)
                    else:
                        R[ins[1]] = _conv_slow(interp, value, ins[4])
            elif op < 16:
                if op == OP_PCMPJZ:
                    a = R[ins[2]]
                    b = R[ins[3]]
                    if a.__class__ is tuple and b.__class__ is tuple and a[0] is b[0]:
                        value = R[ins[1]] = ins[4](a[1], b[1])
                    else:
                        value = R[ins[1]] = _binop_slow(
                            interp, a, b, ins[5], order_mode
                        )
                    steps += ins[6]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                    if value.__class__ is not int:
                        value = _cond_slow(interp, value, ins[9], ins[10], ins[8])
                    if not value:
                        pc = ins[7]
                elif op == OP_PINC:
                    pointer = R[ins[1]]
                    if pointer.__class__ is tuple:
                        obj = pointer[0]
                        offset = pointer[1] + ins[3]
                        if obj.alive and 0 <= offset <= obj.size:
                            R[ins[1]] = (obj, offset, pointer[2])
                            if ins[2] >= 0:
                                R[ins[2]] = pointer
                            continue
                    R[ins[1]] = _pinc_slow(interp, pointer, ins[4])
                    if ins[2] >= 0:
                        R[ins[2]] = pointer
                elif op == OP_STEP:
                    steps += ins[1]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                elif op == OP_RET:
                    steps += ins[5]
                    interp._steps = steps
                    if steps > max_steps:
                        raise ResourceLimitError(fn.limit_message)
                    if ins[1] < 0:
                        return None if args is None else UNINIT
                    value = R[ins[1]]
                    if value is UNINIT and ins[3] is not None and check_uninit:
                        _raise_read(ins[3], ins[4])
                    if args is not None:
                        return value
                    if value.__class__ is int:
                        return IntValue(value, ins[2])
                    return _box(value, ins[2], interp.profile)
                elif op == OP_DCALL:
                    # The interpreter's call path for a clean site (see
                    # _link_call), minus the parameter objects and the boxing:
                    # an argument is a raw int converted to its parameter type,
                    # a fast pointer, or (with uninitialized reads unchecked) an
                    # indeterminate integer.  Any other value, or attached
                    # probes, takes the generic path.
                    values = []
                    for reg, plan in ins[3]:
                        value = R[reg]
                        if value.__class__ is int:
                            value = plan(value)
                        elif value.__class__ is not tuple and (
                            plan is None or value is not UNINIT or check_uninit
                        ):
                            values = None
                            break
                        values.append(value)
                    if values is None or interp.events is not None:
                        interp._steps = steps
                        _generic_call(interp, R, ins[5], order_mode)
                        steps = interp._steps
                        continue
                    callee = ins[2]
                    name = callee.name
                    line = ins[4]
                    interp.current_line = line
                    memory.locs_written.clear()  # the sequence point before the call
                    interp._steps = steps
                    frames = interp.frames
                    if len(frames) >= interp.options.max_call_depth:
                        raise ResourceLimitError("call depth limit exceeded")
                    frame = Frame(
                        interp._next_frame_id(),
                        name,
                        callee.ftype.return_type,
                        call_line=line,
                    )
                    frame.push_scope()
                    frames.append(frame)
                    caller = interp.current_function
                    interp.current_function = name
                    memory.reserve_bases(callee.entry)  # the parameter objects' bases
                    try:
                        value = run_native(interp, program, callee, values)
                    except UndefinedBehaviorError as error:
                        if error.function is None:
                            error.function = name
                        raise
                    finally:
                        memory.kill_frame(frame.frame_id)
                        frames.pop()
                        interp.current_function = caller
                        memory.locs_written = set()
                    steps = interp._steps
                    if ins[1] >= 0:
                        R[ins[1]] = value
                elif op == OP_RSV:
                    memory.reserve_bases(ins[1])
                elif op == OP_SEQPT:
                    memory.locs_written.clear()
                elif op == OP_MOV:
                    R[ins[1]] = R[ins[2]]
            elif op < 24:
                if op == OP_INIT:
                    obj = R[ins[1]][0]
                    value = R[ins[2]]
                    if value.__class__ is int:
                        obj.data.write_int(ins[3], ins[4], value & ins[5])
                    else:
                        _init_slow(interp, obj, value, ins[3], ins[6])
                    if ins[7]:
                        memory.mark_not_writable(obj.base)
                elif op == OP_PST:
                    pointer = R[ins[1]]
                    value = R[ins[2]]
                    if pointer.__class__ is tuple and value.__class__ is int:
                        obj = pointer[0]
                        offset = pointer[1]
                        esize = ins[3]
                        if (
                            pointer[2] is ins[4]
                            and obj.alive
                            and 0 <= offset <= obj.size - esize
                            and offset % esize == 0
                            and obj.base not in memory.not_writable
                        ):
                            if check_seq:
                                _seq_conflict_check(
                                    memory, obj.base, offset, esize, ins[6][0]
                                )
                            obj.data.write_int(offset, esize, value & ins[5])
                            continue
                    _pst_slow(interp, pointer, value, ins[6])
                elif op == OP_NOT:
                    value = R[ins[2]]
                    if value.__class__ is int:
                        R[ins[1]] = 1 if value == 0 else 0
                    else:
                        truth = _cond_slow(interp, value, ins[4], ins[5], ins[3])
                        R[ins[1]] = 0 if truth else 1
                elif op == OP_JZ:
                    steps += ins[6]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                    value = R[ins[1]]
                    if value.__class__ is not int:
                        value = _cond_slow(interp, value, ins[4], ins[5], ins[3])
                    if not value:
                        pc = ins[2]
                elif op == OP_CALL:
                    interp._steps = steps
                    _generic_call(interp, R, ins, order_mode)
                    steps = interp._steps
                elif op == OP_PCONV:
                    value = R[ins[2]]
                    if value.__class__ is tuple:
                        R[ins[1]] = value
                    else:
                        R[ins[1]] = _pconv_slow(interp, value, ins[3])
                elif op == OP_BINDR:
                    binding = interp.frames[-1].lookup(ins[2])
                    obj = memory.objects[binding.base]
                    value = obj.data.read_int(0, ins[3], ins[4])
                    R[ins[1]] = UNINIT if value is None else value
                elif op == OP_ALLOC:
                    R[ins[1]] = _alloc_slot(interp, ins)
            elif op < 32:
                if op == OP_STR:
                    R[ins[1]] = _unbox_ptr(
                        memory, interp.string_literal_object(ins[2])[0]
                    )
                elif op == OP_UNOP:
                    value = R[ins[2]]
                    if value.__class__ is int:
                        R[ins[1]] = ins[3](value)
                    else:
                        R[ins[1]] = _unop_slow(interp, value, ins[4])
                elif op == OP_PUSHSC:
                    interp.frames[-1].push_scope()
                elif op == OP_POPSC:
                    scope = interp.frames[-1].pop_scope()
                    for base in scope.owned_bases:
                        memory.kill(base)
                elif op == OP_PDCHK:
                    pointer = R[ins[1]]
                    if pointer.__class__ is not tuple:
                        _pdchk_slow(interp, pointer, ins[2])
                elif op == OP_SDECL:
                    interp.current_line = ins[3]
                    interp._steps = steps
                    binding = interp.static_local_binding(ins[2])
                    steps = interp._steps
                    R[ins[1]] = _slot_pointer(memory.objects[binding.base])
                elif op == OP_LOADI:
                    R[ins[1]] = ins[2]
                elif op == OP_PDIFF:
                    a = R[ins[2]]
                    b = R[ins[3]]
                    if a.__class__ is tuple and b.__class__ is tuple and a[0] is b[0]:
                        value = (a[1] - b[1]) // ins[4]
                        if ins[5] <= value <= ins[6]:
                            R[ins[1]] = value
                            continue
                    R[ins[1]] = _binop_slow(interp, a, b, ins[7], order_mode)
            elif op < 40:
                if op == OP_DECAY:
                    if R[ins[1]] is UNINIT:
                        R[ins[1]] = _bind_slot(interp, ins[2])
                elif op == OP_PCMP:
                    a = R[ins[2]]
                    b = R[ins[3]]
                    if a.__class__ is tuple and b.__class__ is tuple and a[0] is b[0]:
                        R[ins[1]] = ins[4](a[1], b[1])
                    else:
                        R[ins[1]] = _binop_slow(interp, a, b, ins[5], order_mode)
                elif op == OP_BINDP:
                    R[ins[1]] = _bind_pointer(interp, ins[2], ins[3])
                elif op == OP_JNZ:
                    steps += ins[6]
                    if steps > max_steps:
                        interp._steps = steps
                        raise ResourceLimitError(fn.limit_message)
                    value = R[ins[1]]
                    if value.__class__ is not int:
                        value = _cond_slow(interp, value, ins[4], ins[5], ins[3])
                    if value:
                        pc = ins[2]
                elif op == OP_BOOL:
                    value = R[ins[2]]
                    if value.__class__ is int:
                        R[ins[1]] = 1 if value != 0 else 0
                    else:
                        truth = _cond_slow(interp, value, ins[4], ins[5], ins[3])
                        R[ins[1]] = 1 if truth else 0
                elif op == OP_RAISE:
                    interp._steps = steps
                    raise UndefinedBehaviorError(ins[1], ins[2], line=ins[3])
            else:  # pragma: no cover - the numbering is dense and ends here
                raise AssertionError(f"unknown opcode {op}")
    except _DeferredRead as read:
        error = UndefinedBehaviorError(
            UBKind.UNINITIALIZED_READ, read.read[0], line=read.line
        )
        _walker_first(fn, steps + read.read[1] + fn.carried.get(pc - 1, 0), error)
    except UndefinedBehaviorError as error:
        _walker_first(fn, steps + fn.pending[pc - 1], error)
