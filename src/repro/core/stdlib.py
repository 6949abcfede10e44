"""The C standard library functions implemented natively on the abstract machine.

The paper's tool links programs against a C implementation of the library;
here the library is implemented directly on the symbolic memory so that the
same undefinedness checks apply inside library calls (e.g. ``memcpy`` past the
end of a buffer is reported the same way as a direct out-of-bounds write, and
``memcpy`` of uninitialized struct padding copies the indeterminate bytes
without flagging them, §4.3.3).

Every builtin has the signature ``builtin(interp, args, line) -> CValue``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.cfront import ctypes as ct
from repro.core.environment import ExitSignal
from repro.core.memory import SparseBytes, StorageKind
from repro.core.values import (
    Byte,
    ConcreteByte,
    CValue,
    FloatValue,
    IndeterminateValue,
    IntValue,
    PointerValue,
    UnknownByte,
    VoidValue,
)
from repro.errors import ResourceLimitError, UBKind, UndefinedBehaviorError
from repro.events import (
    FAMILY_ARITHMETIC,
    FAMILY_FUNCTIONS,
    FAMILY_MEMORY,
    FAMILY_UNINITIALIZED,
    report_undefined,
)

BuiltinImpl = Callable[["Interpreter", list[CValue], int], CValue]  # noqa: F821

#: Allocation requests above this size are treated as exhausting memory and
#: yield a null pointer, like a real malloc would under memory pressure.
_ALLOCATION_LIMIT = 1 << 26


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _int_arg(interp, args: list[CValue], index: int, line: int, name: str) -> int:
    if index >= len(args):
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Missing argument {index + 1} to {name}().", line=line)
    value = args[index]
    if isinstance(value, IndeterminateValue):
        if interp.options.check_uninitialized:
            report_undefined(UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                f"Indeterminate value passed to {name}().", line=line),
                FAMILY_UNINITIALIZED)
        return 0
    if isinstance(value, IntValue):
        return value.value
    if isinstance(value, FloatValue):
        return int(value.value)
    if isinstance(value, PointerValue) and value.is_null:
        return 0
    raise UndefinedBehaviorError(
        UBKind.BAD_FUNCTION_CALL, f"Argument {index + 1} to {name}() must be an integer.",
        line=line)


def _float_arg(interp, args: list[CValue], index: int, line: int, name: str) -> float:
    if index >= len(args):
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Missing argument {index + 1} to {name}().", line=line)
    value = args[index]
    if isinstance(value, FloatValue):
        return value.value
    if isinstance(value, IntValue):
        return float(value.value)
    if isinstance(value, IndeterminateValue) and interp.options.check_uninitialized:
        report_undefined(UndefinedBehaviorError(
            UBKind.UNINITIALIZED_READ, f"Indeterminate value passed to {name}().", line=line),
            FAMILY_UNINITIALIZED)
    raise UndefinedBehaviorError(
        UBKind.BAD_FUNCTION_CALL, f"Argument {index + 1} to {name}() must be numeric.", line=line)


def _pointer_arg(interp, args: list[CValue], index: int, line: int, name: str) -> PointerValue:
    if index >= len(args):
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Missing argument {index + 1} to {name}().", line=line)
    value = args[index]
    if isinstance(value, PointerValue):
        return value
    if isinstance(value, IntValue) and value.value == 0:
        return PointerValue(base=None, offset=0, type=ct.VOID_PTR)
    if isinstance(value, IndeterminateValue):
        raise UndefinedBehaviorError(
            UBKind.UNINITIALIZED_READ,
            f"Indeterminate pointer passed to {name}().", line=line)
    raise UndefinedBehaviorError(
        UBKind.BAD_FUNCTION_CALL, f"Argument {index + 1} to {name}() must be a pointer.",
        line=line)


def _read_c_string(interp, pointer: PointerValue, line: int, name: str,
                   limit: Optional[int] = None) -> str:
    """Read a NUL-terminated string, reporting missing terminators and bad reads."""
    memory = interp.memory
    obj = memory.check_access(pointer, 1, write=False, line=line)
    characters: list[str] = []
    offset = pointer.offset
    count = 0
    while True:
        if limit is not None and count >= limit:
            return "".join(characters)
        if obj is not None and offset >= obj.size:
            raise UndefinedBehaviorError(
                UBKind.UNTERMINATED_STRING_OP,
                f"{name}() reads past the end of the object: no terminating NUL.", line=line)
        data = memory.read_bytes(pointer.with_offset(offset), 1, line=line,
                                 lvalue_type=ct.CHAR, track_sequencing=False)
        byte = data[0]
        if isinstance(byte, UnknownByte):
            if interp.options.check_uninitialized:
                report_undefined(UndefinedBehaviorError(
                    UBKind.UNINITIALIZED_READ,
                    f"{name}() reads an uninitialized byte.", line=line),
                    FAMILY_UNINITIALIZED)
            return "".join(characters)
        if not isinstance(byte, ConcreteByte):
            raise UndefinedBehaviorError(
                UBKind.EFFECTIVE_TYPE_VIOLATION,
                f"{name}() reads a non-character object representation.", line=line)
        if byte.value == 0:
            return "".join(characters)
        characters.append(chr(byte.value))
        offset += 1
        count += 1


def _write_c_string(interp, pointer: PointerValue, text: str, line: int,
                    include_nul: bool = True) -> None:
    data: list[Byte] = [ConcreteByte(ord(ch) & 0xFF) for ch in text]
    if include_nul:
        data.append(ConcreteByte(0))
    interp.memory.write_bytes(pointer, data, line=line, lvalue_type=ct.CHAR,
                              track_sequencing=False)


def _check_overlap(interp, dest: PointerValue, src: PointerValue, count: int,
                   line: int, name: str) -> None:
    if not interp.options.check_memory or count == 0:
        return
    if dest.base is None or src.base is None or dest.base != src.base:
        return
    d0, d1 = dest.offset, dest.offset + count
    s0, s1 = src.offset, src.offset + count
    if d0 < s1 and s0 < d1:
        report_undefined(UndefinedBehaviorError(
            UBKind.OVERLAPPING_COPY,
            f"{name}() called with overlapping source and destination.", line=line),
            FAMILY_MEMORY)


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def _malloc(interp, args, line) -> CValue:
    size = _int_arg(interp, args, 0, line, "malloc")
    if size < 0 or size > _ALLOCATION_LIMIT:
        if size < 0 and interp.options.check_memory:
            report_undefined(UndefinedBehaviorError(
                UBKind.NEGATIVE_SIZE_ALLOCATION,
                f"malloc() called with pathological size {size}.", line=line),
                FAMILY_MEMORY)
        return PointerValue(base=None, offset=0, type=ct.VOID_PTR)
    obj = interp.memory.allocate(size, StorageKind.HEAP, name=f"malloc({size})")
    return PointerValue(base=obj.base, offset=0, type=ct.VOID_PTR)


def _calloc(interp, args, line) -> CValue:
    count = _int_arg(interp, args, 0, line, "calloc")
    size = _int_arg(interp, args, 1, line, "calloc")
    total = count * size
    if total < 0 or total > _ALLOCATION_LIMIT:
        return PointerValue(base=None, offset=0, type=ct.VOID_PTR)
    obj = interp.memory.allocate(total, StorageKind.HEAP, name=f"calloc({count},{size})",
                                 data=[ConcreteByte(0) for _ in range(total)])
    return PointerValue(base=obj.base, offset=0, type=ct.VOID_PTR)


def _realloc(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "realloc")
    size = _int_arg(interp, args, 1, line, "realloc")
    if pointer.is_null:
        return _malloc(interp, [IntValue(size, ct.ULONG)], line)
    old = interp.memory.object_for(pointer.base)
    if old is None or old.kind is not StorageKind.HEAP or not old.alive:
        raise UndefinedBehaviorError(
            UBKind.BAD_FREE, "realloc() of a pointer not obtained from an allocation function.",
            line=line)
    if size < 0 or size > _ALLOCATION_LIMIT:
        return PointerValue(base=None, offset=0, type=ct.VOID_PTR)
    new_obj = interp.memory.allocate(size, StorageKind.HEAP, name=f"realloc({size})")
    keep = min(size, old.size)
    new_obj.data[0:keep] = old.data[0:keep]
    interp.memory.free(pointer, line=line)
    return PointerValue(base=new_obj.base, offset=0, type=ct.VOID_PTR)


def _free(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "free")
    interp.memory.free(pointer, line=line)
    return VoidValue()


# ---------------------------------------------------------------------------
# Program termination
# ---------------------------------------------------------------------------

def _exit(interp, args, line) -> CValue:
    status = _int_arg(interp, args, 0, line, "exit") if args else 0
    raise ExitSignal(status)


def _abort(interp, args, line) -> CValue:
    raise ExitSignal(134, aborted=True)


def _assert_fail(interp, args, line) -> CValue:
    raise ExitSignal(134, aborted=True)


# ---------------------------------------------------------------------------
# stdio
# ---------------------------------------------------------------------------

def _format_output(interp, fmt: str, args: list[CValue], line: int, name: str) -> str:
    """Render a printf-style format string, checking conversions against args."""
    output: list[str] = []
    arg_index = 0
    i = 0
    options = interp.options
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            output.append(ch)
            i += 1
            continue
        i += 1
        if i < len(fmt) and fmt[i] == "%":
            output.append("%")
            i += 1
            continue
        # flags / width / precision (parsed, mostly ignored for rendering)
        spec = ""
        while i < len(fmt) and fmt[i] in "-+ #0123456789.*":
            spec += fmt[i]
            i += 1
        length = ""
        while i < len(fmt) and fmt[i] in "hlLzjt":
            length += fmt[i]
            i += 1
        if i >= len(fmt):
            break
        conv = fmt[i]
        i += 1
        if "*" in spec:
            _int_arg(interp, args, arg_index, line, name)
            arg_index += 1
        if arg_index >= len(args):
            if options.check_functions:
                report_undefined(UndefinedBehaviorError(
                    UBKind.FORMAT_MISMATCH,
                    f"{name}(): not enough arguments for format string.", line=line),
                    FAMILY_FUNCTIONS)
            output.append("")
            continue
        arg = args[arg_index]
        arg_index += 1
        if conv in "diouxX":
            if isinstance(arg, PointerValue) and not arg.is_null:
                if options.check_functions:
                    report_undefined(UndefinedBehaviorError(
                        UBKind.FORMAT_MISMATCH,
                        f"{name}(): '%{conv}' conversion given a pointer argument.", line=line),
                        FAMILY_FUNCTIONS)
                # Recorded (or ablated): the mismatch is the finding; model
                # the continuation by rendering the address as '%p' would,
                # rather than getting stuck on the argument fetch.
                output.append(str((arg.base or 0) * 4096 + arg.offset))
                continue
            value = _int_arg(interp, args, arg_index - 1, line, name)
            if conv in "di":
                output.append(str(value))
            elif conv == "u":
                output.append(str(value & 0xFFFFFFFFFFFFFFFF if value < 0 else value))
            elif conv == "o":
                output.append(format(value & 0xFFFFFFFFFFFFFFFF, "o"))
            else:
                text = format(value & 0xFFFFFFFFFFFFFFFF, "x")
                output.append(text.upper() if conv == "X" else text)
        elif conv in "fFeEgG":
            value = _float_arg(interp, args, arg_index - 1, line, name)
            output.append(f"{value:.6f}" if conv in "fF" else f"{value:g}")
        elif conv == "c":
            value = _int_arg(interp, args, arg_index - 1, line, name)
            output.append(chr(value & 0xFF))
        elif conv == "s":
            pointer = _pointer_arg(interp, args, arg_index - 1, line, name)
            if pointer.is_null:
                if options.check_functions:
                    report_undefined(UndefinedBehaviorError(
                        UBKind.NULL_DEREFERENCE,
                        f"{name}(): '%s' conversion given a null pointer.", line=line),
                        FAMILY_FUNCTIONS)
                output.append("(null)")
            else:
                output.append(_read_c_string(interp, pointer, line, name))
        elif conv == "p":
            pointer = args[arg_index - 1]
            if isinstance(pointer, PointerValue):
                if pointer.is_null:
                    output.append("(nil)")
                else:
                    output.append(f"0x{(pointer.base or 0) * 4096 + pointer.offset:x}")
            else:
                output.append(str(pointer))
        elif conv == "n":
            raise UndefinedBehaviorError(
                UBKind.FORMAT_MISMATCH, f"{name}(): '%n' is not supported.", line=line)
        else:
            if options.check_functions:
                report_undefined(UndefinedBehaviorError(
                    UBKind.FORMAT_MISMATCH,
                    f"{name}(): unknown conversion specifier '%{conv}'.", line=line),
                    FAMILY_FUNCTIONS)
    return "".join(output)


def _printf(interp, args, line) -> CValue:
    fmt_pointer = _pointer_arg(interp, args, 0, line, "printf")
    fmt = _read_c_string(interp, fmt_pointer, line, "printf")
    text = _format_output(interp, fmt, args[1:], line, "printf")
    interp.write_output(text)
    return IntValue(len(text), ct.INT)


def _puts(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "puts")
    text = _read_c_string(interp, pointer, line, "puts")
    interp.write_output(text + "\n")
    return IntValue(len(text) + 1, ct.INT)


def _putchar(interp, args, line) -> CValue:
    value = _int_arg(interp, args, 0, line, "putchar")
    interp.write_output(chr(value & 0xFF))
    return IntValue(value & 0xFF, ct.INT)


def _getchar(interp, args, line) -> CValue:
    ch = interp.read_input_char()
    return IntValue(ch, ct.INT)


def _sprintf(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "sprintf")
    fmt_pointer = _pointer_arg(interp, args, 1, line, "sprintf")
    fmt = _read_c_string(interp, fmt_pointer, line, "sprintf")
    text = _format_output(interp, fmt, args[2:], line, "sprintf")
    _write_c_string(interp, dest, text, line)
    return IntValue(len(text), ct.INT)


def _snprintf(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "snprintf")
    size = _int_arg(interp, args, 1, line, "snprintf")
    fmt_pointer = _pointer_arg(interp, args, 2, line, "snprintf")
    fmt = _read_c_string(interp, fmt_pointer, line, "snprintf")
    text = _format_output(interp, fmt, args[3:], line, "snprintf")
    if size > 0:
        _write_c_string(interp, dest, text[:size - 1], line)
    return IntValue(len(text), ct.INT)


def _scanf(interp, args, line) -> CValue:
    fmt_pointer = _pointer_arg(interp, args, 0, line, "scanf")
    fmt = _read_c_string(interp, fmt_pointer, line, "scanf")
    conversions = fmt.count("%") - 2 * fmt.count("%%")
    assigned = 0
    arg_index = 1
    for _ in range(conversions):
        token = interp.read_input_token()
        if token is None:
            break
        if arg_index >= len(args):
            raise UndefinedBehaviorError(
                UBKind.FORMAT_MISMATCH, "scanf(): not enough pointer arguments.", line=line)
        pointer = _pointer_arg(interp, args, arg_index, line, "scanf")
        arg_index += 1
        try:
            value = int(token)
        except ValueError:
            break
        data = interp.encode_scalar(value, ct.INT)
        interp.memory.write_bytes(pointer, data, line=line, lvalue_type=ct.INT,
                                  track_sequencing=False)
        assigned += 1
    return IntValue(assigned, ct.INT)


# ---------------------------------------------------------------------------
# string.h
# ---------------------------------------------------------------------------

def _huge_range(interp, ranges, count: int, line: int, name: str):
    """Give up on a ``mem*`` call over more than ``_ALLOCATION_LIMIT``
    bytes, whose bytes would exhaust memory: bounds-check every range first
    (``(pointer, write)`` pairs, in the order the call accesses them), so an
    overrun stays undefined, then end the run as inconclusive."""
    for pointer, write in ranges:
        interp.memory.check_access(pointer, count, write=write, line=line)
    raise ResourceLimitError(
        f"{name}() over {count} bytes exceeds the {_ALLOCATION_LIMIT}-byte limit")


def _memcpy(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "memcpy")
    src = _pointer_arg(interp, args, 1, line, "memcpy")
    count = _int_arg(interp, args, 2, line, "memcpy")
    if count < 0:
        raise UndefinedBehaviorError(
            UBKind.NEGATIVE_SIZE_ALLOCATION, "memcpy() with a negative size.", line=line)
    _check_overlap(interp, dest, src, count, line, "memcpy")
    if count == 0:
        return dest
    if count > _ALLOCATION_LIMIT:
        _huge_range(interp, ((src, False), (dest, True)), count, line, "memcpy")
    data = interp.memory.read_bytes(src, count, line=line, track_sequencing=False)
    interp.memory.write_bytes(dest, data, line=line, track_sequencing=False)
    return dest


def _memmove(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "memmove")
    src = _pointer_arg(interp, args, 1, line, "memmove")
    count = _int_arg(interp, args, 2, line, "memmove")
    if count <= 0:
        return dest
    if count > _ALLOCATION_LIMIT:
        _huge_range(interp, ((src, False), (dest, True)), count, line, "memmove")
    data = interp.memory.read_bytes(src, count, line=line, track_sequencing=False)
    interp.memory.write_bytes(dest, data, line=line, track_sequencing=False)
    return dest


def _memset(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "memset")
    value = _int_arg(interp, args, 1, line, "memset")
    count = _int_arg(interp, args, 2, line, "memset")
    if count < 0:
        raise UndefinedBehaviorError(
            UBKind.NEGATIVE_SIZE_ALLOCATION, "memset() with a negative size.", line=line)
    if count > _ALLOCATION_LIMIT:
        memory = interp.memory
        obj = memory.object_for(dest.base)
        if (obj is not None and type(obj.data) is SparseBytes
                and dest.offset == 0 and count == obj.size):
            memory.fill_object(dest, ConcreteByte(value & 0xFF), count, line=line)
            return dest
        _huge_range(interp, ((dest, True),), count, line, "memset")
    data: list[Byte] = [ConcreteByte(value & 0xFF) for _ in range(count)]
    if count:
        interp.memory.write_bytes(dest, data, line=line, track_sequencing=False)
    return dest


def _memcmp(interp, args, line) -> CValue:
    left = _pointer_arg(interp, args, 0, line, "memcmp")
    right = _pointer_arg(interp, args, 1, line, "memcmp")
    count = _int_arg(interp, args, 2, line, "memcmp")
    if count <= 0:
        return IntValue(0, ct.INT)
    if count > _ALLOCATION_LIMIT:
        _huge_range(interp, ((left, False), (right, False)), count, line, "memcmp")
    left_data = interp.memory.read_bytes(left, count, line=line, track_sequencing=False)
    right_data = interp.memory.read_bytes(right, count, line=line, track_sequencing=False)
    for lb, rb in zip(left_data, right_data):
        lv = lb.value if isinstance(lb, ConcreteByte) else 0
        rv = rb.value if isinstance(rb, ConcreteByte) else 0
        if lv != rv:
            return IntValue(1 if lv > rv else -1, ct.INT)
    return IntValue(0, ct.INT)


def _strlen(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "strlen")
    text = _read_c_string(interp, pointer, line, "strlen")
    return IntValue(len(text), ct.ULONG)


def _strcpy(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "strcpy")
    src = _pointer_arg(interp, args, 1, line, "strcpy")
    text = _read_c_string(interp, src, line, "strcpy")
    _check_overlap(interp, dest, src, len(text) + 1, line, "strcpy")
    _write_c_string(interp, dest, text, line)
    return dest


def _strncpy(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "strncpy")
    src = _pointer_arg(interp, args, 1, line, "strncpy")
    count = _int_arg(interp, args, 2, line, "strncpy")
    text = _read_c_string(interp, src, line, "strncpy", limit=count)
    padded = text[:count].ljust(count, "\0")
    if count:
        _write_c_string(interp, dest, padded, line, include_nul=False)
    return dest


def _strcat(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "strcat")
    src = _pointer_arg(interp, args, 1, line, "strcat")
    existing = _read_c_string(interp, dest, line, "strcat")
    addition = _read_c_string(interp, src, line, "strcat")
    _write_c_string(interp, dest.with_offset(dest.offset + len(existing)), addition, line)
    return dest


def _strncat(interp, args, line) -> CValue:
    dest = _pointer_arg(interp, args, 0, line, "strncat")
    src = _pointer_arg(interp, args, 1, line, "strncat")
    count = _int_arg(interp, args, 2, line, "strncat")
    existing = _read_c_string(interp, dest, line, "strncat")
    addition = _read_c_string(interp, src, line, "strncat", limit=count)[:count]
    _write_c_string(interp, dest.with_offset(dest.offset + len(existing)), addition, line)
    return dest


def _strcmp(interp, args, line) -> CValue:
    left = _read_c_string(interp, _pointer_arg(interp, args, 0, line, "strcmp"), line, "strcmp")
    right = _read_c_string(interp, _pointer_arg(interp, args, 1, line, "strcmp"), line, "strcmp")
    if left == right:
        return IntValue(0, ct.INT)
    return IntValue(1 if left > right else -1, ct.INT)


def _strncmp(interp, args, line) -> CValue:
    count = _int_arg(interp, args, 2, line, "strncmp")
    left = _read_c_string(interp, _pointer_arg(interp, args, 0, line, "strncmp"),
                          line, "strncmp", limit=count)[:count]
    right = _read_c_string(interp, _pointer_arg(interp, args, 1, line, "strncmp"),
                           line, "strncmp", limit=count)[:count]
    if left == right:
        return IntValue(0, ct.INT)
    return IntValue(1 if left > right else -1, ct.INT)


def _strchr(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "strchr")
    target = _int_arg(interp, args, 1, line, "strchr") & 0xFF
    text = _read_c_string(interp, pointer, line, "strchr")
    haystack = text + "\0"
    for index, ch in enumerate(haystack):
        if ord(ch) == target:
            # Note: like the real strchr, the const qualifier of the argument
            # is silently dropped (the paper's §4.2.2 example) — the object
            # stays in the notWritable set, so writes through the result are
            # still caught.
            return pointer.with_offset(pointer.offset + index).with_type(ct.CHAR_PTR)
    return PointerValue(base=None, offset=0, type=ct.CHAR_PTR)


def _strrchr(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "strrchr")
    target = _int_arg(interp, args, 1, line, "strrchr") & 0xFF
    text = _read_c_string(interp, pointer, line, "strrchr")
    haystack = text + "\0"
    best = -1
    for index, ch in enumerate(haystack):
        if ord(ch) == target:
            best = index
    if best < 0:
        return PointerValue(base=None, offset=0, type=ct.CHAR_PTR)
    return pointer.with_offset(pointer.offset + best).with_type(ct.CHAR_PTR)


def _strstr(interp, args, line) -> CValue:
    haystack_ptr = _pointer_arg(interp, args, 0, line, "strstr")
    needle_ptr = _pointer_arg(interp, args, 1, line, "strstr")
    haystack = _read_c_string(interp, haystack_ptr, line, "strstr")
    needle = _read_c_string(interp, needle_ptr, line, "strstr")
    index = haystack.find(needle)
    if index < 0:
        return PointerValue(base=None, offset=0, type=ct.CHAR_PTR)
    return haystack_ptr.with_offset(haystack_ptr.offset + index).with_type(ct.CHAR_PTR)


# ---------------------------------------------------------------------------
# stdlib arithmetic, ctype, math
# ---------------------------------------------------------------------------

def _abs(interp, args, line) -> CValue:
    value = _int_arg(interp, args, 0, line, "abs")
    lo, _hi = ct.integer_range(ct.INT, interp.profile)
    if value == lo and interp.options.check_arithmetic:
        report_undefined(UndefinedBehaviorError(
            UBKind.SIGNED_OVERFLOW, "abs(INT_MIN) overflows.", line=line),
            FAMILY_ARITHMETIC)
    return IntValue(abs(value), ct.INT)


def _labs(interp, args, line) -> CValue:
    value = _int_arg(interp, args, 0, line, "labs")
    lo, _hi = ct.integer_range(ct.LONG, interp.profile)
    if value == lo and interp.options.check_arithmetic:
        report_undefined(UndefinedBehaviorError(
            UBKind.SIGNED_OVERFLOW, "labs(LONG_MIN) overflows.", line=line),
            FAMILY_ARITHMETIC)
    return IntValue(abs(value), ct.LONG)


def _atoi(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "atoi")
    text = _read_c_string(interp, pointer, line, "atoi").strip()
    value = _parse_prefix_int(text)
    return IntValue(value, ct.INT)


def _atol(interp, args, line) -> CValue:
    pointer = _pointer_arg(interp, args, 0, line, "atol")
    text = _read_c_string(interp, pointer, line, "atol").strip()
    return IntValue(_parse_prefix_int(text), ct.LONG)


def _parse_prefix_int(text: str) -> int:
    sign = 1
    index = 0
    if index < len(text) and text[index] in "+-":
        sign = -1 if text[index] == "-" else 1
        index += 1
    digits = ""
    while index < len(text) and text[index].isdigit():
        digits += text[index]
        index += 1
    return sign * int(digits) if digits else 0


def _rand(interp, args, line) -> CValue:
    return IntValue(interp.next_random(), ct.INT)


def _srand(interp, args, line) -> CValue:
    seed = _int_arg(interp, args, 0, line, "srand")
    interp.seed_random(seed)
    return VoidValue()


def _fabs(interp, args, line) -> CValue:
    return FloatValue(abs(_float_arg(interp, args, 0, line, "fabs")), ct.DOUBLE)


def _sqrt(interp, args, line) -> CValue:
    value = _float_arg(interp, args, 0, line, "sqrt")
    if value < 0:
        return FloatValue(float("nan"), ct.DOUBLE)
    return FloatValue(math.sqrt(value), ct.DOUBLE)


def _pow(interp, args, line) -> CValue:
    base = _float_arg(interp, args, 0, line, "pow")
    exponent = _float_arg(interp, args, 1, line, "pow")
    try:
        return FloatValue(float(base ** exponent), ct.DOUBLE)
    except (OverflowError, ZeroDivisionError, ValueError):
        return FloatValue(float("inf"), ct.DOUBLE)


def _floor(interp, args, line) -> CValue:
    return FloatValue(math.floor(_float_arg(interp, args, 0, line, "floor")), ct.DOUBLE)


def _ceil(interp, args, line) -> CValue:
    return FloatValue(math.ceil(_float_arg(interp, args, 0, line, "ceil")), ct.DOUBLE)


def _fmod(interp, args, line) -> CValue:
    x = _float_arg(interp, args, 0, line, "fmod")
    y = _float_arg(interp, args, 1, line, "fmod")
    if y == 0.0:
        return FloatValue(float("nan"), ct.DOUBLE)
    return FloatValue(math.fmod(x, y), ct.DOUBLE)


def _ctype(predicate: Callable[[int], bool]) -> BuiltinImpl:
    def implementation(interp, args, line) -> CValue:
        value = _int_arg(interp, args, 0, line, "isX")
        return IntValue(1 if 0 <= value < 256 and predicate(value) else 0, ct.INT)
    return implementation


def _toupper(interp, args, line) -> CValue:
    value = _int_arg(interp, args, 0, line, "toupper")
    if ord("a") <= value <= ord("z"):
        return IntValue(value - 32, ct.INT)
    return IntValue(value, ct.INT)


def _tolower(interp, args, line) -> CValue:
    value = _int_arg(interp, args, 0, line, "tolower")
    if ord("A") <= value <= ord("Z"):
        return IntValue(value + 32, ct.INT)
    return IntValue(value, ct.INT)


BUILTIN_IMPLEMENTATIONS: dict[str, BuiltinImpl] = {
    "malloc": _malloc,
    "calloc": _calloc,
    "realloc": _realloc,
    "free": _free,
    "exit": _exit,
    "abort": _abort,
    "__assert_fail": _assert_fail,
    "printf": _printf,
    "puts": _puts,
    "putchar": _putchar,
    "getchar": _getchar,
    "sprintf": _sprintf,
    "snprintf": _snprintf,
    "scanf": _scanf,
    "memcpy": _memcpy,
    "memmove": _memmove,
    "memset": _memset,
    "memcmp": _memcmp,
    "strlen": _strlen,
    "strcpy": _strcpy,
    "strncpy": _strncpy,
    "strcat": _strcat,
    "strncat": _strncat,
    "strcmp": _strcmp,
    "strncmp": _strncmp,
    "strchr": _strchr,
    "strrchr": _strrchr,
    "strstr": _strstr,
    "abs": _abs,
    "labs": _labs,
    "atoi": _atoi,
    "atol": _atol,
    "rand": _rand,
    "srand": _srand,
    "fabs": _fabs,
    "sqrt": _sqrt,
    "pow": _pow,
    "floor": _floor,
    "ceil": _ceil,
    "fmod": _fmod,
    "isdigit": _ctype(lambda c: chr(c).isdigit()),
    "isalpha": _ctype(lambda c: chr(c).isalpha()),
    "isalnum": _ctype(lambda c: chr(c).isalnum()),
    "isspace": _ctype(lambda c: chr(c).isspace()),
    "isupper": _ctype(lambda c: chr(c).isupper()),
    "islower": _ctype(lambda c: chr(c).islower()),
    "toupper": _toupper,
    "tolower": _tolower,
}
