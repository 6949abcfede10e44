"""The symbolic memory of the C abstract machine.

Memory is a map from symbolic *base addresses* to objects, each object being a
fixed-length block of (possibly symbolic) bytes — exactly the model of
Section 4.3.1 of the paper.  Because bases are opaque, two pointers into
different objects have no defined order, and a pointer can never "walk" from
one object into another: the bounds check on every access is what turns
buffer overflows into reported undefined behavior instead of silent reads of
adjacent memory.

The memory also carries the two auxiliary cells of Section 4.2:

* ``locs_written`` — the ``locsWrittenTo`` set of byte locations written since
  the last sequence point (unsequenced side effect detection), and
* ``not_writable`` — the set of const / string-literal byte locations
  (const-correctness checking).
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import ctypes as ct
from repro.core.config import CheckerOptions
from repro.core.values import (
    Byte,
    ConcreteByte,
    PointerValue,
    UnknownByte,
    unknown_bytes,
)
from repro.errors import ResourceLimitError, UBKind, UndefinedBehaviorError
from repro.events import (
    FAMILY_CONST,
    FAMILY_EFFECTIVE_TYPES,
    FAMILY_MEMORY,
    FAMILY_SEQUENCING,
    AllocEvent,
    FreeEvent,
    ReadEvent,
    SequencePointEvent,
    WriteEvent,
    report_undefined,
)


class StorageKind(enum.Enum):
    STATIC = "static"
    AUTO = "auto"
    HEAP = "heap"
    STRING_LITERAL = "string-literal"
    FUNCTION = "function"


#: Objects at or above this size never materialize a per-byte store; they get
#: a :class:`SparseBytes` overlay instead.  Chosen above every array any test
#: or generated program materializes byte-for-byte, but far below the
#: larger-than-``PTRDIFF_MAX`` static objects whose pointer differences the
#: checker must still be able to judge.
SPARSE_OBJECT_THRESHOLD = 1 << 24


@dataclass
class MemoryObject:
    """One allocated object: ``mem[base] = obj(Len, bytes)`` in the paper."""

    base: int
    size: int
    kind: StorageKind
    name: str = ""
    data: list[Byte] = field(default_factory=list)
    alive: bool = True
    freed: bool = False
    declared_type: Optional[ct.CType] = None
    effective_type: Optional[ct.CType] = None
    #: For allocated (heap) objects, the effective type is determined by the
    #: last store to each part of the object (§6.5:6); we track it per offset.
    effective_types: dict[int, ct.CType] = field(default_factory=dict)
    frame: Optional[int] = None          # owning stack frame for AUTO objects
    is_const: bool = False

    def __post_init__(self) -> None:
        if not self.data:
            if self.size >= SPARSE_OBJECT_THRESHOLD:
                self.data = SparseBytes(self.size, UnknownByte.fresh())
            else:
                self.data = unknown_bytes(self.size)

    def zero_fill(self) -> None:
        """Set every byte to zero (static-storage initialization, §6.7.9:10)."""
        if isinstance(self.data, SparseBytes):
            self.data.fill(ConcreteByte(0))
        else:
            self.data[:] = [ConcreteByte(0) for _ in range(self.size)]


class SparseBytes:
    """A ``list[Byte]``-compatible store for objects too large to materialize.

    Every byte starts as ``default``; writes land in the ``overlay`` dict
    keyed by offset.  This is what lets a ``static char vast[> PTRDIFF_MAX]``
    exist as an addressable object — its pointers, bounds checks, and
    pointer-difference semantics are exact — without ever allocating its
    bytes.  Accesses touch only the bytes they name, so reads and writes of
    reasonable sizes stay O(bytes accessed) regardless of object size.
    """

    __slots__ = ("size", "default", "overlay")

    def __init__(self, size: int, default: Byte) -> None:
        self.size = size
        self.default = default
        self.overlay: dict = {}

    def fill(self, byte: Byte) -> None:
        self.default = byte
        self.overlay.clear()

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.size)
            overlay = self.overlay
            default = self.default
            return [overlay.get(i, default) for i in range(start, stop, step)]
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("SparseBytes index out of range")
        return self.overlay.get(index, self.default)

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            start, stop, step = index.indices(self.size)
            if step != 1:
                raise ValueError("SparseBytes only supports contiguous slices")
            values = list(value)
            if len(values) != stop - start:
                raise ValueError("SparseBytes slice assignment must preserve length")
            overlay = self.overlay
            for offset, byte in zip(range(start, stop), values):
                overlay[offset] = byte
            return
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("SparseBytes index out of range")
        self.overlay[index] = value

    def __iter__(self):
        overlay = self.overlay
        default = self.default
        for index in range(self.size):
            yield overlay.get(index, default)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SparseBytes, list, tuple)):
            return NotImplemented
        if len(other) != self.size:
            return False
        return all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return (f"SparseBytes(size={self.size}, default={self.default!r}, "
                f"overlaid={len(self.overlay)})")

    # -- integer fast path (same contract as ArenaBytes) -------------------
    def read_int(self, offset: int, size: int, signed: bool):
        overlay = self.overlay
        default = self.default
        value = 0
        for index in range(size):
            byte = overlay.get(offset + index, default)
            if type(byte) is not ConcreteByte:
                return None
            value |= byte.value << (8 * index)
        if signed:
            half = 1 << (size * 8 - 1)
            if value >= half:
                value -= half << 1
        return value

    def write_int(self, offset: int, size: int, unsigned_value: int) -> None:
        overlay = self.overlay
        for index in range(size):
            overlay[offset + index] = ConcreteByte((unsigned_value >> (8 * index)) & 0xFF)


class ArenaBytes:
    """A ``list[Byte]``-compatible view of one object's bytes, backed by a
    contiguous shared ``bytearray`` arena plus a sparse ``exotic`` overlay.

    The common case — concrete bytes — lives as plain integers in the arena
    (one machine byte per C byte, integer addressed); symbolic bytes
    (:class:`UnknownByte`, :class:`PointerByte`, :class:`FloatByte`) live in
    the per-object ``exotic`` dict keyed by offset and shadow the arena cell.
    The compiled VM reads and writes the arena directly via
    :meth:`read_int` / :meth:`write_int`; every generic byte-level path
    (``read_bytes`` slices, ``write_bytes`` slice assignment, probes
    iterating ``obj.data``) goes through the sequence protocol below and
    observes exactly what the dict-backed list store would hold.
    """

    __slots__ = ("arena", "start", "size", "exotic")

    def __init__(self, arena: bytearray, initial: list) -> None:
        self.arena = arena
        self.start = len(arena)
        size = len(initial)
        self.size = size
        exotic: dict = {}
        buffer = bytearray(size)
        for index, byte in enumerate(initial):
            if type(byte) is ConcreteByte:
                buffer[index] = byte.value
            else:
                exotic[index] = byte
        arena += buffer
        self.exotic = exotic

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.size)
            exotic = self.exotic
            base = self.start
            arena = self.arena
            if not exotic:
                return [ConcreteByte(v) for v in arena[base + start:base + stop:step]]
            result = []
            for i in range(start, stop, step):
                byte = exotic.get(i)
                result.append(ConcreteByte(arena[base + i]) if byte is None else byte)
            return result
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("ArenaBytes index out of range")
        byte = self.exotic.get(index)
        return ConcreteByte(self.arena[self.start + index]) if byte is None else byte

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            start, stop, step = index.indices(self.size)
            if step != 1:
                raise ValueError("ArenaBytes only supports contiguous slices")
            values = list(value)
            if len(values) != stop - start:
                raise ValueError("ArenaBytes slice assignment must preserve length")
            for offset, byte in zip(range(start, stop), values):
                self._set_byte(offset, byte)
            return
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("ArenaBytes index out of range")
        self._set_byte(index, value)

    def _set_byte(self, index: int, byte) -> None:
        if type(byte) is ConcreteByte:
            self.arena[self.start + index] = byte.value
            if self.exotic:
                self.exotic.pop(index, None)
        else:
            self.exotic[index] = byte

    def __iter__(self):
        exotic = self.exotic
        base = self.start
        arena = self.arena
        for index in range(self.size):
            byte = exotic.get(index)
            yield ConcreteByte(arena[base + index]) if byte is None else byte

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ArenaBytes, list, tuple)):
            return NotImplemented
        if len(other) != self.size:
            return False
        return all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ArenaBytes({list(self)!r})"

    # -- integer fast path (the compiled VM's MLOAD/MSTORE) ----------------
    def read_int(self, offset: int, size: int, signed: bool):
        """Decode ``size`` little-endian bytes at ``offset`` as an integer,
        or None when any byte in range is exotic (symbolic)."""
        exotic = self.exotic
        if exotic:
            for index in range(offset, offset + size):
                if index in exotic:
                    return None
        start = self.start + offset
        value = int.from_bytes(self.arena[start:start + size], "little")
        if signed:
            half = 1 << (size * 8 - 1)
            if value >= half:
                value -= half << 1
        return value

    def write_int(self, offset: int, size: int, unsigned_value: int) -> None:
        """Store ``size`` little-endian bytes of an already-masked
        (non-negative) integer at ``offset``, clearing any exotic overlay."""
        start = self.start + offset
        self.arena[start:start + size] = unsigned_value.to_bytes(size, "little")
        exotic = self.exotic
        if exotic:
            for index in range(offset, offset + size):
                if index in exotic:
                    del exotic[index]


class ByteLocation(typing.NamedTuple):
    """A single byte address ``sym(base) + offset``.

    A named tuple rather than a dataclass: one is created per byte touched
    while sequencing checks are on, and tuple construction/hash is what makes
    the ``locsWrittenTo`` bookkeeping affordable on the hot path (membership
    tests may equivalently use plain ``(base, offset)`` tuples).
    """

    base: int
    offset: int


class Memory:
    """Symbolic memory plus the auxiliary undefinedness-tracking cells."""

    def __init__(self, options: CheckerOptions, store: str = "dict") -> None:
        self.options = options
        self.profile = options.profile
        self.objects: dict[int, MemoryObject] = {}
        #: ``store="arena"`` keeps every object's concrete bytes in one shared
        #: ``bytearray`` (integer addressed, see :class:`ArenaBytes`); the
        #: default list-of-Byte store stays for the walker/lowered engines.
        self._arena: Optional[bytearray] = bytearray() if store == "arena" else None
        #: Attached :class:`repro.events.ProbeSet`, or None (the common case);
        #: every emission below is guarded so unprobed runs construct nothing.
        self.events = None
        self._next_base = 1
        # §4.2.1: locations written to since the last sequence point.
        self.locs_written: set[ByteLocation] = set()
        # §4.2.2: locations that must never be written (const, string literals).
        self.not_writable: set[int] = set()     # object bases
        self.heap_allocations = 0
        # Index of AUTO object bases per stack frame, so returning from a
        # call ends lifetimes in O(frame objects) instead of a scan of every
        # object ever allocated.
        self._frame_objects: dict[int, list[int]] = {}
        # Memoized strict-aliasing verdicts for declared-type accesses,
        # keyed (lvalue type, declared type); see check_effective_type.
        self._aliasing_ok: dict = {}

    # ------------------------------------------------------------------
    # Allocation and lifetime
    # ------------------------------------------------------------------
    def allocate(self, size: int, kind: StorageKind, *, name: str = "",
                 declared_type: Optional[ct.CType] = None,
                 frame: Optional[int] = None,
                 data: Optional[list[Byte]] = None,
                 is_const: bool = False) -> MemoryObject:
        """Create a new object and return it."""
        if kind is StorageKind.HEAP and \
                self.heap_allocations >= self.options.max_heap_objects:
            raise ResourceLimitError("heap object limit exceeded")
        base = self._next_base
        self._next_base += 1
        obj = MemoryObject(
            base=base, size=size, kind=kind, name=name,
            data=list(data) if data is not None else [],
            declared_type=declared_type,
            effective_type=declared_type.unqualified() if declared_type is not None else None,
            frame=frame, is_const=is_const)
        if self._arena is not None and obj.size > 0 \
                and not isinstance(obj.data, SparseBytes):
            # __post_init__ has already filled fresh unknown bytes (or kept
            # the provided data); wrapping re-homes those same Byte objects,
            # so symbolic-byte identity (e.g. UnknownByte origins) matches
            # the list store exactly.  SparseBytes objects stay sparse: they
            # are too large for the arena by construction and already expose
            # the same read_int/write_int fast path.
            obj.data = ArenaBytes(self._arena, obj.data)
        self.objects[base] = obj
        if frame is not None and kind is StorageKind.AUTO:
            self._frame_objects.setdefault(frame, []).append(base)
        if is_const or kind is StorageKind.STRING_LITERAL:
            self.not_writable.add(base)
        if kind is StorageKind.HEAP:
            self.heap_allocations += 1
        if self.events is not None:
            self.events.emit(AllocEvent(base, size, kind.value, name))
        return obj

    def reserve_bases(self, count: int) -> None:
        """Skip ``count`` bases, as allocating that many objects would: the
        compiled engine's direct calls keep parameters in registers but
        leave every later object's base (and so ``%p`` output and
        pointer-to-integer casts) where the generic call would."""
        self._next_base += count

    def object_for(self, base: Optional[int]) -> Optional[MemoryObject]:
        if base is None:
            return None
        return self.objects.get(base)

    def kill(self, base: int) -> None:
        """End the lifetime of an automatic object (scope exit / return)."""
        obj = self.objects.get(base)
        if obj is not None:
            obj.alive = False

    def kill_frame(self, frame: int) -> None:
        """End the lifetime of every automatic object owned by ``frame``."""
        bases = self._frame_objects.pop(frame, None)
        if not bases:
            return
        objects = self.objects
        for base in bases:
            obj = objects.get(base)
            if obj is not None:
                obj.alive = False

    def free(self, pointer: PointerValue, *, line: Optional[int] = None) -> None:
        """``free(ptr)`` with the §7.22.3.3 checks."""
        if pointer.is_null:
            return  # free(NULL) is a no-op and defined
        obj = self.object_for(pointer.base)
        if obj is None:
            self._stuck(UBKind.BAD_FREE, "free() of a pointer not obtained from an allocation function", line)
            return
        if obj.kind is not StorageKind.HEAP:
            self._stuck(UBKind.BAD_FREE,
                        f"free() of non-heap object '{obj.name or obj.base}' "
                        f"({obj.kind.value} storage)", line)
            return
        if obj.freed or not obj.alive:
            self._stuck(UBKind.DOUBLE_FREE, "free() of already-freed memory", line)
            return
        if pointer.offset != 0:
            self._stuck(UBKind.BAD_FREE,
                        "free() of a pointer that does not point to the start of the allocation",
                        line)
            return
        obj.alive = False
        obj.freed = True
        if self.events is not None:
            self.events.emit(FreeEvent(obj.base, line))

    # ------------------------------------------------------------------
    # Access checks (the embedded checkDeref of §4.1.2)
    # ------------------------------------------------------------------
    def check_access(self, pointer: PointerValue, size: int, *, write: bool,
                     line: Optional[int] = None,
                     lvalue_type: Optional[ct.CType] = None) -> Optional[MemoryObject]:
        """Validate an access of ``size`` bytes through ``pointer``.

        Returns the target object when the access is allowed (or when the
        corresponding check is disabled); raises otherwise.  In observed
        mode (:func:`repro.events.report_undefined` recording instead of
        raising) each failure falls back to exactly what ``check_memory =
        False`` produces — the resolved object when one exists, so callers'
        own bounds rechecks decide what data moves.
        """
        if not self.options.check_memory:
            return self.object_for(pointer.base)
        if pointer.is_null:
            self._stuck(UBKind.NULL_DEREFERENCE, "Dereference of a null pointer.", line,
                        family=FAMILY_MEMORY, check="access",
                        data={"reason": "null", "write": write, "size": size})
            return None
        if pointer.is_function:
            self._stuck(UBKind.OUT_OF_BOUNDS, "Data access through a function pointer.", line,
                        family=FAMILY_MEMORY, check="access",
                        data={"reason": "function", "write": write, "size": size})
            return None
        obj = self.object_for(pointer.base)
        if obj is None:
            self._stuck(UBKind.DANGLING_DEREFERENCE,
                        "Use of an invalid pointer (no such object).", line,
                        family=FAMILY_MEMORY, check="access",
                        data={"reason": "no-object", "write": write, "size": size})
            return None
        if not obj.alive:
            data = self._access_data(obj, pointer.offset, size, write)
            if obj.freed:
                self._stuck(UBKind.USE_AFTER_FREE,
                            f"Use of memory after free() ({obj.name or 'heap object'}).", line,
                            family=FAMILY_MEMORY, check="access", data=data)
            else:
                self._stuck(UBKind.DANGLING_DEREFERENCE,
                            f"Use of object '{obj.name}' whose lifetime has ended.", line,
                            family=FAMILY_MEMORY, check="access", data=data)
            return obj
        if pointer.offset < 0 or pointer.offset + size > obj.size:
            kind = UBKind.BUFFER_OVERFLOW if write else UBKind.OUT_OF_BOUNDS
            self._stuck(kind,
                        f"Access of {size} byte(s) at offset {pointer.offset} outside object "
                        f"'{obj.name or obj.base}' of size {obj.size}.", line,
                        family=FAMILY_MEMORY, check="access",
                        data=self._access_data(obj, pointer.offset, size, write))
            return obj
        return obj

    @staticmethod
    def _access_data(obj: MemoryObject, offset: int, size: int, write: bool) -> dict:
        """Site facts a custom memory model (a probe) needs to re-judge an
        access check: see :class:`repro.analyzers.valgrind_like.ValgrindProbe`."""
        return {"reason": "bounds" if obj.alive else "dead",
                "storage": obj.kind.value, "object_size": obj.size,
                "offset": offset, "size": size, "write": write,
                "alive": obj.alive, "freed": obj.freed}

    def check_alignment(self, pointer: PointerValue, ctype: ct.CType,
                        line: Optional[int] = None) -> None:
        if not self.options.check_memory:
            return
        try:
            align = ct.align_of(ctype, self.profile)
        except ct.LayoutError:
            return
        if align > 1 and pointer.offset % align != 0:
            self._stuck(UBKind.UNALIGNED_ACCESS,
                        f"Access at offset {pointer.offset} is not aligned to {align} bytes "
                        f"for type {ctype}.", line,
                        family=FAMILY_MEMORY, check="alignment")

    def check_effective_type(self, obj: MemoryObject, lvalue_type: ct.CType,
                             *, write: bool, offset: int = 0,
                             line: Optional[int] = None) -> None:
        """The strict-aliasing check of §6.5:7.

        Objects with a declared type use that type as their effective type.
        Allocated objects have no declared type: the effective type of each
        part of the object is set by the last store to it (§6.5:6), which we
        track per offset so that writing the different members of a
        ``malloc``-ed struct does not conflict with itself.
        """
        if not self.options.check_effective_types:
            return
        if lvalue_type is None or not lvalue_type.is_scalar:
            return
        if ct.is_character_type(lvalue_type):
            return
        declared = obj.declared_type
        if declared is None or declared.is_void:
            # Allocated storage: the store determines the effective type.
            if write:
                obj.effective_types[offset] = lvalue_type.unqualified()
                return
            recorded = obj.effective_types.get(offset)
            if recorded is None:
                return
            if not ct.aliasing_compatible(lvalue_type, recorded, self.profile):
                self._stuck(UBKind.EFFECTIVE_TYPE_VIOLATION,
                            f"Allocated object written with effective type '{recorded}' "
                            f"read through an lvalue of incompatible type '{lvalue_type}'.",
                            line, family=FAMILY_EFFECTIVE_TYPES)
            return
        # Declared objects: the verdict is a pure function of (lvalue type,
        # declared type); memoized per run so repeated accesses skip the
        # recursive compatibility walk.  (Per-Memory, not process-wide:
        # record types compare by tag, only unambiguous within a run.)
        key = (lvalue_type, declared)
        ok = self._aliasing_ok.get(key)
        if ok is None:
            effective = declared.unqualified()
            elem = effective.element if isinstance(effective, ct.ArrayType) \
                else effective
            ok = (ct.aliasing_compatible(lvalue_type, effective, self.profile)
                  or ct.aliasing_compatible(lvalue_type, elem, self.profile))
            self._aliasing_ok[key] = ok
        if not ok:
            self._stuck(UBKind.EFFECTIVE_TYPE_VIOLATION,
                        f"Object with effective type '{declared.unqualified()}' "
                        f"accessed through an lvalue "
                        f"of incompatible type '{lvalue_type}'.", line,
                        family=FAMILY_EFFECTIVE_TYPES)

    # ------------------------------------------------------------------
    # Reads and writes (writeByte / readByte of §4.2.1)
    # ------------------------------------------------------------------
    def read_bytes(self, pointer: PointerValue, size: int, *,
                   line: Optional[int] = None,
                   lvalue_type: Optional[ct.CType] = None,
                   track_sequencing: bool = True) -> list[Byte]:
        if self.events is not None:
            self.events.emit(ReadEvent(pointer.base, pointer.offset, size, line))
        obj = self.check_access(pointer, size, write=False, line=line,
                                lvalue_type=lvalue_type)
        if obj is None:
            return unknown_bytes(size)
        if pointer.offset < 0 or pointer.offset + size > obj.size:
            # Only reachable with the memory checks disabled (ablation mode):
            # model the out-of-bounds read as indeterminate data.
            return unknown_bytes(size)
        if lvalue_type is not None:
            self.check_effective_type(obj, lvalue_type, write=False,
                                      offset=pointer.offset, line=line)
        if track_sequencing and self.options.check_sequencing and self.locs_written:
            base = pointer.base
            start = pointer.offset
            locs = self.locs_written
            for index in range(size):
                # Plain tuples compare equal to the ByteLocation named tuples
                # stored in the set; no per-byte object construction needed.
                if (base, start + index) in locs:
                    self._stuck(
                        UBKind.UNSEQUENCED_SIDE_EFFECT,
                        "Unsequenced side effect on scalar object with value computation "
                        "of same object.", line, family=FAMILY_SEQUENCING)
                    break  # observed mode: one event per read, then read as usual
        start = pointer.offset
        return list(obj.data[start:start + size])

    def write_bytes(self, pointer: PointerValue, data: list[Byte], *,
                    line: Optional[int] = None,
                    lvalue_type: Optional[ct.CType] = None,
                    track_sequencing: bool = True) -> None:
        size = len(data)
        obj = self._write_target(pointer, size, line, lvalue_type, track_sequencing)
        if obj is not None:
            start = pointer.offset
            obj.data[start:start + size] = data

    def fill_object(self, pointer: PointerValue, byte: Byte, size: int, *,
                    line: Optional[int] = None) -> None:
        """``write_bytes`` of ``size`` copies of ``byte``, untracked, over
        the whole of a sparse object (``pointer`` at offset 0, ``size`` its
        size): the object's default byte changes instead of every byte."""
        obj = self._write_target(pointer, size, line, None, False)
        if obj is not None:
            obj.data.fill(byte)

    def _write_target(self, pointer: PointerValue, size: int,
                      line: Optional[int], lvalue_type: Optional[ct.CType],
                      track_sequencing: bool) -> Optional[MemoryObject]:
        """Every check of a write of ``size`` bytes through ``pointer``:
        the object to write, or None when the write is dropped."""
        if self.events is not None:
            self.events.emit(WriteEvent(pointer.base, pointer.offset, size, line))
        obj = self.check_access(pointer, size, write=True, line=line,
                                lvalue_type=lvalue_type)
        if obj is None:
            return None
        if pointer.offset < 0 or pointer.offset + size > obj.size:
            # Only reachable with the memory checks disabled (ablation mode)
            # or past a recorded bounds failure (observed mode): drop the
            # out-of-bounds part of the write.
            return None
        # §4.2.2: const-correctness — notWritable objects must not be written.
        # A recorded violation falls through and performs the write, exactly
        # as the check_const=False ablation does.
        if self.options.check_const and obj.base in self.not_writable:
            if obj.kind is StorageKind.STRING_LITERAL:
                self._stuck(UBKind.MODIFY_STRING_LITERAL,
                            "Attempt to modify a string literal.", line,
                            family=FAMILY_CONST)
            else:
                self._stuck(UBKind.CONST_VIOLATION,
                            f"Write to object '{obj.name}' defined with a const-qualified type.",
                            line, family=FAMILY_CONST)
        if lvalue_type is not None:
            self.check_effective_type(obj, lvalue_type, write=True,
                                      offset=pointer.offset, line=line)
        # §4.2.1: unsequenced-write detection against locsWrittenTo.
        if track_sequencing and self.options.check_sequencing:
            base = pointer.base
            offset = pointer.offset
            locs = self.locs_written
            reported = False
            for index in range(size):
                loc = ByteLocation(base, offset + index)
                if loc in locs and not reported:
                    self._stuck(
                        UBKind.UNSEQUENCED_SIDE_EFFECT,
                        "Unsequenced side effect on scalar object with side effect "
                        "of same object.", line, family=FAMILY_SEQUENCING)
                    reported = True  # observed mode: one event, keep tracking
                locs.add(loc)
        return obj

    def sequence_point(self) -> None:
        """Empty the ``locsWrittenTo`` set (the paper's ``seqPoint`` rule)."""
        if self.events is not None:
            self.events.emit(_SEQUENCE_POINT)
        self.locs_written.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def mark_not_writable(self, base: int) -> None:
        self.not_writable.add(base)

    def _stuck(self, kind: UBKind, message: str, line: Optional[int], *,
               family: Optional[str] = None, check: Optional[str] = None,
               data: Optional[dict] = None) -> None:
        """Report a fired check: raise (get stuck) in strict mode, record
        and return in observed mode (``family=None`` is always terminal)."""
        report_undefined(UndefinedBehaviorError(kind, message, line=line),
                         family, check=check, data=data)


#: sequence_point() fires on every full expression; the event carries no
#: fields, so one immutable instance serves every emission.
_SEQUENCE_POINT = SequencePointEvent()
