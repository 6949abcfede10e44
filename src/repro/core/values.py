"""Runtime values and symbolic bytes of the C abstract machine.

The paper's semantics (Section 4.3) treats memory contents symbolically:

* pointers are **base/offset pairs** ``sym(B) + O`` rather than integers, so
  pointers into different objects cannot be compared or subtracted;
* a pointer stored in memory is split into **symbolic bytes**
  ``subObject(ptr, i)`` that only reconstruct the pointer when all bytes are
  present and in order;
* uninitialized memory holds **unknown bytes** which may be copied through
  character types but may not be *used*.

This module defines the byte and value representations implementing exactly
that model.
"""

from __future__ import annotations

import itertools
import struct as _struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.cfront import ctypes as ct


# ---------------------------------------------------------------------------
# Bytes
# ---------------------------------------------------------------------------

_unknown_counter = itertools.count(1)


@dataclass(frozen=True)
class ConcreteByte:
    """A fully determined byte value 0..255."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & 0xFF)


@dataclass(frozen=True)
class PointerByte:
    """Byte ``index`` of the in-memory representation of ``pointer``.

    This is the paper's ``subObject(sym(B)+O, index)``: the split is symbolic,
    so the pointer can only be reconstructed from all of its bytes in order.
    """

    pointer: "PointerValue"
    index: int
    size: int


@dataclass(frozen=True)
class FloatByte:
    """Byte ``index`` of the representation of a floating-point value."""

    value: float
    kind: str
    index: int
    size: int


@dataclass(frozen=True)
class UnknownByte:
    """An indeterminate byte (the paper's ``unknown(N)``)."""

    origin: int = 0

    @staticmethod
    def fresh() -> "UnknownByte":
        return UnknownByte(origin=next(_unknown_counter))


Byte = Union[ConcreteByte, PointerByte, FloatByte, UnknownByte]


def unknown_bytes(count: int) -> list[Byte]:
    """A list of ``count`` fresh indeterminate bytes."""
    return [UnknownByte.fresh() for _ in range(count)]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CValue:
    """Base class of runtime values."""

    @property
    def is_indeterminate(self) -> bool:
        return False


@dataclass(frozen=True)
class VoidValue(CValue):
    """The (nonexistent) value of a void expression."""


@dataclass(frozen=True)
class IntValue(CValue):
    value: int = 0
    type: ct.CType = field(default_factory=lambda: ct.INT)

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntValue({self.value}: {self.type})"


@dataclass(frozen=True)
class FloatValue(CValue):
    value: float = 0.0
    type: ct.CType = field(default_factory=lambda: ct.DOUBLE)

    def is_zero(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class PointerValue(CValue):
    """A symbolic pointer ``sym(base) + offset`` of type ``type``.

    ``base is None`` represents the null pointer.  ``function`` holds the
    designated function name for pointers to functions.
    """

    base: Optional[int] = None
    offset: int = 0
    type: ct.CType = field(default_factory=lambda: ct.PointerType(pointee=ct.VOID))
    function: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.base is None and self.function is None and self.offset == 0

    @property
    def is_function(self) -> bool:
        return self.function is not None

    @property
    def pointee_type(self) -> ct.CType:
        assert isinstance(self.type, ct.PointerType)
        return self.type.pointee

    def with_offset(self, offset: int) -> "PointerValue":
        return PointerValue(base=self.base, offset=offset, type=self.type,
                            function=self.function)

    def with_type(self, new_type: ct.CType) -> "PointerValue":
        return PointerValue(base=self.base, offset=self.offset, type=new_type,
                            function=self.function)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_null:
            return "PointerValue(NULL)"
        if self.function is not None:
            return f"PointerValue(&{self.function})"
        return f"PointerValue(sym({self.base})+{self.offset}: {self.type})"


NULL_POINTER = PointerValue(base=None, offset=0, type=ct.PointerType(pointee=ct.VOID))


@dataclass(frozen=True)
class StructValue(CValue):
    """An aggregate value carried as its raw (possibly symbolic) bytes.

    ``source_base``/``source_offset`` record where the bytes were read from
    (attached by ``read_lvalue``), so a whole-object assignment can detect a
    copy between overlapping objects (§6.5.16.1:3) at the store.  They are
    provenance, not part of the value: excluded from equality.
    """

    data: tuple[Byte, ...] = ()
    type: ct.CType = field(default_factory=lambda: ct.StructType(tag=None))
    source_base: Optional[int] = field(default=None, compare=False)
    source_offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class IndeterminateValue(CValue):
    """A value read from memory that is not (fully) determined.

    It remembers the underlying bytes so that storing it back preserves them
    (e.g. ``memcpy`` copying uninitialized padding, §4.3.3), but *using* it
    in arithmetic, as a branch condition, or as an address is undefined.
    """

    type: ct.CType = field(default_factory=lambda: ct.INT)
    data: tuple[Byte, ...] = ()

    @property
    def is_indeterminate(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Encoding values to bytes and back
# ---------------------------------------------------------------------------

def encode_int(value: int, size: int, signed: bool) -> list[Byte]:
    """Two's-complement little-endian encoding of an integer."""
    mask = (1 << (size * 8)) - 1
    raw = value & mask
    return [ConcreteByte((raw >> (8 * i)) & 0xFF) for i in range(size)]


def decode_int(data: Sequence[Byte], signed: bool) -> Optional[int]:
    """Decode little-endian bytes into an integer, or None if indeterminate."""
    raw = 0
    for index, byte in enumerate(data):
        if not isinstance(byte, ConcreteByte):
            return None
        raw |= byte.value << (8 * index)
    if signed:
        bits = len(data) * 8
        if raw >= (1 << (bits - 1)):
            raw -= 1 << bits
    return raw


def encode_float(value: float, kind: str, size: int) -> list[Byte]:
    """Represent a float as symbolic float bytes (its exact bit pattern is
    implementation-defined, so we never commit to one)."""
    return [FloatByte(value=value, kind=kind, index=i, size=size) for i in range(size)]


def decode_float(data: Sequence[Byte]) -> Optional[float]:
    if not data:
        return None
    first = data[0]
    if not isinstance(first, FloatByte):
        # Concrete bytes (e.g. written through a char lvalue): reinterpret.
        raw = decode_int(data, signed=False)
        if raw is None:
            return None
        try:
            if len(data) == 4:
                return _struct.unpack("<f", raw.to_bytes(4, "little"))[0]
            return _struct.unpack("<d", raw.to_bytes(8, "little"))[0]
        except (OverflowError, _struct.error):
            return None
    for index, byte in enumerate(data):
        if not isinstance(byte, FloatByte) or byte.index != index or byte.value != first.value:
            return None
    return first.value


def encode_pointer(pointer: PointerValue, size: int) -> list[Byte]:
    """The paper's symbolic byte-splitting of a stored pointer (§4.3.2)."""
    if pointer.is_null:
        return encode_int(0, size, signed=False)
    return [PointerByte(pointer=pointer, index=i, size=size) for i in range(size)]


def decode_pointer(data: Sequence[Byte], target_type: ct.CType) -> Optional[PointerValue]:
    """Reconstruct a pointer from its bytes, or None if not reconstructible."""
    if not data:
        return None
    if all(isinstance(b, ConcreteByte) for b in data):
        raw = decode_int(data, signed=False)
        if raw == 0:
            return PointerValue(base=None, offset=0, type=target_type)
        return None
    first = data[0]
    if not isinstance(first, PointerByte):
        return None
    if first.index != 0 or first.size != len(data):
        return None
    for index, byte in enumerate(data):
        if (not isinstance(byte, PointerByte) or byte.index != index
                or byte.pointer != first.pointer):
            return None
    pointer = first.pointer
    if isinstance(target_type, ct.PointerType):
        pointer = pointer.with_type(target_type)
    return pointer


def encode_value(value: CValue, ctype: ct.CType,
                 profile: ct.ImplementationProfile) -> list[Byte]:
    """Encode a runtime value for storage in an object of type ``ctype``."""
    size = ct.size_of(ctype, profile)
    if isinstance(value, IndeterminateValue):
        data = list(value.data)
        if len(data) < size:
            data.extend(unknown_bytes(size - len(data)))
        return data[:size]
    if isinstance(value, IntValue):
        signed = ct.is_signed_type(ctype, profile) if ctype.is_integer else True
        return encode_int(value.value, size, signed)
    if isinstance(value, FloatValue):
        kind = ctype.kind if isinstance(ctype, ct.FloatType) else "double"
        return encode_float(value.value, kind, size)
    if isinstance(value, PointerValue):
        return encode_pointer(value, size)
    if isinstance(value, StructValue):
        data = list(value.data)
        if len(data) < size:
            data.extend(unknown_bytes(size - len(data)))
        return data[:size]
    raise TypeError(f"cannot store value of class {type(value).__name__}")


def decode_value(data: Sequence[Byte], ctype: ct.CType,
                 profile: ct.ImplementationProfile) -> CValue:
    """Decode raw object bytes at type ``ctype``.

    Indeterminate or non-reconstructible contents yield an
    :class:`IndeterminateValue`; the caller decides whether the *use* of that
    value is undefined (it is, except through character types, §6.2.6.1).
    """
    data = list(data)
    if ctype.is_integer:
        signed = ct.is_signed_type(ctype, profile)
        # A single byte of a stored pointer read through a character type is
        # an unspecified but usable value only for unsigned char; we model it
        # as indeterminate-but-copyable for all character reads.
        raw = decode_int(data, signed)
        if raw is None:
            return IndeterminateValue(type=ctype, data=tuple(data))
        if isinstance(ctype, ct.BoolType):
            raw = 1 if raw != 0 else 0
        return IntValue(value=raw, type=ctype.unqualified())
    if isinstance(ctype, ct.FloatType):
        value = decode_float(data)
        if value is None:
            return IndeterminateValue(type=ctype, data=tuple(data))
        return FloatValue(value=value, type=ctype.unqualified())
    if isinstance(ctype, ct.PointerType):
        pointer = decode_pointer(data, ctype.unqualified())
        if pointer is None:
            return IndeterminateValue(type=ctype, data=tuple(data))
        return pointer
    if isinstance(ctype, (ct.StructType, ct.UnionType, ct.ArrayType)):
        return StructValue(data=tuple(data), type=ctype.unqualified())
    return IndeterminateValue(type=ctype, data=tuple(data))

