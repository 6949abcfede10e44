"""The C type model and the implementation profile.

The paper stresses (Section 2.5.1) that whether a program is undefined can
depend on *implementation-defined* choices such as the size of ``int``.  We
therefore make every size/alignment/signedness decision explicit in an
:class:`ImplementationProfile` object that the whole pipeline threads through,
so the same program can be checked under different implementations.

Types are immutable dataclasses.  Qualifiers (``const``/``volatile``) live on
the type object itself; ``with_qualifiers`` / ``unqualified`` produce qualified
and stripped variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Optional


# ---------------------------------------------------------------------------
# Implementation profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImplementationProfile:
    """Implementation-defined parameters of the C abstract machine.

    The defaults model a typical LP64 platform (x86-64 Linux), which is what
    the paper's experiments ran on.  An ILP32 profile is provided for the
    implementation-defined-undefinedness experiments.
    """

    name: str = "lp64"
    char_bits: int = 8
    char_signed: bool = True
    sizeof_short: int = 2
    sizeof_int: int = 4
    sizeof_long: int = 8
    sizeof_long_long: int = 8
    sizeof_pointer: int = 8
    sizeof_float: int = 4
    sizeof_double: int = 8
    sizeof_long_double: int = 8
    sizeof_bool: int = 1
    # Alignment equals size for scalars up to this bound.
    max_alignment: int = 8

    def sizeof_kind(self, kind: str) -> int:
        """Size in bytes of a basic integer/float kind name."""
        return self._kind_sizes()[kind]

    def _kind_sizes(self) -> dict:
        # Built once per profile: sizeof_kind sits on the interpreter's
        # hottest paths (every load, store, and arithmetic conversion).
        table = self.__dict__.get("_kind_size_table")
        if table is None:
            table = {
                "_Bool": self.sizeof_bool,
                "char": 1,
                "signed char": 1,
                "unsigned char": 1,
                "short": self.sizeof_short,
                "unsigned short": self.sizeof_short,
                "int": self.sizeof_int,
                "unsigned int": self.sizeof_int,
                "long": self.sizeof_long,
                "unsigned long": self.sizeof_long,
                "long long": self.sizeof_long_long,
                "unsigned long long": self.sizeof_long_long,
                "float": self.sizeof_float,
                "double": self.sizeof_double,
                "long double": self.sizeof_long_double,
            }
            object.__setattr__(self, "_kind_size_table", table)
        return table

    def __reduce__(self):
        # A registered profile travels by name and comes back as the
        # receiver's own object; any other by its field values, without
        # the size table cached on it.
        if PROFILES.get(self.name) is self:
            return (_registered_profile, (self.name,))
        return (ImplementationProfile, _profile_values(self))


_profile_values = attrgetter(*(f.name for f in fields(ImplementationProfile)))


def _registered_profile(name: str) -> ImplementationProfile:
    return PROFILES[name]


LP64 = ImplementationProfile(name="lp64")
ILP32 = ImplementationProfile(
    name="ilp32",
    sizeof_long=4,
    sizeof_long_long=8,
    sizeof_pointer=4,
    sizeof_long_double=8,
    max_alignment=4,
)
#: Profile with 8-byte ints, used to reproduce the Section 2.5.1 example in
#: which ``malloc(4)`` is or is not enough room for an ``int``.
WIDE_INT = ImplementationProfile(name="wide-int", sizeof_int=8)

PROFILES = {p.name: p for p in (LP64, ILP32, WIDE_INT)}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CType:
    """Base class for all C types."""

    const: bool = False
    volatile: bool = False

    # -- qualifier helpers ------------------------------------------------
    def with_qualifiers(self, const: bool = False, volatile: bool = False) -> "CType":
        return replace(self, const=self.const or const, volatile=self.volatile or volatile)

    def unqualified(self) -> "CType":
        if not self.const and not self.volatile:
            return self
        return replace(self, const=False, volatile=False)

    # -- classification ----------------------------------------------------
    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, (IntType, BoolType, EnumType))

    @property
    def is_floating(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_arithmetic(self) -> bool:
        return self.is_integer or self.is_floating

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_union(self) -> bool:
        return isinstance(self, UnionType)

    @property
    def is_record(self) -> bool:
        return isinstance(self, (StructType, UnionType))

    @property
    def is_scalar(self) -> bool:
        return self.is_arithmetic or self.is_pointer

    @property
    def is_signed(self) -> bool:
        return False

    def qualifier_str(self) -> str:
        parts = []
        if self.const:
            parts.append("const")
        if self.volatile:
            parts.append("volatile")
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - subclasses override
        return self.__class__.__name__


@dataclass(frozen=True)
class VoidType(CType):
    def __str__(self) -> str:
        q = self.qualifier_str()
        return f"{q} void".strip()


@dataclass(frozen=True)
class BoolType(CType):
    def __str__(self) -> str:
        q = self.qualifier_str()
        return f"{q} _Bool".strip()


#: canonical integer kind names, in conversion-rank order (low to high)
INTEGER_KINDS = (
    "_Bool",
    "char",
    "signed char",
    "unsigned char",
    "short",
    "unsigned short",
    "int",
    "unsigned int",
    "long",
    "unsigned long",
    "long long",
    "unsigned long long",
)

_RANK = {
    "_Bool": 0,
    "char": 1,
    "signed char": 1,
    "unsigned char": 1,
    "short": 2,
    "unsigned short": 2,
    "int": 3,
    "unsigned int": 3,
    "long": 4,
    "unsigned long": 4,
    "long long": 5,
    "unsigned long long": 5,
}


@dataclass(frozen=True)
class IntType(CType):
    """An integer type.  ``kind`` is one of :data:`INTEGER_KINDS` (not _Bool)."""

    kind: str = "int"

    @property
    def is_signed(self) -> bool:
        if self.kind == "char":
            # signedness of plain char is implementation-defined; resolved by
            # the profile at evaluation time.  Treat as signed by default in
            # type-level queries; value-level code consults the profile.
            return True
        return not self.kind.startswith("unsigned")

    @property
    def rank(self) -> int:
        return _RANK[self.kind]

    def __str__(self) -> str:
        q = self.qualifier_str()
        return f"{q} {self.kind}".strip()


@dataclass(frozen=True)
class FloatType(CType):
    kind: str = "double"  # 'float' | 'double' | 'long double'

    @property
    def is_signed(self) -> bool:
        return True

    def __str__(self) -> str:
        q = self.qualifier_str()
        return f"{q} {self.kind}".strip()


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType = field(default_factory=VoidType)

    def __str__(self) -> str:
        q = self.qualifier_str()
        star = "*" + (" " + q if q else "")
        return f"{self.pointee} {star}".strip()


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType = field(default_factory=lambda: IntType(kind="int"))
    length: Optional[int] = None  # None == incomplete array type

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element} [{n}]"


@dataclass(frozen=True)
class StructField:
    name: str
    type: CType
    bit_width: Optional[int] = None


@dataclass(frozen=True, eq=False)
class StructType(CType):
    """A struct type.

    Record types compare by tag (C compatibility is nominal, §6.2.7), which
    also avoids infinite recursion on self-referential types such as linked
    list nodes.  The ``fields`` slot of an incomplete struct is completed in
    place by the parser when the definition is seen (``complete()``), so every
    reference made before the definition sees the completed type.
    """

    tag: Optional[str] = None
    fields: Optional[tuple[StructField, ...]] = None  # None == incomplete

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def complete(self, fields: tuple[StructField, ...]) -> None:
        object.__setattr__(self, "fields", fields)

    def field_named(self, name: str) -> Optional[StructField]:
        if self.fields is None:
            return None
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructType):
            return NotImplemented
        if self.tag is None or other.tag is None:
            return self is other
        return (self.tag, self.const, self.volatile) == (other.tag, other.const, other.volatile)

    def __hash__(self) -> int:
        return hash(("struct", self.tag, self.const, self.volatile))

    def __str__(self) -> str:
        return f"struct {self.tag or '<anon>'}"


@dataclass(frozen=True, eq=False)
class UnionType(CType):
    tag: Optional[str] = None
    fields: Optional[tuple[StructField, ...]] = None

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def complete(self, fields: tuple[StructField, ...]) -> None:
        object.__setattr__(self, "fields", fields)

    def field_named(self, name: str) -> Optional[StructField]:
        if self.fields is None:
            return None
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionType):
            return NotImplemented
        if self.tag is None or other.tag is None:
            return self is other
        return (self.tag, self.const, self.volatile) == (other.tag, other.const, other.volatile)

    def __hash__(self) -> int:
        return hash(("union", self.tag, self.const, self.volatile))

    def __str__(self) -> str:
        return f"union {self.tag or '<anon>'}"


@dataclass(frozen=True)
class EnumType(CType):
    tag: Optional[str] = None
    enumerators: Optional[tuple[tuple[str, int], ...]] = None

    @property
    def is_signed(self) -> bool:
        return True

    @property
    def is_complete(self) -> bool:
        return self.enumerators is not None

    def __str__(self) -> str:
        return f"enum {self.tag or '<anon>'}"


@dataclass(frozen=True)
class FunctionType(CType):
    return_type: CType = field(default_factory=VoidType)
    parameters: tuple[CType, ...] = ()
    variadic: bool = False
    has_prototype: bool = True

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters) or "void"
        if self.variadic:
            params += ", ..."
        return f"{self.return_type} (*)({params})"


# Convenient singletons for the common cases -------------------------------

VOID = VoidType()
BOOL = BoolType()
CHAR = IntType(kind="char")
SCHAR = IntType(kind="signed char")
UCHAR = IntType(kind="unsigned char")
SHORT = IntType(kind="short")
USHORT = IntType(kind="unsigned short")
INT = IntType(kind="int")
UINT = IntType(kind="unsigned int")
LONG = IntType(kind="long")
ULONG = IntType(kind="unsigned long")
LLONG = IntType(kind="long long")
ULLONG = IntType(kind="unsigned long long")
FLOAT = FloatType(kind="float")
DOUBLE = FloatType(kind="double")
LDOUBLE = FloatType(kind="long double")
CHAR_PTR = PointerType(pointee=CHAR)
VOID_PTR = PointerType(pointee=VOID)


# ---------------------------------------------------------------------------
# Size, alignment and layout
# ---------------------------------------------------------------------------

class LayoutError(Exception):
    """Raised when asked for the size of an incomplete type."""


def size_of(ctype: CType, profile: ImplementationProfile) -> int:
    """Size of ``ctype`` in bytes under ``profile``."""
    # Fast path for the flat scalar kinds that dominate interpreter traffic.
    tp = type(ctype)
    if tp is IntType or tp is FloatType:
        return profile._kind_sizes()[ctype.kind]
    if tp is PointerType:
        return profile.sizeof_pointer
    if isinstance(ctype, VoidType):
        raise LayoutError("void type has no size")
    if isinstance(ctype, BoolType):
        return profile.sizeof_bool
    if isinstance(ctype, IntType):
        return profile.sizeof_kind(ctype.kind)
    if isinstance(ctype, FloatType):
        return profile.sizeof_kind(ctype.kind)
    if isinstance(ctype, EnumType):
        return profile.sizeof_int
    if isinstance(ctype, PointerType):
        return profile.sizeof_pointer
    if isinstance(ctype, ArrayType):
        if ctype.length is None:
            raise LayoutError("incomplete array type has no size")
        return ctype.length * size_of(ctype.element, profile)
    if isinstance(ctype, StructType):
        if ctype.fields is None:
            raise LayoutError(f"incomplete struct {ctype.tag!r} has no size")
        return struct_layout(ctype, profile).size
    if isinstance(ctype, UnionType):
        if ctype.fields is None:
            raise LayoutError(f"incomplete union {ctype.tag!r} has no size")
        if not ctype.fields:
            return 0
        size = max(size_of(f.type, profile) for f in ctype.fields)
        align = align_of(ctype, profile)
        return _round_up(size, align)
    if isinstance(ctype, FunctionType):
        raise LayoutError("function type has no size")
    raise LayoutError(f"cannot compute size of {ctype}")


def align_of(ctype: CType, profile: ImplementationProfile) -> int:
    """Alignment requirement of ``ctype`` in bytes under ``profile``."""
    if isinstance(ctype, (VoidType, FunctionType)):
        return 1
    if isinstance(ctype, ArrayType):
        return align_of(ctype.element, profile)
    if isinstance(ctype, (StructType, UnionType)):
        if ctype.fields is None or not ctype.fields:
            return 1
        return max(align_of(f.type, profile) for f in ctype.fields)
    return min(size_of(ctype, profile), profile.max_alignment)


@dataclass(frozen=True)
class FieldLayout:
    name: str
    type: CType
    offset: int
    size: int


@dataclass(frozen=True)
class RecordLayout:
    size: int
    align: int
    fields: tuple[FieldLayout, ...]

    def field(self, name: str) -> Optional[FieldLayout]:
        for f in self.fields:
            if f.name == name:
                return f
        return None


def _round_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


def struct_layout(ctype: StructType | UnionType, profile: ImplementationProfile) -> RecordLayout:
    """Compute the layout of a complete struct or union type.

    Struct fields are laid out in declaration order with natural padding
    (fields are "ordered though not necessarily contiguous", §6.7.2.1); union
    fields all sit at offset 0.
    """
    if ctype.fields is None:
        raise LayoutError("cannot lay out an incomplete record type")
    fields: list[FieldLayout] = []
    if isinstance(ctype, UnionType):
        size = 0
        align = 1
        for f in ctype.fields:
            fsize = size_of(f.type, profile)
            falign = align_of(f.type, profile)
            fields.append(FieldLayout(f.name, f.type, 0, fsize))
            size = max(size, fsize)
            align = max(align, falign)
        return RecordLayout(_round_up(size, align), align, tuple(fields))
    offset = 0
    align = 1
    for f in ctype.fields:
        fsize = size_of(f.type, profile)
        falign = align_of(f.type, profile)
        offset = _round_up(offset, falign)
        fields.append(FieldLayout(f.name, f.type, offset, fsize))
        offset += fsize
        align = max(align, falign)
    return RecordLayout(_round_up(offset, align), align, tuple(fields))


# ---------------------------------------------------------------------------
# Integer value ranges and conversions
# ---------------------------------------------------------------------------

def is_signed_type(ctype: CType, profile: ImplementationProfile) -> bool:
    """Whether ``ctype`` is a signed integer type under ``profile``."""
    if isinstance(ctype, BoolType):
        return False
    if isinstance(ctype, EnumType):
        return True
    if isinstance(ctype, IntType):
        if ctype.kind == "char":
            return profile.char_signed
        return ctype.is_signed
    if isinstance(ctype, FloatType):
        return True
    raise TypeError(f"{ctype} is not an integer type")


#: Memoized (type, profile) -> (min, max).  Only flat scalar types are used
#: as keys: record types hash by *tag* (nominal typing), so two units' same-
#: named structs would collide in a process-wide cache — IntType/BoolType
#: hash structurally and are collision-free.
_INTEGER_RANGE_CACHE: dict = {}


def integer_range(ctype: CType, profile: ImplementationProfile) -> tuple[int, int]:
    """Return ``(min, max)`` representable values of an integer type."""
    key = (ctype, profile)
    cached = _INTEGER_RANGE_CACHE.get(key)
    if cached is not None:
        return cached
    if isinstance(ctype, BoolType):
        result = (0, 1)
    else:
        if isinstance(ctype, EnumType):
            ctype = INT
        if not isinstance(ctype, IntType):
            raise TypeError(f"{ctype} is not an integer type")
        bits = size_of(ctype, profile) * profile.char_bits
        if is_signed_type(ctype, profile):
            result = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        else:
            result = (0, (1 << bits) - 1)
    if len(_INTEGER_RANGE_CACHE) < 65536:
        _INTEGER_RANGE_CACHE[key] = result
    return result


def integer_bits(ctype: CType, profile: ImplementationProfile) -> int:
    return size_of(ctype, profile) * profile.char_bits


def wrap_unsigned(value: int, ctype: CType, profile: ImplementationProfile) -> int:
    """Reduce ``value`` modulo 2**N for an unsigned type (always defined)."""
    bits = integer_bits(ctype, profile)
    return value & ((1 << bits) - 1)


def trunc_div(a: int, b: int) -> int:
    """C's integer division, truncating toward zero (§6.5.5:6), exact at
    any magnitude."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def fits_in(value: int, ctype: CType, profile: ImplementationProfile) -> bool:
    lo, hi = integer_range(ctype, profile)
    return lo <= value <= hi


_PROMOTE_CACHE: dict = {}


def promote_integer(ctype: CType, profile: ImplementationProfile) -> CType:
    """Integer promotion (§6.3.1.1:2): small integer types promote to int."""
    key = (ctype, profile)
    cached = _PROMOTE_CACHE.get(key)
    if cached is not None:
        return cached
    if isinstance(ctype, (BoolType, EnumType)):
        result = INT
    elif isinstance(ctype, IntType) and ctype.rank < _RANK["int"]:
        lo, hi = integer_range(ctype, profile)
        ilo, ihi = integer_range(INT, profile)
        if ilo <= lo and hi <= ihi:
            result = INT
        else:
            result = UINT
    else:
        result = ctype.unqualified() if isinstance(ctype, IntType) else ctype
    if isinstance(ctype, (IntType, BoolType, EnumType)) and len(_PROMOTE_CACHE) < 65536:
        _PROMOTE_CACHE[key] = result
    return result


#: Types whose dataclass equality/hash is purely structural (no nominal tag),
#: hence safe as process-wide cache keys.
_FLAT_ARITH_TYPES = (IntType, BoolType, FloatType)

_UAC_CACHE: dict = {}


def usual_arithmetic_conversions(
        left: CType, right: CType, profile: ImplementationProfile) -> CType:
    """The usual arithmetic conversions (§6.3.1.8) for two arithmetic types."""
    # Flat scalar types hash structurally, so the pair is a collision-free
    # process-wide cache key (unlike nominal record types, never seen here).
    if type(left) in _FLAT_ARITH_TYPES and type(right) in _FLAT_ARITH_TYPES:
        key = (left, right, profile)
        cached = _UAC_CACHE.get(key)
        if cached is None:
            cached = _usual_arithmetic_conversions(left, right, profile)
            if len(_UAC_CACHE) < 65536:
                _UAC_CACHE[key] = cached
        return cached
    return _usual_arithmetic_conversions(left, right, profile)


def _usual_arithmetic_conversions(
        left: CType, right: CType, profile: ImplementationProfile) -> CType:
    if isinstance(left, FloatType) or isinstance(right, FloatType):
        order = {"float": 0, "double": 1, "long double": 2}
        lk = left.kind if isinstance(left, FloatType) else None
        rk = right.kind if isinstance(right, FloatType) else None
        best = max((k for k in (lk, rk) if k is not None), key=lambda k: order[k])
        return FloatType(kind=best)
    left = promote_integer(left.unqualified(), profile)
    right = promote_integer(right.unqualified(), profile)
    assert isinstance(left, IntType) and isinstance(right, IntType)
    if left.kind == right.kind:
        return left
    lsigned = is_signed_type(left, profile)
    rsigned = is_signed_type(right, profile)
    if lsigned == rsigned:
        return left if left.rank >= right.rank else right
    signed_t, unsigned_t = (left, right) if lsigned else (right, left)
    if unsigned_t.rank >= signed_t.rank:
        return unsigned_t
    # unsigned has lower rank: use signed if it can represent all unsigned values
    _, umax = integer_range(unsigned_t, profile)
    _, smax = integer_range(signed_t, profile)
    if umax <= smax:
        return signed_t
    return _unsigned_counterpart(signed_t)


def _unsigned_counterpart(ctype: IntType) -> IntType:
    mapping = {
        "char": UCHAR, "signed char": UCHAR,
        "short": USHORT, "int": UINT, "long": ULONG, "long long": ULLONG,
    }
    return mapping.get(ctype.kind, ctype)


# ---------------------------------------------------------------------------
# Type compatibility / composition
# ---------------------------------------------------------------------------

def types_compatible(a: CType, b: CType) -> bool:
    """Structural compatibility test (§6.2.7), ignoring top-level qualifiers
    only when both sides agree."""
    a_unq, b_unq = a, b
    if a.const != b.const or a.volatile != b.volatile:
        return False
    if isinstance(a_unq, VoidType) and isinstance(b_unq, VoidType):
        return True
    if isinstance(a_unq, BoolType) and isinstance(b_unq, BoolType):
        return True
    if isinstance(a_unq, IntType) and isinstance(b_unq, IntType):
        return a_unq.kind == b_unq.kind
    if isinstance(a_unq, FloatType) and isinstance(b_unq, FloatType):
        return a_unq.kind == b_unq.kind
    if isinstance(a_unq, EnumType) and isinstance(b_unq, EnumType):
        return a_unq.tag == b_unq.tag
    if isinstance(a_unq, EnumType) and isinstance(b_unq, IntType):
        return b_unq.kind == "int"
    if isinstance(a_unq, IntType) and isinstance(b_unq, EnumType):
        return a_unq.kind == "int"
    if isinstance(a_unq, PointerType) and isinstance(b_unq, PointerType):
        return types_compatible(a_unq.pointee, b_unq.pointee)
    if isinstance(a_unq, ArrayType) and isinstance(b_unq, ArrayType):
        if not types_compatible(a_unq.element, b_unq.element):
            return False
        if a_unq.length is None or b_unq.length is None:
            return True
        return a_unq.length == b_unq.length
    if isinstance(a_unq, (StructType, UnionType)) and type(a_unq) is type(b_unq):
        if a_unq.tag is not None or b_unq.tag is not None:
            return a_unq.tag == b_unq.tag
        return a_unq.fields == b_unq.fields
    if isinstance(a_unq, FunctionType) and isinstance(b_unq, FunctionType):
        if not types_compatible(a_unq.return_type, b_unq.return_type):
            return False
        if not a_unq.has_prototype or not b_unq.has_prototype:
            return True
        if a_unq.variadic != b_unq.variadic:
            return False
        if len(a_unq.parameters) != len(b_unq.parameters):
            return False
        return all(types_compatible(pa.unqualified(), pb.unqualified())
                   for pa, pb in zip(a_unq.parameters, b_unq.parameters))
    return False


def decay(ctype: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay (§6.3.2.1)."""
    if isinstance(ctype, ArrayType):
        return PointerType(pointee=ctype.element)
    if isinstance(ctype, FunctionType):
        return PointerType(pointee=ctype)
    return ctype


def is_character_type(ctype: CType) -> bool:
    return isinstance(ctype, IntType) and ctype.kind in ("char", "signed char", "unsigned char")


def aliasing_compatible(lvalue_type: CType, effective_type: CType,
                        profile: ImplementationProfile) -> bool:
    """May an object with ``effective_type`` be accessed through an lvalue of
    ``lvalue_type``?  (§6.5:7 -- the strict aliasing rule.)

    Character-typed lvalues may access anything; otherwise the types must be
    compatible up to signedness and qualifiers, or the effective type must be
    a record containing a member of the lvalue type.
    """
    if is_character_type(lvalue_type):
        return True
    lv = lvalue_type.unqualified()
    ef = effective_type.unqualified()
    if types_compatible(lv, ef):
        return True
    if isinstance(lv, IntType) and isinstance(ef, IntType):
        # signed/unsigned variants of the same width are allowed
        return size_of(lv, profile) == size_of(ef, profile) and lv.rank == ef.rank
    if isinstance(lv, (BoolType, EnumType)) and isinstance(ef, IntType):
        return size_of(lv, profile) == size_of(ef, profile)
    if isinstance(ef, (StructType, UnionType)) and ef.fields is not None:
        return any(aliasing_compatible(lv, f.type, profile) for f in ef.fields)
    if isinstance(ef, ArrayType):
        return aliasing_compatible(lv, ef.element, profile)
    return False
