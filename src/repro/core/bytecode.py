"""Compile function bodies into flat register bytecode (the compiled engine).

The walker re-dispatches on every AST node at every step, and pays a
CPython frame per node.  This module removes both, the way a template-JIT
baseline tier does: each function whose body fits the *native subset* is
compiled once into a flat ``tuple``-of-tuples instruction array (integer
opcodes, pre-resolved register/slot operands, the pre-derived arithmetic
plans of :mod:`repro.core.plans` inlined into the instruction stream)
executed by a single ``while``-loop dispatch in :mod:`repro.core.vm`.

The native subset
-----------------

* flat integer (``IntType``/``BoolType``) local scalars and parameters ->
  virtual registers holding raw Python ints (or the ``UNINIT`` sentinel);
* locals and parameters of type pointer-to-flat-integer or ``void *`` ->
  *pointer registers* (see :mod:`repro.core.vm` for their fast form):
  declaration, array decay, ``&``, assignment, ``+``/``-`` with an
  integer, ``++``/``--``, ``+=``/``-=``, comparisons and pointer
  difference, ``*p`` and ``p[i]`` loads, stores, compound assignments and
  ``++``/``--``, null constants, truth tests, casts between these pointer
  types and to integers, and pointers as call arguments, results and
  return values;
* memory *slots*: local one-dimensional flat-integer arrays (with no
  initializer, a brace-enclosed list, or a string for a character
  array), flat scalars whose address is taken, ``static`` locals of these
  types, and unit-level flat scalars and arrays.  A slot is a pointer
  register holding the pointer to its object's first byte, so memory has
  one access path: ``a[i]`` compiles like ``p[i]``, a scalar slot is a
  pointer at offset 0, ``&x`` of a slot is its register, ``&a[i]`` is a
  pointer addition, and every load or store of a flat integer in memory
  is ``PLD`` or ``PST``.  Compound assignment and ``++``/``--`` of any
  lvalue in memory share one load, operate and store sequence
  (:meth:`_FnCompiler._compile_update`);
* scalar compound literals read as values, ``(T){ e }``;
* calls to unit functions and builtins, ``if``/``while``/``do``/``for``,
  ``&&``/``||``/``?:``/comma, casts between flat integer types.  A call of
  a native function is linked into a *direct call* (``OP_DCALL``, see
  :func:`_link_call`) when it is statically clean: both the call-site and
  the definition types are prototyped, not variadic and compatible, the
  arity matches, every parameter is a register, each argument is a flat
  integer for a flat-integer parameter or has the pointer parameter's own
  type, and the callee is not ``main``.  The VM then passes the converted
  arguments straight into the callee's registers; every other call goes
  through the interpreter's generic call path.

A register is sound only while nothing can point at it, so the rule is per
variable: a scalar that appears as ``&name`` anywhere in its function is a
slot, and every other scalar is a register.  The parser records those
names on the definition (``FunctionDef.addressed``), so each function
compiles once.
``&`` of anything but a slot, an array element or a pointer subscript
leaves the subset.  Anything else outside it — floats, structs, pointers
to pointers or records, function pointers, ``goto``/``switch``/labels,
``extern`` locals, ``sizeof`` of an expression, compound literals whose
address is taken, variadic definitions — aborts compilation of that
*function* (:class:`_Unsupported`), and the function runs on the walker
instead, with the reason recorded in :attr:`CompiledProgram.fallbacks`
(``docs/engine-coverage.md`` has the histogram per corpus).  Falling back
is always verdict-safe: the compiled engine is an accelerator for the
common case, never an alternative semantics.

Parity contract
---------------

The bytecode replicates the walker observation-for-observation:

* **steps** are aggregated per basic block and charged before every
  side-effecting boundary (calls, returns, jumps, a ``static`` local's
  declaration), so ``max_steps`` resource verdicts and stdout prefixes
  agree; other declarations are not boundaries, their step joins the
  block's charge.  A charge moves forward past register-only instructions
  (``INC``, ``BINOP``, ``CONV``, ``MOV``, ...) and labels that no jump
  names onto the next jump or ``RET``, or the compare-and-branch a jump
  fused into, which adds it and checks ``max_steps`` before its own test.
  Nothing it passes can print, call or end the run, so stdout at a step
  limit is the same.  Nothing moves across a label a jump names, since a
  jump there must not pay it.  An error raised before the block's charge
  is weighed against the steps the walker has charged by then
  (``FnCode.pending``, and the step count a deferred read carries, plus
  ``FnCode.carried`` for the charges that moved past it): past
  ``max_steps``, the walker stops at the step limit first, and so does
  the VM;
* **declarations**: the VM declares every local itself.  A register has
  no object; its base is reserved (``OP_RSV``, one per run of
  declarations) where the walker's object would take it, so every later
  object's base, ``%p`` output and pointer-to-integer values match.  A
  slot's object is allocated where the walker's declaration would make
  it, fresh or zero-filled the same way, its pointer goes into the slot's
  register, and its initializer is stored untracked, as the walker's
  initialization is;
* **scopes**: only a block that declares a slot, or a ``for`` whose init
  does, pushes a run-time scope, and the slot's object dies when it pops.
  Nothing else writes a native function's innermost scope, so an empty one
  is unobservable;
* **arithmetic** uses the raw-int plans of :mod:`repro.core.plans`
  (:func:`~repro.core.plans.raw_binary_plan`,
  :func:`~repro.core.plans.raw_conversion_plan`, ...), one Python call per
  operation, which raise the walker's error kinds and messages.  A
  ``BINOP`` or ``UNOP`` result is an int in range of its type, so a
  conversion to that type emits nothing: an assignment's operation writes
  the variable's register, and a store or ``return`` takes the result
  register as it is.  Every slow path boxes the value
  back into a :class:`~repro.core.values.CValue` and calls the *actual*
  shared helper (``_read_with_plan``, ``_write_with_plan``, ``_pointer_add``,
  ``_check_usable``, ``to_boolean``, ...), so error kinds, messages, and
  report order are the walker's by construction;
* **uninitialized reads**: a register read of an indeterminate value
  raises exactly where the walker's identifier read would — consumers
  carry the read-site message and check the ``UNINIT`` sentinel on their
  (free) slow path; value-discard positions, and a read that later code
  could overtake, get an explicit ``RDCHK``.  An ``RDCHK`` stays in the
  stream only when its register may be indeterminate: a variable declared
  without an initializer, a call's result, a load from memory (an exempt
  character type, or bytes that make no value), a parameter, or a copy of
  one of those by an instruction that does not check that read.
  Arithmetic on an indeterminate operand raises instead of producing one,
  so an accumulator that starts at 0 needs no check; the argument is
  spelled out in :meth:`_FnCompiler._indeterminate`;
* **sequencing**: memory writes keep feeding ``Memory.locs_written``
  (plain ``(base, offset)`` tuples, equal to the ``ByteLocation`` entries
  the generic path adds) and ``SEQPT`` clears them at every sequence
  point the walker performs; conflicts *between register operations* are
  resolved statically — any potential conflict makes the function fall
  back, so the walker produces the report.

Whole-unit compilation is memoized per options on
:class:`repro.core.kcc.CompiledUnit`; functions that do not compile stay
absent from :attr:`CompiledProgram.functions` and are listed, with their
reasons, in :attr:`CompiledProgram.fallbacks`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.core.config import CheckerOptions
from repro.core.plans import (
    _FLAT_INT_TYPES,
    _FoldContext,
    _FoldUB,
    _fold_error_steps,
    _subtree_step_cost,
    _try_fold,
    access_plan,
    raw_binary_plan,
    raw_conversion_plan,
    raw_incdec_plan,
    raw_unary_plan,
)
from repro.core.values import PointerValue


class UninitType:
    """Singleton sentinel for an indeterminate register value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNINIT"


#: The indeterminate register value.  Consumers test ``value.__class__ is
#: int`` on the fast path, so the sentinel automatically routes to the slow
#: path that replicates the walker's indeterminate-value handling.
UNINIT = UninitType()


class _Unsupported(Exception):
    """The function under compilation leaves the native subset."""


# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------
#
# Instructions are plain tuples with the opcode at index 0.  Numbering is
# dense and by measured dynamic frequency, most frequent first: the VM
# tests the group of eight first (``op < 8``, ``op < 16``, ...) and the
# opcode within its group second, so the most frequent opcode costs two
# tests and none costs more than twelve.  The counts behind the order
# are the dispatches of one check of each benchmark loop program, of the
# 278 suite programs and of 300 mixed fuzz cases (seed 1); re-count and
# renumber when the instruction set or the compiler's output changes.
#
# The ``P`` opcodes work on pointer registers (fast form ``(obj, offset,
# elem)``, see repro.core.vm).  A slot is a pointer register too, so every
# load and store of a flat integer in memory is a ``PLD`` or ``PST``; only
# an initializer's store into a fresh object (``INIT``) is not.  ``steps``
# on a jump or ``RET`` is a step charge that rides on it: it is added, and
# ``max_steps`` checked, before the jump's test or the return.  A
# compare-and-branch (``BINJZ``, ``PCMPJZ``) is a ``BINOP`` or ``PCMP``
# fused with the ``JZ`` that tests its result: it still writes ``dst``,
# then charges ``steps``, then branches to ``target`` when the result is
# zero (``line``, ``rdmsg`` and ``rdline`` are the ``JZ``'s).  An
# ``rdmsg`` is a deferred uninitialized read: ``(message, steps)``, see
# _FnCompiler.read_site.

OP_BINOP = 0  # (op, dst, a, b, plan, slow)
OP_JMP = 1  # (op, target, steps)
OP_BINJZ = 2  # (op, dst, a, b, plan, slow, steps, target, line, rdmsg, rdline)
OP_INC = 3  # (op, dst, src, plan, slow)
# Load ``ptr[idx]``; a scalar's load is ``idx`` 0 (a constant register).
OP_PLD = 4  # (op, dst, ptr, idx, esize, elem, signed, slow)
OP_PADD = 5  # (op, dst, ptr, idx, scale, slow)
OP_RDCHK = 6  # (op, src, msg, line)
OP_CONV = 7  # (op, dst, src, plan, slow)
OP_PCMPJZ = 8  # (op, dst, a, b, compare, slow, steps, target, line, rdmsg, rdline)
OP_PINC = 9  # (op, reg, old_dst, delta, slow)
OP_STEP = 10  # (op, n)
OP_RET = 11  # (op, src, rtype, rdmsg, rdline, steps)
# A statically clean call of a native function (see _link_call); ``call``
# is the OP_CALL it replaces, which runs whenever an argument value is one
# the direct path cannot take.
OP_DCALL = 12  # (op, dst, fn, args, line, call)
# Skip the bases of ``n`` register declarations (see _FnCompiler.flush_bases).
OP_RSV = 13  # (op, n)
OP_SEQPT = 14  # (op,)
OP_MOV = 15  # (op, dst, src)
# An initializer's store into a fresh slot object, untracked like the
# walker's; ``seal`` marks a const object not writable after its last one.
OP_INIT = 16  # (op, reg, src, offset, esize, mask, elem, seal)
OP_PST = 17  # (op, ptr, src, esize, elem, mask, slow)
OP_NOT = 18  # (op, dst, src, line, rdmsg, rdline)
OP_JZ = 19  # (op, src, target, line, rdmsg, rdline, steps)
# The interpreter's generic call path.
OP_CALL = 20  # (op, dst, name, ctype, args, line, pointer_result)
OP_PCONV = 21  # (op, dst, src, slow)
# Load a register parameter from the object the generic call path wrote.
OP_BINDR = 22  # (op, dst, name, size, signed, is_bool)
# A local slot's object, allocated where the walker's declaration would,
# and its pointer in the slot's register.  ``fill`` is True to zero-fill it
# (a brace-initialized array), or the bytes of a string initializer;
# ``seal`` marks a const object not writable.
OP_ALLOC = 23  # (op, reg, ctype, name, size, fill, seal)
OP_STR = 24  # (op, dst, text)
OP_UNOP = 25  # (op, dst, src, plan, slow)
OP_PUSHSC = 26  # (op,)
OP_POPSC = 27  # (op,)
OP_PDCHK = 28  # (op, src, slow)
# A static local's slot: its object is made the first time the declaration
# runs, by the walker's own ``Interpreter.static_local_binding``.
OP_SDECL = 29  # (op, reg, decl, line)
OP_LOADI = 30  # (op, dst, value)
OP_PDIFF = 31  # (op, dst, a, b, esize, lo, hi, slow)
# Bind a unit-level object's or a parameter's slot register on first use.
OP_DECAY = 32  # (op, reg, name)
OP_PCMP = 33  # (op, dst, a, b, compare, slow)
OP_BINDP = 34  # (op, dst, name, ctype)
OP_JNZ = 35  # (op, src, target, line, rdmsg, rdline, steps)
OP_BOOL = 36  # (op, dst, src, line, rdmsg, rdline)
OP_RAISE = 37  # (op, kind, message, line)

_JUMPS = frozenset((OP_JMP, OP_JZ, OP_JNZ))

#: The instructions a step charge can ride on.
_SINKS = _JUMPS | {OP_RET}

#: The operand position of each jump's target.
_TARGET_FIELD = {OP_JMP: 1, OP_JZ: 2, OP_JNZ: 2, OP_BINJZ: 7, OP_PCMPJZ: 7}

#: The compare-and-branch that each operation fuses into with the ``JZ``
#: testing its result.
_COMPARES = {OP_BINOP: OP_BINJZ, OP_PCMP: OP_PCMPJZ}

#: Opcodes that can never raise: the only instructions allowed between a
#: deferred register read and its consuming check without reordering the
#: report (see :meth:`_FnCompiler.protect_read`).
_SAFE_OPS = frozenset(
    (
        OP_STEP,
        OP_MOV,
        OP_LOADI,
        OP_JMP,
        OP_SEQPT,
        OP_PUSHSC,
        OP_POPSC,
        OP_STR,
        OP_DECAY,
        OP_RSV,
    )
)

#: Instructions that write registers only (``SEQPT`` only clears the
#: sequencing window) and never observe the step count: a step charge may
#: move past them onto the next jump or ``RET`` (see _fuse_and_resolve).
_REGISTER_ONLY = frozenset(
    (OP_STEP, OP_INC, OP_PINC, OP_BINOP, OP_UNOP, OP_CONV, OP_MOV, OP_LOADI, OP_SEQPT)
)

#: Instructions whose destination may receive an indeterminate value: a
#: load from memory, a call's result, a parameter (see _indeterminate).
_INDETERMINATE_DSTS = frozenset((OP_PLD, OP_CALL, OP_BINDR, OP_BINDP))

#: The instructions _indeterminate reads: those above, and those that may
#: load or copy an indeterminate value.
_FLOWS = _INDETERMINATE_DSTS | {OP_LOADI, OP_MOV, OP_CONV, OP_PCONV}

#: The register-destination operand positions of each opcode, used by the
#: compile-time clobber scan behind :meth:`_FnCompiler.snapshot`.  Opcodes
#: absent here write no registers.  (``OP_INC`` position 2 and ``OP_CALL``
#: position 1 may hold -1 for "no destination"; register numbers are never
#: negative, so the scan needs no special case.)  ``OP_DECAY`` writes its
#: slot register only while it is unbound, with the pointer every later
#: ``DECAY`` of the slot finds, so it never clobbers a value held in it.
_DST_FIELDS = {
    OP_BINOP: (1,),
    OP_CONV: (1,),
    OP_MOV: (1,),
    OP_INC: (1, 2),
    OP_UNOP: (1,),
    OP_NOT: (1,),
    OP_BOOL: (1,),
    OP_LOADI: (1,),
    OP_CALL: (1,),
    OP_BINDR: (1,),
    OP_STR: (1,),
    OP_PLD: (1,),
    OP_PADD: (1,),
    OP_PCMP: (1,),
    OP_PINC: (1, 2),
    OP_PCONV: (1,),
    OP_PDIFF: (1,),
    OP_BINDP: (1,),
    OP_BINJZ: (1,),
    OP_PCMPJZ: (1,),
    OP_ALLOC: (1,),
    OP_SDECL: (1,),
}


class FnCode:
    """One compiled function body.

    ``entry`` is the pc after the parameter prologue (one ``OP_BINDR`` /
    ``OP_BINDP`` per register parameter, in registers ``0..entry-1``); a
    direct call seeds those registers and starts there.  ``pending[pc]`` is
    the number of steps the walker has charged, beyond what the VM has
    charged, when instruction ``pc`` raises (see ``repro.core.vm``);
    ``carried[pc]``, present only for an instruction that a step charge
    moved past, is the part of it that a deferred read it raises adds.
    """

    __slots__ = (
        "name",
        "code",
        "pending",
        "carried",
        "n_regs",
        "r_init",
        "r_tail",
        "ftype",
        "entry",
        "max_steps",
        "limit_message",
    )

    def __init__(
        self,
        name: str,
        code: tuple,
        pending: tuple,
        carried: dict,
        n_regs: int,
        r_init: tuple,
        ftype: ct.FunctionType,
        entry: int,
        max_steps: int,
    ) -> None:
        self.name = name
        self.code = code
        self.pending = pending
        self.carried = carried
        self.n_regs = n_regs
        self.r_init = r_init
        self.r_tail = r_init[entry:]
        self.ftype = ftype
        self.entry = entry
        self.max_steps = max_steps
        self.limit_message = f"execution exceeded {max_steps} steps"


class CompiledProgram:
    """The natively compiled functions of one translation unit.

    ``fallbacks`` maps every other defined function to the reason it left
    the native subset; those run on the walker.
    """

    __slots__ = ("functions", "fallbacks", "order_mode", "options")

    def __init__(
        self, functions: dict, fallbacks: dict, order_mode: int, options: CheckerOptions
    ) -> None:
        self.functions = functions
        self.fallbacks = fallbacks
        self.order_mode = order_mode
        self.options = options


# ---------------------------------------------------------------------------
# Compile-time variable model
# ---------------------------------------------------------------------------

#: Offset comparisons of two pointers into the same object (0/1 results).
_OFFSET_COMPARE = {
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


_POINTEES = _FLAT_INT_TYPES + (ct.VoidType,)


def _native_pointer(ctype) -> bool:
    """Whether ``ctype`` lives in a pointer register: a pointer to a flat
    integer type or to void."""
    return isinstance(ctype, ct.PointerType) and isinstance(ctype.pointee, _POINTEES)


def _read_message(ctype: ct.CType) -> Optional[str]:
    """The message ``read_lvalue`` raises on an uninitialized read of an
    object of type ``ctype``; None when the uninit side condition does not
    apply (character types stay exempt, matching the walker)."""
    if ctype.is_scalar and not ct.is_character_type(ctype):
        return f"Read of an uninitialized (indeterminate) value of type {ctype}."
    return None


class _RegVar:
    """A flat integer or native pointer scalar living in a virtual register."""

    __slots__ = ("reg", "ctype", "read_msg", "signed", "is_bool", "size")

    def __init__(
        self, reg: int, ctype: ct.CType, profile: ct.ImplementationProfile
    ) -> None:
        self.reg = reg
        self.ctype = ctype
        self.size = ct.size_of(ctype, profile)
        self.is_bool = isinstance(ctype, ct.BoolType)
        self.signed = not _native_pointer(ctype) and ct.is_signed_type(ctype, profile)
        self.read_msg = _read_message(ctype)


class _MemVar:
    """A memory-resident variable (a slot): an array, a scalar whose
    address is taken, a static local, or a unit-level object.

    A slot is the pointer register ``reg``, which holds the pointer to its
    object's first byte: an array's decayed pointer, a scalar's ``&``.  A
    local's ``OP_ALLOC`` and a static local's ``OP_SDECL`` fill it where the
    walker makes the object; a unit-level object or a parameter (``lazy``,
    the name to bind) is bound by ``OP_DECAY`` on first use.
    """

    __slots__ = ("reg", "ctype", "is_array", "elem", "length", "ptype", "lazy")

    def __init__(self, reg: int, ctype: ct.CType, lazy: Optional[str] = None) -> None:
        self.reg = reg
        self.ctype = ctype
        self.is_array = isinstance(ctype, ct.ArrayType)
        self.elem = ctype.element if self.is_array else ctype
        self.length = ctype.length if self.is_array else None
        self.ptype = ct.PointerType(pointee=self.elem)
        self.lazy = lazy


#: The unqualified integer types the parser interns (``ct.INT``, ...; not
#: _Bool).  A fast pointer access compares its target type with the
#: object's element type by identity, both mapped through this table.
INTERNED_INTS = {t: t for t in vars(ct).values() if t.__class__ is ct.IntType}


#: The fast-access key of a target that always takes the checked path: no
#: object's element type is this.
_CHECKED = object()


class _Pointee:
    """What the VM needs to know about the target of a pointer type."""

    __slots__ = ("elem", "scale", "load_elem", "store_elem", "signed", "mask", "info")

    def __init__(self, ctype: ct.PointerType, profile) -> None:
        elem = ctype.pointee
        self.elem = elem
        self.info = None
        self.load_elem = self.store_elem = _CHECKED
        if elem.is_void:
            self.scale = 1  # _pointer_add's step for void * (GNU semantics)
            return
        self.info = (elem,) + access_plan(elem, profile)
        size = self.scale = self.info[1]
        self.signed = ct.is_signed_type(elem, profile)
        self.mask = (1 << (size * 8)) - 1
        # Qualifiers do not change a load (aliasing ignores them); a store
        # through a const lvalue, like any _Bool access, takes the checked
        # path.
        self.load_elem = INTERNED_INTS.get(elem.unqualified(), _CHECKED)
        if not elem.const:
            self.store_elem = self.load_elem


class _Value:
    """Compile-time description of an expression result."""

    __slots__ = ("reg", "ctype", "read_msg", "read_line", "exact", "fresh")

    def __init__(
        self,
        reg: int,
        ctype: Optional[ct.CType],
        read_msg: Optional[tuple] = None,
        read_line: int = 0,
        exact: bool = True,
        fresh: bool = False,
    ) -> None:
        self.reg = reg
        self.ctype = ctype  # None: void (discard-only)
        # A direct register read's deferred uninit check: (message, steps
        # the walker has charged in the block when it reads), see read_site.
        self.read_msg = read_msg
        self.read_line = read_line  # the read site (where the walker reports)
        # False when the run-time value's type may differ from ``ctype`` (a
        # builtin's pointer result): only a conversion may consume it.
        self.exact = exact
        # True for the temporary a BINOP or UNOP writes: always an int in
        # range of ``ctype`` (a slow path raises on an indeterminate operand
        # or reads it as 0), which a conversion to ``ctype`` leaves as it is
        # (see convert_to).
        self.fresh = fresh


def _operands(op: str, line: int, left: _Value, right: _Value) -> tuple:
    """The slow-path facts of a binary operation: both operands' types and
    deferred reads, left first."""
    return (
        op,
        line,
        left.ctype,
        right.ctype,
        left.read_msg,
        left.read_line,
        right.read_msg,
        right.read_line,
    )


_BAD = object()  # scope marker: name exists but is not natively accessible


class _Label:
    """A jump target, placed by :meth:`_FnCompiler.bind`; ``named`` once a
    jump names it (a label no jump names marks nothing at run time)."""

    __slots__ = ("named",)

    def __init__(self) -> None:
        self.named = False


class _FnCompiler:
    """Compiles one function definition to :class:`FnCode`.

    Raises :class:`_Unsupported` as soon as the body leaves the native
    subset; the caller then simply omits the function from the program.
    """

    def __init__(
        self,
        definition: c_ast.FunctionDef,
        unit_globals: dict,
        unit_functions: dict,
        defined: set,
        options: CheckerOptions,
        order_mode: int,
        folder: _FoldContext,
    ) -> None:
        self.definition = definition
        self.unit_globals = unit_globals  # name -> CType (objects)
        self.unit_functions = unit_functions  # name -> FunctionType
        self.defined = defined  # names of the unit's function definitions
        self.pointees: dict = {}  # PointerType -> _Pointee
        self.options = options
        self.profile = options.profile
        self.order_mode = order_mode
        self.folder = folder
        self.code: list = []
        self.pending: list = []  # per instruction: pending_steps when emitted
        self.scopes: list[dict] = [{}]
        self.run_scopes = 0  # run-time scopes pushed by enclosing blocks
        self.n_regs = 0
        self.consts: dict[int, int] = {}
        self.pending_steps = 0
        self.pending_bases = 0  # register declarations not yet reserved
        self.read_regs: set[int] = set()  # variable registers read so far
        self.unset: set[int] = set()  # variables that may be read unwritten
        # Names that live in memory because they appear as `&name`, which
        # the parser records: a variable is a register only while nothing
        # can point at it.
        self.addressed = definition.addressed
        self.dirty = False  # memory locs possibly nonempty
        self.pending_names: set[str] = set()  # register writes this region
        self.loop_stack: list[tuple] = []  # (break_l, cont_l, run_scopes)
        self.labels: dict[_Label, int] = {}  # label -> pc
        self.global_slots: dict[str, _MemVar] = {}
        self.check_seq = options.check_sequencing
        self.check_uninit = options.check_uninitialized

    # -- infrastructure ----------------------------------------------------

    def new_reg(self) -> int:
        reg = self.n_regs
        self.n_regs += 1
        return reg

    def const_reg(self, value: int) -> int:
        # Constants live in registers pre-loaded by ``r_init``; they are
        # only ever read, so one register per distinct value suffices.
        reg = self.consts.get(value)
        if reg is None:
            reg = self.new_reg()
            self.consts[value] = reg
        return reg

    @staticmethod
    def new_label() -> "_Label":
        return _Label()

    def bind(self, label: _Label) -> None:
        self.flush_steps()
        self.labels[label] = len(self.code)

    def emit(self, ins: tuple) -> None:
        self.code.append(ins)
        self.pending.append(self.pending_steps)

    def flush_steps(self) -> None:
        self.flush_bases()
        if self.pending_steps:
            self.emit((OP_STEP, self.pending_steps))
            self.pending_steps = 0

    def flush_bases(self) -> None:
        """Reserve the bases of the register declarations since the last
        flush.  A register has no object, but the walker's declaration
        allocates one; skipping its base before the next allocation, jump
        or return keeps every later object's base the walker's."""
        if self.pending_bases:
            self.emit((OP_RSV, self.pending_bases))
            self.pending_bases = 0

    def read_site(self, var: _RegVar):
        """The deferred-read fact of a register read here: its message and
        the steps the walker has charged in this block when it reads."""
        self.read_regs.add(var.reg)
        if var.read_msg is None:
            return None
        return (var.read_msg, self.pending_steps)

    @staticmethod
    def charged(value: _Value) -> None:
        """The block's steps are charged before ``value``'s read is
        checked: the walker read it within them, so no step limit can come
        first."""
        if value.read_msg is not None:
            value.read_msg = (value.read_msg[0], 0)

    def emit_jmp(self, label: _Label) -> None:
        self.flush_steps()
        label.named = True
        self.emit((OP_JMP, label))

    def emit_jz(self, value: _Value, label: _Label, line: int) -> None:
        self.flush_steps()
        self.charged(value)
        label.named = True
        self.emit((OP_JZ, value.reg, label, line, value.read_msg, value.read_line))

    def emit_jnz(self, value: _Value, label: _Label, line: int) -> None:
        self.flush_steps()
        self.charged(value)
        label.named = True
        self.emit((OP_JNZ, value.reg, label, line, value.read_msg, value.read_line))

    def emit_seqpt(self) -> None:
        """A walker ``memory.sequence_point()`` site."""
        if self.dirty:
            self.emit((OP_SEQPT,))
            self.dirty = False
        self.pending_names.clear()

    def protect_read(self, value: _Value, mark: int) -> None:
        """Eagerly check a deferred register read overtaken by later code.

        A direct register read costs no instruction; its uninitialized-read
        check rides along to the consumer.  That is only report-order-safe
        while nothing between the read site and the consumer can raise.
        When a potentially raising instruction was emitted after ``mark``
        (the end of the read's own stream) — a sibling operand with a
        bounds check, a folded-UB raise, a call — the walker would
        report the read *first*, so insert the check eagerly at ``mark``.
        """
        if value.read_msg is None or not self.check_uninit:
            return
        if not self._can_raise(mark):
            return
        self._insert(mark, (OP_RDCHK, value.reg, value.read_msg, value.read_line), 0)
        value.read_msg = None

    def protect_deref(self, value: _Value, mark: int, pending: int, line: int) -> None:
        """``protect_read`` for a pointer about to be dereferenced by a store.

        The walker resolves a store's target (reading the pointer
        and checking it is dereferenceable) before evaluating the stored
        value; when code emitted since ``mark`` can raise, check both at
        ``mark``, where ``pending`` steps were uncharged.
        """
        if not self._can_raise(mark):
            return
        read_msg = value.read_msg if self.check_uninit else None
        slow = (value.ctype, read_msg, value.read_line, line)
        self._insert(mark, (OP_PDCHK, value.reg, slow), pending)
        value.read_msg = None

    def _can_raise(self, mark: int) -> bool:
        for ins in self.code[mark:]:
            op = ins[0]
            if op == OP_CONV:
                _target, _line, read, _read_line, source = ins[4]
                if read is None and isinstance(source, _FLAT_INT_TYPES):
                    continue  # an integer conversion without a pending read
            elif op in _SAFE_OPS:
                continue
            return True
        return False

    def _insert(self, mark: int, ins: tuple, pending: int) -> None:
        # A label bound at ``mark`` itself stays put: the value whose stream
        # ends there is computed on every path that jumps to it (an arm that
        # starts with a register read, a conditional's end), so the jump
        # must run the inserted check or snapshot too.
        self.code.insert(mark, ins)
        self.pending.insert(mark, pending)
        for label, pc in self.labels.items():
            if pc > mark:
                self.labels[label] = pc + 1

    def snapshot(self, value: _Value, mark: int) -> _Value:
        """Copy a held register value that later code clobbers.

        A variable read costs no instruction — the value IS the variable's
        register.  When a sibling subtree compiled after it assigns that
        same variable (``i + (i = 2)``), the register no longer holds the
        value the earlier operand computed by the time the consumer reads
        it.  Scan the code emitted since ``mark`` (the end of the value's
        own stream) for a write to the register; if one exists, insert a
        MOV into a fresh temporary at ``mark`` — before the clobbering
        stream runs — and hand the consumer the temporary.  No-op, and no
        run-time cost, in the overwhelmingly common unclobbered case.
        """
        for ins in self.code[mark:]:
            for field in _DST_FIELDS.get(ins[0], ()):
                if ins[field] == value.reg:
                    break
            else:
                continue
            break
        else:
            return value
        temp = self.new_reg()
        self._insert(mark, (OP_MOV, temp, value.reg), 0)
        return _Value(temp, value.ctype, value.read_msg, value.read_line, value.exact)

    # -- static sequencing of register operations --------------------------
    #
    # The walker detects unsequenced conflicts through the byte
    # locations of *memory* writes.  Register variables never touch memory
    # here, so conflicts between register operations are resolved at compile
    # time instead: a read or write of a register written earlier in the
    # same region *may* be the conflict the generic path reports — fall
    # back and let it.

    def sim_read(self, name: str) -> None:
        if self.check_seq and name in self.pending_names:
            raise _Unsupported("potentially unsequenced register read")

    def sim_write(self, name: str) -> None:
        if self.check_seq:
            if name in self.pending_names:
                raise _Unsupported("potentially unsequenced register write")
            self.pending_names.add(name)

    # -- scope handling ----------------------------------------------------

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        var = self.global_slots.get(name)
        if var is not None:
            return var
        gtype = self.unit_globals.get(name)
        if gtype is not None:
            if isinstance(gtype, ct.ArrayType):
                if gtype.length is None or not isinstance(
                    gtype.element, _FLAT_INT_TYPES
                ):
                    raise _Unsupported(f"global '{name}' outside native subset")
            elif not isinstance(gtype, _FLAT_INT_TYPES):
                raise _Unsupported(f"global '{name}' outside native subset")
            var = _MemVar(self.new_reg(), gtype, name)
            self.global_slots[name] = var
            return var
        return None

    def slot_pointer(self, var: _MemVar) -> _Value:
        """A slot's pointer register, bound first if it is bound lazily."""
        if var.lazy is not None:
            self.emit((OP_DECAY, var.reg, var.lazy))
        return _Value(var.reg, var.ptype)

    # -- entry point -------------------------------------------------------

    def compile(self) -> FnCode:
        definition = self.definition
        ftype = definition.type
        if not isinstance(ftype, ct.FunctionType) or ftype.variadic:
            raise _Unsupported("variadic or untyped definition")
        if definition.body is None:
            raise _Unsupported("definition without a body")
        rtype = ftype.return_type
        if not (
            rtype.is_void
            or isinstance(rtype, _FLAT_INT_TYPES)
            or _native_pointer(rtype)
        ):
            raise _Unsupported(f"return type {rtype}")
        # Parameters: flat scalars and native pointers become registers bound
        # from the freshly written parameter objects, and a flat scalar whose
        # address is taken is a slot bound to its object on first use (its
        # register follows the parameter registers); any other parameter
        # poisons its name (touching it falls back) but not the function.
        scope = self.scopes[0]
        slots = []
        for index, param_type in enumerate(ftype.parameters):
            if index >= len(definition.parameter_names):
                raise _Unsupported("unnamed parameter")
            name = definition.parameter_names[index]
            if param_type.is_void:
                continue
            if name in self.addressed:
                if isinstance(param_type, _FLAT_INT_TYPES):
                    slots.append((name, param_type))
                else:
                    scope[name] = _BAD
            elif isinstance(param_type, _FLAT_INT_TYPES) or _native_pointer(param_type):
                var = _RegVar(self.new_reg(), param_type, self.profile)
                scope[name] = var
                self.emit_bind(var, name)
            else:
                scope[name] = _BAD
        for name, param_type in slots:
            scope[name] = _MemVar(self.new_reg(), param_type, name)
        entry = len(self.code)
        # The function-body compound charges no step and pushes no scope
        # (the walker runs it with new_scope=False).
        for item in definition.body.items:
            self.compile_block_item(item)
        self.flush_steps()
        self.emit((OP_RET, -1, None, None, 0))
        code, pending, carried = self._fuse_and_resolve()
        r_init = [UNINIT] * self.n_regs
        for value, reg in self.consts.items():
            r_init[reg] = value
        return FnCode(
            definition.name,
            code,
            pending,
            carried,
            self.n_regs,
            tuple(r_init),
            ftype,
            entry,
            self.options.max_steps,
        )

    def emit_bind(self, var: _RegVar, name: str) -> None:
        """Load a register parameter from its freshly written object."""
        if _native_pointer(var.ctype):
            self.emit((OP_BINDP, var.reg, name, var.ctype))
        else:
            self.emit((OP_BINDR, var.reg, name, var.size, var.signed, var.is_bool))

    def _fuse_and_resolve(self) -> tuple:
        """The final instruction stream: read checks dropped, step charges
        moved, compares fused, labels resolved.

        Runs once the code is complete and labels are still symbolic, so no
        later insertion can land inside a fused group.  A label that some
        jump names is *named*; the others mark nothing at run time.

        * An ``RDCHK`` of a register that cannot be indeterminate is dropped
          (see :meth:`_indeterminate`).
        * A ``STEP`` moves forward, past register-only instructions
          (``_REGISTER_ONLY``), dropped checks and labels that no jump
          names, onto the next jump or ``RET``, which adds it and checks
          ``max_steps`` before its own test.  Nothing moves across a named
          label, since a jump there must not pay the steps.  The moved
          steps join the ``pending`` of each instruction they pass, and its
          ``carried`` entry for the deferred reads it raises, so a raise
          there is still weighed against the walker's step count; nothing
          the moved steps pass can print, call or end the run.
        * A ``BINOP`` or ``PCMP`` whose result the next ``JZ`` tests becomes
          one compare-and-branch, unless a named label lies between them.

        A label on a group's first instruction names the fused instruction.
        Returns the stream, its ``pending`` table and its ``carried`` map.
        """
        code = self.code
        end = len(code)
        labels = self.labels
        named = {pc for label, pc in labels.items() if label.named}
        indeterminate = None  # computed at the first RDCHK

        def dropped(ins: tuple) -> bool:
            """Whether ``ins`` is an RDCHK that cannot fire."""
            nonlocal indeterminate
            if ins[0] != OP_RDCHK:
                return False
            if indeterminate is None:
                indeterminate = self._indeterminate()
            return ins[1] not in indeterminate

        emitted = self.pending
        fused: list = []
        pending: list = []
        carried: dict = {}
        new_pc: list = []  # old pc -> fused pc
        jumps: list = []  # the fused pcs of jumps, resolved at the end
        sink = -1  # where the steps moved so far are charged
        carry = 0  # the steps moved past the instructions before ``sink``
        pc = 0
        while pc < end:
            here = len(fused)
            new_pc.append(here)
            ins = code[pc]
            op = ins[0]
            if op == OP_STEP:
                at = pc + 1  # the jump or RET this step can ride on, if any
                while sink < 0 and at < end and at not in named:
                    kind = code[at][0]
                    if kind in _SINKS:
                        sink = at
                    elif kind not in _REGISTER_ONLY and (
                        kind != OP_RDCHK or not dropped(code[at])
                    ):
                        break
                    at += 1
                if sink >= 0:
                    carry += ins[1]
                    pc += 1
                    continue
            elif op == OP_RDCHK and dropped(ins):
                pc += 1
                continue
            if op in _SINKS:  # ``sink``, or no step is moving
                pending.append(emitted[pc])
                ins += (carry,)
                carry, sink = 0, -1
            else:
                pending.append(emitted[pc] + carry)
                if carry:
                    carried[here] = carry
                if op in _COMPARES:
                    # The JZ testing the result, past step charges (which then
                    # ride on it) and dropped checks.
                    at = pc + 1
                    extra = 0
                    while at < end and at not in named:
                        step = code[at]
                        if step[0] == OP_STEP:
                            extra += step[1]
                        elif step[0] != OP_RDCHK or not dropped(step):
                            break
                        at += 1
                    if (
                        at < end
                        and at not in named
                        and code[at][0] == OP_JZ
                        and code[at][1] == ins[1]
                    ):
                        if at == sink:
                            extra, carry, sink = extra + carry, 0, -1
                        ins = (_COMPARES[op],) + ins[1:] + (extra,) + code[at][2:]
                        new_pc += [here] * (at - pc)
                        pc = at
            if ins[0] in _TARGET_FIELD:
                jumps.append(here)
            fused.append(ins)
            pc += 1
        new_pc.append(len(fused))
        resolved = {label: new_pc[at] for label, at in labels.items()}
        for at in jumps:
            ins = fused[at]
            field = _TARGET_FIELD[ins[0]]
            fused[at] = ins[:field] + (resolved[ins[field]],) + ins[field + 1 :]
        return tuple(fused), tuple(pending), carried

    def _indeterminate(self) -> set:
        """The registers that may hold ``UNINIT`` when an ``RDCHK`` runs.

        ``RDCHK`` exists only while uninitialized reads are checked, and it
        reads a variable's register (or a scalar compound literal's).  A
        register holds ``UNINIT`` there only if some path reaches the check
        before the register's first write, or writes ``UNINIT`` into it:

        * before its first write: a variable declared without an
          initializer, or read in its own (``unset``).  Scopes and
          structured control flow put any other declaration's initializer
          before every read of its variable, and a temporary is written
          before it is read;
        * writes of ``UNINIT``: a load from memory (``PLD``: an exempt
          character type, or bytes that do not make a value), a call's
          result (a function that falls off its end), a parameter (an
          argument read through an exempt type), and ``LOADI UNINIT`` (a
          declaration run again in a loop);
        * copies: ``MOV``, and a ``CONV`` or ``PCONV`` that does not check
          its source's read, pass ``UNINIT`` on.  Every other instruction
          writes a value or raises: arithmetic on an indeterminate operand
          raises the walker's error, a truth test yields 0 or 1, and a
          checked conversion raises the source's read.

        So the registers that may be indeterminate are the closure of those
        sources under unchecked copies; an ``RDCHK`` of any other register
        never fires.  One pass over the code and one over the copy edges.
        """
        found = set(self.unset)
        copies: dict = {}
        for ins in self.code:
            op = ins[0]
            if op not in _FLOWS:
                continue
            if op in _INDETERMINATE_DSTS or (op == OP_LOADI and ins[2] is UNINIT):
                found.add(ins[1])
            elif (
                op == OP_MOV
                or (op == OP_CONV and ins[4][2] is None)
                or (op == OP_PCONV and ins[3][3] is None)
            ):
                copies.setdefault(ins[2], []).append(ins[1])
        stack = list(found)
        while stack:
            for dst in copies.get(stack.pop(), ()):
                if dst not in found:
                    found.add(dst)
                    stack.append(dst)
        return found

    # -- statements --------------------------------------------------------

    def compile_block_item(self, item) -> None:
        if isinstance(item, c_ast.Declaration):
            self.compile_declaration(item)
            return
        # One reservation for a run of declarations, ahead of the code that
        # follows them (so it never splits a compare from its branch).
        self.flush_bases()
        if isinstance(item, c_ast.StaticAssert):
            self.pending_steps += 1  # the walker charges the node, then no-ops
        elif isinstance(item, c_ast.Statement):
            self.compile_statement(item)
        else:
            raise _Unsupported(f"block item {type(item).__name__}")

    def compile_statement(self, stmt) -> None:
        handler = self._STMTS.get(type(stmt))
        if handler is None:
            raise _Unsupported(f"statement {type(stmt).__name__}")
        handler(self, stmt)

    def stmt_expression(self, stmt: c_ast.ExpressionStmt) -> None:
        self.pending_steps += 1
        if stmt.expression is not None:
            value = self.compile_expr(stmt.expression, discard=True)
            self._discard_check(value, stmt.expression)
        self.emit_seqpt()

    def _discard_check(self, value: _Value, expr) -> None:
        """A discarded value whose computation was a bare variable read still
        raises the walker's uninitialized-read error; check it explicitly."""
        if value.read_msg is not None and self.check_uninit:
            self.emit((OP_RDCHK, value.reg, value.read_msg, value.read_line))

    def stmt_compound(self, stmt: c_ast.Compound) -> None:
        self.pending_steps += 1
        with self.block_scope(stmt.items):
            for item in stmt.items:
                self.compile_block_item(item)

    @contextmanager
    def block_scope(self, items: list):
        """A block's compile-time scope, and a run-time one only when the
        block declares a slot: a slot's object dies when its block ends,
        and nothing else writes a native function's innermost scope, so an
        empty one is unobservable.  ``break`` and ``continue`` pop the
        run-time scopes pushed since their loop began."""
        slots = any(self._declares_slot(item) for item in items)
        self.scopes.append({})
        if slots:
            self.emit((OP_PUSHSC,))
            self.run_scopes += 1
        try:
            yield
        finally:
            self.scopes.pop()
            if slots:
                self.run_scopes -= 1
                self.emit((OP_POPSC,))

    def _declares_slot(self, item) -> bool:
        """Whether ``item`` may declare an automatic slot (an array, or a
        scalar whose address is taken)."""
        return (
            isinstance(item, c_ast.Declaration)
            and item.storage != "static"
            and (isinstance(item.type, ct.ArrayType) or item.name in self.addressed)
        )

    def stmt_if(self, stmt: c_ast.If) -> None:
        self.pending_steps += 1
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        pending_before = set(self.pending_names)
        else_label = self.new_label()
        self.emit_jz(condition, else_label, stmt.line)
        self.compile_statement(stmt.then)
        dirty_then = self.dirty
        pending_then = self.pending_names
        if stmt.otherwise is not None:
            end_label = self.new_label()
            self.emit_jmp(end_label)
            self.bind(else_label)
            self.dirty = False
            self.pending_names = set(pending_before)
            self.compile_statement(stmt.otherwise)
            self.bind(end_label)
        else:
            self.bind(else_label)
            self.pending_names = set(pending_before)
        self.dirty = self.dirty or dirty_then
        self.pending_names |= pending_then

    def stmt_while(self, stmt: c_ast.While) -> None:
        self.pending_steps += 1
        top = self.new_label()
        end = self.new_label()
        self.bind(top)
        self.pending_steps += 1  # per-iteration charge
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        self.emit_jz(condition, end, stmt.line)
        self.loop_stack.append((end, top, self.run_scopes))
        self.compile_statement(stmt.body)
        self.loop_stack.pop()
        self.emit_jmp(top)
        self.bind(end)
        self.dirty = True  # conservative across the loop join
        self.pending_names.clear()

    def stmt_dowhile(self, stmt: c_ast.DoWhile) -> None:
        self.pending_steps += 1
        top = self.new_label()
        cont = self.new_label()
        end = self.new_label()
        self.bind(top)
        self.pending_steps += 1
        self.loop_stack.append((end, cont, self.run_scopes))
        self.compile_statement(stmt.body)
        self.loop_stack.pop()
        self.bind(cont)
        condition = self.compile_expr(stmt.condition)
        self.emit_seqpt()
        self.emit_jnz(condition, top, stmt.line)
        self.bind(end)
        self.dirty = True
        self.pending_names.clear()

    def stmt_for(self, stmt: c_ast.For) -> None:
        self.pending_steps += 1
        init = stmt.init
        declarations = [init] if isinstance(init, c_ast.Declaration) else init
        if not isinstance(declarations, list):
            declarations = []
        with self.block_scope(declarations):
            if declarations:
                for declaration in declarations:
                    self.compile_declaration(declaration)
            elif init is not None:
                value = self.compile_expr(init, discard=True)
                self._discard_check(value, init)
                self.emit_seqpt()
            top = self.new_label()
            cont = self.new_label()
            end = self.new_label()
            self.bind(top)
            self.pending_steps += 1
            if stmt.condition is not None:
                condition = self.compile_expr(stmt.condition)
                self.emit_seqpt()
                self.emit_jz(condition, end, stmt.line)
            self.loop_stack.append((end, cont, self.run_scopes))
            self.compile_statement(stmt.body)
            self.loop_stack.pop()
            self.bind(cont)
            if stmt.step is not None:
                value = self.compile_expr(stmt.step, discard=True)
                self._discard_check(value, stmt.step)
                self.emit_seqpt()
            self.emit_jmp(top)
            self.bind(end)
            self.dirty = True
            self.pending_names.clear()

    def stmt_break(self, stmt: c_ast.Break) -> None:
        if not self.loop_stack:
            raise _Unsupported("break outside a native loop")
        self.pending_steps += 1
        break_label, _cont, scope_depth = self.loop_stack[-1]
        self.flush_steps()
        for _ in range(self.run_scopes - scope_depth):
            self.emit((OP_POPSC,))
        self.emit_jmp(break_label)

    def stmt_continue(self, stmt: c_ast.Continue) -> None:
        if not self.loop_stack:
            raise _Unsupported("continue outside a native loop")
        self.pending_steps += 1
        _break, cont_label, scope_depth = self.loop_stack[-1]
        self.flush_steps()
        for _ in range(self.run_scopes - scope_depth):
            self.emit((OP_POPSC,))
        self.emit_jmp(cont_label)

    def stmt_return(self, stmt: c_ast.Return) -> None:
        self.pending_steps += 1
        if stmt.value is None:
            self.emit_seqpt()
            self.flush_steps()
            self.emit((OP_RET, -1, None, None, 0))
            return
        value = self.compile_expr(stmt.value)
        if value.ctype is None:
            raise _Unsupported("returning a void value")
        self.emit_seqpt()
        self.flush_steps()
        self.charged(value)  # a deferred read is the last node charged
        # Convert to the return type here, after the step charge, where the
        # caller's post-processing would (it cannot raise for these types),
        # so the returned register holds exactly what the caller receives.
        rtype = self.definition.type.return_type
        if not rtype.is_void:
            if not (_native_pointer(rtype) or isinstance(value.ctype, _FLAT_INT_TYPES)):
                raise _Unsupported("pointer returned as an integer")
            value = self.convert_to(value, rtype, stmt.line)
        self.emit((OP_RET, value.reg, value.ctype, value.read_msg, value.read_line))

    def stmt_static_assert(self, stmt: c_ast.StaticAssert) -> None:
        self.pending_steps += 1  # the walker charges the node, then no-ops

    _STMTS = {}

    # -- declarations ------------------------------------------------------
    #
    # A native function declares its locals itself.  A register gets no
    # object, only the base the walker's object would take (flush_bases); a
    # slot gets its object where the walker's declaration would make it.

    def compile_declaration(self, decl: c_ast.Declaration) -> None:
        if decl.storage not in (None, "auto", "register", "static"):
            raise _Unsupported(f"storage class {decl.storage!r}")
        ctype = decl.type
        if ctype is None or isinstance(ctype, ct.FunctionType):
            raise _Unsupported("local function declaration")
        self.pending_steps += 1  # the Declaration statement node
        flat = isinstance(ctype, _FLAT_INT_TYPES)
        array = (
            isinstance(ctype, ct.ArrayType)
            and isinstance(ctype.element, _FLAT_INT_TYPES)
            and ctype.length is not None
        )
        if decl.storage == "static":
            if not (flat or array):
                raise _Unsupported(f"static local of type {ctype}")
            self._declare_static(decl, ctype)
        elif decl.name not in self.addressed and (flat or _native_pointer(ctype)):
            self._declare_register(decl, ctype)
        elif flat or array:
            self._declare_slot(decl, ctype)
        else:
            raise _Unsupported(f"declaration of type {ctype}")

    def _declare_register(self, decl: c_ast.Declaration, ctype: ct.CType) -> None:
        var = _RegVar(self.new_reg(), ctype, self.profile)
        self.pending_bases += 1
        # C scopes the name from its declarator on: `int x = x;` reads the
        # fresh, indeterminate x.
        self.scopes[-1][decl.name] = var
        initializer = decl.initializer
        mark, pending = len(self.code), self.pending_steps
        if initializer is not None:
            value = self._initializer_value(initializer)
            self.convert_to(value, ctype, decl.line, var.reg)
            self.sim_write(decl.name)
        if initializer is None or var.reg in self.read_regs:
            # Read before its first write (`int x = x + 1;` reads it in its
            # own initializer), so indeterminate there.
            self.unset.add(var.reg)
            if self.loop_stack:
                # Run again, the walker's object is fresh, so indeterminate.
                self._insert(mark, (OP_LOADI, var.reg, UNINIT), pending)
        self.emit_seqpt()

    def _declare_slot(self, decl: c_ast.Declaration, ctype: ct.CType) -> None:
        """An automatic array, or a flat scalar whose address is taken."""
        var = _MemVar(self.new_reg(), ctype)
        initializer = decl.initializer
        items = []
        fill = False  # the object's bytes before any store: fresh ones
        string = isinstance(initializer, c_ast.StringLiteral)
        if not var.is_array:
            if initializer is not None:
                items = [initializer]
        elif isinstance(initializer, c_ast.InitList):
            items = initializer.items[: var.length]
            fill = True  # a brace-enclosed list zero-fills what it skips
        elif string and ct.is_character_type(var.elem):
            text = bytes(ord(c) & 0xFF for c in initializer.value) + b"\0"
            fill = text[: var.length].ljust(var.length, b"\0")
        elif initializer is not None:
            raise _Unsupported("array initializer that is not a list")
        # Like the walker's object, a const one turns read-only once its
        # initializer has run.
        const = ctype.const or var.elem.const
        seal = const and not items
        self.flush_bases()  # earlier register declarations took lower bases
        size = ct.size_of(ctype, self.profile)
        self.emit((OP_ALLOC, var.reg, ctype, decl.name, size, fill, seal))
        self.scopes[-1][decl.name] = var
        facts = self.pointee(var.ptype)
        esize = facts.scale
        for index, item in enumerate(items):
            value = self.convert_to(self._initializer_value(item), var.elem, decl.line)
            seal = const and index == len(items) - 1
            ins = (OP_INIT, var.reg, value.reg, index * esize, esize, facts.mask)
            self.emit(ins + (var.elem, seal))
        self.emit_seqpt()

    def _declare_static(self, decl: c_ast.Declaration, ctype: ct.CType) -> None:
        var = _MemVar(self.new_reg(), ctype)
        # The walker makes the object the first time the declaration runs,
        # and charges its initializer's steps then: sync the steps first.
        self.flush_steps()
        self.emit((OP_SDECL, var.reg, decl, decl.line))
        self.scopes[-1][decl.name] = var

    def _initializer_value(self, initializer) -> _Value:
        """A scalar initializer, its braces unwrapped as the walker does;
        empty braces store zero without evaluating anything."""
        while isinstance(initializer, c_ast.InitList):
            if not initializer.items:
                return _Value(self.const_reg(0), ct.INT)
            initializer = initializer.items[0]
        return self.compile_expr(initializer)

    # -- expressions -------------------------------------------------------

    def compile_expr(self, expr, discard: bool = False) -> _Value:
        try:
            folded = _try_fold(expr, self.folder)
        except _FoldUB as fold_error:
            self.pending_steps += _fold_error_steps(expr, fold_error, self.folder)
            self.flush_steps()
            self.emit((OP_RAISE, fold_error.kind, fold_error.message, fold_error.line))
            return _Value(self.const_reg(0), ct.INT)
        if folded is not None:
            self.pending_steps += _subtree_step_cost(expr)
            return _Value(self.const_reg(folded.value), folded.type)
        handler = self._EXPRS.get(type(expr))
        if handler is None:
            raise _Unsupported(f"expression {type(expr).__name__}")
        return handler(self, expr, discard)

    def expr_int_literal(self, expr: c_ast.IntegerLiteral, discard) -> _Value:
        # Only reached with folding off (never in practice for the compiled
        # engine, which compiles with the folding context); keep it correct.
        self.pending_steps += 1
        return _Value(self.const_reg(expr.value), expr.type or ct.INT)

    def expr_char_literal(self, expr: c_ast.CharLiteral, discard) -> _Value:
        self.pending_steps += 1
        return _Value(self.const_reg(expr.value), ct.INT)

    def expr_string_literal(self, expr: c_ast.StringLiteral, discard) -> _Value:
        self.pending_steps += 1
        self.flush_bases()  # a literal's first use allocates its object
        dst = self.new_reg()
        self.emit((OP_STR, dst, expr.value))
        return _Value(dst, ct.PointerType(pointee=ct.CHAR))

    def expr_identifier(self, expr: c_ast.Identifier, discard) -> _Value:
        self.pending_steps += 1
        var = self.lookup(expr.name)
        if var is None or var is _BAD:
            raise _Unsupported(f"identifier '{expr.name}' outside native subset")
        if isinstance(var, _RegVar):
            self.sim_read(expr.name)
            read = self.read_site(var)
            return _Value(var.reg, var.ctype.unqualified(), read, expr.line)
        pointer = self.slot_pointer(var)
        if var.is_array:
            return pointer  # array-to-pointer decay: no read
        return self._emit_load(pointer, self.zero(), expr.line)

    def expr_unary(self, expr: c_ast.UnaryOp, discard) -> _Value:
        op = expr.op
        if op in ("++pre", "--pre", "++post", "--post"):
            return self._compile_incdec(expr, discard)
        if op == "!":
            self.pending_steps += 1
            value = self.compile_expr(expr.operand)
            self._require_scalar(value)
            dst = self.new_reg()
            self.emit(
                (OP_NOT, dst, value.reg, expr.line, value.read_msg, value.read_line)
            )
            return _Value(dst, ct.INT)
        if op in ("+", "-", "~"):
            self.pending_steps += 1
            value = self.compile_expr(expr.operand)
            self._require_flat(value)
            planned = raw_unary_plan(op, value.ctype, self.options, expr.line)
            if planned is None:
                raise _Unsupported(f"unary {op} on {value.ctype}")
            plan, result_type = planned
            dst = self.new_reg()
            slow = (
                f"operand of unary {op}",
                expr.line,
                value.ctype,
                value.read_msg,
                value.read_line,
                plan,
            )
            self.emit((OP_UNOP, dst, value.reg, plan, slow))
            return _Value(dst, result_type, fresh=True)
        if op == "*":
            self.pending_steps += 1
            pointer = self.compile_expr(expr.operand)
            return self._emit_load(pointer, self.zero(), expr.line)
        if op == "&":
            return self._compile_address(expr.operand)
        if op == "sizeof":
            return self._sizeof_local(expr.operand)
        raise _Unsupported(f"unary operator {op!r}")

    def _sizeof_local(self, operand) -> _Value:
        """``sizeof name`` of a local or parameter: a constant, the size of
        its declared type.  The walker charges the sizeof node and looks the
        operand's type up without evaluating it.  A native local's type is
        complete; a unit-level name stays on the walker, which binds a
        global by its first definition, not its last declaration."""
        var = None
        if isinstance(operand, c_ast.Identifier):
            for scope in reversed(self.scopes):
                var = scope.get(operand.name)
                if var is not None:
                    break
        if not isinstance(var, (_RegVar, _MemVar)):
            raise _Unsupported("sizeof of an expression")
        self.pending_steps += 1
        return _Value(self.const_reg(ct.size_of(var.ctype, self.profile)), ct.ULONG)

    def _compile_address(self, operand) -> _Value:
        """``&x`` of a slot, and ``&a[i]`` or ``&p[i]``: the walker's
        lvalue, with no read.  A register never has its address taken: the
        parser records every name that appears as ``&name`` on the
        definition (``FunctionDef.addressed``), and each of them is a slot.
        Only a hand-built definition without that record can meet a
        register here, and it leaves the subset."""
        self.pending_steps += 2  # the & node and its lvalue
        if isinstance(operand, c_ast.Identifier):
            var = self.lookup(operand.name)
            if not isinstance(var, _MemVar) or var.is_array:
                raise _Unsupported(f"address of '{operand.name}'")
            return self.slot_pointer(var)
        if isinstance(operand, c_ast.ArraySubscript):
            return self._compile_store_target(operand)
        if isinstance(getattr(operand, "operand", None), c_ast.InitList):
            raise _Unsupported("compound literal")
        raise _Unsupported(f"address of a {type(operand).__name__}")

    def _require_flat(self, value: _Value) -> None:
        if value.ctype is None or not isinstance(value.ctype, _FLAT_INT_TYPES):
            raise _Unsupported("non-flat operand")

    def _require_scalar(self, value: _Value) -> None:
        """A truth-tested operand: a flat integer or a native pointer."""
        if not _native_pointer(value.ctype):
            self._require_flat(value)

    def _require_pointer(self, value: _Value) -> _Pointee:
        """A native pointer operand whose run-time type is its static type."""
        if not _native_pointer(value.ctype) or not value.exact:
            raise _Unsupported(f"pointer operand of type {value.ctype}")
        return self.pointee(value.ctype)

    def pointee(self, ptype: ct.PointerType) -> _Pointee:
        facts = self.pointees.get(ptype)
        if facts is None:
            facts = self.pointees[ptype] = _Pointee(ptype, self.profile)
        return facts

    def zero(self) -> _Value:
        """The index of a scalar's load: its pointer's own element."""
        return _Value(self.const_reg(0), ct.INT)

    def _compile_incdec(self, expr: c_ast.UnaryOp, discard) -> _Value:
        delta = 1 if expr.op.startswith("++") else -1
        is_post = expr.op.endswith("post")
        operand = expr.operand
        self.pending_steps += 1
        if isinstance(operand, c_ast.Identifier):
            var = self.lookup(operand.name)
            if isinstance(var, _RegVar):
                self.pending_steps += 1  # the binding resolve step
                if var.ctype.const:
                    raise _Unsupported("incdec on const lvalue")
                if _native_pointer(var.ctype):
                    return self._pointer_incdec(expr, var, delta, is_post)
                plan = raw_incdec_plan(delta, var.ctype, self.options, expr.line)
                if plan is None:
                    raise _Unsupported("incdec plan unavailable")
                self.sim_read(operand.name)
                self.sim_write(operand.name)
                old_dst = self.new_reg() if is_post else -1
                slow = (expr.line, var.ctype.unqualified(), self.read_site(var), plan)
                self.emit((OP_INC, var.reg, old_dst, plan, slow))
                result_reg = old_dst if is_post else var.reg
                return _Value(result_reg, var.ctype.unqualified())
        old, new = self._compile_update(expr, operand, delta)
        return old if is_post else new

    def _pointer_incdec(self, expr, var: _RegVar, delta: int, is_post: bool):
        facts = self._require_pointer(_Value(var.reg, var.ctype))
        name = expr.operand.name
        self.sim_read(name)
        self.sim_write(name)
        old_dst = self.new_reg() if is_post else -1
        ctype = var.ctype.unqualified()
        slow = (expr.line, ctype, self.read_site(var), delta)
        self.emit((OP_PINC, var.reg, old_dst, delta * facts.scale, slow))
        return _Value(old_dst if is_post else var.reg, ctype)

    def expr_binary(self, expr: c_ast.BinaryOp, discard) -> _Value:
        op = expr.op
        if op == "&&" or op == "||":
            return self._compile_logical(expr)
        self.pending_steps += 1
        left, right = self._compile_operands(expr.left, expr.right)
        if _native_pointer(left.ctype) or _native_pointer(right.ctype):
            return self._pointer_binary(op, expr.line, left, right)
        self._require_flat(left)
        self._require_flat(right)
        planned = raw_binary_plan(op, left.ctype, right.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"binary {op} on {left.ctype}, {right.ctype}")
        plan, result_type = planned
        dst = self.new_reg()
        slow = _operands(op, expr.line, left, right)
        self.emit((OP_BINOP, dst, left.reg, right.reg, plan, slow))
        return _Value(dst, result_type, fresh=True)

    def _compile_operands(self, left_node, right_node) -> tuple:
        """Compile two unsequenced operands in the pre-resolved order."""
        if self.order_mode == 0:
            left = self.compile_expr(left_node)
            mark = len(self.code)
            right = self.compile_expr(right_node)
            grown = len(self.code)
            self.protect_read(left, mark)
            left = self.snapshot(left, mark + (len(self.code) - grown))
        else:
            right = self.compile_expr(right_node)
            mark = len(self.code)
            left = self.compile_expr(left_node)
            grown = len(self.code)
            self.protect_read(right, mark)
            right = self.snapshot(right, mark + (len(self.code) - grown))
        return left, right

    def _pointer_binary(self, op: str, line: int, left: _Value, right: _Value):
        """Pointer arithmetic, difference, and comparison (``apply_binary``)."""
        slow = _operands(op, line, left, right)
        dst = self.new_reg()
        left_ptr = _native_pointer(left.ctype)
        right_ptr = _native_pointer(right.ctype)
        if op in _OFFSET_COMPARE:
            for value in (left, right):
                if _native_pointer(value.ctype):
                    self._require_pointer(value)
                else:
                    self._require_flat(value)
            self.emit((OP_PCMP, dst, left.reg, right.reg, _OFFSET_COMPARE[op], slow))
            return _Value(dst, ct.INT)
        if op == "-" and left_ptr and right_ptr:
            facts = self._require_pointer(left)
            self._require_pointer(right)
            lo, hi = ct.integer_range(ct.LONG, self.profile)
            scale = facts.scale
            self.emit((OP_PDIFF, dst, left.reg, right.reg, scale, lo, hi, slow))
            return _Value(dst, ct.LONG)
        if op == "+" and right_ptr and not left_ptr:
            pointer, index, sign = right, left, 1
        elif op in ("+", "-") and left_ptr and not right_ptr:
            pointer, index, sign = left, right, 1 if op == "+" else -1
        else:
            raise _Unsupported(f"pointer operator {op!r}")
        facts = self._require_pointer(pointer)
        self._require_flat(index)
        slow = (False, pointer is right, slow)
        self.emit((OP_PADD, dst, pointer.reg, index.reg, sign * facts.scale, slow))
        return _Value(dst, pointer.ctype)

    def _compile_logical(self, expr: c_ast.BinaryOp) -> _Value:
        is_and = expr.op == "&&"
        self.pending_steps += 1
        left = self.compile_expr(expr.left)
        self._require_scalar(left)
        self.emit_seqpt()
        dst = self.new_reg()
        short_label = self.new_label()
        end_label = self.new_label()
        pending_before = set(self.pending_names)
        if is_and:
            self.emit_jz(left, short_label, expr.line)
        else:
            self.emit_jnz(left, short_label, expr.line)
        right = self.compile_expr(expr.right)
        self._require_scalar(right)
        self.emit((OP_BOOL, dst, right.reg, expr.line, right.read_msg, right.read_line))
        self.emit_jmp(end_label)
        self.bind(short_label)
        self.emit((OP_LOADI, dst, 0 if is_and else 1))
        self.bind(end_label)
        self.pending_names |= pending_before
        return _Value(dst, ct.INT)

    def expr_conditional(self, expr: c_ast.Conditional, discard) -> _Value:
        self.pending_steps += 1
        condition = self.compile_expr(expr.condition)
        self.emit_seqpt()
        pending_before = set(self.pending_names)
        else_label = self.new_label()
        end_label = self.new_label()
        self.emit_jz(condition, else_label, expr.line)
        then_value = self.compile_expr(expr.then, discard=discard)
        pending_then = self.pending_names
        dirty_then = self.dirty
        dst = self.new_reg()
        self._emit_arm_result(then_value, dst, expr.then)
        self.emit_jmp(end_label)
        self.bind(else_label)
        self.pending_names = set(pending_before)
        self.dirty = False
        else_value = self.compile_expr(expr.otherwise, discard=discard)
        self._emit_arm_result(else_value, dst, expr.otherwise)
        self.bind(end_label)
        self.pending_names |= pending_then
        self.dirty = self.dirty or dirty_then
        if then_value.ctype is None or else_value.ctype is None:
            if discard and then_value.ctype is None and else_value.ctype is None:
                return _Value(dst, None)
            raise _Unsupported("void conditional arm")
        if then_value.ctype != else_value.ctype:
            raise _Unsupported("conditional arms of differing types")
        exact = then_value.exact and else_value.exact
        return _Value(dst, then_value.ctype, exact=exact)

    def _emit_arm_result(self, value: _Value, dst: int, node) -> None:
        if value.ctype is None:
            return
        if value.read_msg is not None and self.check_uninit:
            self.emit((OP_RDCHK, value.reg, value.read_msg, value.read_line))
        if value.reg != dst:
            self.emit((OP_MOV, dst, value.reg))

    def expr_comma(self, expr: c_ast.Comma, discard) -> _Value:
        self.pending_steps += 1
        left = self.compile_expr(expr.left, discard=True)
        self._discard_check(left, expr.left)
        self.emit_seqpt()
        return self.compile_expr(expr.right, discard=discard)

    def expr_cast(self, expr: c_ast.Cast, discard) -> _Value:
        target = expr.target_type
        if isinstance(expr.operand, c_ast.InitList):
            return self._compound_literal(target, expr.operand, expr.line)
        self.pending_steps += 1
        value = self.compile_expr(
            expr.operand, discard=target is not None and target.is_void
        )
        if target is not None and target.is_void:
            self._discard_check(value, expr.operand)
            return _Value(value.reg, None)
        if _native_pointer(target):
            return self._convert_pointer(value, target, expr.line, True)
        if not isinstance(target, _FLAT_INT_TYPES):
            raise _Unsupported(f"cast to {target}")
        self._require_scalar(value)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("cast plan unavailable")
        dst = self.new_reg()
        ctype = value.ctype
        slow = (target.unqualified(), expr.line, value.read_msg, value.read_line, ctype)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target.unqualified())

    def _compound_literal(self, target, initializer, line: int) -> _Value:
        """A scalar ``(T){ e }`` read as a value.  The walker makes an
        unnamed object, initializes it and reads it back; with no pointer
        to it, only its base is observable, so it is a register's value."""
        if not (isinstance(target, _FLAT_INT_TYPES) or _native_pointer(target)):
            raise _Unsupported("compound literal")
        self.pending_steps += 1
        self.pending_bases += 1
        value = self.convert_to(self._initializer_value(initializer), target, line)
        message = _read_message(target)
        if message is not None:
            value.read_msg = (message, self.pending_steps)
            value.read_line = line
        return value

    def expr_subscript(self, expr: c_ast.ArraySubscript, discard) -> _Value:
        self.pending_steps += 1
        pointer, index, swapped = self._compile_pointer_subscript(expr)
        return self._emit_load(pointer, index, expr.line, swapped)

    def _compile_pointer_subscript(self, expr: c_ast.ArraySubscript):
        """``p[i]`` or ``i[p]``: (pointer, index, pointer-is-the-index-operand)."""
        base, index = self._compile_operands(expr.array, expr.index)
        swapped = not _native_pointer(base.ctype)
        if swapped:
            base, index = index, base
        self._require_pointer(base)
        self._require_flat(index)
        return base, index, swapped

    def _emit_load(
        self, pointer: _Value, index: _Value, line: int, swapped=None, read_line=0
    ) -> _Value:
        """A checked load of ``*pointer`` (``swapped`` None) or of a subscript,
        resolved at ``line`` and read at ``read_line`` (default ``line``)."""
        facts = self._require_pointer(pointer)
        if facts.info is None:
            raise _Unsupported("dereference of void *")
        left, right = (index, pointer) if swapped else (pointer, index)
        operands = _operands("[]", line, left, right)
        slow = (swapped, operands, facts.info, read_line or line)
        dst = self.new_reg()
        ins = (OP_PLD, dst, pointer.reg, index.reg, facts.scale, facts.load_elem)
        self.emit(ins + (facts.signed, slow))
        return _Value(dst, facts.elem.unqualified())

    def expr_assignment(self, expr: c_ast.Assignment, discard) -> _Value:
        target = expr.target
        if isinstance(target, c_ast.Identifier):
            var = self.lookup(target.name)
            if isinstance(var, _RegVar):
                return self._assign_register(expr, var)
        self.pending_steps += 1  # the assignment node
        if expr.op == "=":
            return self._assign_through_pointer(expr)
        _old, new = self._compile_update(expr, target, expr.op[:-1])
        return new

    def _assign_through_pointer(self, expr: c_ast.Assignment) -> _Value:
        """``lvalue = v`` for an lvalue in memory: a checked store through
        the lvalue's pointer."""
        if self.order_mode == 0:
            self.pending_steps += 1  # the lvalue node
            pointer = self._compile_store_target(expr.target)
            mark, pending = len(self.code), self.pending_steps
            value = self.compile_expr(expr.value)
            facts = self._require_pointer(pointer)
            converted = self._convert_store(value, facts, expr.line)
            grown = len(self.code)
            if isinstance(expr.target, c_ast.UnaryOp):
                self.protect_deref(pointer, mark, pending, expr.target.line)
            pointer = self.snapshot(pointer, mark + (len(self.code) - grown))
        else:
            value = self.compile_expr(expr.value)
            self.pending_steps += 1
            mark = len(self.code)
            pointer = self._compile_store_target(expr.target)
            grown = len(self.code)
            self.protect_read(value, mark)
            value = self.snapshot(value, mark + (len(self.code) - grown))
            facts = self._require_pointer(pointer)
            converted = self._convert_store(value, facts, expr.line)
        self._emit_store(pointer, converted, facts, expr.line, expr.target.line)
        return _Value(converted.reg, facts.elem.unqualified())

    def _compile_update(self, expr, target, op) -> tuple:
        """``++``/``--`` (``op`` the delta) or a compound assignment (``op``
        the operator) of an lvalue in memory, as the walker runs both:
        resolve the lvalue, read it, operate, convert, and write it back.
        Returns the old and the stored value."""
        line = expr.line
        self.pending_steps += 1  # the lvalue node
        pointer = self._compile_store_target(target)
        facts = self._require_pointer(pointer)
        mark = len(self.code)
        old = self._emit_load(pointer, self.zero(), target.line, None, line)
        if op.__class__ is int:
            plan = raw_incdec_plan(op, facts.elem, self.options, line)
            if plan is None:
                raise _Unsupported("incdec plan unavailable")
            new = _Value(self.new_reg(), old.ctype)
            slow = ("operand of ++/--", line, old.ctype, None, 0, plan)
            self.emit((OP_UNOP, new.reg, old.reg, plan, slow))
        else:
            rhs = self.compile_expr(expr.value)
            self._require_flat(rhs)
            planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, line)
            if planned is None:
                raise _Unsupported(f"compound {op} plan unavailable")
            plan, result_type = planned
            result = self.new_reg()
            slow = _operands(op, line, old, rhs)
            self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
            result = _Value(result, result_type, fresh=True)
            new = self.convert_to(result, facts.elem, line)
        pointer = self.snapshot(pointer, mark)
        self._emit_store(pointer, new, facts, line, target.line)
        return old, new

    def _compile_store_target(self, target) -> _Value:
        """The pointer to the object an lvalue in memory designates,
        resolved like the walker's lvalue: a slot's register; ``*e``
        evaluates ``e``; ``p[i]`` also adds (and checks) the index before
        the stored value is evaluated."""
        if isinstance(target, c_ast.Identifier):
            var = self.lookup(target.name)
            if not isinstance(var, _MemVar):
                raise _Unsupported(f"identifier '{target.name}' outside native subset")
            if var.is_array:
                raise _Unsupported("assignment to an array")
            return self.slot_pointer(var)
        if isinstance(target, c_ast.UnaryOp) and target.op == "*":
            return self.compile_expr(target.operand)
        if not isinstance(target, c_ast.ArraySubscript):
            raise _Unsupported("assignment target outside native subset")
        pointer, index, swapped = self._compile_pointer_subscript(target)
        facts = self._require_pointer(pointer)
        left, right = (index, pointer) if swapped else (pointer, index)
        slow = (True, swapped, _operands("[]", target.line, left, right))
        dst = self.new_reg()
        self.emit((OP_PADD, dst, pointer.reg, index.reg, facts.scale, slow))
        return _Value(dst, pointer.ctype)

    def _emit_store(
        self, pointer: _Value, value: _Value, facts: _Pointee, line, target_line
    ) -> None:
        """A checked store of ``value`` through ``pointer``."""
        ptype, read_msg, read_line = pointer.ctype, pointer.read_msg, pointer.read_line
        slow = (line, target_line, ptype, read_msg, read_line, facts.info)
        ins = (OP_PST, pointer.reg, value.reg, facts.scale, facts.store_elem)
        self.emit(ins + (facts.mask, slow))
        if self.check_seq:
            self.dirty = True

    def _convert_store(self, value: _Value, facts: _Pointee, line: int) -> _Value:
        if facts.info is None:
            raise _Unsupported("store through void *")
        return self.convert_to(value, facts.elem, line)

    def _assign_register(self, expr: c_ast.Assignment, var: _RegVar) -> _Value:
        name = expr.target.name
        if var.ctype.const:
            raise _Unsupported("assignment to const register")
        self.pending_steps += 1
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1  # binding resolve
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
            self.convert_to(value, var.ctype, expr.line, var.reg)
            self.sim_write(name)
            return _Value(var.reg, var.ctype.unqualified())
        # Compound assignment: resolve, read, rhs, op, convert, write.
        op = expr.op[:-1]
        self.pending_steps += 1  # binding resolve
        self.sim_read(name)
        old = _Value(var.reg, var.ctype.unqualified(), self.read_site(var), expr.line)
        mark = len(self.code)
        rhs = self.compile_expr(expr.value)
        self.protect_read(old, mark)
        if _native_pointer(var.ctype):
            result = self._pointer_binary(op, expr.line, old, rhs)
            self.convert_to(result, var.ctype, expr.line, var.reg)
            self.sim_write(name)
            return _Value(var.reg, var.ctype.unqualified())
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = _operands(op, expr.line, old, rhs)
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        result = _Value(result, result_type, fresh=True)
        self.convert_to(result, var.ctype, expr.line, var.reg)
        self.sim_write(name)
        return _Value(var.reg, var.ctype.unqualified())

    def convert_to(
        self, value: _Value, target: ct.CType, line: int, dst: int = -1
    ) -> _Value:
        """Convert a value to ``target`` (assignment conversion), into
        ``dst`` when given (an assigned variable's register), else into a
        fresh register.  A pointer, and a builtin's result of unknown
        run-time type, take the walker's ``convert`` on the slow path."""
        if _native_pointer(target):
            return self._convert_pointer(value, target, line, False, dst)
        if value.exact:
            self._require_scalar(value)
        target = target.unqualified()
        if value.fresh and value.ctype == target:
            # A BINOP or UNOP result of the type converts to itself: it is
            # used as it is, or its instruction writes ``dst`` directly.
            if dst < 0:
                return _Value(value.reg, target)
            last = self.code[-1]
            if last[0] in (OP_BINOP, OP_UNOP) and last[1] == value.reg:
                self.code[-1] = last[:1] + (dst,) + last[2:]
                return _Value(dst, target)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("conversion plan unavailable")
        if dst < 0:
            dst = self.new_reg()
        slow = (target, line, value.read_msg, value.read_line, value.ctype)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target)

    def _convert_pointer(
        self, value: _Value, target, line: int, explicit: bool, dst: int = -1
    ):
        """Convert a pointer or integer to a native pointer type, normalized
        as a store and reload of a pointer object would leave it."""
        target = target.unqualified()
        if dst < 0:
            dst = self.new_reg()
        if value.reg == self.consts.get(0) and isinstance(value.ctype, _FLAT_INT_TYPES):
            # The null pointer constant.
            self.emit((OP_LOADI, dst, PointerValue(base=None, offset=0, type=target)))
            return _Value(dst, target)
        self._require_scalar(value)
        slow = (value.ctype, target, line, value.read_msg, value.read_line, explicit)
        self.emit((OP_PCONV, dst, value.reg, slow))
        return _Value(dst, target)

    def expr_call(self, expr: c_ast.Call, discard) -> _Value:
        function = expr.function
        if not isinstance(function, c_ast.Identifier):
            raise _Unsupported("call through a non-identifier designator")
        name = function.name
        # Compile-time designator resolution mirroring the walker's call:
        # a local or global *object* shadowing the name forces the function-
        # pointer path (unsupported); a unit function or builtin resolves.
        for scope in reversed(self.scopes):
            if name in scope:
                raise _Unsupported("call through a shadowed designator")
        if name in self.unit_globals:
            raise _Unsupported("call through an object designator")
        ftype = self.unit_functions.get(name)
        if ftype is None:
            if name not in BUILTIN_FUNCTIONS:
                # Undeclared: the walker reports at run time, with
                # argument evaluation unreached; fall back to preserve that.
                raise _Unsupported(f"call to undeclared '{name}'")
        self.pending_steps += 1
        argument_values: list[Optional[_Value]] = [None] * len(expr.arguments)
        marks: list[int] = [0] * len(expr.arguments)
        if self.order_mode == 0:
            order = range(len(expr.arguments))
        else:
            order = range(len(expr.arguments) - 1, -1, -1)
        for position in order:
            argument_values[position] = self.compile_expr(expr.arguments[position])
            marks[position] = len(self.code)
        # Deferred read checks of earlier arguments must not be overtaken
        # by raising instructions in later arguments' streams (the call
        # itself checks the *surviving* deferred reads in argument order).
        # Latest stream first, so earlier insertion points stay valid; an
        # inserted check is itself a raising instruction, cascading the
        # protection to every argument evaluated before it.
        for position in sorted(range(len(marks)), key=marks.__getitem__, reverse=True):
            grown = len(self.code)
            self.protect_read(argument_values[position], marks[position])
            argument_values[position] = self.snapshot(
                argument_values[position], marks[position] + (len(self.code) - grown)
            )
        # The call checks its arguments' reads after charging the block.  A
        # read the walker makes before the block's last node is checked
        # here instead, so a step limit in between cannot come first.
        for position in order:
            value = argument_values[position]
            read = value.read_msg
            if read is not None and read[1] < self.pending_steps and self.check_uninit:
                self.emit((OP_RDCHK, value.reg, read, value.read_line))
                value.read_msg = None
        args = []
        for position, value in enumerate(argument_values):
            self.charged(value)
            if value.ctype is None:
                raise _Unsupported("void argument")
            if not value.exact:
                raise _Unsupported("builtin pointer result passed as an argument")
            args.append((value.reg, value.ctype, value.read_msg, value.read_line))
        # Result typing: unit functions return their declared type; a
        # builtin's declared type may not be its result's run-time type.
        if ftype is not None:
            rtype = ftype.return_type
        else:
            rtype = None
        if rtype is not None and isinstance(rtype, _FLAT_INT_TYPES):
            dst = self.new_reg()
            result = _Value(dst, rtype.unqualified())
        elif _native_pointer(rtype):
            # A unit function converts its result to its return type; a
            # builtin's result keeps whatever type its implementation gave.
            dst = self.new_reg()
            result = _Value(dst, rtype.unqualified(), exact=name in self.defined)
        elif discard or (rtype is not None and rtype.is_void):
            dst = -1
            result = _Value(-1, None)
        elif rtype is None:
            # An undeclared builtin: only a conversion may consume the result.
            dst = self.new_reg()
            result = _Value(dst, ct.VOID_PTR, exact=False)
        else:
            raise _Unsupported("call result type outside native subset")
        self.flush_steps()
        pointer_result = _native_pointer(result.ctype)
        self.emit((OP_CALL, dst, name, ftype, tuple(args), expr.line, pointer_result))
        # The call site runs a real sequence point before entering the
        # callee, which clears the sequencing window for register state
        # too.  Unit functions save/restore the (now empty) location set,
        # so memory is clean afterwards; a builtin may add new locations.
        self.pending_names.clear()
        self.dirty = ftype is None and self.check_seq
        return result

    _EXPRS = {}


_FnCompiler._STMTS = {
    c_ast.ExpressionStmt: _FnCompiler.stmt_expression,
    c_ast.Compound: _FnCompiler.stmt_compound,
    c_ast.If: _FnCompiler.stmt_if,
    c_ast.While: _FnCompiler.stmt_while,
    c_ast.DoWhile: _FnCompiler.stmt_dowhile,
    c_ast.For: _FnCompiler.stmt_for,
    c_ast.Break: _FnCompiler.stmt_break,
    c_ast.Continue: _FnCompiler.stmt_continue,
    c_ast.Return: _FnCompiler.stmt_return,
    c_ast.StaticAssert: _FnCompiler.stmt_static_assert,
}

_FnCompiler._EXPRS = {
    c_ast.IntegerLiteral: _FnCompiler.expr_int_literal,
    c_ast.CharLiteral: _FnCompiler.expr_char_literal,
    c_ast.StringLiteral: _FnCompiler.expr_string_literal,
    c_ast.Identifier: _FnCompiler.expr_identifier,
    c_ast.UnaryOp: _FnCompiler.expr_unary,
    c_ast.BinaryOp: _FnCompiler.expr_binary,
    c_ast.Assignment: _FnCompiler.expr_assignment,
    c_ast.Conditional: _FnCompiler.expr_conditional,
    c_ast.Comma: _FnCompiler.expr_comma,
    c_ast.Cast: _FnCompiler.expr_cast,
    c_ast.ArraySubscript: _FnCompiler.expr_subscript,
    c_ast.Call: _FnCompiler.expr_call,
}


# ---------------------------------------------------------------------------
# Unit compilation
# ---------------------------------------------------------------------------

_ORDER_MODES = {"left-to-right": 0, "right-to-left": 1}


def compile_unit_bytecode(
    unit: c_ast.TranslationUnit, options: CheckerOptions
) -> CompiledProgram:
    """Compile every native-subset function of ``unit``.

    The bytecode hard-codes the operand order of ``options.evaluation_order``.
    Every function that does not compile is listed with its reason in
    :attr:`CompiledProgram.fallbacks`.
    """
    order_mode = _ORDER_MODES[options.evaluation_order]
    unit_globals: dict[str, ct.CType] = {}
    unit_functions: dict[str, ct.FunctionType] = {}
    definitions: list[c_ast.FunctionDef] = []
    for declaration in unit.declarations:
        if isinstance(declaration, c_ast.FunctionDef):
            if isinstance(declaration.type, ct.FunctionType):
                unit_functions[declaration.name] = declaration.type
                if declaration.body is not None:
                    definitions.append(declaration)
        elif isinstance(declaration, c_ast.Declaration):
            if declaration.storage == "typedef":
                continue
            if isinstance(declaration.type, ct.FunctionType):
                unit_functions.setdefault(declaration.name, declaration.type)
            elif declaration.type is not None:
                unit_globals[declaration.name] = declaration.type
    functions: dict[str, FnCode] = {}
    fallbacks: dict[str, str] = {}
    defined = {definition.name for definition in definitions}
    folder = _FoldContext(options)
    context = (unit_globals, unit_functions, defined, options, order_mode, folder)
    for definition in definitions:
        try:
            functions[definition.name] = _FnCompiler(definition, *context).compile()
        except _Unsupported as reason:
            fallbacks[definition.name] = str(reason)
        except _FoldUB as fold_error:
            fallbacks[definition.name] = f"constant folding: {fold_error.message}"
        except RecursionError:
            fallbacks[definition.name] = "nests too deeply to compile"
    for fn in functions.values():
        fn.code = tuple(
            _link_call(ins, functions, options.profile) if ins[0] == OP_CALL else ins
            for ins in fn.code
        )
    return CompiledProgram(functions, fallbacks, order_mode, options)


def _link_call(ins: tuple, functions: dict, profile) -> tuple:
    """``OP_DCALL`` for a statically clean call of a native function, else
    ``ins`` unchanged.

    Clean means that the interpreter's call path can raise nothing at this
    site for any argument value the direct path takes: both types are
    prototyped and not variadic, they are compatible, the arity matches,
    every parameter is a register, each argument is a flat integer for a
    flat-integer parameter or has the pointer parameter's own type, and the
    callee is not ``main`` (whose fall-off return differs).
    """
    _op, dst, name, site_type, args, line, _pointer_result = ins
    callee = functions.get(name)
    if callee is None or name == "main" or site_type is None:
        return ins
    def_type = callee.ftype
    params = def_type.parameters
    if (
        not (site_type.has_prototype and def_type.has_prototype)
        or site_type.variadic
        or def_type.variadic
        or len(args) != len(params)
        or callee.entry != len(params)
        or not ct.types_compatible(site_type, def_type)
    ):
        return ins
    plans = []
    for (reg, ctype, _msg, _line), param in zip(args, params):
        param = param.unqualified()
        if isinstance(param, _FLAT_INT_TYPES) and isinstance(ctype, _FLAT_INT_TYPES):
            plans.append((reg, raw_conversion_plan(param, profile)))
        elif _native_pointer(param) and ctype == param:
            plans.append((reg, None))
        else:
            return ins
    return (OP_DCALL, dst, callee, tuple(plans), line, ins)
