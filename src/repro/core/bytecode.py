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
  declaration, array decay, assignment, ``+``/``-`` with an integer,
  ``++``/``--``, ``+=``/``-=``, comparisons and pointer difference,
  ``*p`` and ``p[i]`` loads and stores, null constants, truth tests,
  casts between these pointer types, and pointers as call arguments,
  results and return values;
* local one-dimensional flat-integer arrays and unit-level flat scalars /
  arrays -> memory *slots* accessed with pre-derived element sizes against
  the arena-backed byte store;
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

Registers are sound only because nothing can point at them: a function that
applies ``&`` anywhere leaves the subset.  Anything else outside it —
floats, structs, pointers to pointers or records, ``goto``/``switch``/
labels, static or extern locals, variadic definitions — aborts compilation
of that *function* (:class:`_Unsupported`), and the function runs on the
walker instead, with the reason recorded in
:attr:`CompiledProgram.fallbacks`.  Falling back is always verdict-safe:
the compiled engine is an accelerator for the common case, never an
alternative semantics.

Parity contract
---------------

The bytecode replicates the walker observation-for-observation:

* **steps** are aggregated per basic block and charged before every
  side-effecting boundary (calls, declarations, returns, jumps), so
  ``max_steps`` resource verdicts and stdout prefixes agree.  A charge
  right before a jump rides on the jump, or on the compare-and-branch the
  jump fused into, which adds it and checks ``max_steps`` after the compare
  and before its own test: the order of a separate ``STEP``.  A jump that
  a label names keeps its ``STEP`` apart, since a jump to the label must
  not pay it;
* **scopes**: only a block with a declaration among its items, or a
  ``for`` whose init declares, pushes a run-time scope.  Nothing else
  writes a native function's innermost scope, so an empty one is
  unobservable;
* **arithmetic** uses the raw-int plans of :mod:`repro.core.plans`
  (:func:`~repro.core.plans.raw_binary_plan`,
  :func:`~repro.core.plans.raw_conversion_plan`, ...), which raise the
  walker's error kinds and messages, and every slow path boxes the value
  back into a :class:`~repro.core.values.CValue` and calls the *actual*
  shared helper (``_read_binding``, ``_write_with_plan``, ``_pointer_add``,
  ``_check_usable``, ``to_boolean``, ...), so error kinds, messages, and
  report order are the walker's by construction;
* **uninitialized reads**: a register read of an indeterminate value
  raises exactly where the walker's identifier read would — consumers
  carry the read-site message and check the ``UNINIT`` sentinel on their
  (free) slow path; value-discard positions get an explicit ``RDCHK``;
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
from dataclasses import replace as dc_replace
from typing import Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.core.config import CheckerOptions
from repro.core.plans import (
    _FLAT_INT_TYPES,
    _FoldContext,
    _FoldUB,
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
# tests and none costs more than thirteen.  The counts behind the order
# are the dispatches of one check of each benchmark loop program, of the
# 278 suite programs and of 300 mixed fuzz cases (seed 1); re-count and
# renumber when the instruction set or the compiler's output changes.
#
# The ``P`` opcodes work on pointer registers (fast form ``(obj, offset,
# elem)``, see repro.core.vm).  ``steps`` on a jump is a step charge that
# rides on it: the jump adds it and checks ``max_steps`` before its own
# test.  A compare-and-branch (``BINJZ``, ``PCMPJZ``) is a ``BINOP`` or
# ``PCMP`` fused with the ``JZ`` that tests its result: it still writes
# ``dst``, then charges ``steps``, then branches to ``target`` when the
# result is zero (``line``, ``rdmsg`` and ``rdline`` are the ``JZ``'s).

OP_BINOP = 0  # (op, dst, a, b, plan, slow)
OP_STEP = 1  # (op, n)
OP_CONV = 2  # (op, dst, src, plan, slow)
OP_RDCHK = 3  # (op, src, msg, line)
OP_JMP = 4  # (op, target, steps)
OP_BINJZ = 5  # (op, dst, a, b, plan, slow, steps, target, line, rdmsg, rdline)
OP_INC = 6  # (op, dst, src, plan, slow)
OP_LDE = 7  # (op, dst, slot, idx, esize, smode, line, info)
OP_DECAY = 8  # (op, dst, slot, name)
OP_PADD = 9  # (op, dst, ptr, idx, scale, slow)
OP_PCMPJZ = 10  # (op, dst, a, b, compare, slow, steps, target, line, rdmsg, rdline)
OP_PLD = 11  # (op, dst, ptr, idx, esize, elem, signed, slow)
OP_PINC = 12  # (op, reg, old_dst, delta, slow)
OP_RET = 13  # (op, src, rtype, rdmsg, rdline)
OP_DECL = 14  # (op, node, slot, line)
# A statically clean call of a native function (see _link_call); ``call``
# is the OP_CALL it replaces, which runs whenever an argument value is one
# the direct path cannot take.
OP_DCALL = 15  # (op, dst, fn, args, line, call)
OP_BINDR = 16  # (op, dst, name, size, signed, is_bool)
OP_MOV = 17  # (op, dst, src)
OP_SEQPT = 18  # (op,)
OP_NOT = 19  # (op, dst, src, line, rdmsg, rdline)
OP_CHKE = 20  # (op, dst, slot, idx, esize, line, info)
OP_STE = 21  # (op, addr, src, esize, mask, line, info)
# The interpreter's generic call path.
OP_CALL = 22  # (op, dst, name, ctype, args, line, pointer_result)
OP_PCONV = 23  # (op, dst, src, slow)
OP_JZ = 24  # (op, src, target, line, rdmsg, rdline, steps)
OP_STR = 25  # (op, dst, text)
OP_PST = 26  # (op, ptr, src, esize, elem, mask, slow)
OP_PUSHSC = 27  # (op,)
OP_BINDP = 28  # (op, dst, name, ctype)
OP_POPSC = 29  # (op,)
OP_UNOP = 30  # (op, dst, src, plan, slow)
OP_LDG = 31  # (op, dst, slot, size, smode, line, info)
OP_LOADI = 32  # (op, dst, value)
OP_STG = 33  # (op, slot, src, size, mask, line, info)
OP_PCMP = 34  # (op, dst, a, b, compare, slow)
OP_PDCHK = 35  # (op, src, slow)
OP_JNZ = 36  # (op, src, target, line, rdmsg, rdline, steps)
OP_LDA = 37  # (op, dst, addr, esize, smode, line, info)
OP_BOOL = 38  # (op, dst, src, line, rdmsg, rdline)
OP_RAISE = 39  # (op, kind, message, line)
OP_PDIFF = 40  # (op, dst, a, b, esize, lo, hi, slow)

_JUMPS = frozenset((OP_JMP, OP_JZ, OP_JNZ))

#: The operand position of each jump's target.
_TARGET_FIELD = {OP_JMP: 1, OP_JZ: 2, OP_JNZ: 2, OP_BINJZ: 7, OP_PCMPJZ: 7}

#: The compare-and-branch that each operation fuses into with the ``JZ``
#: testing its result.
_COMPARES = {OP_BINOP: OP_BINJZ, OP_PCMP: OP_PCMPJZ}

#: Opcodes that can never raise: the only instructions allowed between a
#: deferred register read and its consuming check without reordering the
#: report (see :meth:`_FnCompiler.protect_read`).
_SAFE_OPS = frozenset(
    (OP_STEP, OP_MOV, OP_LOADI, OP_JMP, OP_SEQPT, OP_PUSHSC, OP_POPSC, OP_STR, OP_DECAY)
)

#: The register-destination operand positions of each opcode, used by the
#: compile-time clobber scan behind :meth:`_FnCompiler.snapshot`.  Opcodes
#: absent here write no registers.  (``OP_INC`` position 2 and ``OP_CALL``
#: position 1 may hold -1 for "no destination"; register numbers are never
#: negative, so the scan needs no special case.)
_DST_FIELDS = {
    OP_BINOP: (1,),
    OP_LDE: (1,),
    OP_CONV: (1,),
    OP_CHKE: (1,),
    OP_MOV: (1,),
    OP_LDG: (1,),
    OP_INC: (1, 2),
    OP_LDA: (1,),
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
    OP_DECAY: (1,),
    OP_PDIFF: (1,),
    OP_BINDP: (1,),
    OP_BINJZ: (1,),
    OP_PCMPJZ: (1,),
}

#: ``smode`` load decode: 0 unsigned, 1 signed two's-complement, 2 _Bool.
_SMODE_UNSIGNED = 0
_SMODE_SIGNED = 1
_SMODE_BOOL = 2


class FnCode:
    """One compiled function body.

    ``entry`` is the pc after the parameter prologue (one ``OP_BINDR`` /
    ``OP_BINDP`` per register parameter, in registers ``0..entry-1``); a
    direct call seeds those registers and starts there.
    """

    __slots__ = (
        "name",
        "code",
        "n_regs",
        "r_init",
        "r_tail",
        "n_slots",
        "ftype",
        "entry",
        "max_steps",
        "limit_message",
    )

    def __init__(
        self,
        name: str,
        code: tuple,
        n_regs: int,
        r_init: tuple,
        n_slots: int,
        ftype: ct.FunctionType,
        entry: int,
        max_steps: int,
    ) -> None:
        self.name = name
        self.code = code
        self.n_regs = n_regs
        self.r_init = r_init
        self.r_tail = r_init[entry:]
        self.n_slots = n_slots
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


def _smode(elem: ct.CType, profile: ct.ImplementationProfile) -> int:
    """How a load decodes the bytes of the flat integer type ``elem``."""
    if isinstance(elem, ct.BoolType):
        return _SMODE_BOOL
    return _SMODE_SIGNED if ct.is_signed_type(elem, profile) else _SMODE_UNSIGNED


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
        # The message `_read_binding` raises on an uninitialized read of this
        # binding; None when the uninit side condition does not apply
        # (character types stay exempt, matching the walker).
        if ctype.is_scalar and not ct.is_character_type(ctype):
            self.read_msg = (
                "Read of an uninitialized (indeterminate) value " f"of type {ctype}."
            )
        else:
            self.read_msg = None


class _MemVar:
    """A memory-resident variable (local/global array, global scalar)."""

    __slots__ = (
        "slot", "ctype", "is_array", "elem", "esize", "smode", "length", "info"
    )

    def __init__(
        self, slot: int, ctype: ct.CType, profile: ct.ImplementationProfile
    ) -> None:
        self.slot = slot
        self.ctype = ctype
        self.is_array = isinstance(ctype, ct.ArrayType)
        elem = ctype.element if self.is_array else ctype
        self.elem = elem
        self.length = ctype.length if self.is_array else None
        # What vm's slow paths need to rebuild the exact access: the element
        # type followed by its access plan.
        self.info = (elem,) + access_plan(elem, profile)
        self.esize = self.info[1]
        self.smode = _smode(elem, profile)


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
        self.signed = _smode(elem, profile) == _SMODE_SIGNED
        self.mask = (1 << (size * 8)) - 1
        # Qualifiers do not change a load (aliasing ignores them); a store
        # through a const lvalue, like any _Bool access, takes the checked
        # path.
        self.load_elem = INTERNED_INTS.get(elem.unqualified(), _CHECKED)
        if not elem.const:
            self.store_elem = self.load_elem


class _Value:
    """Compile-time description of an expression result."""

    __slots__ = ("reg", "ctype", "read_msg", "read_line", "exact")

    def __init__(
        self,
        reg: int,
        ctype: Optional[ct.CType],
        read_msg: Optional[str] = None,
        read_line: int = 0,
        exact: bool = True,
    ) -> None:
        self.reg = reg
        self.ctype = ctype  # None: void (discard-only)
        self.read_msg = read_msg  # uninit-read message of a direct var read
        self.read_line = read_line  # the read site (where the walker reports)
        # False when the run-time value's type may differ from ``ctype`` (a
        # builtin's pointer result): only a conversion may consume it.
        self.exact = exact


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
        self.scopes: list[dict] = [{}]
        self.n_regs = 0
        self.n_slots = 0
        self.consts: dict[int, int] = {}
        self.pending_steps = 0
        self.dirty = False  # memory locs possibly nonempty
        self.pending_names: set[str] = set()  # register writes this region
        self.loop_stack: list[tuple] = []  # (break_l, cont_l, scope_depth)
        self.labels: dict[int, int] = {}  # label id -> pc
        self.next_label = 0
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

    def new_label(self) -> int:
        label = self.next_label
        self.next_label = 1 + label
        return label

    def bind(self, label: int) -> None:
        self.flush_steps()
        self.labels[label] = len(self.code)

    def emit(self, ins: tuple) -> None:
        self.code.append(ins)

    def flush_steps(self) -> None:
        if self.pending_steps:
            self.emit((OP_STEP, self.pending_steps))
            self.pending_steps = 0

    def emit_jmp(self, label: int) -> None:
        self.flush_steps()
        self.emit((OP_JMP, label))

    def emit_jz(self, value: _Value, label: int, line: int) -> None:
        self.flush_steps()
        self.emit((OP_JZ, value.reg, label, line, value.read_msg, value.read_line))

    def emit_jnz(self, value: _Value, label: int, line: int) -> None:
        self.flush_steps()
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
        self._insert(mark, (OP_RDCHK, value.reg, value.read_msg, value.read_line))
        value.read_msg = None

    def protect_deref(self, value: _Value, mark: int, line: int) -> None:
        """``protect_read`` for a pointer about to be dereferenced by a store.

        The walker resolves a store's target (reading the pointer
        and checking it is dereferenceable) before evaluating the stored
        value; when code emitted since ``mark`` can raise, check both at
        ``mark``.
        """
        if not self._can_raise(mark):
            return
        read_msg = value.read_msg if self.check_uninit else None
        slow = (value.ctype, read_msg, value.read_line, line)
        self._insert(mark, (OP_PDCHK, value.reg, slow))
        value.read_msg = None

    def _can_raise(self, mark: int) -> bool:
        for ins in self.code[mark:]:
            op = ins[0]
            if op in _SAFE_OPS or (op == OP_CONV and ins[4][2] is None):
                continue  # a conversion without a pending read cannot raise
            return True
        return False

    def _insert(self, mark: int, ins: tuple) -> None:
        # A label bound at ``mark`` itself stays put: the value whose stream
        # ends there is computed on every path that jumps to it (an arm that
        # starts with a register read, a conditional's end), so the jump
        # must run the inserted check or snapshot too.
        self.code.insert(mark, ins)
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
        self._insert(mark, (OP_MOV, temp, value.reg))
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
            var = _MemVar(self.new_slot(), gtype, self.profile)
            self.global_slots[name] = var
            return var
        return None

    def new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

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
        # from the freshly written parameter objects; any other parameter
        # type poisons its name (touching it falls back) but not the function.
        scope = self.scopes[0]
        for index, param_type in enumerate(ftype.parameters):
            if index >= len(definition.parameter_names):
                raise _Unsupported("unnamed parameter")
            name = definition.parameter_names[index]
            if param_type.is_void:
                continue
            if isinstance(param_type, _FLAT_INT_TYPES) or _native_pointer(param_type):
                var = _RegVar(self.new_reg(), param_type, self.profile)
                scope[name] = var
                self.emit_bind(var, name)
            else:
                scope[name] = _BAD
        entry = len(self.code)
        # The function-body compound charges no step and pushes no scope
        # (the walker runs it with new_scope=False).
        for item in definition.body.items:
            self.compile_block_item(item)
        self.flush_steps()
        self.emit((OP_RET, -1, None, None, 0))
        code = self._fuse_and_resolve()
        r_init = [UNINIT] * self.n_regs
        for value, reg in self.consts.items():
            r_init[reg] = value
        return FnCode(
            definition.name,
            code,
            self.n_regs,
            tuple(r_init),
            self.n_slots,
            ftype,
            entry,
            self.options.max_steps,
        )

    def emit_bind(self, var: _RegVar, name: str) -> None:
        """Load a register from its freshly written object."""
        if _native_pointer(var.ctype):
            self.emit((OP_BINDP, var.reg, name, var.ctype))
        else:
            self.emit((OP_BINDR, var.reg, name, var.size, var.signed, var.is_bool))

    def _fuse_and_resolve(self) -> tuple:
        """The final instruction stream: fused, with labels resolved.

        Runs once the code is complete and labels are still symbolic, so no
        later insertion can land inside a fused group.  A ``STEP`` right
        before a jump rides on it, and a ``BINOP`` or ``PCMP`` whose result
        the next ``JZ`` tests becomes one compare-and-branch, with the step
        charge between them, if any.  Nothing fuses across a label: a jump
        there must run the rest of the group and must not pay the steps.
        A label on a group's first instruction names the fused instruction.
        """
        code = self.code
        end = len(code)
        targets = set(self.labels.values())
        fused: list = []
        new_pc: list = []  # old pc -> fused pc
        jumps: list = []  # the fused pcs of jumps, resolved at the end
        pc = 0
        while pc < end:
            ins = code[pc]
            op = ins[0]
            new_pc.append(len(fused))
            pc += 1
            if op == OP_STEP:
                if pc < end and code[pc][0] in _JUMPS and pc not in targets:
                    ins = code[pc] + (ins[1],)
                    new_pc.append(len(fused))
                    pc += 1
            elif op in _JUMPS:
                ins += (0,)
            elif op in _COMPARES:
                at = pc
                steps = 0
                if at < end and code[at][0] == OP_STEP and at not in targets:
                    steps = code[at][1]
                    at += 1
                if (
                    at < end
                    and code[at][0] == OP_JZ
                    and code[at][1] == ins[1]
                    and at not in targets
                ):
                    ins = (_COMPARES[op],) + ins[1:] + (steps,) + code[at][2:]
                    new_pc += [len(fused)] * (at + 1 - pc)
                    pc = at + 1
            if ins[0] in _TARGET_FIELD:
                jumps.append(len(fused))
            fused.append(ins)
        new_pc.append(len(fused))
        labels = {label: new_pc[at] for label, at in self.labels.items()}
        for at in jumps:
            ins = fused[at]
            field = _TARGET_FIELD[ins[0]]
            fused[at] = ins[:field] + (labels[ins[field]],) + ins[field + 1 :]
        return tuple(fused)

    # -- statements --------------------------------------------------------

    def compile_block_item(self, item) -> None:
        if isinstance(item, c_ast.Declaration):
            self.compile_declaration(item)
        elif isinstance(item, c_ast.StaticAssert):
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
        declares = any(isinstance(item, c_ast.Declaration) for item in stmt.items)
        with self.block_scope(declares):
            for item in stmt.items:
                self.compile_block_item(item)

    @contextmanager
    def block_scope(self, declares: bool):
        """A run-time scope for a block that declares; none for one that
        does not, since only a declaration writes a native function's
        innermost scope and an empty scope is unobservable.  The
        compile-time stack is pushed exactly when the run-time one is, so
        ``break`` and ``continue`` pop ``len(self.scopes) - depth`` scopes."""
        if not declares:
            yield
            return
        self.scopes.append({})
        self.emit((OP_PUSHSC,))
        try:
            yield
        finally:
            self.scopes.pop()
            self.emit((OP_POPSC,))

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
        self.loop_stack.append((end, top, len(self.scopes)))
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
        self.loop_stack.append((end, cont, len(self.scopes)))
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
        with self.block_scope(isinstance(init, (c_ast.Declaration, list))):
            if isinstance(init, c_ast.Declaration):
                self.compile_declaration(init)
            elif isinstance(init, list):
                for declaration in init:
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
            self.loop_stack.append((end, cont, len(self.scopes)))
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
        for _ in range(len(self.scopes) - scope_depth):
            self.emit((OP_POPSC,))
        self.emit_jmp(break_label)

    def stmt_continue(self, stmt: c_ast.Continue) -> None:
        if not self.loop_stack:
            raise _Unsupported("continue outside a native loop")
        self.pending_steps += 1
        _break, cont_label, scope_depth = self.loop_stack[-1]
        self.flush_steps()
        for _ in range(len(self.scopes) - scope_depth):
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

    def compile_declaration(self, decl: c_ast.Declaration) -> None:
        if decl.storage not in (None, "auto", "register"):
            raise _Unsupported(f"storage class {decl.storage!r}")
        ctype = decl.type
        if ctype is None or isinstance(ctype, ct.FunctionType):
            raise _Unsupported("local function declaration")
        self.pending_steps += 1  # the Declaration statement node
        if isinstance(ctype, _FLAT_INT_TYPES) or _native_pointer(ctype):
            self._declare_register(decl, ctype)
            return
        if (
            isinstance(ctype, ct.ArrayType)
            and isinstance(ctype.element, _FLAT_INT_TYPES)
            and ctype.length is not None
        ):
            self._declare_array(decl, ctype)
            return
        raise _Unsupported(f"declaration of type {ctype}")

    def _declare_register(self, decl: c_ast.Declaration, ctype: ct.CType) -> None:
        initializer = decl.initializer
        var = _RegVar(self.new_reg(), ctype, self.profile)
        if initializer is None or self._walker_safe(initializer):
            # The shared declaration executor runs the initializer (it
            # cannot touch registerized state — walker-safety was checked)
            # and charges the walker's per-node steps itself; the register
            # then binds from the freshly initialized object bytes.
            self.flush_steps()
            self.emit((OP_DECL, decl, -1, decl.line))
            self.emit_bind(var, decl.name)
            self.scopes[-1][decl.name] = var
            self.dirty = False  # exec_local_declaration sequence-points
            self.pending_names.clear()
            return
        if isinstance(initializer, c_ast.InitList):
            raise _Unsupported("scalar initializer list with register reads")
        # Initializer references registerized state: run the declaration
        # without it, then compile the initialization natively (same step
        # charges, same checks, register stays authoritative).
        bare = dc_replace(decl, initializer=None)
        self.flush_steps()
        self.emit((OP_DECL, bare, -1, decl.line))
        # Declare before compiling the initializer: C scopes the name from
        # its declarator on, so `int x = x;` reads the fresh (indeterminate) x.
        self.scopes[-1][decl.name] = var
        if ctype.const:
            raise _Unsupported("const register initializer in native path")
        value = self.compile_expr(initializer)
        self.convert_to(value, ctype, decl.line, var.reg)
        self.sim_write(decl.name)
        self.emit_seqpt()

    def _declare_array(self, decl: c_ast.Declaration, ctype: ct.ArrayType) -> None:
        initializer = decl.initializer
        if initializer is not None and not self._walker_safe(initializer):
            raise _Unsupported("array initializer reads registerized state")
        var = _MemVar(self.new_slot(), ctype, self.profile)
        self.flush_steps()
        self.emit((OP_DECL, decl, var.slot, decl.line))
        self.scopes[-1][decl.name] = var
        self.dirty = False
        self.pending_names.clear()

    def _walker_safe(self, expr) -> bool:
        """True when the shared (walker) executor can run ``expr`` without
        observing registerized state: no identifier in it names a register
        variable.  Memory-resident variables, globals, calls, and literals
        are coherent either way."""
        for node in c_ast.walk(expr):
            if isinstance(node, c_ast.Identifier):
                for scope in reversed(self.scopes):
                    var = scope.get(node.name)
                    if var is not None:
                        if isinstance(var, _RegVar) or var is _BAD:
                            return False
                        break
        return True

    # -- expressions -------------------------------------------------------

    def compile_expr(self, expr, discard: bool = False) -> _Value:
        try:
            folded = _try_fold(expr, self.folder)
        except _FoldUB as fold_error:
            self.pending_steps += _subtree_step_cost(expr)
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
            return _Value(var.reg, var.ctype.unqualified(), var.read_msg, expr.line)
        dst = self.new_reg()
        if var.is_array:
            # Array-to-pointer decay: the pointer to element 0, no read.
            self.emit((OP_DECAY, dst, var.slot, expr.name))
            return _Value(dst, ct.PointerType(pointee=var.elem))
        self.emit(
            (
                OP_LDG,
                dst,
                var.slot,
                var.esize,
                var.smode,
                expr.line,
                (expr.name, var.info),
            )
        )
        return _Value(dst, var.elem.unqualified())

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
            return _Value(dst, result_type)
        if op == "*":
            self.pending_steps += 1
            pointer = self.compile_expr(expr.operand)
            return self._emit_load(pointer, _Value(self.const_reg(0), ct.INT), expr)
        raise _Unsupported(f"unary operator {op!r}")

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
        pointee = self.pointees.get(value.ctype)
        if pointee is None:
            pointee = _Pointee(value.ctype, self.profile)
            self.pointees[value.ctype] = pointee
        return pointee

    def _compile_incdec(self, expr: c_ast.UnaryOp, discard) -> _Value:
        delta = 1 if expr.op.startswith("++") else -1
        is_post = expr.op.endswith("post")
        operand = expr.operand
        self.pending_steps += 1
        if isinstance(operand, c_ast.Identifier):
            var = self.lookup(operand.name)
            if var is None or var is _BAD:
                raise _Unsupported("incdec target outside native subset")
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
                slow = (expr.line, var.ctype.unqualified(), var.read_msg, plan)
                self.emit((OP_INC, var.reg, old_dst, plan, slow))
                result_reg = old_dst if is_post else var.reg
                return _Value(result_reg, var.ctype.unqualified())
            # Memory scalar (global): load, plan, store.
            if var.is_array:
                raise _Unsupported("incdec on an array")
            if var.elem.const:
                raise _Unsupported("incdec on const lvalue")
            self.pending_steps += 1
            old = self.new_reg()
            self.emit(
                (
                    OP_LDG,
                    old,
                    var.slot,
                    var.esize,
                    var.smode,
                    expr.line,
                    (operand.name, var.info),
                )
            )
            plan = raw_incdec_plan(delta, var.elem, self.options, expr.line)
            if plan is None:
                raise _Unsupported("incdec plan unavailable")
            new = self.new_reg()
            slow = (
                "operand of ++/--", expr.line, var.elem.unqualified(), None, 0, plan
            )
            self.emit((OP_UNOP, new, old, plan, slow))
            self._emit_store_global(var, operand.name, _Value(new, var.elem), expr.line)
            return _Value(old if is_post else new, var.elem.unqualified())
        if isinstance(operand, c_ast.ArraySubscript):
            self.pending_steps += 1  # subscript lvalue node
            addr, var = self._compile_subscript_address(operand)
            old = self.new_reg()
            self.emit((OP_LDA, old, addr, var.esize, var.smode, operand.line, var.info))
            if var.elem.const:
                raise _Unsupported("incdec on const element")
            plan = raw_incdec_plan(delta, var.elem, self.options, expr.line)
            if plan is None:
                raise _Unsupported("incdec plan unavailable")
            new = self.new_reg()
            slow = (
                "operand of ++/--", expr.line, var.elem.unqualified(), None, 0, plan
            )
            self.emit((OP_UNOP, new, old, plan, slow))
            self._emit_store_element(var, addr, _Value(new, var.elem), expr.line)
            return _Value(old if is_post else new, var.elem.unqualified())
        raise _Unsupported("incdec on unsupported lvalue")

    def _pointer_incdec(self, expr, var: _RegVar, delta: int, is_post: bool):
        facts = self._require_pointer(_Value(var.reg, var.ctype))
        name = expr.operand.name
        self.sim_read(name)
        self.sim_write(name)
        old_dst = self.new_reg() if is_post else -1
        ctype = var.ctype.unqualified()
        slow = (expr.line, ctype, var.read_msg, delta)
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
        return _Value(dst, result_type)

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
            raise _Unsupported("compound literal")
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
        self._require_flat(value)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("cast plan unavailable")
        dst = self.new_reg()
        slow = (target.unqualified(), expr.line, value.read_msg, value.read_line)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target.unqualified())

    def expr_subscript(self, expr: c_ast.ArraySubscript, discard) -> _Value:
        self.pending_steps += 1
        if self._slot_subscript(expr):
            reg, var = self._compile_subscript_load(expr)
            return _Value(reg, var.elem.unqualified())
        pointer, index, swapped = self._compile_pointer_subscript(expr)
        return self._emit_load(pointer, index, expr, swapped)

    def _slot_subscript(self, expr: c_ast.ArraySubscript) -> bool:
        """Whether exactly one operand names a native array (a memory slot)."""

        def is_array(node) -> bool:
            if isinstance(node, c_ast.Identifier):
                var = self.lookup(node.name)
                return isinstance(var, _MemVar) and var.is_array
            return False

        return is_array(expr.array) != is_array(expr.index)

    def _compile_pointer_subscript(self, expr: c_ast.ArraySubscript):
        """``p[i]`` or ``i[p]``: (pointer, index, pointer-is-the-index-operand)."""
        base, index = self._compile_operands(expr.array, expr.index)
        swapped = not _native_pointer(base.ctype)
        if swapped:
            base, index = index, base
        self._require_pointer(base)
        self._require_flat(index)
        return base, index, swapped

    def _emit_load(self, pointer: _Value, index: _Value, expr, swapped=None):
        """A checked load of ``*pointer`` (``swapped`` None) or of a subscript."""
        facts = self._require_pointer(pointer)
        if facts.info is None:
            raise _Unsupported("dereference of void *")
        left, right = (index, pointer) if swapped else (pointer, index)
        slow = (swapped, _operands("[]", expr.line, left, right), facts.info)
        dst = self.new_reg()
        ins = (OP_PLD, dst, pointer.reg, index.reg, facts.scale, facts.load_elem)
        self.emit(ins + (facts.signed, slow))
        return _Value(dst, facts.elem.unqualified())

    def _subscript_parts(self, expr: c_ast.ArraySubscript):
        """Resolve which side is the array; keep syntactic evaluation order."""
        def array_var(node):
            if isinstance(node, c_ast.Identifier):
                var = self.lookup(node.name)
                if isinstance(var, _MemVar) and var.is_array:
                    return var
            return None
        a_var = array_var(expr.array)
        i_var = array_var(expr.index)
        if a_var is not None and i_var is None:
            return a_var, expr.array, expr.index, False
        if a_var is None and i_var is not None:
            return i_var, expr.index, expr.array, True
        raise _Unsupported("subscript outside native subset")

    def _compile_subscript_load(self, expr: c_ast.ArraySubscript):
        var, array_node, index_node, swapped = self._subscript_parts(expr)
        index = self._compile_subscript_index(
            expr, var, array_node, index_node, swapped
        )
        dst = self.new_reg()
        self.emit(
            (
                OP_LDE,
                dst,
                var.slot,
                index.reg,
                var.esize,
                var.smode,
                expr.line,
                (
                    array_node.name,
                    index.ctype,
                    index.read_msg,
                    index.read_line,
                    var.info,
                ),
            )
        )
        return dst, var

    def _compile_subscript_index(
        self, expr, var, array_node, index_node, swapped
    ) -> _Value:
        # The array identifier charges one step and decays (no read); the
        # index expression runs per the order mode, in syntactic positions.
        if self.order_mode == 0:
            if swapped:
                index = self.compile_expr(index_node)
                self.pending_steps += 1
            else:
                self.pending_steps += 1
                index = self.compile_expr(index_node)
        else:
            if swapped:
                self.pending_steps += 1
                index = self.compile_expr(index_node)
            else:
                index = self.compile_expr(index_node)
                self.pending_steps += 1
        self._require_flat(index)
        return index

    def _compile_subscript_address(self, expr: c_ast.ArraySubscript):
        """CHKE: resolve the element address (pointer-add checks) now."""
        var, array_node, index_node, swapped = self._subscript_parts(expr)
        index = self._compile_subscript_index(
            expr, var, array_node, index_node, swapped
        )
        addr = self.new_reg()
        self.emit(
            (
                OP_CHKE,
                addr,
                var.slot,
                index.reg,
                var.esize,
                expr.line,
                (
                    array_node.name,
                    index.ctype,
                    index.read_msg,
                    index.read_line,
                    var.info,
                ),
            )
        )
        return addr, var

    def expr_assignment(self, expr: c_ast.Assignment, discard) -> _Value:
        target = expr.target
        if isinstance(target, c_ast.Identifier):
            var = self.lookup(target.name)
            if var is None or var is _BAD:
                raise _Unsupported("assignment target outside native subset")
            if isinstance(var, _RegVar):
                return self._assign_register(expr, var)
            if var.is_array:
                raise _Unsupported("assignment to an array")
            return self._assign_global(expr, var)
        if isinstance(target, c_ast.ArraySubscript) and self._slot_subscript(target):
            return self._assign_element(expr)
        if isinstance(target, c_ast.ArraySubscript) or (
            isinstance(target, c_ast.UnaryOp) and target.op == "*"
        ):
            return self._assign_through_pointer(expr)
        raise _Unsupported("assignment target outside native subset")

    def _assign_through_pointer(self, expr: c_ast.Assignment) -> _Value:
        """``*p = v`` and ``p[i] = v``: a checked store through a pointer."""
        if expr.op != "=":
            raise _Unsupported("compound assignment through a pointer")
        self.pending_steps += 1  # the assignment node
        if self.order_mode == 0:
            self.pending_steps += 1  # the lvalue node
            pointer = self._compile_store_target(expr.target)
            mark = len(self.code)
            value = self.compile_expr(expr.value)
            facts = self._require_pointer(pointer)
            converted = self._convert_store(value, facts, expr.line)
            grown = len(self.code)
            if isinstance(expr.target, c_ast.UnaryOp):
                self.protect_deref(pointer, mark, expr.target.line)
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
        target_line = expr.target.line
        ptype, read_msg, read_line = pointer.ctype, pointer.read_msg, pointer.read_line
        slow = (expr.line, target_line, ptype, read_msg, read_line, facts.info)
        ins = (OP_PST, pointer.reg, converted.reg, facts.scale, facts.store_elem)
        self.emit(ins + (facts.mask, slow))
        if self.check_seq:
            self.dirty = True
        return _Value(converted.reg, facts.elem.unqualified())

    def _compile_store_target(self, target) -> _Value:
        """The pointer a store writes through, resolved like the walker's
        lvalue: ``*e`` evaluates ``e``; ``p[i]`` also adds (and checks) the
        index before the stored value is evaluated."""
        if isinstance(target, c_ast.UnaryOp):
            return self.compile_expr(target.operand)
        pointer, index, swapped = self._compile_pointer_subscript(target)
        facts = self._require_pointer(pointer)
        left, right = (index, pointer) if swapped else (pointer, index)
        slow = (True, swapped, _operands("[]", target.line, left, right))
        dst = self.new_reg()
        self.emit((OP_PADD, dst, pointer.reg, index.reg, facts.scale, slow))
        return _Value(dst, pointer.ctype)

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
        old = _Value(var.reg, var.ctype.unqualified(), var.read_msg, expr.line)
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
        self.convert_to(_Value(result, result_type), var.ctype, expr.line, var.reg)
        self.sim_write(name)
        return _Value(var.reg, var.ctype.unqualified())

    def _assign_global(self, expr: c_ast.Assignment, var: _MemVar) -> _Value:
        name = expr.target.name
        if var.elem.const:
            raise _Unsupported("assignment to const global")
        self.pending_steps += 1
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
            converted = self.convert_to(value, var.elem, expr.line)
            self._emit_store_global(var, name, converted, expr.line)
            return _Value(converted.reg, var.elem.unqualified())
        op = expr.op[:-1]
        self.pending_steps += 1
        old_reg = self.new_reg()
        self.emit(
            (
                OP_LDG,
                old_reg,
                var.slot,
                var.esize,
                var.smode,
                expr.line,
                (name, var.info),
            )
        )
        old = _Value(old_reg, var.elem.unqualified())
        rhs = self.compile_expr(expr.value)
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = _operands(op, expr.line, old, rhs)
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        converted = self.convert_to(_Value(result, result_type), var.elem, expr.line)
        self._emit_store_global(var, name, converted, expr.line)
        return _Value(converted.reg, var.elem.unqualified())

    def _assign_element(self, expr: c_ast.Assignment) -> _Value:
        target = expr.target
        self.pending_steps += 1  # the assignment node
        if expr.op == "=":
            if self.order_mode == 0:
                self.pending_steps += 1  # subscript lvalue node
                addr, var = self._compile_subscript_address(target)
                value = self.compile_expr(expr.value)
            else:
                value = self.compile_expr(expr.value)
                self.pending_steps += 1
                mark = len(self.code)
                addr, var = self._compile_subscript_address(target)
                grown = len(self.code)
                self.protect_read(value, mark)
                value = self.snapshot(value, mark + (len(self.code) - grown))
            if var.elem.const:
                raise _Unsupported("assignment to const element")
            converted = self.convert_to(value, var.elem, expr.line)
            self._emit_store_element(var, addr, converted, expr.line)
            return _Value(converted.reg, var.elem.unqualified())
        op = expr.op[:-1]
        self.pending_steps += 1  # subscript lvalue node (resolved first)
        addr, var = self._compile_subscript_address(target)
        if var.elem.const:
            raise _Unsupported("assignment to const element")
        old_reg = self.new_reg()
        self.emit((OP_LDA, old_reg, addr, var.esize, var.smode, target.line, var.info))
        old = _Value(old_reg, var.elem.unqualified())
        rhs = self.compile_expr(expr.value)
        self._require_flat(rhs)
        planned = raw_binary_plan(op, old.ctype, rhs.ctype, self.options, expr.line)
        if planned is None:
            raise _Unsupported(f"compound {op} plan unavailable")
        plan, result_type = planned
        result = self.new_reg()
        slow = _operands(op, expr.line, old, rhs)
        self.emit((OP_BINOP, result, old.reg, rhs.reg, plan, slow))
        converted = self.convert_to(_Value(result, result_type), var.elem, expr.line)
        self._emit_store_element(var, addr, converted, expr.line)
        return _Value(converted.reg, var.elem.unqualified())

    def _emit_store_global(
        self, var: _MemVar, name: str, value: _Value, line: int
    ) -> None:
        mask = (1 << (var.esize * 8)) - 1
        self.emit(
            (
                OP_STG,
                var.slot,
                value.reg,
                var.esize,
                mask,
                line,
                (name, self.check_seq, value.read_msg, value.read_line, var.info),
            )
        )
        if self.check_seq:
            self.dirty = True

    def _emit_store_element(
        self, var: _MemVar, addr: int, value: _Value, line: int
    ) -> None:
        mask = (1 << (var.esize * 8)) - 1
        self.emit(
            (
                OP_STE,
                addr,
                value.reg,
                var.esize,
                mask,
                line,
                (self.check_seq, value.read_msg, value.read_line, var.info),
            )
        )
        if self.check_seq:
            self.dirty = True

    def convert_to(
        self, value: _Value, target: ct.CType, line: int, dst: int = -1
    ) -> _Value:
        """Convert a value to ``target`` (assignment conversion), into
        ``dst`` when given (an assigned variable's register), else into a
        fresh register."""
        if _native_pointer(target):
            return self._convert_pointer(value, target, line, False, dst)
        self._require_flat(value)
        plan = raw_conversion_plan(target, self.profile)
        if plan is None:
            raise _Unsupported("conversion plan unavailable")
        if dst < 0:
            dst = self.new_reg()
        slow = (target.unqualified(), line, value.read_msg, value.read_line)
        self.emit((OP_CONV, dst, value.reg, plan, slow))
        return _Value(dst, target.unqualified())

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
        args = []
        for position, value in enumerate(argument_values):
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
    for definition in definitions:
        compiler = _FnCompiler(
            definition,
            unit_globals,
            unit_functions,
            defined,
            options,
            order_mode,
            folder,
        )
        try:
            functions[definition.name] = compiler.compile()
        except _Unsupported as reason:
            fallbacks[definition.name] = str(reason)
        except _FoldUB as fold_error:
            fallbacks[definition.name] = f"constant folding: {fold_error.message}"
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
