"""Lowering pass: compile the AST once into a closure tree (the fast path).

The legacy dynamic stage (:mod:`repro.core.eval_expr` /
:mod:`repro.core.eval_stmt`) re-dispatches on every AST node at every step:
``getattr(self, f"_eval_{type(expr).__name__}")`` plus ``isinstance`` chains,
repeated for every loop iteration of the checked program.  This module removes
that overhead the way pre-compiled monitor representations do in runtime
verification: each node is resolved **once**, at compile time, into a Python
closure, and the closures call each other directly.

What is resolved at lowering time:

* **node-kind dispatch** — one dict lookup per node at lowering time
  (``_EXPR_LOWERERS`` / ``_STMT_LOWERERS`` dispatch tables) instead of an
  f-string + ``getattr`` per node per execution;
* **constant folding** — pure integer constant subexpressions are evaluated
  once, through the *same* arithmetic rules as the runtime
  (:class:`_FoldContext` reuses :class:`ExpressionEvaluatorMixin`), so a UB
  hit during folding (``INT_MAX + 1``, ``1/0``, an overflowing constant cast)
  becomes a closure that raises the identical catalogued error if and when
  the expression is actually reached;
* **identifier access** — the ``LValue`` (pointer + type) for an object
  binding is built once and memoized on the binding itself
  (:attr:`ObjectBinding.cached_lvalue`), instead of reconstructing the
  pointer dataclasses on every read;
* **evaluation order** — every group of unsequenced subexpressions runs
  straight-line in the one order ``options.evaluation_order`` fixes, chosen
  at lowering time as the bytecode does.

The closures run unobserved checks only.  Runs whose probes subscribe to
execution events, and every evaluation-order search, run on the walker,
which emits the events and consults the strategy at each unsequenced group;
so the IR holds no emission code and no scripted-order branches.

Every undefinedness check still fires identically: the closures call the same
helper methods (``read_lvalue``, ``write_lvalue``, ``apply_binary``,
``_pointer_add``, ``call_function``, ...) that implement the paper's side
conditions, and the differential test
(``tests/core/test_lowering_differential.py``) holds the two engines to
verdict equality over the whole ubsuite and the Juliet sample.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.core.config import CheckerOptions
from repro.core.conversions import convert, to_boolean
from repro.core.environment import (
    BreakSignal,
    ContinueSignal,
    FunctionBinding,
    GotoSignal,
    LValue,
    ReturnSignal,
)
from repro.core.eval_expr import ExpressionEvaluatorMixin
from repro.core.values import (
    CValue,
    FloatValue,
    IndeterminateValue,
    IntValue,
    PointerValue,
    StructValue,
    decode_value,
    encode_value,
)
from repro.errors import (
    ResourceLimitError,
    UBKind,
    UndefinedBehaviorError,
    UnsupportedFeatureError,
)

#: A lowered expression: run it against an interpreter, get a value.
ExprThunk = Callable[["Interpreter"], CValue]  # noqa: F821  (runtime duck type)
#: A lowered statement: run it for its effect (may raise control signals).
StmtThunk = Callable[["Interpreter"], None]  # noqa: F821


class LoweringContext:
    """Compile-time state shared by all lowering functions of one unit.

    One context yields one IR per options: constant subtrees are always
    folded, and ``right_to_left`` fixes the operand order of every
    unsequenced group from ``options.evaluation_order``.  The IR carries no
    event emission and no scripted orders; observed runs and searches run
    on the walker instead.
    """

    __slots__ = ("options", "profile", "max_steps", "folder", "right_to_left")

    def __init__(self, options: CheckerOptions) -> None:
        self.options = options
        self.profile = options.profile
        self.max_steps = options.max_steps
        self.right_to_left = options.evaluation_order == "right-to-left"
        self.folder = _FoldContext(options)


class _FoldContext(ExpressionEvaluatorMixin):
    """A compile-time evaluator for constant expressions.

    It inherits the *actual* runtime arithmetic rules — ``apply_binary``,
    ``_arith_result``, ``_shift`` and friends from
    :class:`ExpressionEvaluatorMixin` only touch ``self.options`` /
    ``self.profile`` / ``self.pointer_registry`` — so whatever a constant
    expression would do at run time (including raising a catalogued
    :class:`UndefinedBehaviorError`) it does identically at fold time.
    """

    def __init__(self, options: CheckerOptions) -> None:
        self.options = options
        self.profile = options.profile
        self.pointer_registry: dict[int, PointerValue] = {}
        self.events = None  # folding is never observed by probes


#: Binary operators that are safe to fold over integer constants.  ``&&`` and
#: ``||`` are excluded: they sequence their operands (a fold would erase the
#: sequence point the legacy walker performs).
_FOLDABLE_BINARY_OPS = frozenset(
    ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
     "==", "!=", "<", ">", "<=", ">="])

_FOLDABLE_UNARY_OPS = frozenset(["+", "-", "~", "!"])


class _FoldUB(Exception):
    """A constant expression turned out undefined while folding.

    Folding must not report the error at compile time — the expression might
    be dynamically unreachable (``if (0) { int x = 1/0; }`` is a defined
    program) — so the error's identity is captured and re-raised by the
    lowered closure if execution actually reaches the node.
    """

    def __init__(self, error: UndefinedBehaviorError) -> None:
        self.kind = error.kind
        self.message = error.message
        self.line = error.line
        super().__init__(error.message)


def _try_fold(expr: c_ast.Expression, L: LoweringContext) -> Optional[IntValue]:
    """Fold ``expr`` to an :class:`IntValue`, or return None if not constant.

    Raises :class:`_FoldUB` when the expression is constant but undefined
    under the current options (the UB-on-fold case).
    """
    folder = L.folder
    if isinstance(expr, c_ast.IntegerLiteral):
        return IntValue(expr.value, expr.type or ct.INT)
    if isinstance(expr, c_ast.CharLiteral):
        return IntValue(expr.value, ct.INT)
    if isinstance(expr, c_ast.SizeofType):
        try:
            return IntValue(ct.size_of(expr.type_name, L.profile), ct.ULONG)
        except ct.LayoutError as exc:
            raise _FoldUB(UndefinedBehaviorError(
                UBKind.INCOMPLETE_TYPE_OBJECT, f"sizeof: {exc}", line=expr.line))
    if isinstance(expr, c_ast.UnaryOp) and expr.op in _FOLDABLE_UNARY_OPS:
        operand = _try_fold(expr.operand, L)
        if operand is None:
            return None
        line = expr.line
        try:
            if expr.op == "!":
                return IntValue(
                    0 if to_boolean(operand, L.options, line=line) else 1, ct.INT)
            promoted = folder._promote(operand)
            assert isinstance(promoted, IntValue)
            if expr.op == "+":
                return promoted
            if expr.op == "-":
                return folder._arith_result(-promoted.value, promoted.type, line)
            return folder._arith_result(~promoted.value, promoted.type, line)
        except UndefinedBehaviorError as error:
            raise _FoldUB(error)
    if isinstance(expr, c_ast.BinaryOp) and expr.op in _FOLDABLE_BINARY_OPS:
        left = _try_fold(expr.left, L)
        if left is None:
            return None
        right = _try_fold(expr.right, L)
        if right is None:
            return None
        try:
            result = folder.apply_binary(expr.op, left, right, expr.line)
        except UndefinedBehaviorError as error:
            raise _FoldUB(error)
        except UnsupportedFeatureError:
            return None
        return result if isinstance(result, IntValue) else None
    if isinstance(expr, c_ast.Cast) and expr.target_type is not None \
            and expr.target_type.is_integer and not isinstance(expr.operand, c_ast.InitList):
        operand = _try_fold(expr.operand, L)
        if operand is None:
            return None
        try:
            converted = convert(operand, expr.target_type, L.options, line=expr.line,
                                explicit=True, pointer_registry=folder.pointer_registry)
        except UndefinedBehaviorError as error:
            raise _FoldUB(error)
        return converted if isinstance(converted, IntValue) else None
    return None


# ---------------------------------------------------------------------------
# Pre-selected operation plans
# ---------------------------------------------------------------------------
#
# The legacy walker re-derives, on every single evaluation, facts that are a
# pure function of the operand *types*: the common type of a binary operation,
# the representable range it overflows at, which conversion applies, how many
# bytes an identifier load moves.  The plans below compute those facts once
# per (site, type) pair and capture them in a specialized closure.  Plans are
# built from the same :mod:`repro.cfront.ctypes` rules the generic helpers
# use, and every raise reproduces the generic helper's error kind and message
# verbatim — the differential test suite holds the two to verdict equality.

#: Types whose equality/hash is structural (no nominal tag): safe keys for
#: process-wide plan caches.
_FLAT_INT_TYPES = (ct.IntType, ct.BoolType)


class IntTypeFacts:
    """Pre-derived representation facts of one flat integer type.

    This is the single source of truth for "what can this type hold":
    the representable range, the bit width, the wrap mask, and the sign
    threshold.  The concrete plans below capture these numbers in
    specialized closures; the abstract evaluator (:mod:`repro.symbolic`)
    consumes the *same* facts objects for its interval containment and
    emptiness tests, so a concrete overflow check and the symbolic proof
    of its absence can never disagree about the bounds.
    """

    __slots__ = ("type", "lo", "hi", "bits", "signed", "mask", "half")

    def __init__(self, result_type: ct.CType, lo: int, hi: int, bits: int,
                 signed: bool, mask: int, half: int) -> None:
        self.type = result_type
        self.lo = lo
        self.hi = hi
        self.bits = bits
        self.signed = signed
        self.mask = mask
        self.half = half

    def wrap(self, value: int) -> int:
        """``conversions._int_to_int`` on the value alone (no IntValue)."""
        if self.lo <= value <= self.hi:
            return value
        wrapped = value & self.mask
        if self.signed and wrapped >= self.half:
            wrapped -= 1 << self.bits
        return wrapped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntTypeFacts({self.type}, [{self.lo}, {self.hi}], "
                f"bits={self.bits}, signed={self.signed})")


_INT_TYPE_FACTS: dict = {}


def int_type_facts(target: ct.CType,
                   profile: ct.ImplementationProfile) -> Optional[IntTypeFacts]:
    """The :class:`IntTypeFacts` of a flat integer type (process-wide memo).

    None for anything that is not a plain :class:`ct.IntType` (records,
    pointers, floats, ``_Bool`` — the latter converts by ``!= 0``, not by
    wrapping, so it has no wrap facts).
    """
    if not isinstance(target, ct.IntType) or isinstance(target, ct.BoolType):
        return None
    key = (target, profile)
    facts = _INT_TYPE_FACTS.get(key)
    if facts is None and key not in _INT_TYPE_FACTS:
        lo, hi = ct.integer_range(target, profile)
        bits = ct.integer_bits(target, profile)
        signed = ct.is_signed_type(target, profile)
        facts = IntTypeFacts(target.unqualified(), lo, hi, bits, signed,
                             (1 << bits) - 1, 1 << (bits - 1))
        if len(_INT_TYPE_FACTS) < 65536:
            _INT_TYPE_FACTS[key] = facts
    return facts


class IntBinaryFacts:
    """Pre-derived facts of one integer binary-operation site.

    ``common`` carries the usual-arithmetic-conversions result type's
    representation facts; ``check_arithmetic`` whether the site's overflow /
    shift / division side conditions are armed.  Shared verbatim between the
    concrete closure plans and the abstract transfer functions.
    """

    __slots__ = ("op", "common", "check_arithmetic", "line")

    def __init__(self, op: str, common: IntTypeFacts, check_arithmetic: bool,
                 line: int) -> None:
        self.op = op
        self.common = common
        self.check_arithmetic = check_arithmetic
        self.line = line


def int_binary_facts(op: str, left_type: ct.CType, right_type: ct.CType,
                     options: CheckerOptions,
                     line: int = 0) -> Optional[IntBinaryFacts]:
    """Facts of a binary site over two flat integer operand types, or None.

    None exactly when :func:`_int_binary_plan` would decline the site:
    non-flat operand types, or a common type that is not a plain integer
    type — those stay on the generic checked path (concretely) and are
    INCONCLUSIVE territory (symbolically).
    """
    if not isinstance(left_type, _FLAT_INT_TYPES) or \
            not isinstance(right_type, _FLAT_INT_TYPES):
        return None
    profile = options.profile
    try:
        common = ct.usual_arithmetic_conversions(left_type, right_type, profile)
    except (TypeError, AssertionError):
        return None
    facts = int_type_facts(common, profile)
    if facts is None:
        return None
    return IntBinaryFacts(op, facts, options.check_arithmetic, line)


_INT_CONV_PLANS: dict = {}


def _int_conversion_plan(target: ct.CType, profile: ct.ImplementationProfile):
    """A ``int -> IntValue`` closure replicating ``conversions._int_to_int``
    for a fixed integer target type, or None if the target is not planable."""
    if not isinstance(target, _FLAT_INT_TYPES):
        return None
    key = (target, profile)
    plan = _INT_CONV_PLANS.get(key)
    if plan is None and key not in _INT_CONV_PLANS:
        if isinstance(target, ct.BoolType):
            def plan(value: int) -> IntValue:
                return IntValue(1 if value != 0 else 0, ct.BOOL)
        else:
            facts = int_type_facts(target, profile)
            lo, hi = facts.lo, facts.hi
            bits, signed = facts.bits, facts.signed
            mask, half = facts.mask, facts.half
            result_type = facts.type

            def plan(value: int) -> IntValue:
                if lo <= value <= hi:
                    return IntValue(value, result_type)
                wrapped = value & mask
                if signed and wrapped >= half:
                    wrapped -= 1 << bits
                return IntValue(wrapped, result_type)
        if len(_INT_CONV_PLANS) < 65536:
            _INT_CONV_PLANS[key] = plan
    return plan


_RELATIONAL_OPS = frozenset(["<", ">", "<=", ">="])
_EQUALITY_OPS = frozenset(["==", "!="])

_INT_ZERO = IntValue(0, ct.INT)
_INT_ONE = IntValue(1, ct.INT)


def _int_binary_plan(op: str, left_type: ct.CType, right_type: ct.CType,
                     options: CheckerOptions, line: int):
    """An ``(int, int) -> IntValue`` closure replicating ``apply_binary`` for
    two fixed integer operand types, or None when not planable.

    Only built for flat integer operand types whose common type is an
    integer type; everything else (floats, pointers, enums, indeterminate
    operands) stays on the generic checked path.
    """
    facts = int_binary_facts(op, left_type, right_type, options, line)
    if facts is None:
        return None
    common_facts = facts.common
    common = common_facts.type
    lo, hi = common_facts.lo, common_facts.hi
    bits, signed = common_facts.bits, common_facts.signed
    mask, half = common_facts.mask, common_facts.half
    check_arithmetic = facts.check_arithmetic

    def conv(value: int) -> int:
        # _int_to_int on the way to the common type (value only).
        if lo <= value <= hi:
            return value
        wrapped = value & mask
        if signed and wrapped >= half:
            wrapped -= 1 << bits
        return wrapped

    def arith_result(value: int, overflow_possible: bool = True) -> IntValue:
        # Replicates ExpressionEvaluatorMixin._arith_result for `common`.
        if lo <= value <= hi:
            return IntValue(value, common)
        if signed:
            if check_arithmetic and overflow_possible:
                raise UndefinedBehaviorError(
                    UBKind.SIGNED_OVERFLOW,
                    f"Signed integer overflow: result {value} does not fit in {common}.",
                    line=line)
            wrapped = value & mask
            if wrapped >= half:
                wrapped -= 1 << bits
            return IntValue(wrapped, common)
        return IntValue(value & mask, common)

    if op in _RELATIONAL_OPS or op in _EQUALITY_OPS:
        comparator = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
                      ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op]

        def compare(a: int, b: int) -> IntValue:
            return _INT_ONE if comparator(conv(a), conv(b)) else _INT_ZERO
        return compare

    if op == "+":
        def add(a: int, b: int) -> IntValue:
            return arith_result(conv(a) + conv(b))
        return add
    if op == "-":
        def sub(a: int, b: int) -> IntValue:
            return arith_result(conv(a) - conv(b))
        return sub
    if op == "*":
        def mul(a: int, b: int) -> IntValue:
            return arith_result(conv(a) * conv(b))
        return mul
    if op in ("/", "%"):
        is_div = op == "/"

        def divmod_(a: int, b: int) -> IntValue:
            a = conv(a)
            b = conv(b)
            if b == 0:
                if check_arithmetic:
                    raise UndefinedBehaviorError(
                        UBKind.DIVISION_BY_ZERO, "Division or modulus by zero.",
                        line=line)
                return IntValue(0, common)
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if is_div:
                return arith_result(quotient)
            return arith_result(a - quotient * b)
        return divmod_
    if op in ("&", "|", "^"):
        bitop = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[op]

        def bitwise(a: int, b: int) -> IntValue:
            return arith_result(bitop(conv(a), conv(b)), overflow_possible=False)
        return bitwise
    if op in ("<<", ">>"):
        is_left = op == "<<"

        def shift(a: int, b: int) -> IntValue:
            a = conv(a)
            b = conv(b)
            if check_arithmetic and (b < 0 or b >= bits):
                raise UndefinedBehaviorError(
                    UBKind.SHIFT_TOO_FAR,
                    f"Shift amount {b} is negative or >= width of the type "
                    f"({bits} bits).", line=line)
            b = max(0, min(b, bits - 1))
            if is_left:
                if check_arithmetic and signed and a < 0:
                    raise UndefinedBehaviorError(
                        UBKind.SHIFT_NEGATIVE, "Left shift of a negative value.",
                        line=line)
                result = a << b
                if signed and check_arithmetic and not lo <= result <= hi:
                    raise UndefinedBehaviorError(
                        UBKind.SHIFT_OVERFLOW,
                        f"Left shift of {a} by {b} overflows {common}.", line=line)
                return arith_result(result, overflow_possible=not signed)
            # Arithmetic right shift, as in the generic rule.
            return IntValue(a >> b, common)
        return shift
    return None


class _BinaryPlanCache:
    """Per-site cache of integer binary-op plans, keyed by operand types."""

    __slots__ = ("op", "options", "line", "plans")

    def __init__(self, op: str, options: CheckerOptions, line: int) -> None:
        self.op = op
        self.options = options
        self.line = line
        self.plans: dict = {}

    def lookup(self, left_type: ct.CType, right_type: ct.CType):
        key = (left_type, right_type)
        plans = self.plans
        if key in plans:
            return plans[key]
        plan = _int_binary_plan(self.op, left_type, right_type, self.options, self.line)
        plans[key] = plan
        return plan


# -- lvalue access plans ----------------------------------------------------
#
# For loads/stores through computed lvalues (subscripts, members, derefs) the
# pointer offset varies but the lvalue *type* at a given site almost never
# does.  A per-site cache keyed by lvalue type pre-derives the access size,
# alignment, and check applicability once; a site-local cache is safe for any
# type (within one translation unit a tag means one record type).

class _AccessPlanCache:
    """Per-site cache of (size, align, uninit-check, const) per lvalue type."""

    __slots__ = ("plans",)

    def __init__(self) -> None:
        self.plans: dict = {}

    def plan_for(self, ltype: ct.CType, profile: ct.ImplementationProfile):
        plans = self.plans
        if ltype in plans:
            return plans[ltype]
        if isinstance(ltype, (ct.ArrayType, ct.FunctionType)):
            plan = None    # decay / function designator: generic path
        elif ltype.is_record:
            # Whole-record accesses stay on read_lvalue/write_lvalue: the
            # generic store attaches copy provenance and runs the
            # overlapping-assignment check (§6.5.16.1:3).
            plan = None
        else:
            try:
                size = ct.size_of(ltype, profile)
            except ct.LayoutError:
                plan = None  # incomplete type: generic path raises identically
            else:
                try:
                    align = ct.align_of(ltype, profile)
                except ct.LayoutError:
                    align = 1  # check_alignment swallows LayoutError
                uninit = ltype.is_scalar and not ct.is_character_type(ltype)
                plan = (size, align, uninit, ltype.const,
                        _int_conversion_plan(ltype, profile))
        plans[ltype] = plan
        return plan


def _read_with_plan(interp, lvalue: LValue, plan, line: int) -> CValue:
    """Replicates ``read_lvalue`` with the type facts pre-derived."""
    size, align, uninit, _const, _intconv = plan
    pointer = lvalue.pointer
    ltype = lvalue.type
    if align > 1 and interp.options.check_memory and pointer.offset % align != 0:
        raise UndefinedBehaviorError(
            UBKind.UNALIGNED_ACCESS,
            f"Access at offset {pointer.offset} is not aligned to {align} bytes "
            f"for type {ltype}.", line=line)
    data = interp.memory.read_bytes(pointer, size, line=line, lvalue_type=ltype)
    value = decode_value(data, ltype, interp.profile)
    if (uninit and interp.options.check_uninitialized
            and isinstance(value, IndeterminateValue)
            and any(type(b).__name__ == "UnknownByte" for b in data)):
        raise UndefinedBehaviorError(
            UBKind.UNINITIALIZED_READ,
            f"Read of an uninitialized (indeterminate) value of type {ltype}.",
            line=line)
    return value


def _write_with_plan(interp, lvalue: LValue, plan, value: CValue, line: int) -> None:
    """Replicates ``write_lvalue`` with the type facts pre-derived."""
    _size, align, _uninit, is_const, _intconv = plan
    ltype = lvalue.type
    if is_const and interp.options.check_const:
        raise UndefinedBehaviorError(
            UBKind.CONST_VIOLATION,
            "Assignment to an lvalue with const-qualified type.", line=line)
    pointer = lvalue.pointer
    if align > 1 and interp.options.check_memory and pointer.offset % align != 0:
        raise UndefinedBehaviorError(
            UBKind.UNALIGNED_ACCESS,
            f"Access at offset {pointer.offset} is not aligned to {align} bytes "
            f"for type {ltype}.", line=line)
    data = encode_value(value, ltype, interp.profile)
    interp.memory.write_bytes(pointer, data, line=line, lvalue_type=ltype)


# -- binding access plans ---------------------------------------------------
#
# Loads/stores through a plain identifier always hit offset 0 of the bound
# object, so the alignment check can never fire; what remains is the size of
# the access, whether the uninitialized-read side condition applies, and the
# const-ness of the lvalue — all fixed per binding.

_PLAN_ARRAY = 0       # array-to-pointer decay: return the cached pointer
_PLAN_SCALAR = 1      # sized load/store with pre-derived check flags
_PLAN_GENERIC = 2     # anything exotic: defer to the generic helpers


def _binding_access_plan(binding, profile: ct.ImplementationProfile):
    plan = binding.access_plan
    if plan is None:
        btype = binding.type
        if isinstance(btype, ct.ArrayType):
            decayed = PointerValue(base=binding.base, offset=0,
                                   type=ct.PointerType(pointee=btype.element))
            plan = (_PLAN_ARRAY, decayed, None, False, False)
        elif isinstance(btype, ct.FunctionType):
            plan = (_PLAN_GENERIC, None, None, False, False)
        elif btype.is_record:
            # Generic path for whole-record loads/stores: provenance and the
            # overlapping-assignment check live in read/write_lvalue.
            plan = (_PLAN_GENERIC, None, None, False, False)
        else:
            try:
                size = ct.size_of(btype, profile)
            except ct.LayoutError:
                plan = (_PLAN_GENERIC, None, None, False, False)
            else:
                uninit_check = btype.is_scalar and not ct.is_character_type(btype)
                plan = (_PLAN_SCALAR, size, _int_conversion_plan(btype, profile),
                        uninit_check, btype.const)
        binding.access_plan = plan
    return plan


def _read_binding(interp, binding, line: int) -> CValue:
    """Replicates ``read_lvalue`` for a whole-object identifier lvalue."""
    plan = binding.access_plan
    if plan is None:
        plan = _binding_access_plan(binding, interp.profile)
    tag = plan[0]
    if tag == _PLAN_SCALAR:
        btype = binding.type
        lvalue = binding.cached_lvalue
        if lvalue is None:
            lvalue = _binding_lvalue(binding)
        data = interp.memory.read_bytes(lvalue.pointer, plan[1], line=line,
                                        lvalue_type=btype)
        value = decode_value(data, btype, interp.profile)
        if (plan[3] and interp.options.check_uninitialized
                and isinstance(value, IndeterminateValue)
                and any(type(b).__name__ == "UnknownByte" for b in data)):
            raise UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                f"Read of an uninitialized (indeterminate) value of type {btype}.",
                line=line)
        return value
    if tag == _PLAN_ARRAY:
        return plan[1]
    return interp.read_lvalue(_binding_lvalue(binding), line)


def _write_binding(interp, binding, value: CValue, line: int) -> None:
    """Replicates ``write_lvalue`` for a whole-object identifier lvalue."""
    plan = binding.access_plan
    if plan is None:
        plan = _binding_access_plan(binding, interp.profile)
    if plan[0] != _PLAN_SCALAR:
        interp.write_lvalue(_binding_lvalue(binding), value, line)
        return
    btype = binding.type
    if plan[4] and interp.options.check_const:
        raise UndefinedBehaviorError(
            UBKind.CONST_VIOLATION,
            "Assignment to an lvalue with const-qualified type.", line=line)
    lvalue = binding.cached_lvalue
    if lvalue is None:
        lvalue = _binding_lvalue(binding)
    data = encode_value(value, btype, interp.profile)
    interp.memory.write_bytes(lvalue.pointer, data, line=line, lvalue_type=btype)


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------
#
# Every lowered closure begins with the same prologue the legacy walker's
# ``Interpreter.step`` performs — inlined, because a per-node method call is
# precisely the overhead this pass removes.  A *folded* subtree accounts for
# one step (its root), so loops over folded expressions still make progress
# toward the ``max_steps`` resource limit.

def lower_expr(expr: c_ast.Expression, L: LoweringContext) -> ExprThunk:
    """Lower an expression to a value-producing closure."""
    try:
        folded = _try_fold(expr, L)
    except _FoldUB as fold_error:
        return _lower_fold_error(expr, fold_error, L)
    if folded is not None:
        return _lower_constant(expr, folded, L)
    lowerer = _EXPR_LOWERERS.get(type(expr))
    if lowerer is None:
        return _lower_unsupported_expr(expr, L)
    return lowerer(expr, L)


def _subtree_step_cost(expr: c_ast.Expression) -> int:
    """Steps the legacy walker charges for evaluating a constant subtree.

    The walker steps once per node it visits, and for the foldable node
    kinds it visits every node of the subtree (no short-circuiting), so a
    folded closure charges the subtree's node count — keeping the step
    accounting, and hence the ``max_steps`` resource verdicts, aligned
    between the two engines.  (``sizeof(type)`` carries no children in the
    AST, so its count is naturally 1.)
    """
    return sum(1 for _ in c_ast.walk(expr))


def lower_lvalue(expr: c_ast.Expression, L: LoweringContext) -> Callable:
    """Lower an expression to an :class:`LValue`-producing closure."""
    lowerer = _LVALUE_LOWERERS.get(type(expr))
    if lowerer is None:
        return _lower_not_an_lvalue(expr, L)
    return lowerer(expr, L)


def _lower_constant(expr: c_ast.Expression, value: IntValue,
                    L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    step_cost = _subtree_step_cost(expr)

    def run(interp) -> CValue:
        interp._steps += step_cost
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        return value
    return run


def _lower_fold_error(expr: c_ast.Expression, fold_error: _FoldUB,
                      L: LoweringContext) -> ExprThunk:
    """A constant expression that is undefined: raise when (if) reached.

    A fresh error object is raised per execution — the interpreter annotates
    errors in place with the current function, so sharing one instance across
    runs would leak one run's location into the next.
    """
    line = expr.line
    max_steps = L.max_steps
    step_cost = _subtree_step_cost(expr)
    kind, message, err_line = fold_error.kind, fold_error.message, fold_error.line

    def run(interp) -> CValue:
        interp._steps += step_cost
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UndefinedBehaviorError(kind, message, line=err_line)
    return run


def _lower_unsupported_expr(expr: c_ast.Expression, L: LoweringContext) -> ExprThunk:
    name = type(expr).__name__
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UnsupportedFeatureError(f"cannot evaluate {name}")
    return run


def _lower_FloatLiteral(expr: c_ast.FloatLiteral, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    value = FloatValue(expr.value, expr.type or ct.DOUBLE)

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        return value
    return run


def _lower_StringLiteral(expr: c_ast.StringLiteral, L: LoweringContext) -> ExprThunk:
    text = expr.value
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        pointer, array_type = interp.string_literal_object(text)
        return pointer.with_type(ct.PointerType(pointee=array_type.element))
    return run


def _lookup_binding(interp, name: str, line: int):
    """Inlined :meth:`Interpreter.lookup_binding` (the fast path's hot lookup)."""
    frames = interp.frames
    if frames:
        binding = frames[-1].lookup(name)
        if binding is not None:
            return binding
    binding = interp.global_bindings.get(name)
    if binding is not None:
        return binding
    binding = interp.function_bindings.get(name)
    if binding is not None:
        return binding
    raise UndefinedBehaviorError(
        UBKind.BAD_FUNCTION_CALL, f"Use of undeclared identifier '{name}'.", line=line)


def _binding_lvalue(binding) -> LValue:
    """The (memoized) lvalue designating an object binding."""
    lvalue = binding.cached_lvalue
    if lvalue is None:
        lvalue = LValue(
            pointer=PointerValue(base=binding.base, offset=0,
                                 type=ct.PointerType(pointee=binding.type)),
            type=binding.type)
        binding.cached_lvalue = lvalue
    return lvalue


def _lower_object_binding(expr: c_ast.Identifier, L: LoweringContext):
    """A closure resolving an identifier to its object binding.

    This is ``eval_lvalue``'s Identifier case minus the LValue construction:
    same step accounting, same errors — used by the specialized assignment
    and increment/decrement closures that operate on bindings directly.
    """
    name = expr.name
    line = expr.line
    max_steps = L.max_steps

    def resolve(interp):
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        binding = _lookup_binding(interp, name, line)
        if isinstance(binding, FunctionBinding):
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Function designator '{name}' used where an object is required.",
                line=line)
        return binding
    return resolve


def _lower_Identifier(expr: c_ast.Identifier, L: LoweringContext) -> ExprThunk:
    name = expr.name
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        binding = _lookup_binding(interp, name, line)
        if isinstance(binding, FunctionBinding):
            return PointerValue(base=None, offset=0, function=binding.name,
                                type=ct.PointerType(pointee=binding.type))
        return _read_binding(interp, binding, line)
    return run


def _lower_UnaryOp(expr: c_ast.UnaryOp, L: LoweringContext) -> ExprThunk:
    op = expr.op
    line = expr.line
    max_steps = L.max_steps

    if op == "&":
        operand_lv = lower_lvalue(expr.operand, L)

        def run_addr(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            lvalue = operand_lv(interp)
            return PointerValue(base=lvalue.base, offset=lvalue.offset,
                                type=ct.PointerType(pointee=lvalue.type),
                                function=lvalue.pointer.function)
        return run_addr

    if op == "*":
        operand_run = lower_expr(expr.operand, L)
        deref_plans = _AccessPlanCache()

        def run_deref(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            value = operand_run(interp)
            lvalue = interp._deref_to_lvalue(value, line)
            plan = deref_plans.plan_for(lvalue.type, interp.profile)
            if plan is not None:
                return _read_with_plan(interp, lvalue, plan, line)
            return interp.read_lvalue(lvalue, line)
        return run_deref

    if op == "sizeof":
        operand_node = expr.operand

        def run_sizeof(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            operand_type = interp.type_of_expression(operand_node)
            try:
                size = ct.size_of(operand_type, interp.profile)
            except ct.LayoutError as exc:
                raise UndefinedBehaviorError(
                    UBKind.INCOMPLETE_TYPE_OBJECT,
                    f"sizeof applied to {operand_type}: {exc}", line=line)
            return IntValue(size, ct.ULONG)
        return run_sizeof

    if op in ("++pre", "--pre", "++post", "--post"):
        delta = 1 if op.startswith("++") else -1
        is_post = op.endswith("post")

        if isinstance(expr.operand, c_ast.Identifier):
            resolve_binding = _lower_object_binding(expr.operand, L)

            def run_incdec_ident(interp) -> CValue:
                interp._steps += 1
                if interp._steps > max_steps:
                    raise ResourceLimitError(f"execution exceeded {max_steps} steps")
                if line:
                    interp.current_line = line
                binding = resolve_binding(interp)
                old = _read_binding(interp, binding, line)
                access = binding.access_plan
                intconv = (access[2] if access is not None
                           and access[0] == _PLAN_SCALAR else None)
                if intconv is not None and not isinstance(old, (PointerValue,
                                                                FloatValue)):
                    old_int = interp._require_arithmetic(old, line, "operand of ++/--")
                    promoted = interp._promote(old_int)
                    assert isinstance(promoted, IntValue)
                    result = interp._arith_result(promoted.value + delta,
                                                  promoted.type, line)
                    # The plan conversion is idempotent, so one application
                    # equals the legacy walker's convert-then-convert.
                    converted_new: CValue = intconv(result.value)
                else:
                    converted_new = interp._incdec_value(old, delta, binding.type, line)
                _write_binding(interp, binding, converted_new, line)
                return old if is_post else converted_new
            return run_incdec_ident

        operand_lv = lower_lvalue(expr.operand, L)

        def run_incdec(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            lvalue = operand_lv(interp)
            old = interp.read_lvalue(lvalue, line)
            converted_new = interp._incdec_value(old, delta, lvalue.type, line)
            interp.write_lvalue(lvalue, converted_new, line)
            return old if is_post else converted_new
        return run_incdec

    operand_run = lower_expr(expr.operand, L)

    if op == "!":
        def run_not(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            value = operand_run(interp)
            return IntValue(
                0 if to_boolean(value, interp.options, line=line) else 1, ct.INT)
        return run_not

    if op in ("+", "-", "~"):
        def run_arith(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            value = operand_run(interp)
            value = interp._require_arithmetic(value, line, f"operand of unary {op}")
            if op == "+":
                return interp._promote(value)
            if op == "-":
                promoted = interp._promote(value)
                if isinstance(promoted, FloatValue):
                    return FloatValue(-promoted.value, promoted.type)
                return interp._arith_result(-promoted.value, promoted.type, line)
            promoted = interp._promote(value)
            if not isinstance(promoted, IntValue):
                raise UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    "Operand of '~' must have integer type.", line=line)
            return interp._arith_result(~promoted.value, promoted.type, line)
        return run_arith

    def run_unsupported(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UnsupportedFeatureError(f"unary operator {op!r}")
    return run_unsupported


def _lower_Cast(expr: c_ast.Cast, L: LoweringContext) -> ExprThunk:
    target = expr.target_type
    line = expr.line
    max_steps = L.max_steps

    if isinstance(expr.operand, c_ast.InitList):
        operand_node = expr.operand

        def run_compound_literal(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            return interp.build_compound_literal(target, operand_node, line)
        return run_compound_literal

    operand_run = lower_expr(expr.operand, L)

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        value = operand_run(interp)
        return convert(value, target, interp.options, line=line, explicit=True,
                       pointer_registry=interp.pointer_registry)
    return run


def _lower_BinaryOp(expr: c_ast.BinaryOp, L: LoweringContext) -> ExprThunk:
    op = expr.op
    line = expr.line
    max_steps = L.max_steps
    left_run = lower_expr(expr.left, L)
    right_run = lower_expr(expr.right, L)

    if op == "&&" or op == "||":
        is_and = op == "&&"

        def run_logical(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            left = left_run(interp)
            interp.memory.sequence_point()
            left_true = to_boolean(left, interp.options, line=line)
            if is_and:
                if not left_true:
                    return IntValue(0, ct.INT)
            elif left_true:
                return IntValue(1, ct.INT)
            right = right_run(interp)
            return IntValue(1 if to_boolean(right, interp.options, line=line) else 0,
                            ct.INT)
        return run_logical

    # The value computations of the two operands are unsequenced; they run
    # in the one order the options fix.
    plan_cache = _BinaryPlanCache(op, L.options, line)
    right_to_left = L.right_to_left

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        if right_to_left:
            right = right_run(interp)
            left = left_run(interp)
        else:
            left = left_run(interp)
            right = right_run(interp)
        if type(left) is IntValue and type(right) is IntValue:
            plan = plan_cache.lookup(left.type, right.type)
            if plan is not None:
                return plan(left.value, right.value)
        return interp.apply_binary(op, left, right, line)
    return run


def _lower_Assignment(expr: c_ast.Assignment, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    value_run = lower_expr(expr.value, L)
    target_is_identifier = isinstance(expr.target, c_ast.Identifier)
    if target_is_identifier:
        resolve_binding = _lower_object_binding(expr.target, L)
    else:
        target_lv = lower_lvalue(expr.target, L)

    if expr.op == "=":
        right_to_left = L.right_to_left

        if target_is_identifier:
            def run_simple_ident(interp) -> CValue:
                interp._steps += 1
                if interp._steps > max_steps:
                    raise ResourceLimitError(f"execution exceeded {max_steps} steps")
                if line:
                    interp.current_line = line
                if right_to_left:
                    value = value_run(interp)
                    binding = resolve_binding(interp)
                else:
                    binding = resolve_binding(interp)
                    value = value_run(interp)
                plan = binding.access_plan
                if plan is None:
                    plan = _binding_access_plan(binding, interp.profile)
                if type(value) is IntValue and plan[0] == _PLAN_SCALAR \
                        and plan[2] is not None:
                    converted: CValue = plan[2](value.value)
                elif isinstance(value, StructValue) and binding.type.is_record:
                    converted = value
                else:
                    converted = convert(value, binding.type, interp.options, line=line,
                                        pointer_registry=interp.pointer_registry)
                _write_binding(interp, binding, converted, line)
                return converted
            return run_simple_ident

        write_plans = _AccessPlanCache()

        def run_simple(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            if right_to_left:
                value = value_run(interp)
                lvalue = target_lv(interp)
            else:
                lvalue = target_lv(interp)
                value = value_run(interp)
            plan = write_plans.plan_for(lvalue.type, interp.profile)
            if type(value) is IntValue and plan is not None and plan[4] is not None:
                converted: CValue = plan[4](value.value)
            elif isinstance(value, StructValue) and lvalue.type.is_record:
                converted = value
            else:
                converted = convert(value, lvalue.type, interp.options, line=line,
                                    pointer_registry=interp.pointer_registry)
            if plan is not None:
                _write_with_plan(interp, lvalue, plan, converted, line)
            else:
                interp.write_lvalue(lvalue, converted, line)
            return converted
        return run_simple

    op = expr.op[:-1]
    plan_cache = _BinaryPlanCache(op, L.options, line)

    if target_is_identifier:
        def run_compound_ident(interp) -> CValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            binding = resolve_binding(interp)
            old = _read_binding(interp, binding, line)
            rhs = value_run(interp)
            if type(old) is IntValue and type(rhs) is IntValue:
                plan = plan_cache.lookup(old.type, rhs.type)
                result = (plan(old.value, rhs.value) if plan is not None
                          else interp.apply_binary(op, old, rhs, line))
            else:
                result = interp.apply_binary(op, old, rhs, line)
            if isinstance(result, PointerValue):
                converted: CValue = result
            else:
                access = binding.access_plan
                if type(result) is IntValue and access is not None \
                        and access[0] == _PLAN_SCALAR and access[2] is not None:
                    converted = access[2](result.value)
                else:
                    converted = convert(result, binding.type, interp.options,
                                        line=line,
                                        pointer_registry=interp.pointer_registry)
            _write_binding(interp, binding, converted, line)
            return converted
        return run_compound_ident

    access_plans = _AccessPlanCache()

    def run_compound(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        lvalue = target_lv(interp)
        access = access_plans.plan_for(lvalue.type, interp.profile)
        old = (_read_with_plan(interp, lvalue, access, line) if access is not None
               else interp.read_lvalue(lvalue, line))
        rhs = value_run(interp)
        if type(old) is IntValue and type(rhs) is IntValue:
            plan = plan_cache.lookup(old.type, rhs.type)
            result = (plan(old.value, rhs.value) if plan is not None
                      else interp.apply_binary(op, old, rhs, line))
        else:
            result = interp.apply_binary(op, old, rhs, line)
        if isinstance(result, PointerValue):
            converted = result
        elif type(result) is IntValue and access is not None \
                and access[4] is not None:
            converted = access[4](result.value)
        else:
            converted = convert(result, lvalue.type, interp.options, line=line,
                                pointer_registry=interp.pointer_registry)
        if access is not None:
            _write_with_plan(interp, lvalue, access, converted, line)
        else:
            interp.write_lvalue(lvalue, converted, line)
        return converted
    return run_compound


def _lower_Conditional(expr: c_ast.Conditional, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    condition_run = lower_expr(expr.condition, L)
    then_run = lower_expr(expr.then, L)
    otherwise_run = lower_expr(expr.otherwise, L)

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        condition = condition_run(interp)
        interp.memory.sequence_point()
        if to_boolean(condition, interp.options, line=line):
            return then_run(interp)
        return otherwise_run(interp)
    return run


def _lower_Comma(expr: c_ast.Comma, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    left_run = lower_expr(expr.left, L)
    right_run = lower_expr(expr.right, L)

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        left_run(interp)
        interp.memory.sequence_point()
        return right_run(interp)
    return run


def _subscript_core(expr: c_ast.ArraySubscript, L: LoweringContext):
    """The (step-free) shared core of subscript as lvalue and as rvalue."""
    line = expr.line
    array_run = lower_expr(expr.array, L)
    index_run = lower_expr(expr.index, L)
    right_to_left = L.right_to_left

    def core(interp) -> LValue:
        if right_to_left:
            index_value = index_run(interp)
            base_value = array_run(interp)
        else:
            base_value = array_run(interp)
            index_value = index_run(interp)
        return interp._subscript_to_lvalue(base_value, index_value, line)
    return core


def _lower_ArraySubscript(expr: c_ast.ArraySubscript, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    core = _subscript_core(expr, L)
    plan_cache = _AccessPlanCache()

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        lvalue = core(interp)
        plan = plan_cache.plan_for(lvalue.type, interp.profile)
        if plan is not None:
            return _read_with_plan(interp, lvalue, plan, line)
        return interp.read_lvalue(lvalue, line)
    return run


def _member_core(expr: c_ast.Member, L: LoweringContext):
    """The (step-free) shared core of member access as lvalue and rvalue."""
    line = expr.line
    member = expr.member
    if expr.arrow:
        object_run = lower_expr(expr.object, L)
    else:
        object_lv = lower_lvalue(expr.object, L)
    arrow = expr.arrow

    def core(interp) -> LValue:
        if arrow:
            pointer_value = object_run(interp)
            pointer = interp._require_pointer(pointer_value, line, "'->' operand")
            record_type = pointer.pointee_type
            base_pointer = pointer
        else:
            inner = object_lv(interp)
            record_type = inner.type
            base_pointer = inner.pointer
        record_type = interp.resolve_record(record_type, line)
        if not isinstance(record_type, (ct.StructType, ct.UnionType)) \
                or record_type.fields is None:
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Member access on non-record or incomplete type {record_type}.",
                line=line)
        layout = ct.struct_layout(record_type, interp.profile)
        field_layout = layout.field(member)
        if field_layout is None:
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"{record_type} has no member named '{member}'.", line=line)
        field_type = field_layout.type
        if record_type.const:
            field_type = field_type.with_qualifiers(const=True)
        pointer = PointerValue(
            base=base_pointer.base,
            offset=base_pointer.offset + field_layout.offset,
            type=ct.PointerType(pointee=field_type),
            function=base_pointer.function)
        return LValue(pointer=pointer, type=field_type)
    return core


def _lower_Member(expr: c_ast.Member, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    core = _member_core(expr, L)
    plan_cache = _AccessPlanCache()

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        lvalue = core(interp)
        plan = plan_cache.plan_for(lvalue.type, interp.profile)
        if plan is not None:
            return _read_with_plan(interp, lvalue, plan, line)
        return interp.read_lvalue(lvalue, line)
    return run


def _lower_Call(expr: c_ast.Call, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps
    argument_runs = [lower_expr(argument, L) for argument in expr.arguments]
    reversed_runs = argument_runs[::-1]
    right_to_left = L.right_to_left
    function_node = expr.function

    if isinstance(function_node, c_ast.Identifier):
        name = function_node.name
        function_value_run = lower_expr(function_node, L)

        def resolve(interp):
            # Mirrors Interpreter.eval_call's designator resolution: a local
            # or global object shadowing the function name forces a value
            # evaluation (function pointers), otherwise the binding is used.
            binding = interp.function_bindings.get(name)
            local = interp.frames[-1].lookup(name) if interp.frames else None
            global_obj = interp.global_bindings.get(name)
            if local is not None or (global_obj is not None and binding is None):
                value = function_value_run(interp)
                return interp._function_from_value(value, line)
            if binding is not None:
                return name, binding.type
            if name in BUILTIN_FUNCTIONS:
                return name, None
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Call to undeclared function '{name}'.", line=line)
    else:
        function_run = lower_expr(function_node, L)

        def resolve(interp):
            return interp._function_from_value(function_run(interp), line)

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        callee_name, callee_type = resolve(interp)
        if right_to_left:
            values = [argument_run(interp) for argument_run in reversed_runs]
            values.reverse()
        else:
            values = [argument_run(interp) for argument_run in argument_runs]
        arguments = interp._convert_arguments(values, callee_name, callee_type, line)
        # Sequence point after evaluating the designator and the arguments,
        # before the call (§6.5.2.2:10).
        interp.memory.sequence_point()
        return interp.call_function(callee_name, arguments, line,
                                    declared_type=callee_type)
    return run


def _lower_InitList(expr: c_ast.InitList, L: LoweringContext) -> ExprThunk:
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> CValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UnsupportedFeatureError(
            "initializer list used outside of a declaration or compound literal")
    return run


_EXPR_LOWERERS = {
    c_ast.FloatLiteral: _lower_FloatLiteral,
    c_ast.StringLiteral: _lower_StringLiteral,
    c_ast.Identifier: _lower_Identifier,
    c_ast.UnaryOp: _lower_UnaryOp,
    c_ast.Cast: _lower_Cast,
    c_ast.BinaryOp: _lower_BinaryOp,
    c_ast.Assignment: _lower_Assignment,
    c_ast.Conditional: _lower_Conditional,
    c_ast.Comma: _lower_Comma,
    c_ast.ArraySubscript: _lower_ArraySubscript,
    c_ast.Member: _lower_Member,
    c_ast.Call: _lower_Call,
    c_ast.InitList: _lower_InitList,
}


# ---------------------------------------------------------------------------
# Lvalue lowering (mirrors Interpreter.eval_lvalue case by case)
# ---------------------------------------------------------------------------

def _lower_lvalue_Identifier(expr: c_ast.Identifier, L: LoweringContext):
    name = expr.name
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        binding = _lookup_binding(interp, name, line)
        if isinstance(binding, FunctionBinding):
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Function designator '{name}' used where an object is required.",
                line=line)
        return _binding_lvalue(binding)
    return run


def _lower_lvalue_UnaryOp(expr: c_ast.UnaryOp, L: LoweringContext):
    if expr.op != "*":
        return _lower_not_an_lvalue(expr, L)
    line = expr.line
    max_steps = L.max_steps
    operand_run = lower_expr(expr.operand, L)

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        value = operand_run(interp)
        return interp._deref_to_lvalue(value, line)
    return run


def _lower_lvalue_ArraySubscript(expr: c_ast.ArraySubscript, L: LoweringContext):
    line = expr.line
    max_steps = L.max_steps
    core = _subscript_core(expr, L)

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        return core(interp)
    return run


def _lower_lvalue_Member(expr: c_ast.Member, L: LoweringContext):
    line = expr.line
    max_steps = L.max_steps
    core = _member_core(expr, L)

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        return core(interp)
    return run


def _lower_lvalue_StringLiteral(expr: c_ast.StringLiteral, L: LoweringContext):
    text = expr.value
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        pointer, array_type = interp.string_literal_object(text)
        return LValue(pointer=pointer.with_type(ct.PointerType(pointee=array_type)),
                      type=array_type)
    return run


def _lower_lvalue_Cast(expr: c_ast.Cast, L: LoweringContext):
    line = expr.line
    max_steps = L.max_steps

    if isinstance(expr.operand, c_ast.InitList):
        target = expr.target_type
        operand_node = expr.operand

        def run_compound_literal(interp) -> LValue:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            if line:
                interp.current_line = line
            return interp.compound_literal_lvalue(target, operand_node, line)
        return run_compound_literal

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, "Cast expression used as an lvalue.", line=line)
    return run


def _lower_lvalue_Comma(expr: c_ast.Comma, L: LoweringContext):
    line = expr.line
    max_steps = L.max_steps
    left_run = lower_expr(expr.left, L)
    right_lv = lower_lvalue(expr.right, L)

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        left_run(interp)
        interp.memory.sequence_point()
        return right_lv(interp)
    return run


def _lower_not_an_lvalue(expr: c_ast.Expression, L: LoweringContext):
    name = type(expr).__name__
    line = expr.line
    max_steps = L.max_steps

    def run(interp) -> LValue:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL,
            f"Expression of kind {name} is not an lvalue.", line=line)
    return run


_LVALUE_LOWERERS = {
    c_ast.Identifier: _lower_lvalue_Identifier,
    c_ast.UnaryOp: _lower_lvalue_UnaryOp,
    c_ast.ArraySubscript: _lower_lvalue_ArraySubscript,
    c_ast.Member: _lower_lvalue_Member,
    c_ast.StringLiteral: _lower_lvalue_StringLiteral,
    c_ast.Cast: _lower_lvalue_Cast,
    c_ast.Comma: _lower_lvalue_Comma,
}


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------

class LoweredBlock:
    """A lowered compound statement that still supports ``goto`` seeking.

    Mirrors ``StatementExecutorMixin.exec_compound`` / ``_run_items`` /
    ``_run_goto_loop``: each item keeps its AST node alongside its closure so
    the label search walks the same tree the legacy executor walks.
    """

    __slots__ = ("node", "items")

    def __init__(self, node: c_ast.Compound,
                 items: list[tuple[c_ast.Node, StmtThunk, object]]) -> None:
        self.node = node
        self.items = items

    def run(self, interp, *, new_scope: bool = True) -> None:
        frame = interp.current_frame()
        if new_scope:
            frame.push_scope()
        try:
            self.run_items(interp, None)
        except GotoSignal as signal:
            if self._contains_label(signal.label):
                self._run_goto_loop(interp, signal.label)
            else:
                raise
        finally:
            if new_scope:
                scope = frame.pop_scope()
                for base in scope.owned_bases:
                    interp.memory.kill(base)

    def _run_goto_loop(self, interp, label: str) -> None:
        while True:
            try:
                self.run_items(interp, label)
                return
            except GotoSignal as signal:
                if self._contains_label(signal.label):
                    label = signal.label
                    continue
                raise

    def run_items(self, interp, start_label: Optional[str]) -> None:
        seeking = start_label
        for node, thunk, extra in self.items:
            if seeking is not None:
                if not _item_contains_label(node, seeking):
                    continue
                if isinstance(node, c_ast.Label) and node.name == seeking:
                    seeking = None
                    if extra is not None:
                        extra(interp)  # the label's inner statement
                    continue
                if isinstance(node, c_ast.Compound):
                    assert isinstance(extra, LoweredBlock)
                    extra.run_items(interp, seeking)
                    seeking = None
                    continue
                # The label sits inside a structured statement; jumping into
                # it is unsupported, exactly as in the legacy executor.
                raise UnsupportedFeatureError(
                    f"goto into a nested statement (label '{seeking}')")
            thunk(interp)

    def _contains_label(self, label: str) -> bool:
        return any(isinstance(node, c_ast.Label) and node.name == label
                   for node in c_ast.walk(self.node))


def _item_contains_label(item: c_ast.Node, label: str) -> bool:
    return any(isinstance(node, c_ast.Label) and node.name == label
               for node in c_ast.walk(item))


def lower_block(block: c_ast.Compound, L: LoweringContext) -> LoweredBlock:
    items: list[tuple[c_ast.Node, StmtThunk, object]] = []
    for item in block.items:
        thunk = lower_stmt(item, L)
        extra: object = None
        if isinstance(item, c_ast.Label) and item.statement is not None:
            extra = lower_stmt(item.statement, L)
        elif isinstance(item, c_ast.Compound):
            extra = lower_block(item, L)
        items.append((item, thunk, extra))
    return LoweredBlock(block, items)


def lower_stmt(stmt, L: LoweringContext) -> StmtThunk:
    if isinstance(stmt, c_ast.Declaration):
        return _lower_Declaration(stmt, L)
    if isinstance(stmt, c_ast.StaticAssert):
        return _lower_StaticAssert(stmt, L)
    lowerer = _STMT_LOWERERS.get(type(stmt))
    if lowerer is None:
        return _lower_unsupported_stmt(stmt, L)
    return lowerer(stmt, L)


def _lower_unsupported_stmt(stmt, L: LoweringContext) -> StmtThunk:
    name = type(stmt).__name__
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise UnsupportedFeatureError(f"cannot execute {name}")
    return run


def _lower_Declaration(stmt: c_ast.Declaration, L: LoweringContext) -> StmtThunk:
    # Declarations stay on the shared (legacy) path: object creation and
    # initializer semantics live in Interpreter.exec_local_declaration, and
    # they run once per scope entry rather than once per expression step.
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        interp.exec_local_declaration(stmt)
    return run


def _lower_StaticAssert(stmt: c_ast.StaticAssert, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        # Checked statically; nothing to do at run time.
    return run


def _lower_ExpressionStmt(stmt: c_ast.ExpressionStmt, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    expression_run = lower_expr(stmt.expression, L) if stmt.expression is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        if expression_run is not None:
            expression_run(interp)
        # End of a full expression: sequence point.
        interp.memory.sequence_point()
    return run


def _lower_Return(stmt: c_ast.Return, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    value_run = lower_expr(stmt.value, L) if stmt.value is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        value = value_run(interp) if value_run is not None else None
        interp.memory.sequence_point()
        raise ReturnSignal(value, line=line)
    return run


def _lower_Break(stmt: c_ast.Break, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise BreakSignal()
    return run


def _lower_Continue(stmt: c_ast.Continue, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise ContinueSignal()
    return run


def _lower_Goto(stmt: c_ast.Goto, L: LoweringContext) -> StmtThunk:
    label = stmt.label
    line = stmt.line
    max_steps = L.max_steps

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        raise GotoSignal(label)
    return run


def _lower_Label(stmt: c_ast.Label, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    inner_run = lower_stmt(stmt.statement, L) if stmt.statement is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        if inner_run is not None:
            inner_run(interp)
    return run


def _lower_Compound(stmt: c_ast.Compound, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    block = lower_block(stmt, L)

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        block.run(interp, new_scope=True)
    return run


def _lower_If(stmt: c_ast.If, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    condition_run = lower_expr(stmt.condition, L)
    then_run = lower_stmt(stmt.then, L) if stmt.then is not None else None
    otherwise_run = lower_stmt(stmt.otherwise, L) if stmt.otherwise is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        condition = condition_run(interp)
        interp.memory.sequence_point()
        if to_boolean(condition, interp.options, line=line):
            if then_run is not None:
                then_run(interp)
        elif otherwise_run is not None:
            otherwise_run(interp)
    return run


def _lower_While(stmt: c_ast.While, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    condition_run = lower_expr(stmt.condition, L)
    body_run = lower_stmt(stmt.body, L) if stmt.body is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        memory = interp.memory
        options = interp.options
        while True:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            condition = condition_run(interp)
            memory.sequence_point()
            if not to_boolean(condition, options, line=line):
                return
            try:
                if body_run is not None:
                    body_run(interp)
            except BreakSignal:
                return
            except ContinueSignal:
                continue
    return run


def _lower_DoWhile(stmt: c_ast.DoWhile, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    condition_run = lower_expr(stmt.condition, L)
    body_run = lower_stmt(stmt.body, L) if stmt.body is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        memory = interp.memory
        options = interp.options
        while True:
            interp._steps += 1
            if interp._steps > max_steps:
                raise ResourceLimitError(f"execution exceeded {max_steps} steps")
            try:
                if body_run is not None:
                    body_run(interp)
            except BreakSignal:
                return
            except ContinueSignal:
                pass
            condition = condition_run(interp)
            memory.sequence_point()
            if not to_boolean(condition, options, line=line):
                return
    return run


def _lower_For(stmt: c_ast.For, L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps
    init = stmt.init
    if init is None:
        init_runs: list[StmtThunk] = []
        init_expr_run = None
    elif isinstance(init, list):
        init_runs = [lower_stmt(declaration, L) for declaration in init]
        init_expr_run = None
    elif isinstance(init, c_ast.Declaration):
        init_runs = [lower_stmt(init, L)]
        init_expr_run = None
    else:
        init_runs = []
        init_expr_run = lower_expr(init, L)
    condition_run = lower_expr(stmt.condition, L) if stmt.condition is not None else None
    step_run = lower_expr(stmt.step, L) if stmt.step is not None else None
    body_run = lower_stmt(stmt.body, L) if stmt.body is not None else None

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        frame = interp.current_frame()
        frame.push_scope()
        memory = interp.memory
        options = interp.options
        try:
            for init_run in init_runs:
                init_run(interp)
            if init_expr_run is not None:
                init_expr_run(interp)
                memory.sequence_point()
            while True:
                interp._steps += 1
                if interp._steps > max_steps:
                    raise ResourceLimitError(f"execution exceeded {max_steps} steps")
                if condition_run is not None:
                    condition = condition_run(interp)
                    memory.sequence_point()
                    if not to_boolean(condition, options, line=line):
                        return
                try:
                    if body_run is not None:
                        body_run(interp)
                except BreakSignal:
                    return
                except ContinueSignal:
                    pass
                if step_run is not None:
                    step_run(interp)
                    memory.sequence_point()
        finally:
            scope = frame.pop_scope()
            for base in scope.owned_bases:
                memory.kill(base)
    return run


def _lower_Switch(stmt: c_ast.Switch, L: LoweringContext) -> StmtThunk:
    from repro.cfront.parser import fold_constant

    line = stmt.line
    max_steps = L.max_steps
    expression_run = lower_expr(stmt.expression, L)

    body = stmt.body
    if not isinstance(body, c_ast.Compound):
        if isinstance(body, (c_ast.Case, c_ast.Default)):
            body = c_ast.Compound(line=stmt.line, items=[body])
        else:
            body = None

    if body is not None:
        # Per item: (node, run-thunk, case/default inner thunk, pre-folded
        # case label value, fallback label-expression thunk).
        entries = []
        for item in body.items:
            inner_run = None
            label_value = None
            label_run = None
            if isinstance(item, (c_ast.Case, c_ast.Default)):
                item_run = None
                if item.statement is not None:
                    inner_run = lower_stmt(item.statement, L)
                if isinstance(item, c_ast.Case) and item.expression is not None:
                    label_value = fold_constant(item.expression, L.profile)
                    if label_value is None:
                        label_run = lower_expr(item.expression, L)
            else:
                item_run = lower_stmt(item, L)
            entries.append((item, item_run, inner_run, label_value, label_run))
    else:
        entries = []

    def run(interp) -> None:
        interp._steps += 1
        if interp._steps > max_steps:
            raise ResourceLimitError(f"execution exceeded {max_steps} steps")
        if line:
            interp.current_line = line
        value = expression_run(interp)
        interp.memory.sequence_point()
        selector = value.value if isinstance(value, IntValue) else interp._require_int(
            value, line, "switch controlling expression")
        if body is None:
            return
        frame = interp.current_frame()
        frame.push_scope()
        try:
            start_index = None
            default_index = None
            for index, (item, _item_run, _inner, label_value, label_run) in enumerate(entries):
                if isinstance(item, c_ast.Case) and item.expression is not None:
                    if label_value is not None:
                        case_value = label_value
                    else:
                        case_value = interp._require_int(
                            label_run(interp), item.line, "case label")
                    if case_value == selector:
                        start_index = index
                        break
                elif isinstance(item, c_ast.Default):
                    if default_index is None:
                        default_index = index
            if start_index is None:
                start_index = default_index
            if start_index is None:
                return
            for item, item_run, inner_run, _label_value, _label_run in entries[start_index:]:
                if isinstance(item, (c_ast.Case, c_ast.Default)):
                    if inner_run is not None:
                        inner_run(interp)
                else:
                    item_run(interp)
        except BreakSignal:
            pass
        finally:
            scope = frame.pop_scope()
            for base in scope.owned_bases:
                interp.memory.kill(base)
    return run


_STMT_LOWERERS = {
    c_ast.ExpressionStmt: _lower_ExpressionStmt,
    c_ast.Return: _lower_Return,
    c_ast.Break: _lower_Break,
    c_ast.Continue: _lower_Continue,
    c_ast.Goto: _lower_Goto,
    c_ast.Label: _lower_Label,
    c_ast.Compound: _lower_Compound,
    c_ast.If: _lower_If,
    c_ast.While: _lower_While,
    c_ast.DoWhile: _lower_DoWhile,
    c_ast.For: _lower_For,
    c_ast.Switch: _lower_Switch,
}


# ---------------------------------------------------------------------------
# Unit lowering
# ---------------------------------------------------------------------------

class LoweredFunction:
    """A function body compiled to closures; ``run_body`` replaces
    ``exec_compound(definition.body, new_scope=False)`` in the call path."""

    __slots__ = ("name", "block")

    def __init__(self, name: str, block: LoweredBlock) -> None:
        self.name = name
        self.block = block

    def run_body(self, interp) -> None:
        self.block.run(interp, new_scope=False)


class LoweredUnit:
    """All lowered function bodies of one translation unit, for one options
    fingerprint (constant folding honors the check flags and the operand
    order follows ``evaluation_order``, so a unit lowered for one
    configuration must not serve another)."""

    __slots__ = ("functions",)

    def __init__(self, functions: dict[str, LoweredFunction]) -> None:
        self.functions = functions


def lower_unit(unit: c_ast.TranslationUnit, options: CheckerOptions) -> LoweredUnit:
    """Lower every function body of ``unit`` for the given configuration."""
    L = LoweringContext(options)
    functions: dict[str, LoweredFunction] = {}
    for declaration in unit.declarations:
        if isinstance(declaration, c_ast.FunctionDef) and declaration.body is not None:
            functions[declaration.name] = LoweredFunction(
                declaration.name, lower_block(declaration.body, L))
    return LoweredUnit(functions)
