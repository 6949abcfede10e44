"""Compile-time plans shared by the engines: one copy of each rule.

The walker (:mod:`repro.core.eval_expr` / :mod:`repro.core.eval_stmt`)
re-derives, at every evaluation, facts that are a pure function of the
operand *types*: the common type of a binary operation, the range it
overflows at, how many bytes a load moves.  The compiled engine
(:mod:`repro.core.bytecode` and :mod:`repro.core.vm`), the lowered closures
(:mod:`repro.core.lowering`) and the abstract evaluator
(:mod:`repro.symbolic`) derive those facts once per site instead, from this
module:

* **integer facts** — :class:`IntTypeFacts` (range, width, sign and the
  modular wrap of one flat integer type) and :class:`IntBinaryFacts` (the
  common type and armed checks of one binary site);
* **raw plans** — ``int -> int`` ports of the walker's conversion, binary,
  unary and increment rules built from those facts, with the walker's error
  kinds and messages; the VM runs them on raw ints, and the closures box
  their results at the call site.  Each is one closure whose in-range path
  calls nothing: operand conversion and the result check are inline range
  tests, and only a value out of range calls the type's ``wrap`` or the
  one overflow helper (``_checked_result``, ``_checked_shift``);
* **access plans** — size, alignment and check applicability of a scalar
  load or store, and the readers and writers that replicate
  ``read_lvalue``/``write_lvalue`` with them (identifier bindings included);
* **constant folding** — :func:`_try_fold` evaluates a constant integer
  subtree through the walker's own arithmetic (:class:`_FoldContext`), and
  a constant that is undefined becomes a :class:`_FoldUB` the engine raises
  if and when execution reaches it.

Every raise here reproduces the walker's error kind and message verbatim;
the engine matrix (``tests/core/test_engine_matrix.py``) holds the engines
to verdict and step equality.
"""

from __future__ import annotations

from typing import Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.core.config import CheckerOptions
from repro.core.conversions import convert, to_boolean
from repro.core.environment import LValue
from repro.core.eval_expr import ExpressionEvaluatorMixin
from repro.core.values import (
    CValue,
    IndeterminateValue,
    IntValue,
    PointerValue,
    decode_value,
    encode_value,
)
from repro.errors import UBKind, UndefinedBehaviorError, UnsupportedFeatureError

#: Types whose equality/hash is structural (no nominal tag): safe keys for
#: process-wide plan caches.
_FLAT_INT_TYPES = (ct.IntType, ct.BoolType)


# ---------------------------------------------------------------------------
# Integer facts
# ---------------------------------------------------------------------------


class IntTypeFacts:
    """Pre-derived representation facts of one flat integer type.

    This is the single source of truth for "what can this type hold": the
    representable range, the bit width, the sign, and the modular wrap.
    The concrete plans below capture these numbers in specialized closures;
    the abstract evaluator (:mod:`repro.symbolic`) consumes the *same*
    facts objects for its interval containment and emptiness tests, so a
    concrete overflow check and the symbolic proof of its absence can never
    disagree about the bounds.
    """

    __slots__ = ("type", "lo", "hi", "bits", "signed", "wrap")

    def __init__(
        self, result_type: ct.CType, lo: int, hi: int, bits: int, signed: bool
    ) -> None:
        self.type = result_type
        self.lo = lo
        self.hi = hi
        self.bits = bits
        self.signed = signed
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)

        def wrap(value: int) -> int:
            if lo <= value <= hi:
                return value
            wrapped = value & mask
            if signed and wrapped >= half:
                wrapped -= 1 << bits
            return wrapped

        #: ``conversions._int_to_int`` on the value alone (no IntValue): the
        #: ``int -> int`` conversion plan of the type.
        self.wrap = wrap


_INT_TYPE_FACTS: dict = {}


def int_type_facts(
    target: ct.CType, profile: ct.ImplementationProfile
) -> Optional[IntTypeFacts]:
    """The :class:`IntTypeFacts` of a flat integer type (process-wide memo).

    None for anything that is not a plain :class:`ct.IntType` (records,
    pointers, floats, ``_Bool`` — the latter converts by ``!= 0``, not by
    wrapping, so it has no wrap facts).
    """
    if not isinstance(target, ct.IntType):
        return None
    key = (target, profile)
    facts = _INT_TYPE_FACTS.get(key)
    if facts is None:
        lo, hi = ct.integer_range(target, profile)
        facts = IntTypeFacts(
            target.unqualified(),
            lo,
            hi,
            ct.integer_bits(target, profile),
            ct.is_signed_type(target, profile),
        )
        if len(_INT_TYPE_FACTS) < 65536:
            _INT_TYPE_FACTS[key] = facts
    return facts


class IntBinaryFacts:
    """Pre-derived facts of one integer binary-operation site.

    ``common`` carries the usual-arithmetic-conversions result type's
    representation facts; ``check_arithmetic`` whether the site's overflow /
    shift / division side conditions are armed.  Shared verbatim between the
    concrete plans and the abstract transfer functions.
    """

    __slots__ = ("op", "common", "check_arithmetic", "line")

    def __init__(
        self, op: str, common: IntTypeFacts, check_arithmetic: bool, line: int
    ) -> None:
        self.op = op
        self.common = common
        self.check_arithmetic = check_arithmetic
        self.line = line


#: ``(left type, right type, profile)`` -> the facts of their common type,
#: or None (process-wide memo of the usual arithmetic conversions).
_COMMON_FACTS: dict = {}
_UNKNOWN = object()


def int_binary_facts(
    op: str,
    left_type: ct.CType,
    right_type: ct.CType,
    options: CheckerOptions,
    line: int = 0,
) -> Optional[IntBinaryFacts]:
    """Facts of a binary site over two flat integer operand types, or None.

    None exactly when :func:`raw_binary_plan` declines the site: non-flat
    operand types, or a common type that is not a plain integer type —
    those stay on the generic checked path (concretely) and are
    INCONCLUSIVE territory (symbolically).
    """
    if not isinstance(left_type, _FLAT_INT_TYPES) or not isinstance(
        right_type, _FLAT_INT_TYPES
    ):
        return None
    profile = options.profile
    key = (left_type, right_type, profile)
    facts = _COMMON_FACTS.get(key, _UNKNOWN)
    if facts is _UNKNOWN:
        try:
            common = ct.usual_arithmetic_conversions(left_type, right_type, profile)
        except (TypeError, AssertionError):
            common = None
        facts = None if common is None else int_type_facts(common, profile)
        if len(_COMMON_FACTS) < 65536:
            _COMMON_FACTS[key] = facts
    if facts is None:
        return None
    return IntBinaryFacts(op, facts, options.check_arithmetic, line)


# ---------------------------------------------------------------------------
# Raw arithmetic plans
# ---------------------------------------------------------------------------


def _to_bool(value: int) -> int:
    return 1 if value != 0 else 0


def raw_conversion_plan(target: ct.CType, profile: ct.ImplementationProfile):
    """The ``int -> int`` conversion to a flat integer type (``_Bool``
    included), or None when ``target`` is not one."""
    if isinstance(target, ct.BoolType):
        return _to_bool
    facts = int_type_facts(target, profile)
    return facts.wrap if facts is not None else None


def _checked_result(facts: IntTypeFacts, check_arithmetic: bool, line: int):
    """``ExpressionEvaluatorMixin._arith_result`` at ``facts.type`` on raw
    ints, for an operation that can overflow: a result out of range is
    signed overflow when the type is signed and the check is armed;
    otherwise it wraps.  The plans below call it only for a result out of
    range, so the overflow error has this one source."""
    lo, hi, signed, wrap = facts.lo, facts.hi, facts.signed, facts.wrap
    result_type = facts.type

    def arith_result(value: int) -> int:
        if lo <= value <= hi:
            return value
        if signed and check_arithmetic:
            raise UndefinedBehaviorError(
                UBKind.SIGNED_OVERFLOW,
                f"Signed integer overflow: result {value} does not fit in "
                f"{result_type}.",
                line=line,
            )
        return wrap(value)

    return arith_result


def _checked_shift(
    is_left: bool, facts: IntTypeFacts, check_arithmetic: bool, line: int
):
    """The whole shift rule on raw ints of the common type: conversion of
    both operands, then the width, sign and overflow checks.  The shift
    plans call it only off their in-range path."""
    lo, hi, bits, wrap = facts.lo, facts.hi, facts.bits, facts.wrap
    signed, common = facts.signed, facts.type

    def shift(a: int, b: int) -> int:
        a = wrap(a)
        b = wrap(b)
        if check_arithmetic and (b < 0 or b >= bits):
            raise UndefinedBehaviorError(
                UBKind.SHIFT_TOO_FAR,
                f"Shift amount {b} is negative or >= width of the type "
                f"({bits} bits).",
                line=line,
            )
        b = max(0, min(b, bits - 1))
        if not is_left:
            return a >> b  # arithmetic right shift, as in the generic rule
        if check_arithmetic and signed and a < 0:
            raise UndefinedBehaviorError(
                UBKind.SHIFT_NEGATIVE, "Left shift of a negative value.", line=line
            )
        result = a << b
        if signed and check_arithmetic and not lo <= result <= hi:
            raise UndefinedBehaviorError(
                UBKind.SHIFT_OVERFLOW,
                f"Left shift of {a} by {b} overflows {common}.",
                line=line,
            )
        return wrap(result)

    return shift


def raw_binary_plan(
    op: str,
    left_type: ct.CType,
    right_type: ct.CType,
    options: CheckerOptions,
    line: int,
):
    """``apply_binary`` for two flat integer operand types, on raw ints.

    Returns ``(plan, result_type)``, where ``plan`` is ``(int, int) -> int``
    (comparisons yield 0/1 of type ``int``), or None when the operand types
    are not planable and the generic checked path decides.

    Each plan is one closure.  It converts its operands to the common type
    and checks its result with inline range tests, so a value in range
    costs no further call; only a value out of range calls the type's
    ``wrap``, ``_checked_result`` or ``_checked_shift``.  Bitwise results and
    remainders of operands in range are in range, so they are not tested.
    """
    facts = int_binary_facts(op, left_type, right_type, options, line)
    if facts is None:
        return None
    common_facts = facts.common
    common = common_facts.type
    lo, hi, wrap = common_facts.lo, common_facts.hi, common_facts.wrap
    bits = common_facts.bits
    check_arithmetic = facts.check_arithmetic
    overflow = _checked_result(common_facts, check_arithmetic, line)

    if op == "<":

        def less(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a < b else 0

        return less, ct.INT
    if op == ">":

        def greater(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a > b else 0

        return greater, ct.INT
    if op == "<=":

        def less_equal(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a <= b else 0

        return less_equal, ct.INT
    if op == ">=":

        def greater_equal(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a >= b else 0

        return greater_equal, ct.INT
    if op == "==":

        def equal(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a == b else 0

        return equal, ct.INT
    if op == "!=":

        def not_equal(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return 1 if a != b else 0

        return not_equal, ct.INT
    if op == "+":

        def add(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            value = a + b
            return value if lo <= value <= hi else overflow(value)

        return add, common
    if op == "-":

        def sub(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            value = a - b
            return value if lo <= value <= hi else overflow(value)

        return sub, common
    if op == "*":

        def mul(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            value = a * b
            return value if lo <= value <= hi else overflow(value)

        return mul, common
    if op in ("/", "%"):

        def by_zero() -> int:
            if check_arithmetic:
                raise UndefinedBehaviorError(
                    UBKind.DIVISION_BY_ZERO, "Division or modulus by zero.", line=line
                )
            return 0

        if op == "/":

            def divide(a: int, b: int) -> int:
                a = a if lo <= a <= hi else wrap(a)
                b = b if lo <= b <= hi else wrap(b)
                if b == 0:
                    return by_zero()
                value = a // b
                if value < 0 and value * b != a:
                    value += 1  # C truncates toward zero
                return value if lo <= value <= hi else overflow(value)

            return divide, common

        def remainder(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            if b == 0:
                return by_zero()
            value = a % b
            if value and (a < 0) != (b < 0):
                value -= b  # the sign of the dividend, as C's is
            return value

        return remainder, common
    if op == "&":

        def bit_and(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return a & b

        return bit_and, common
    if op == "|":

        def bit_or(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return a | b

        return bit_or, common
    if op == "^":

        def bit_xor(a: int, b: int) -> int:
            a = a if lo <= a <= hi else wrap(a)
            b = b if lo <= b <= hi else wrap(b)
            return a ^ b

        return bit_xor, common
    if op == "<<":
        shift = _checked_shift(True, common_facts, check_arithmetic, line)

        def shift_left(a: int, b: int) -> int:
            if 0 <= a <= hi and 0 <= b < bits:
                value = a << b
                if value <= hi:
                    return value
            return shift(a, b)

        return shift_left, common
    if op == ">>":
        shift = _checked_shift(False, common_facts, check_arithmetic, line)

        def shift_right(a: int, b: int) -> int:
            if lo <= a <= hi and 0 <= b < bits:
                return a >> b
            return shift(a, b)

        return shift_right, common
    return None


def _promoted_facts(
    operand_type: ct.CType, profile: ct.ImplementationProfile
) -> Optional[IntTypeFacts]:
    if not isinstance(operand_type, _FLAT_INT_TYPES):
        return None
    return int_type_facts(ct.promote_integer(operand_type, profile), profile)


def raw_unary_plan(op: str, operand_type: ct.CType, options: CheckerOptions, line: int):
    """Unary ``+``/``-``/``~`` on a flat integer operand: promote, operate,
    overflow-check at the promoted type (which the overflow message names).
    One closure with inline range tests, like the binary plans.

    Returns ``(plan, promoted_type)`` or None.
    """
    facts = _promoted_facts(operand_type, options.profile)
    if facts is None:
        return None
    lo, hi, wrap = facts.lo, facts.hi, facts.wrap
    if op == "+":
        return wrap, facts.type
    overflow = _checked_result(facts, options.check_arithmetic, line)
    if op == "-":

        def negate(value: int) -> int:
            value = -(value if lo <= value <= hi else wrap(value))
            return value if lo <= value <= hi else overflow(value)

        return negate, facts.type
    if op == "~":

        def invert(value: int) -> int:
            value = ~(value if lo <= value <= hi else wrap(value))
            return value if lo <= value <= hi else overflow(value)

        return invert, facts.type
    return None


def raw_incdec_plan(delta: int, var_type: ct.CType, options: CheckerOptions, line: int):
    """``++``/``--`` of a flat integer variable: promote, add ``delta``
    with the overflow check of the promoted type, convert back.  One
    closure: a result in the variable's range is returned as it is."""
    profile = options.profile
    facts = _promoted_facts(var_type, profile)
    to_var = raw_conversion_plan(var_type, profile)
    if facts is None or to_var is None:
        return None
    var_facts = int_type_facts(var_type, profile)
    var_lo, var_hi = (var_facts.lo, var_facts.hi) if var_facts else (0, 1)  # _Bool
    lo, hi, to_promoted = facts.lo, facts.hi, facts.wrap
    overflow = _checked_result(facts, options.check_arithmetic, line)

    def plan(value: int) -> int:
        value = (value if lo <= value <= hi else to_promoted(value)) + delta
        if var_lo <= value <= var_hi:
            return value
        return to_var(value if lo <= value <= hi else overflow(value))

    return plan


# ---------------------------------------------------------------------------
# Access plans
# ---------------------------------------------------------------------------
#
# For loads and stores through computed lvalues (subscripts, members,
# derefs) the pointer offset varies but the lvalue *type* at a given site
# almost never does, so the access facts are derived once per type.


def access_plan(ltype: ct.CType, profile: ct.ImplementationProfile):
    """``(size, align, uninit, const, conversion, value_type)`` of a scalar
    access at ``ltype``, or None when the generic helpers must do it.

    ``uninit`` says whether the uninitialized-read side condition applies
    (character types are exempt); ``conversion`` is the raw conversion plan
    to ``ltype`` (None unless it is a flat integer type) and ``value_type``
    the type of the value it converts to.  Arrays decay, function
    designators call, and whole-record accesses keep ``read_lvalue``/
    ``write_lvalue``, whose store attaches copy provenance and runs the
    overlapping-assignment check (§6.5.16.1:3); an incomplete type raises
    there too.
    """
    if isinstance(ltype, (ct.ArrayType, ct.FunctionType)) or ltype.is_record:
        return None
    try:
        size = ct.size_of(ltype, profile)
    except ct.LayoutError:
        return None
    try:
        align = ct.align_of(ltype, profile)
    except ct.LayoutError:
        align = 1  # check_alignment swallows LayoutError
    uninit = ltype.is_scalar and not ct.is_character_type(ltype)
    conversion = raw_conversion_plan(ltype, profile)
    return size, align, uninit, ltype.const, conversion, ltype.unqualified()


def _read_with_plan(interp, lvalue: LValue, plan, line: int) -> CValue:
    """Replicates ``read_lvalue`` with the type facts pre-derived."""
    size, align, uninit, _const, _conversion, _value_type = plan
    pointer = lvalue.pointer
    ltype = lvalue.type
    if align > 1 and interp.options.check_memory and pointer.offset % align != 0:
        raise UndefinedBehaviorError(
            UBKind.UNALIGNED_ACCESS,
            f"Access at offset {pointer.offset} is not aligned to {align} bytes "
            f"for type {ltype}.",
            line=line,
        )
    data = interp.memory.read_bytes(pointer, size, line=line, lvalue_type=ltype)
    value = decode_value(data, ltype, interp.profile)
    if (
        uninit
        and interp.options.check_uninitialized
        and isinstance(value, IndeterminateValue)
        and any(type(b).__name__ == "UnknownByte" for b in data)
    ):
        raise UndefinedBehaviorError(
            UBKind.UNINITIALIZED_READ,
            f"Read of an uninitialized (indeterminate) value of type {ltype}.",
            line=line,
        )
    return value


def _write_with_plan(interp, lvalue: LValue, plan, value: CValue, line: int) -> None:
    """Replicates ``write_lvalue`` with the type facts pre-derived."""
    _size, align, _uninit, is_const, _conversion, _value_type = plan
    ltype = lvalue.type
    if is_const and interp.options.check_const:
        raise UndefinedBehaviorError(
            UBKind.CONST_VIOLATION,
            "Assignment to an lvalue with const-qualified type.",
            line=line,
        )
    pointer = lvalue.pointer
    if align > 1 and interp.options.check_memory and pointer.offset % align != 0:
        raise UndefinedBehaviorError(
            UBKind.UNALIGNED_ACCESS,
            f"Access at offset {pointer.offset} is not aligned to {align} bytes "
            f"for type {ltype}.",
            line=line,
        )
    data = encode_value(value, ltype, interp.profile)
    interp.memory.write_bytes(pointer, data, line=line, lvalue_type=ltype)


# -- identifier bindings -----------------------------------------------------
#
# ``ObjectBinding.access_plan`` memoizes, per binding, the access plan of its
# type (a tuple), the decayed pointer of an array, or _GENERIC for what the
# generic helpers handle.  A binding's lvalue is offset 0 of its object, so
# the plan's alignment check never fires on it.

_GENERIC = object()


def _binding_lvalue(binding) -> LValue:
    """The (memoized) lvalue designating an object binding."""
    lvalue = binding.cached_lvalue
    if lvalue is None:
        lvalue = LValue(
            pointer=PointerValue(
                base=binding.base, offset=0, type=ct.PointerType(pointee=binding.type)
            ),
            type=binding.type,
        )
        binding.cached_lvalue = lvalue
    return lvalue


def _binding_access_plan(binding, profile: ct.ImplementationProfile):
    plan = binding.access_plan
    if plan is None:
        btype = binding.type
        if isinstance(btype, ct.ArrayType):
            plan = PointerValue(
                base=binding.base, offset=0, type=ct.PointerType(pointee=btype.element)
            )
        else:
            plan = access_plan(btype, profile) or _GENERIC
        binding.access_plan = plan
    return plan


def _read_binding(interp, binding, line: int) -> CValue:
    """Replicates ``read_lvalue`` for a whole-object identifier lvalue."""
    plan = binding.access_plan
    if plan is None:
        plan = _binding_access_plan(binding, interp.profile)
    if plan.__class__ is tuple:
        return _read_with_plan(interp, _binding_lvalue(binding), plan, line)
    if plan is _GENERIC:
        return interp.read_lvalue(_binding_lvalue(binding), line)
    return plan  # an array decays to its cached pointer


def _write_binding(interp, binding, value: CValue, line: int) -> None:
    """Replicates ``write_lvalue`` for a whole-object identifier lvalue."""
    plan = binding.access_plan
    if plan is None:
        plan = _binding_access_plan(binding, interp.profile)
    if plan.__class__ is tuple:
        _write_with_plan(interp, _binding_lvalue(binding), plan, value, line)
    else:
        interp.write_lvalue(_binding_lvalue(binding), value, line)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


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
#: sequence point the walker performs).
_FOLDABLE_BINARY_OPS = frozenset("+ - * / % << >> & | ^ == != < > <= >=".split())

_FOLDABLE_UNARY_OPS = frozenset("+ - ~ !".split())

#: The node kinds a constant expression is made of.
_FOLDABLE_NODES = frozenset(
    (
        c_ast.IntegerLiteral,
        c_ast.CharLiteral,
        c_ast.SizeofType,
        c_ast.UnaryOp,
        c_ast.BinaryOp,
        c_ast.Cast,
    )
)


class _FoldUB(Exception):
    """A constant expression turned out undefined while folding.

    Folding must not report the error at compile time — the expression might
    be dynamically unreachable (``if (0) { int x = 1/0; }`` is a defined
    program) — so the error's identity is captured and re-raised by the
    engine if execution actually reaches the node.  ``expr`` is the
    subexpression whose own operation is undefined.
    """

    def __init__(self, error: UndefinedBehaviorError, expr: c_ast.Expression) -> None:
        self.kind = error.kind
        self.message = error.message
        self.line = error.line
        self.expr = expr
        super().__init__(error.message)


def _try_fold(expr: c_ast.Expression, folder: _FoldContext) -> Optional[IntValue]:
    """Fold ``expr`` to an :class:`IntValue`, or return None if not constant.

    Raises :class:`_FoldUB` when the expression is constant but undefined
    under the folder's options (the UB-on-fold case).
    """
    if expr.__class__ not in _FOLDABLE_NODES:
        return None  # an identifier, a call, an assignment, ...
    if isinstance(expr, c_ast.IntegerLiteral):
        return IntValue(expr.value, expr.type or ct.INT)
    if isinstance(expr, c_ast.CharLiteral):
        return IntValue(expr.value, ct.INT)
    if isinstance(expr, c_ast.SizeofType):
        try:
            return IntValue(ct.size_of(expr.type_name, folder.profile), ct.ULONG)
        except ct.LayoutError as exc:
            raise _FoldUB(
                UndefinedBehaviorError(
                    UBKind.INCOMPLETE_TYPE_OBJECT, f"sizeof: {exc}", line=expr.line
                ),
                expr,
            )
    if isinstance(expr, c_ast.UnaryOp) and expr.op in _FOLDABLE_UNARY_OPS:
        operand = _try_fold(expr.operand, folder)
        if operand is None:
            return None
        line = expr.line
        try:
            if expr.op == "!":
                truth = to_boolean(operand, folder.options, line=line)
                return IntValue(0 if truth else 1, ct.INT)
            promoted = folder._promote(operand)
            assert isinstance(promoted, IntValue)
            if expr.op == "+":
                return promoted
            if expr.op == "-":
                return folder._arith_result(-promoted.value, promoted.type, line)
            return folder._arith_result(~promoted.value, promoted.type, line)
        except UndefinedBehaviorError as error:
            raise _FoldUB(error, expr)
    if isinstance(expr, c_ast.BinaryOp) and expr.op in _FOLDABLE_BINARY_OPS:
        # An operand whose fold is undefined stands for the whole expression
        # only when the other operand is constant too: otherwise each
        # operand compiles on its own and raises at its own place in the
        # evaluation order.
        left, left_ub = _try_fold_operand(expr.left, folder)
        if left is None and left_ub is None:
            return None
        right, right_ub = _try_fold_operand(expr.right, folder)
        if right is None and right_ub is None:
            return None
        if left_ub is not None or right_ub is not None:
            if folder.options.evaluation_order == "right-to-left":
                raise right_ub or left_ub
            raise left_ub or right_ub
        try:
            result = folder.apply_binary(expr.op, left, right, expr.line)
        except UndefinedBehaviorError as error:
            raise _FoldUB(error, expr)
        except UnsupportedFeatureError:
            return None
        return result if isinstance(result, IntValue) else None
    if (
        isinstance(expr, c_ast.Cast)
        and expr.target_type is not None
        and expr.target_type.is_integer
        and not isinstance(expr.operand, c_ast.InitList)
    ):
        operand = _try_fold(expr.operand, folder)
        if operand is None:
            return None
        try:
            converted = convert(
                operand,
                expr.target_type,
                folder.options,
                line=expr.line,
                explicit=True,
                pointer_registry=folder.pointer_registry,
            )
        except UndefinedBehaviorError as error:
            raise _FoldUB(error, expr)
        return converted if isinstance(converted, IntValue) else None
    return None


def _try_fold_operand(
    expr: c_ast.Expression, folder: _FoldContext
) -> tuple[Optional[IntValue], Optional[_FoldUB]]:
    """:func:`_try_fold` of one operand: its value, or the undefined
    behavior its fold raised (both None when it is not constant)."""
    try:
        return _try_fold(expr, folder), None
    except _FoldUB as error:
        return None, error


def _fold_error_steps(
    expr: c_ast.Expression, fold_error: _FoldUB, folder: _FoldContext
) -> int:
    """Steps the walker charges for evaluating ``expr`` until ``fold_error``.

    It steps once per node it visits, operands in the evaluation order, and
    raises once the undefined operation (``fold_error.expr``) has evaluated
    its own operands: the nodes after it are never visited.
    """
    if expr is fold_error.expr:
        return _subtree_step_cost(expr)
    if isinstance(expr, c_ast.BinaryOp):
        operands = [expr.left, expr.right]
        if folder.options.evaluation_order == "right-to-left":
            operands.reverse()
    else:
        operands = [expr.operand]
    steps = 1
    for operand in operands:
        if any(node is fold_error.expr for node in c_ast.walk(operand)):
            return steps + _fold_error_steps(operand, fold_error, folder)
        steps += _subtree_step_cost(operand)
    raise AssertionError("the undefined operation lies outside its expression")


def _subtree_step_cost(expr: c_ast.Expression) -> int:
    """Steps the walker charges for evaluating a constant subtree.

    The walker steps once per node it visits, and for the foldable node
    kinds it visits every node of the subtree (no short-circuiting), so a
    folded subtree charges its node count — keeping the step accounting,
    and hence the ``max_steps`` resource verdicts, aligned across the
    engines.  (``sizeof(type)`` carries no children in the AST, so its
    count is naturally 1.)
    """
    return sum(1 for _ in c_ast.walk(expr))
