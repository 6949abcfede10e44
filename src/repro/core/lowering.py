"""Lowering pass: compile the AST once into a closure tree (``engine="lowered"``).

The legacy dynamic stage (:mod:`repro.core.eval_expr` /
:mod:`repro.core.eval_stmt`) re-dispatches on every AST node at every step:
``getattr(self, f"_eval_{type(expr).__name__}")`` plus ``isinstance`` chains,
repeated for every loop iteration of the checked program.  This module removes
that overhead the way pre-compiled monitor representations do in runtime
verification: each node is resolved **once**, at compile time, into a Python
closure, and the closures call each other directly.  Only
``engine="lowered"`` runs the closures; the compiled engine falls back to the
walker.

What is resolved at lowering time:

* **node-kind dispatch** — one dict lookup per node at lowering time
  (``_EXPR_LOWERERS`` / ``_STMT_LOWERERS`` dispatch tables) instead of an
  f-string + ``getattr`` per node per execution;
* **constant folding** — pure integer constant subexpressions are evaluated
  once by :func:`repro.core.plans._try_fold`, through the *same* arithmetic
  rules as the runtime, so a UB hit during folding (``INT_MAX + 1``,
  ``1/0``, an overflowing constant cast) becomes a closure that raises the
  identical catalogued error if and when the expression is actually reached;
* **operation plans** — integer arithmetic, conversions and scalar accesses
  use the plans of :mod:`repro.core.plans`, derived once per site and
  operand types; the closures box the raw results;
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
from repro.core.plans import (
    _binding_access_plan,
    _binding_lvalue,
    _FoldContext,
    _FoldUB,
    _fold_error_steps,
    _read_binding,
    _read_with_plan,
    _subtree_step_cost,
    _try_fold,
    _write_binding,
    _write_with_plan,
    access_plan,
    raw_binary_plan,
)
from repro.core.values import (
    CValue,
    FloatValue,
    IntValue,
    PointerValue,
    StructValue,
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


class _BinaryPlanCache:
    """One binary site's ``apply_binary``: through the raw plan of the
    operand types (cached per type pair) when both are plain integers."""

    __slots__ = ("op", "options", "line", "plans")

    def __init__(self, op: str, options: CheckerOptions, line: int) -> None:
        self.op = op
        self.options = options
        self.line = line
        self.plans: dict = {}

    def apply(self, interp, left: CValue, right: CValue) -> CValue:
        if type(left) is IntValue and type(right) is IntValue:
            key = (left.type, right.type)
            plans = self.plans
            if key in plans:
                planned = plans[key]
            else:
                planned = plans[key] = raw_binary_plan(
                    self.op, left.type, right.type, self.options, self.line)
            if planned is not None:
                plan, result_type = planned
                return IntValue(plan(left.value, right.value), result_type)
        return interp.apply_binary(self.op, left, right, self.line)


class _AccessPlanCache:
    """Per-site cache of :func:`access_plan`, keyed by lvalue type (within
    one translation unit a tag means one record type)."""

    __slots__ = ("plans",)

    def __init__(self) -> None:
        self.plans: dict = {}

    def plan_for(self, ltype: ct.CType, profile: ct.ImplementationProfile):
        plans = self.plans
        if ltype in plans:
            return plans[ltype]
        plan = plans[ltype] = access_plan(ltype, profile)
        return plan


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
        folded = _try_fold(expr, L.folder)
    except _FoldUB as fold_error:
        return _lower_fold_error(expr, fold_error, L)
    if folded is not None:
        return _lower_constant(expr, folded, L)
    lowerer = _EXPR_LOWERERS.get(type(expr))
    if lowerer is None:
        return _lower_unsupported_expr(expr, L)
    return lowerer(expr, L)


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
    step_cost = _fold_error_steps(expr, fold_error, L.folder)
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
                if access.__class__ is tuple and access[4] is not None \
                        and not isinstance(old, (PointerValue, FloatValue)):
                    old_int = interp._require_arithmetic(old, line, "operand of ++/--")
                    promoted = interp._promote(old_int)
                    assert isinstance(promoted, IntValue)
                    result = interp._arith_result(promoted.value + delta,
                                                  promoted.type, line)
                    # The plan conversion is idempotent, so one application
                    # equals the walker's convert-then-convert.
                    converted_new: CValue = IntValue(access[4](result.value),
                                                     access[5])
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
        return plan_cache.apply(interp, left, right)
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
                if type(value) is IntValue and plan.__class__ is tuple \
                        and plan[4] is not None:
                    converted: CValue = IntValue(plan[4](value.value), plan[5])
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
                converted: CValue = IntValue(plan[4](value.value), plan[5])
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
            result = plan_cache.apply(interp, old, rhs)
            if isinstance(result, PointerValue):
                converted: CValue = result
            else:
                access = binding.access_plan
                if type(result) is IntValue and access.__class__ is tuple \
                        and access[4] is not None:
                    converted = IntValue(access[4](result.value), access[5])
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
        result = plan_cache.apply(interp, old, rhs)
        if isinstance(result, PointerValue):
            converted = result
        elif type(result) is IntValue and access is not None \
                and access[4] is not None:
            converted = IntValue(access[4](result.value), access[5])
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
    """Lower each item once; a label's statement and a nested block serve
    both as the item's thunk and as its ``goto`` seek target."""
    items: list[tuple[c_ast.Node, StmtThunk, object]] = []
    for item in block.items:
        extra: object = None
        if isinstance(item, c_ast.Label):
            if item.statement is not None:
                extra = lower_stmt(item.statement, L)
            thunk = _label_thunk(item, extra, L)
        elif isinstance(item, c_ast.Compound):
            extra = lower_block(item, L)
            thunk = _compound_thunk(item, extra, L)
        else:
            thunk = lower_stmt(item, L)
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
    inner_run = lower_stmt(stmt.statement, L) if stmt.statement is not None else None
    return _label_thunk(stmt, inner_run, L)


def _label_thunk(stmt: c_ast.Label, inner_run: Optional[StmtThunk],
                 L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps

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
    return _compound_thunk(stmt, lower_block(stmt, L), L)


def _compound_thunk(stmt: c_ast.Compound, block: LoweredBlock,
                    L: LoweringContext) -> StmtThunk:
    line = stmt.line
    max_steps = L.max_steps

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
