"""Statically detectable undefined behavior and constraint violations.

These checks run at "translation time", before the program is executed, and
mirror the statically detectable portion of the paper's classification
(§5.2.1: 92 of the 221 undefined behaviors are statically detectable).  They
are deliberately conservative: a check only fires when the violation is
certain from the program text, never on a heuristic, so the defined control
tests of the suites do not produce false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.parser import fold_constant
from repro.errors import StaticViolation, UBKind
from repro.sema.symtab import SymbolInfo, SymbolTable

if TYPE_CHECKING:
    from repro.cfront.prelude import Prelude

_RESERVED_PREFIXES = ("__",)

#: Names declared by our builtin headers that are allowed to use the reserved
#: namespace (they belong to the implementation, not the program under test).
_LIBRARY_INTERNAL_NAMES = frozenset({"__assert_fail"})


@dataclass
class StaticChecker:
    """Walks a translation unit and collects :class:`StaticViolation` reports."""

    profile: ct.ImplementationProfile = field(default_factory=lambda: ct.LP64)
    violations: list[StaticViolation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.symbols = SymbolTable()
        self._current_function: Optional[c_ast.FunctionDef] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self, unit: c_ast.TranslationUnit,
              prelude: Optional[Prelude] = None) -> list[StaticViolation]:
        declarations = unit.declarations
        if prelude is not None:
            skipped = len(prelude.declarations)
            if tuple(declarations[:skipped]) != prelude.declarations:
                raise ValueError("the unit does not start with the prelude's declarations")
            self.symbols.scopes[0].update(prelude.file_scope)
            declarations = declarations[skipped:]
        for declaration in declarations:
            if isinstance(declaration, c_ast.FunctionDef):
                self._check_function(declaration)
            elif isinstance(declaration, c_ast.Declaration):
                self._check_declaration(declaration, file_scope=True)
            elif isinstance(declaration, c_ast.StaticAssert):
                self._check_static_assert(declaration)
        return self.violations

    def _report(self, kind: UBKind, message: str, line: int,
                function: Optional[str] = None) -> None:
        self.violations.append(StaticViolation(
            kind=kind, message=message, line=line,
            function=function or (self._current_function.name
                                  if self._current_function else None)))

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _check_declaration(self, declaration: c_ast.Declaration, *, file_scope: bool) -> None:
        name = declaration.name
        ctype = declaration.type
        line = declaration.line
        if ctype is None:
            return
        if (name and any(name.startswith(p) for p in _RESERVED_PREFIXES)
                and not isinstance(ctype, ct.FunctionType)
                and declaration.is_definition):
            self._report(UBKind.RESERVED_IDENTIFIER,
                         f"Definition of reserved identifier '{name}'.", line)
        self._check_type(ctype, name, line)
        previous = self.symbols.lookup_innermost(name) if name else None
        if name:
            info = SymbolInfo(name=name, type=ctype, storage=declaration.storage, line=line,
                              is_function=isinstance(ctype, ct.FunctionType),
                              is_definition=declaration.is_definition)
            if previous is not None and not self._redeclaration_allowed(previous, info):
                self._report(
                    UBKind.INCOMPATIBLE_DECLARATIONS,
                    f"'{name}' redeclared with incompatible type "
                    f"({previous.type} vs {ctype}).", line)
            self.symbols.declare(info)
        if (file_scope and declaration.is_definition
                and not isinstance(ctype, ct.FunctionType)
                and not self._is_complete_object_type(ctype)
                and declaration.storage != "extern"):
            self._report(UBKind.INCOMPLETE_TYPE_OBJECT,
                         f"Object '{name}' defined with an incomplete type {ctype}.", line)
        if declaration.initializer is not None:
            self._check_expression(declaration.initializer)
            self._check_constant_initializer(declaration, ctype)

    def _redeclaration_allowed(self, previous: SymbolInfo, new: SymbolInfo) -> bool:
        if previous.is_function and new.is_function:
            return ct.types_compatible(previous.type.unqualified(), new.type.unqualified())
        if self.symbols.at_file_scope():
            # Tentative definitions of objects are allowed if types agree.
            return ct.types_compatible(previous.type.unqualified(), new.type.unqualified())
        return False

    def _is_complete_object_type(self, ctype: ct.CType) -> bool:
        if isinstance(ctype, ct.VoidType):
            return False
        if isinstance(ctype, (ct.StructType, ct.UnionType)):
            return ctype.fields is not None
        if isinstance(ctype, ct.ArrayType):
            return self._is_complete_object_type(ctype.element)
        return True

    def _check_type(self, ctype: ct.CType, name: str, line: int) -> None:
        """Structural checks on a declared type."""
        if isinstance(ctype, ct.ArrayType):
            if ctype.length is not None and ctype.length <= 0:
                self._report(
                    UBKind.ARRAY_SIZE_NOT_POSITIVE,
                    f"Array '{name}' declared with non-positive length {ctype.length} "
                    "(arrays must have length at least 1, C11 6.7.6.2).", line)
            self._check_type(ctype.element, name, line)
        elif isinstance(ctype, ct.PointerType):
            self._check_type(ctype.pointee, name, line)
        elif isinstance(ctype, ct.FunctionType):
            if ctype.const or ctype.volatile:
                self._report(
                    UBKind.QUALIFIED_FUNCTION_TYPE,
                    f"Function type of '{name}' includes type qualifiers (C11 6.7.3:9).", line)
            if ctype.return_type.const or ctype.return_type.volatile:
                # Qualified return types are merely useless, not undefined.
                pass
            self._check_type(ctype.return_type, name, line)
            for parameter in ctype.parameters:
                self._check_type(parameter, name, line)

    def _check_constant_initializer(self, declaration: c_ast.Declaration,
                                    ctype: ct.CType) -> None:
        if not ctype.is_integer or declaration.initializer is None:
            return
        if isinstance(declaration.initializer, c_ast.InitList):
            return
        value = fold_constant(declaration.initializer, self.profile)
        if value is None:
            return
        if not ct.fits_in(value, ctype, self.profile) and ct.is_signed_type(ctype, self.profile):
            # Out-of-range conversion is implementation-defined, not undefined;
            # only report overflow *within* the constant expression itself,
            # which fold_constant cannot distinguish — so stay silent here.
            return

    def _check_static_assert(self, assertion: c_ast.StaticAssert) -> None:
        if assertion.condition is None:
            return
        value = fold_constant(assertion.condition, self.profile)
        if value == 0:
            self._report(UBKind.INCOMPATIBLE_DECLARATIONS,
                         f"_Static_assert failed: {assertion.message or 'condition is false'}",
                         assertion.line)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def _check_function(self, function: c_ast.FunctionDef) -> None:
        self._current_function = function
        assert isinstance(function.type, ct.FunctionType)
        line = function.line
        if function.name == "main":
            self._check_main_signature(function)
        if (any(function.name.startswith(p) for p in _RESERVED_PREFIXES)
                and function.name not in _LIBRARY_INTERNAL_NAMES):
            self._report(UBKind.RESERVED_IDENTIFIER,
                         f"Definition of reserved identifier '{function.name}'.", line)
        previous = self.symbols.lookup_innermost(function.name)
        info = SymbolInfo(name=function.name, type=function.type, line=line, is_function=True)
        if previous is not None and previous.is_function and not ct.types_compatible(
                previous.type.unqualified(), function.type.unqualified()):
            self._report(UBKind.INCOMPATIBLE_DECLARATIONS,
                         f"Function '{function.name}' redeclared with an incompatible type.",
                         line)
        self.symbols.declare(info)
        self.symbols.push()
        for index, parameter_type in enumerate(function.type.parameters):
            if index < len(function.parameter_names) and function.parameter_names[index]:
                self.symbols.declare(SymbolInfo(
                    name=function.parameter_names[index], type=parameter_type, line=line))
        self._check_labels(function)
        if function.body is not None:
            self._check_statement(function.body, function.type.return_type)
        self.symbols.pop()
        self._current_function = None

    def _check_main_signature(self, function: c_ast.FunctionDef) -> None:
        assert isinstance(function.type, ct.FunctionType)
        return_type = function.type.return_type
        parameters = function.type.parameters
        ok_return = isinstance(return_type, ct.IntType) and return_type.kind == "int"
        ok_params = len(parameters) in (0, 2)
        if len(parameters) == 2:
            first, second = parameters
            ok_params = (first.unqualified().is_integer
                         and isinstance(second, ct.PointerType))
        if not (ok_return and ok_params):
            self._report(UBKind.MAIN_BAD_SIGNATURE,
                         "main is declared with a signature different from "
                         "'int main(void)' or 'int main(int, char**)'.", function.line)

    def _check_labels(self, function: c_ast.FunctionDef) -> None:
        if function.body is None:
            return
        labels: dict[str, int] = {}
        gotos: list[c_ast.Goto] = []
        for node in c_ast.walk(function.body):
            if isinstance(node, c_ast.Label):
                if node.name in labels:
                    self._report(UBKind.DUPLICATE_LABEL,
                                 f"Duplicate label '{node.name}' in function "
                                 f"'{function.name}'.", node.line)
                labels[node.name] = node.line
            elif isinstance(node, c_ast.Goto):
                gotos.append(node)
        for goto in gotos:
            if goto.label not in labels:
                self._report(UBKind.DUPLICATE_LABEL,
                             f"goto to undefined label '{goto.label}'.", goto.line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _check_statement(self, stmt: c_ast.Node, return_type: ct.CType) -> None:
        if isinstance(stmt, c_ast.Compound):
            self.symbols.push()
            for item in stmt.items:
                if isinstance(item, c_ast.Declaration):
                    self._check_declaration(item, file_scope=False)
                elif isinstance(item, c_ast.StaticAssert):
                    self._check_static_assert(item)
                else:
                    self._check_statement(item, return_type)
            self.symbols.pop()
            return
        if isinstance(stmt, c_ast.Return):
            if stmt.value is not None and return_type.is_void:
                self._report(UBKind.VOID_RETURN_WITH_VALUE,
                             "return with an expression in a function returning void.",
                             stmt.line)
            if stmt.value is not None:
                self._check_expression(stmt.value)
            return
        if isinstance(stmt, c_ast.ExpressionStmt):
            if stmt.expression is not None:
                self._check_expression(stmt.expression)
            return
        if isinstance(stmt, c_ast.If):
            self._check_expression(stmt.condition)
            if stmt.then is not None:
                self._check_statement(stmt.then, return_type)
            if stmt.otherwise is not None:
                self._check_statement(stmt.otherwise, return_type)
            return
        if isinstance(stmt, (c_ast.While, c_ast.DoWhile)):
            if stmt.condition is not None:
                self._check_expression(stmt.condition)
            if stmt.body is not None:
                self._check_statement(stmt.body, return_type)
            return
        if isinstance(stmt, c_ast.For):
            self.symbols.push()
            if isinstance(stmt.init, list):
                for declaration in stmt.init:
                    if isinstance(declaration, c_ast.Declaration):
                        self._check_declaration(declaration, file_scope=False)
            elif isinstance(stmt.init, c_ast.Declaration):
                self._check_declaration(stmt.init, file_scope=False)
            elif isinstance(stmt.init, c_ast.Expression):
                self._check_expression(stmt.init)
            if stmt.condition is not None:
                self._check_expression(stmt.condition)
            if stmt.step is not None:
                self._check_expression(stmt.step)
            if stmt.body is not None:
                self._check_statement(stmt.body, return_type)
            self.symbols.pop()
            return
        if isinstance(stmt, c_ast.Switch):
            self._check_expression(stmt.expression)
            if stmt.body is not None:
                self._check_statement(stmt.body, return_type)
            return
        if isinstance(stmt, (c_ast.Case, c_ast.Default, c_ast.Label)):
            inner = getattr(stmt, "statement", None)
            if isinstance(stmt, c_ast.Case) and stmt.expression is not None:
                self._check_expression(stmt.expression)
            if inner is not None:
                self._check_statement(inner, return_type)
            return
        # Break/Continue/Goto need no expression-level checking here.

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _check_expression(self, expr: c_ast.Expression) -> None:
        for node in c_ast.walk(expr):
            if isinstance(node, c_ast.BinaryOp):
                self._check_binary(node)
            elif isinstance(node, c_ast.Assignment):
                self._check_assignment(node)
            elif isinstance(node, c_ast.Cast):
                self._check_cast(node)
            elif isinstance(node, c_ast.ArraySubscript):
                self._check_subscript(node)
            elif isinstance(node, c_ast.UnaryOp) and node.op in ("++pre", "--pre",
                                                                 "++post", "--post"):
                self._check_modification_target(node.operand, node.line)

    def _check_binary(self, node: c_ast.BinaryOp) -> None:
        if node.op in ("/", "%") and node.right is not None:
            divisor = fold_constant(node.right, self.profile)
            if divisor == 0:
                self._report(UBKind.DIVISION_BY_ZERO,
                             "Division or modulus by a constant zero.", node.line)
        if node.op in ("<<", ">>") and node.right is not None and node.left is not None:
            amount = fold_constant(node.right, self.profile)
            if amount is not None:
                left_type = self._expression_type(node.left)
                width = ct.integer_bits(left_type, self.profile) if left_type.is_integer else 32
                width = max(width, ct.integer_bits(ct.INT, self.profile))
                if amount < 0 or amount >= width:
                    self._report(UBKind.SHIFT_TOO_FAR,
                                 f"Shift by constant {amount} is negative or >= the width "
                                 f"of the promoted type ({width} bits).", node.line)
        if node.op in ("+", "-", "*") and node.left is not None and node.right is not None:
            value = fold_constant(node, self.profile)
            left_value = fold_constant(node.left, self.profile)
            right_value = fold_constant(node.right, self.profile)
            if value is not None and left_value is not None and right_value is not None:
                result_type = self._constant_expression_type(node)
                if (result_type.is_integer and ct.is_signed_type(result_type, self.profile)
                        and ct.fits_in(left_value, result_type, self.profile)
                        and ct.fits_in(right_value, result_type, self.profile)
                        and not ct.fits_in(value, result_type, self.profile)):
                    self._report(UBKind.SIGNED_OVERFLOW,
                                 "Signed integer overflow in a constant expression.", node.line)

    def _check_assignment(self, node: c_ast.Assignment) -> None:
        self._check_modification_target(node.target, node.line)

    def _check_modification_target(self, target: Optional[c_ast.Expression], line: int) -> None:
        if target is None:
            return
        target_type = self._expression_type(target)
        if target_type.const:
            self._report(UBKind.CONST_VIOLATION,
                         "Modification of an lvalue with const-qualified type.", line)

    def _check_cast(self, node: c_ast.Cast) -> None:
        if node.target_type is None or node.operand is None:
            return
        operand_type = self._expression_type(node.operand)
        if operand_type.is_void and not node.target_type.is_void:
            self._report(UBKind.VOID_VALUE_USED,
                         "A void expression is converted to a non-void type "
                         "(its nonexistent value is used).", node.line)

    def _check_subscript(self, node: c_ast.ArraySubscript) -> None:
        if node.array is None or node.index is None:
            return
        index = fold_constant(node.index, self.profile)
        if index is None:
            return
        array_type = self._expression_type(node.array)
        if isinstance(array_type, ct.ArrayType) and array_type.length is not None:
            if index < 0 or index >= array_type.length:
                # x[N] for an array of length N is only valid in address-of
                # context; as a conservative static check we flag strictly
                # negative indices and indices beyond one-past-the-end.
                if index < 0 or index > array_type.length:
                    self._report(
                        UBKind.NEGATIVE_ARRAY_INDEX_CONSTANT,
                        f"Constant index {index} is outside array of length "
                        f"{array_type.length}.", node.line)

    # ------------------------------------------------------------------
    # Lightweight expression typing
    # ------------------------------------------------------------------
    def _expression_type(self, expr: c_ast.Expression) -> ct.CType:
        if isinstance(expr, c_ast.IntegerLiteral):
            return expr.type or ct.INT
        if isinstance(expr, c_ast.FloatLiteral):
            return expr.type or ct.DOUBLE
        if isinstance(expr, c_ast.CharLiteral):
            return ct.INT
        if isinstance(expr, c_ast.StringLiteral):
            return ct.ArrayType(element=ct.CHAR, length=len(expr.value) + 1)
        if isinstance(expr, c_ast.Identifier):
            info = self.symbols.lookup(expr.name)
            return info.type if info is not None else ct.INT
        if isinstance(expr, c_ast.UnaryOp):
            if expr.op == "&":
                return ct.PointerType(pointee=self._expression_type(expr.operand))
            if expr.op == "*":
                inner = ct.decay(self._expression_type(expr.operand))
                if isinstance(inner, ct.PointerType):
                    return inner.pointee
                return ct.INT
            if expr.op == "sizeof":
                return ct.ULONG
            return self._expression_type(expr.operand) if expr.operand is not None else ct.INT
        if isinstance(expr, c_ast.SizeofType):
            return ct.ULONG
        if isinstance(expr, c_ast.Cast):
            return expr.target_type or ct.INT
        if isinstance(expr, c_ast.Call):
            callee_type = self._expression_type(expr.function) if expr.function else ct.INT
            if isinstance(callee_type, ct.PointerType):
                callee_type = callee_type.pointee
            if isinstance(callee_type, ct.FunctionType):
                return callee_type.return_type
            return ct.INT
        if isinstance(expr, c_ast.ArraySubscript):
            array_type = self._expression_type(expr.array) if expr.array else ct.INT
            if isinstance(array_type, ct.ArrayType):
                return array_type.element
            if isinstance(array_type, ct.PointerType):
                return array_type.pointee
            return ct.INT
        if isinstance(expr, c_ast.Member):
            record = self._expression_type(expr.object) if expr.object else ct.INT
            if expr.arrow and isinstance(record, ct.PointerType):
                record = record.pointee
            if isinstance(record, (ct.StructType, ct.UnionType)):
                member = record.field_named(expr.member)
                if member is not None:
                    member_type = member.type
                    if record.const:
                        member_type = member_type.with_qualifiers(const=True)
                    return member_type
            return ct.INT
        if isinstance(expr, c_ast.Assignment):
            return self._expression_type(expr.target) if expr.target else ct.INT
        if isinstance(expr, c_ast.Conditional):
            return self._expression_type(expr.then) if expr.then else ct.INT
        if isinstance(expr, c_ast.Comma):
            return self._expression_type(expr.right) if expr.right else ct.INT
        if isinstance(expr, c_ast.BinaryOp):
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return ct.INT
            left = self._expression_type(expr.left) if expr.left else ct.INT
            right = self._expression_type(expr.right) if expr.right else ct.INT
            left, right = ct.decay(left), ct.decay(right)
            if isinstance(left, ct.PointerType):
                return left
            if isinstance(right, ct.PointerType):
                return right
            if left.is_arithmetic and right.is_arithmetic:
                return ct.usual_arithmetic_conversions(left, right, self.profile)
            return ct.INT
        return ct.INT

    def _constant_expression_type(self, expr: c_ast.BinaryOp) -> ct.CType:
        left = self._expression_type(expr.left) if expr.left else ct.INT
        right = self._expression_type(expr.right) if expr.right else ct.INT
        if left.is_arithmetic and right.is_arithmetic:
            return ct.usual_arithmetic_conversions(left, right, self.profile)
        return ct.INT


def check_translation_unit(unit: c_ast.TranslationUnit,
                           profile: ct.ImplementationProfile = ct.LP64,
                           prelude: Optional[Prelude] = None) -> list[StaticViolation]:
    """Run all static checks on a parsed translation unit.

    A unit parsed from ``prelude`` (:func:`repro.cfront.parser.parse_unit`)
    starts with the prelude's declarations: they are skipped, and the
    checks start from a copy of the file scope the prelude recorded for them.
    """
    return StaticChecker(profile=profile).check(unit, prelude)
