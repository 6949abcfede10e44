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
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.parser import fold_binary, fold_cast, fold_constant, fold_sizeof, fold_unary
from repro.errors import StaticViolation, UBKind
from repro.sema.symtab import SymbolInfo, SymbolTable

if TYPE_CHECKING:
    from repro.cfront.prelude import Prelude

_RESERVED_PREFIXES = ("__",)

#: Names declared by our builtin headers that are allowed to use the reserved
#: namespace (they belong to the implementation, not the program under test).
_LIBRARY_INTERNAL_NAMES = frozenset({"__assert_fail"})

#: Binary operators whose result has type ``int`` whatever their operands.
_INT_RESULT_OPERATORS = frozenset({"==", "!=", "<", ">", "<=", ">=", "&&", "||"})
_INCREMENTS = frozenset({"++pre", "--pre", "++post", "--post"})

#: What ``StaticChecker._expression`` returns: the value the expression folds
#: to (``fold_constant``'s), and its type, or None where it was not needed.
Facts = tuple[Optional[int], Optional[ct.CType]]


@dataclass
class StaticChecker:
    """Walks a translation unit and collects :class:`StaticViolation` reports.

    Each function body is checked in one recursive pass that dispatches on
    the node type (expressions through ``_EXPRESSIONS``).  The pass collects
    the function's labels and gotos on its way, and each expression hands
    its parent the value it folds to and, when the parent asks for it or
    the value folds, its type: nothing is folded or typed twice.  The
    violations come out in the order of a preorder walk of the tree.
    """

    profile: ct.ImplementationProfile = field(default_factory=lambda: ct.LP64)
    violations: list[StaticViolation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.symbols = SymbolTable()
        self._current_function: Optional[c_ast.FunctionDef] = None
        # The current function's label names, the labels that repeat one,
        # and its gotos, in the order of the pass.
        self._labels: set[str] = set()
        self._duplicate_labels: list[c_ast.Label] = []
        self._gotos: list[c_ast.Goto] = []
        # False inside the operand of ``sizeof``, which is not evaluated
        # (C11 6.5.3.4:2): no division, shift, overflow or index check fires
        # there, while the constraint checks still do.
        self._evaluated = True

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
                at: Optional[int] = None) -> None:
        """Report a violation, at index ``at`` of the list if given: a node
        reports ahead of the violations its operands reported after ``at``."""
        violation = StaticViolation(
            kind=kind, message=message, line=line,
            function=self._current_function.name if self._current_function else None)
        if at is None:
            self.violations.append(violation)
        else:
            self.violations.insert(at, violation)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _check_declaration(self, declaration: c_ast.Declaration, *, file_scope: bool) -> None:
        name = declaration.name
        ctype = declaration.type
        line = declaration.line
        if ctype is None:
            return
        if (name and name.startswith(_RESERVED_PREFIXES)
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
            self._expression(declaration.initializer)

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
            # A qualified return type is merely useless, not undefined.
            self._check_type(ctype.return_type, name, line)
            for parameter in ctype.parameters:
                self._check_type(parameter, name, line)

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
        if (function.name.startswith(_RESERVED_PREFIXES)
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
        if function.body is not None:
            self._labels, self._duplicate_labels, self._gotos = set(), [], []
            start = len(self.violations)
            self._check_statement(function.body)
            self._report_labels(function, start)
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

    def _report_labels(self, function: c_ast.FunctionDef, start: int) -> None:
        """Report the body's repeated labels, then its gotos to no label, ahead
        of the violations the pass over the body reported from ``start``."""
        body = self.violations[start:]
        del self.violations[start:]
        for label in self._duplicate_labels:
            self._report(UBKind.DUPLICATE_LABEL,
                         f"Duplicate label '{label.name}' in function "
                         f"'{function.name}'.", label.line)
        for goto in self._gotos:
            if goto.label not in self._labels:
                self._report(UBKind.DUPLICATE_LABEL,
                             f"goto to undefined label '{goto.label}'.", goto.line)
        self.violations.extend(body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _check_statement(self, stmt: c_ast.Node) -> None:
        if isinstance(stmt, c_ast.Compound):
            self.symbols.push()
            for item in stmt.items:
                if isinstance(item, c_ast.Declaration):
                    self._check_declaration(item, file_scope=False)
                elif isinstance(item, c_ast.StaticAssert):
                    self._check_static_assert(item)
                else:
                    self._check_statement(item)
            self.symbols.pop()
        elif isinstance(stmt, c_ast.ExpressionStmt):
            if stmt.expression is not None:
                self._expression(stmt.expression)
        elif isinstance(stmt, c_ast.Return):
            if stmt.value is not None:
                assert self._current_function is not None
                if self._current_function.type.return_type.is_void:
                    self._report(UBKind.VOID_RETURN_WITH_VALUE,
                                 "return with an expression in a function returning void.",
                                 stmt.line)
                self._expression(stmt.value)
        elif isinstance(stmt, c_ast.If):
            self._expression(stmt.condition)
            if stmt.then is not None:
                self._check_statement(stmt.then)
            if stmt.otherwise is not None:
                self._check_statement(stmt.otherwise)
        elif isinstance(stmt, (c_ast.While, c_ast.DoWhile)):
            # A do-while's condition too is checked before its body.
            if stmt.condition is not None:
                self._expression(stmt.condition)
            if stmt.body is not None:
                self._check_statement(stmt.body)
        elif isinstance(stmt, c_ast.For):
            self.symbols.push()
            if isinstance(stmt.init, list):
                for declaration in stmt.init:
                    if isinstance(declaration, c_ast.Declaration):
                        self._check_declaration(declaration, file_scope=False)
            elif isinstance(stmt.init, c_ast.Declaration):
                self._check_declaration(stmt.init, file_scope=False)
            elif isinstance(stmt.init, c_ast.Expression):
                self._expression(stmt.init)
            if stmt.condition is not None:
                self._expression(stmt.condition)
            if stmt.step is not None:
                self._expression(stmt.step)
            if stmt.body is not None:
                self._check_statement(stmt.body)
            self.symbols.pop()
        elif isinstance(stmt, c_ast.Switch):
            self._expression(stmt.expression)
            if stmt.body is not None:
                self._check_statement(stmt.body)
        elif isinstance(stmt, (c_ast.Case, c_ast.Default, c_ast.Label)):
            if isinstance(stmt, c_ast.Case) and stmt.expression is not None:
                self._expression(stmt.expression)
            elif isinstance(stmt, c_ast.Label):
                if stmt.name in self._labels:
                    self._duplicate_labels.append(stmt)
                self._labels.add(stmt.name)
            if stmt.statement is not None:
                self._check_statement(stmt.statement)
        elif isinstance(stmt, c_ast.Goto):
            self._gotos.append(stmt)
        # Break and continue hold nothing to check.

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expression(self, expr: Optional[c_ast.Expression], typed: bool = False) -> Facts:
        """Check ``expr`` and its operands.  Returns its :data:`Facts`: the
        type is there when ``typed`` is set or the value folds."""
        rule = self._EXPRESSIONS.get(type(expr))
        if rule is None:
            return None, ct.INT
        return rule(self, expr, typed)

    def _integer_literal(self, expr: c_ast.IntegerLiteral, typed: bool) -> Facts:
        return expr.value, expr.type or ct.INT

    def _float_literal(self, expr: c_ast.FloatLiteral, typed: bool) -> Facts:
        return None, expr.type or ct.DOUBLE

    def _char_literal(self, expr: c_ast.CharLiteral, typed: bool) -> Facts:
        return expr.value, ct.INT

    def _string_literal(self, expr: c_ast.StringLiteral, typed: bool) -> Facts:
        if not typed:
            return None, None
        return None, ct.ArrayType(element=ct.CHAR, length=len(expr.value) + 1)

    def _identifier(self, expr: c_ast.Identifier, typed: bool) -> Facts:
        if not typed:
            return None, None
        info = self.symbols.lookup(expr.name)
        return None, info.type if info is not None else ct.INT

    def _sizeof_type(self, expr: c_ast.SizeofType, typed: bool) -> Facts:
        if expr.type_name is None:
            return None, ct.ULONG
        return fold_sizeof(expr.type_name, self.profile), ct.ULONG

    def _unary(self, expr: c_ast.UnaryOp, typed: bool) -> Facts:
        op = expr.op
        if op == "sizeof":
            evaluated, self._evaluated = self._evaluated, False
            self._expression(expr.operand)
            self._evaluated = evaluated
            return None, ct.ULONG
        mark = len(self.violations)
        increment = op in _INCREMENTS
        value, operand_type = self._expression(expr.operand, typed or increment)
        if increment:
            self._check_modification_target(operand_type, expr.line, mark)
        if value is not None:
            value = fold_unary(op, value)
        if not typed and value is None:
            return None, None
        if op == "&":
            return value, ct.PointerType(pointee=operand_type)
        if op == "*":
            inner = ct.decay(operand_type)
            return value, inner.pointee if isinstance(inner, ct.PointerType) else ct.INT
        return value, operand_type

    def _binary(self, expr: c_ast.BinaryOp, typed: bool) -> Facts:
        mark = len(self.violations)
        op = expr.op
        int_result = op in _INT_RESULT_OPERATORS
        shift = op == "<<" or op == ">>"
        left, left_type = self._expression(expr.left, shift or (typed and not int_result))
        right, right_type = self._expression(expr.right, typed and not int_result)
        value = None if left is None or right is None else fold_binary(op, left, right)
        if self._evaluated:
            if (op == "/" or op == "%") and right == 0:
                self._report(UBKind.DIVISION_BY_ZERO,
                             "Division or modulus by a constant zero.", expr.line, mark)
            elif shift and right is not None and expr.left is not None:
                assert left_type is not None
                width = ct.integer_bits(left_type, self.profile) if left_type.is_integer else 32
                width = max(width, ct.integer_bits(ct.INT, self.profile))
                if right < 0 or right >= width:
                    self._report(UBKind.SHIFT_TOO_FAR,
                                 f"Shift by constant {right} is negative or >= the width "
                                 f"of the promoted type ({width} bits).", expr.line, mark)
            elif (op == "+" or op == "-" or op == "*") and value is not None:
                self._check_overflow(value, left, right, left_type, right_type,
                                     expr.line, mark)
        if not typed and value is None:
            return None, None
        if int_result:
            return value, ct.INT
        left_type, right_type = ct.decay(left_type), ct.decay(right_type)
        if isinstance(left_type, ct.PointerType):
            return value, left_type
        if isinstance(right_type, ct.PointerType):
            return value, right_type
        if left_type.is_arithmetic and right_type.is_arithmetic:
            return value, ct.usual_arithmetic_conversions(left_type, right_type, self.profile)
        return value, ct.INT

    def _check_overflow(self, value: int, left: int, right: int, left_type: ct.CType,
                        right_type: ct.CType, line: int, mark: int) -> None:
        """Signed overflow in a constant ``+``, ``-`` or ``*`` whose operands
        fit the type of the operation."""
        if left_type.is_arithmetic and right_type.is_arithmetic:
            result_type = ct.usual_arithmetic_conversions(left_type, right_type, self.profile)
        else:
            result_type = ct.INT
        if (result_type.is_integer and ct.is_signed_type(result_type, self.profile)
                and ct.fits_in(left, result_type, self.profile)
                and ct.fits_in(right, result_type, self.profile)
                and not ct.fits_in(value, result_type, self.profile)):
            self._report(UBKind.SIGNED_OVERFLOW,
                         "Signed integer overflow in a constant expression.", line, mark)

    def _assignment(self, expr: c_ast.Assignment, typed: bool) -> Facts:
        mark = len(self.violations)
        target_type = self._expression(expr.target, True)[1]
        self._expression(expr.value)
        self._check_modification_target(target_type, expr.line, mark)
        return None, target_type

    def _check_modification_target(self, target_type: ct.CType, line: int, mark: int) -> None:
        if target_type.const:
            self._report(UBKind.CONST_VIOLATION,
                         "Modification of an lvalue with const-qualified type.", line, mark)

    def _conditional(self, expr: c_ast.Conditional, typed: bool) -> Facts:
        condition = self._expression(expr.condition)[0]
        # A folded condition folds the whole by its branch, typed as ``then``.
        then, then_type = self._expression(expr.then, typed or condition is not None)
        otherwise = self._expression(expr.otherwise)[0]
        if condition is None:
            return None, then_type
        return (then if condition else otherwise), then_type

    def _comma(self, expr: c_ast.Comma, typed: bool) -> Facts:
        self._expression(expr.left)
        return None, self._expression(expr.right, typed)[1]

    def _cast(self, expr: c_ast.Cast, typed: bool) -> Facts:
        mark = len(self.violations)
        value, operand_type = self._expression(expr.operand, True)
        target_type = expr.target_type
        if target_type is None or expr.operand is None:
            return None, target_type or ct.INT
        assert operand_type is not None
        if operand_type.is_void and not target_type.is_void:
            self._report(UBKind.VOID_VALUE_USED,
                         "A void expression is converted to a non-void type "
                         "(its nonexistent value is used).", expr.line, mark)
        if value is not None:
            value = fold_cast(target_type, value, self.profile)
        return value, target_type

    def _call(self, expr: c_ast.Call, typed: bool) -> Facts:
        callee = self._expression(expr.function, typed)[1]
        for argument in expr.arguments:
            self._expression(argument)
        if not typed:
            return None, None
        if isinstance(callee, ct.PointerType):
            callee = callee.pointee
        return None, callee.return_type if isinstance(callee, ct.FunctionType) else ct.INT

    def _subscript(self, expr: c_ast.ArraySubscript, typed: bool) -> Facts:
        mark = len(self.violations)
        array_type = self._expression(expr.array, True)[1]
        index = self._expression(expr.index)[0]
        if (self._evaluated and index is not None and expr.array is not None
                and isinstance(array_type, ct.ArrayType) and array_type.length is not None
                # x[N] for an array of length N is only valid in address-of
                # context; as a conservative static check we flag strictly
                # negative indices and indices beyond one-past-the-end.
                and (index < 0 or index > array_type.length)):
            self._report(
                UBKind.NEGATIVE_ARRAY_INDEX_CONSTANT,
                f"Constant index {index} is outside array of length "
                f"{array_type.length}.", expr.line, mark)
        if not typed:
            return None, None
        if isinstance(array_type, ct.ArrayType):
            return None, array_type.element
        if isinstance(array_type, ct.PointerType):
            return None, array_type.pointee
        return None, ct.INT

    def _member(self, expr: c_ast.Member, typed: bool) -> Facts:
        record = self._expression(expr.object, typed)[1]
        if not typed:
            return None, None
        if expr.arrow and isinstance(record, ct.PointerType):
            record = record.pointee
        if isinstance(record, (ct.StructType, ct.UnionType)):
            member = record.field_named(expr.member)
            if member is not None:
                if record.const:
                    return None, member.type.with_qualifiers(const=True)
                return None, member.type
        return None, ct.INT

    def _init_list(self, expr: c_ast.InitList, typed: bool) -> Facts:
        for item in expr.items:
            self._expression(item)
        return None, ct.INT

    _EXPRESSIONS: ClassVar[dict[type, Callable[[StaticChecker, Any, bool], Facts]]] = {
        c_ast.IntegerLiteral: _integer_literal, c_ast.FloatLiteral: _float_literal,
        c_ast.CharLiteral: _char_literal, c_ast.StringLiteral: _string_literal,
        c_ast.Identifier: _identifier, c_ast.SizeofType: _sizeof_type,
        c_ast.UnaryOp: _unary, c_ast.BinaryOp: _binary, c_ast.Assignment: _assignment,
        c_ast.Conditional: _conditional, c_ast.Comma: _comma, c_ast.Cast: _cast,
        c_ast.Call: _call, c_ast.ArraySubscript: _subscript, c_ast.Member: _member,
        c_ast.InitList: _init_list,
    }


def check_translation_unit(unit: c_ast.TranslationUnit,
                           profile: ct.ImplementationProfile = ct.LP64,
                           prelude: Optional[Prelude] = None) -> list[StaticViolation]:
    """Run all static checks on a parsed translation unit.

    A unit parsed from ``prelude`` (:func:`repro.cfront.parser.parse_unit`)
    starts with the prelude's declarations: they are skipped, and the
    checks start from a copy of the file scope the prelude recorded for them.
    """
    return StaticChecker(profile=profile).check(unit, prelude)
