"""AST pretty-printer: render a parsed translation unit back to C source.

The fuzzing subsystem (:mod:`repro.fuzz`) leans on this module twice over:
the delta-debugging reducer edits ASTs and re-renders them between shrink
steps, and the generator's output is pinned by a *round-trip guarantee* —
for every generated program, ``parse(to_c_source(parse(src)))`` reproduces
the same AST (up to source positions; see :func:`ast_equivalent`).  The
guarantee is held by ``tests/cfront/test_printer.py``.

Two printing caveats, both consequences of what the parser itself erases:

* ``(parenthesized)`` expressions do not exist in the AST — the printer
  re-derives parentheses from operator precedence, so the rendered text can
  differ from the original spelling while parsing to the identical tree;
* typedef names are resolved away during parsing, so rendered declarations
  spell the underlying type; struct/union/enum *definitions* are re-emitted
  inline at the first declaration that mentions the tag.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.parser import BINARY_PRECEDENCE


class PrinterError(ValueError):
    """Raised for AST shapes the printer cannot render faithfully."""


# Precedences of the other expression forms, on the scale of the parser's
# ``BINARY_PRECEDENCE`` table, so the printer inserts exactly the
# parentheses the parser needs to rebuild the same tree.
_PREC_COMMA = -1
_PREC_ASSIGN = 0
_PREC_CONDITIONAL = 0.5
_PREC_UNARY = 11
_PREC_POSTFIX = 12

_INT_SUFFIXES = {
    "unsigned int": "u", "long": "L", "unsigned long": "UL",
    "long long": "LL", "unsigned long long": "ULL",
}

_CHAR_ESCAPES = {ord("\n"): "\\n", ord("\t"): "\\t", ord("\r"): "\\r",
                 ord("\0"): "\\0", ord("\\"): "\\\\", ord("'"): "\\'",
                 ord("\a"): "\\a", ord("\b"): "\\b", ord("\f"): "\\f",
                 ord("\v"): "\\v"}


_OCTAL_DIGITS = frozenset("01234567")


def _escape_string(text: str) -> str:
    out = []
    for index, ch in enumerate(text):
        code = ord(ch)
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\0" and text[index + 1:index + 2] in _OCTAL_DIGITS:
            out.append("\\000")  # "\\0" would take the digit into its escape
        elif code in _CHAR_ESCAPES and ch not in ("'",):
            out.append(_CHAR_ESCAPES[code])
        elif 32 <= code < 127:
            out.append(ch)
        else:
            # Three-digit octal escapes terminate unambiguously, unlike \x.
            out.append(f"\\{code & 0o777:03o}")
    return '"' + "".join(out) + '"'


def _escape_char(value: int) -> str:
    code = value & 0xFF if value >= 0 else value
    if code in _CHAR_ESCAPES:
        return f"'{_CHAR_ESCAPES[code]}'"
    if 32 <= code < 127 and code != ord('"'):
        return f"'{chr(code)}'"
    return f"'\\{code & 0o777:03o}'"


class CPrinter:
    """Stateful printer: one instance renders one translation unit."""

    def __init__(self, *, indent: str = "    ") -> None:
        self.indent = indent
        self._defined_tags: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Types and declarators
    # ------------------------------------------------------------------
    def type_specifier(self, ctype: ct.CType, *, define_records: bool = False) -> str:
        """The declaration-specifier part of ``ctype`` (no declarator)."""
        quals = ctype.qualifier_str()
        prefix = f"{quals} " if quals else ""
        if isinstance(ctype, ct.VoidType):
            return prefix + "void"
        if isinstance(ctype, ct.BoolType):
            return prefix + "_Bool"
        if isinstance(ctype, (ct.IntType, ct.FloatType)):
            return prefix + ctype.kind
        if isinstance(ctype, (ct.StructType, ct.UnionType)):
            keyword = "struct" if isinstance(ctype, ct.StructType) else "union"
            if ctype.tag is None:
                # An anonymous record has no name to refer back to, so every
                # mention must carry the full definition inline.
                if ctype.fields is None:
                    raise PrinterError(
                        "cannot render an anonymous record type without its fields")
                fields = " ".join(
                    self.declaration(field.type, field.name) + ";"
                    for field in ctype.fields)
                return f"{prefix}{keyword} {{ {fields} }}"
            key = (keyword, ctype.tag)
            if define_records and ctype.fields is not None and key not in self._defined_tags:
                self._defined_tags.add(key)
                fields = " ".join(
                    self.declaration(field.type, field.name) + ";"
                    for field in ctype.fields)
                return f"{prefix}{keyword} {ctype.tag} {{ {fields} }}"
            return f"{prefix}{keyword} {ctype.tag}"
        if isinstance(ctype, ct.EnumType):
            if ctype.tag is None:
                if ctype.enumerators is None:
                    raise PrinterError(
                        "cannot render an anonymous enum type without its enumerators")
                body = ", ".join(f"{name} = {value}"
                                 for name, value in ctype.enumerators)
                return f"{prefix}enum {{ {body} }}"
            key = ("enum", ctype.tag)
            if define_records and ctype.enumerators is not None \
                    and key not in self._defined_tags:
                self._defined_tags.add(key)
                body = ", ".join(f"{name} = {value}"
                                 for name, value in ctype.enumerators)
                return f"{prefix}enum {ctype.tag} {{ {body} }}"
            return f"{prefix}enum {ctype.tag}"
        raise PrinterError(f"no specifier form for {type(ctype).__name__}")

    def declaration(self, ctype: ct.CType, name: str = "", *,
                    define_records: bool = False,
                    parameter_names: Optional[list[str]] = None) -> str:
        """Render ``ctype name`` as a C declaration (declarator algorithm)."""
        declarator = name
        current: ct.CType = ctype
        while True:
            if isinstance(current, ct.PointerType):
                quals = current.qualifier_str()
                declarator = "*" + (quals + " " if quals else "") + declarator
                # Qualifiers live on the pointer layer itself; the pointee is
                # rendered separately below.
                current = current.pointee
                if isinstance(current, (ct.ArrayType, ct.FunctionType)):
                    declarator = f"({declarator})"
            elif isinstance(current, ct.ArrayType):
                length = "" if current.length is None else str(current.length)
                declarator = f"{declarator}[{length}]"
                current = current.element
            elif isinstance(current, ct.FunctionType):
                declarator = f"{declarator}({self._parameters(current, parameter_names)})"
                current = current.return_type
                parameter_names = None
            else:
                specifier = self.type_specifier(current, define_records=define_records)
                return f"{specifier} {declarator}".strip() if declarator else specifier

    def _parameters(self, ftype: ct.FunctionType,
                    names: Optional[list[str]]) -> str:
        if not ftype.parameters:
            if ftype.variadic:
                raise PrinterError("variadic function with no named parameters")
            return "void" if ftype.has_prototype else ""
        rendered = []
        for index, param in enumerate(ftype.parameters):
            name = names[index] if names is not None and index < len(names) else ""
            rendered.append(self.declaration(param, name))
        if ftype.variadic:
            rendered.append("...")
        return ", ".join(rendered)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expression(self, node: c_ast.Expression) -> str:
        text, _prec = self._expr(node)
        return text

    def _paren(self, node: c_ast.Expression, parent_prec: float, *,
               right_operand: bool = False) -> str:
        text, prec = self._expr(node)
        # Binary operators associate left; a right operand at the same
        # precedence level needs parentheses to rebuild the same tree.
        if prec < parent_prec or (right_operand and prec == parent_prec):
            return f"({text})"
        return text

    def _expr(self, node: c_ast.Expression) -> tuple[str, float]:
        if isinstance(node, c_ast.IntegerLiteral):
            suffix = ""
            if isinstance(node.type, ct.IntType):
                suffix = _INT_SUFFIXES.get(node.type.kind, "")
            if node.value < 0:
                # Negative "literals" only appear in constructed ASTs; render
                # through unary minus so the parser rebuilds an equal value.
                return f"-{abs(node.value)}{suffix}", _PREC_UNARY
            return f"{node.value}{suffix}", _PREC_POSTFIX
        if isinstance(node, c_ast.FloatLiteral):
            text = repr(float(node.value))
            if "." not in text and "e" not in text and "inf" not in text:
                text += ".0"
            if isinstance(node.type, ct.FloatType):
                if node.type.kind == "float":
                    text += "f"
                elif node.type.kind == "long double":
                    text += "L"
            return text, _PREC_POSTFIX
        if isinstance(node, c_ast.CharLiteral):
            return _escape_char(node.value), _PREC_POSTFIX
        if isinstance(node, c_ast.StringLiteral):
            return _escape_string(node.value), _PREC_POSTFIX
        if isinstance(node, c_ast.Identifier):
            return node.name, _PREC_POSTFIX
        if isinstance(node, c_ast.UnaryOp):
            assert node.operand is not None
            if node.op in ("++post", "--post"):
                inner = self._paren(node.operand, _PREC_POSTFIX)
                return f"{inner}{node.op[:2]}", _PREC_POSTFIX
            if node.op in ("++pre", "--pre"):
                inner = self._paren(node.operand, _PREC_UNARY)
                return f"{node.op[:2]}{inner}", _PREC_UNARY
            if node.op == "sizeof":
                inner = self._paren(node.operand, _PREC_UNARY)
                return f"sizeof {inner}", _PREC_UNARY
            inner = self._paren(node.operand, _PREC_UNARY)
            spelled = f"{node.op}{inner}"
            if node.op in ("+", "-") and inner and inner[0] == node.op:
                spelled = f"{node.op} {inner}"  # avoid token-pasting `--x`
            return spelled, _PREC_UNARY
        if isinstance(node, c_ast.SizeofType):
            assert node.type_name is not None
            return f"sizeof({self.declaration(node.type_name)})", _PREC_UNARY
        if isinstance(node, c_ast.BinaryOp):
            assert node.left is not None and node.right is not None
            prec = BINARY_PRECEDENCE[node.op]
            left = self._paren(node.left, prec)
            right = self._paren(node.right, prec, right_operand=True)
            return f"{left} {node.op} {right}", prec
        if isinstance(node, c_ast.Assignment):
            assert node.target is not None and node.value is not None
            target = self._paren(node.target, _PREC_UNARY)
            # Assignment associates right: an assignment RHS needs no parens.
            value, value_prec = self._expr(node.value)
            if value_prec < _PREC_ASSIGN:
                value = f"({value})"
            return f"{target} {node.op} {value}", _PREC_ASSIGN
        if isinstance(node, c_ast.Conditional):
            assert node.condition is not None
            assert node.then is not None and node.otherwise is not None
            cond = self._paren(node.condition, BINARY_PRECEDENCE["||"])
            then, _ = self._expr(node.then)
            otherwise = self._paren(node.otherwise, _PREC_CONDITIONAL)
            return f"{cond} ? {then} : {otherwise}", _PREC_CONDITIONAL
        if isinstance(node, c_ast.Comma):
            assert node.left is not None and node.right is not None
            left = self._paren(node.left, _PREC_COMMA)
            right = self._paren(node.right, _PREC_ASSIGN)
            return f"{left}, {right}", _PREC_COMMA
        if isinstance(node, c_ast.Cast):
            assert node.operand is not None and node.target_type is not None
            type_name = self.declaration(node.target_type)
            if isinstance(node.operand, c_ast.InitList):
                items = ", ".join(self.expression(i) for i in node.operand.items)
                return f"({type_name}){{{items}}}", _PREC_UNARY
            inner = self._paren(node.operand, _PREC_UNARY)
            return f"({type_name}){inner}", _PREC_UNARY
        if isinstance(node, c_ast.Call):
            assert node.function is not None
            function = self._paren(node.function, _PREC_POSTFIX)
            arguments = ", ".join(
                self._paren(argument, _PREC_ASSIGN) for argument in node.arguments)
            return f"{function}({arguments})", _PREC_POSTFIX
        if isinstance(node, c_ast.ArraySubscript):
            assert node.array is not None and node.index is not None
            array = self._paren(node.array, _PREC_POSTFIX)
            return f"{array}[{self.expression(node.index)}]", _PREC_POSTFIX
        if isinstance(node, c_ast.Member):
            assert node.object is not None
            obj = self._paren(node.object, _PREC_POSTFIX)
            opr = "->" if node.arrow else "."
            return f"{obj}{opr}{node.member}", _PREC_POSTFIX
        if isinstance(node, c_ast.InitList):
            items = ", ".join(self._paren(i, _PREC_ASSIGN) for i in node.items)
            return f"{{{items}}}", _PREC_POSTFIX
        raise PrinterError(f"no rendering for {type(node).__name__}")

    # ------------------------------------------------------------------
    # Statements and declarations
    # ------------------------------------------------------------------
    def statement(self, node: c_ast.Node, depth: int = 0) -> list[str]:
        pad = self.indent * depth
        if isinstance(node, c_ast.Declaration):
            return [pad + self._declaration_line(node)]
        if isinstance(node, c_ast.ExpressionStmt):
            if node.expression is None:
                return [pad + ";"]
            return [pad + self.expression(node.expression) + ";"]
        if isinstance(node, c_ast.Compound):
            lines = [pad + "{"]
            for item in node.items:
                lines.extend(self.statement(item, depth + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, c_ast.If):
            assert node.condition is not None
            lines = [pad + f"if ({self.expression(node.condition)})"]
            lines.extend(self._branch(node.then, depth))
            if node.otherwise is not None:
                lines.append(pad + "else")
                lines.extend(self._branch(node.otherwise, depth))
            return lines
        if isinstance(node, c_ast.While):
            assert node.condition is not None
            lines = [pad + f"while ({self.expression(node.condition)})"]
            lines.extend(self._branch(node.body, depth))
            return lines
        if isinstance(node, c_ast.DoWhile):
            assert node.condition is not None
            lines = [pad + "do"]
            lines.extend(self._branch(node.body, depth))
            lines.append(pad + f"while ({self.expression(node.condition)});")
            return lines
        if isinstance(node, c_ast.For):
            init = ""
            if isinstance(node.init, list):
                if len(node.init) != 1:
                    raise PrinterError(
                        "multi-declaration for-initializers are not supported")
                init = self._declaration_line(node.init[0]).rstrip(";")
            elif isinstance(node.init, c_ast.Declaration):
                init = self._declaration_line(node.init).rstrip(";")
            elif node.init is not None:
                init = self.expression(node.init)
            condition = self.expression(node.condition) if node.condition else ""
            step = self.expression(node.step) if node.step else ""
            lines = [pad + f"for ({init}; {condition}; {step})"]
            lines.extend(self._branch(node.body, depth))
            return lines
        if isinstance(node, c_ast.Return):
            if node.value is None:
                return [pad + "return;"]
            return [pad + f"return {self.expression(node.value)};"]
        if isinstance(node, c_ast.Break):
            return [pad + "break;"]
        if isinstance(node, c_ast.Continue):
            return [pad + "continue;"]
        if isinstance(node, c_ast.Switch):
            assert node.expression is not None
            lines = [pad + f"switch ({self.expression(node.expression)})"]
            lines.extend(self._branch(node.body, depth))
            return lines
        if isinstance(node, c_ast.Case):
            assert node.expression is not None
            lines = [pad + f"case {self.expression(node.expression)}:"]
            lines.extend(self.statement(node.statement, depth + 1)
                         if node.statement is not None else [])
            return lines
        if isinstance(node, c_ast.Default):
            lines = [pad + "default:"]
            lines.extend(self.statement(node.statement, depth + 1)
                         if node.statement is not None else [])
            return lines
        if isinstance(node, c_ast.Goto):
            return [pad + f"goto {node.label};"]
        if isinstance(node, c_ast.Label):
            lines = [pad + f"{node.name}:"]
            lines.extend(self.statement(node.statement, depth)
                         if node.statement is not None else [pad + ";"])
            return lines
        if isinstance(node, c_ast.StaticAssert):
            assert node.condition is not None
            message = _escape_string(node.message)
            return [pad + f"_Static_assert({self.expression(node.condition)}, {message});"]
        raise PrinterError(f"no rendering for statement {type(node).__name__}")

    def _branch(self, body: Optional[c_ast.Statement], depth: int) -> list[str]:
        if body is None:
            return [self.indent * (depth + 1) + ";"]
        if isinstance(body, c_ast.Compound):
            return self.statement(body, depth)
        return self.statement(body, depth + 1)

    def _declaration_line(self, node: c_ast.Declaration) -> str:
        assert node.type is not None
        storage = f"{node.storage} " if node.storage else ""
        text = storage + self.declaration(node.type, node.name, define_records=True)
        if node.initializer is not None:
            text += f" = {self.expression(node.initializer)}"
        return text + ";"

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def function(self, node: c_ast.FunctionDef) -> list[str]:
        assert isinstance(node.type, ct.FunctionType) and node.body is not None
        storage = f"{node.storage} " if node.storage else ""
        header = storage + self.declaration(
            node.type, node.name, define_records=True,
            parameter_names=list(node.parameter_names))
        lines = [header]
        lines.extend(self.statement(node.body, 0))
        return lines

    def translation_unit(self, unit: c_ast.TranslationUnit) -> str:
        lines: list[str] = []
        for declaration in unit.declarations:
            if isinstance(declaration, c_ast.FunctionDef):
                lines.extend(self.function(declaration))
            elif isinstance(declaration, c_ast.Declaration):
                lines.append(self._declaration_line(declaration))
            elif isinstance(declaration, c_ast.StaticAssert):
                lines.extend(self.statement(declaration, 0))
            else:
                raise PrinterError(
                    f"no rendering for top-level {type(declaration).__name__}")
            lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n"


def to_c_source(node: Union[c_ast.TranslationUnit, c_ast.Node]) -> str:
    """Render an AST back to compilable C source text.

    Accepts a whole :class:`~repro.cfront.ast.TranslationUnit` (the common
    case) or any single statement/expression node.
    """
    printer = CPrinter()
    if isinstance(node, c_ast.TranslationUnit):
        return printer.translation_unit(node)
    if isinstance(node, c_ast.Expression):
        return printer.expression(node)
    return "\n".join(printer.statement(node, 0)) + "\n"


# ---------------------------------------------------------------------------
# Structural AST comparison (the round-trip property's notion of "equal")
# ---------------------------------------------------------------------------

def ast_equivalent(left: c_ast.Node, right: c_ast.Node) -> bool:
    """Structural equality of two ASTs, ignoring source positions.

    Line numbers necessarily differ between an original parse and a parse of
    the pretty-printed text; everything else — node kinds, names, operators,
    values, types — must match exactly.
    """
    return _describe(left) == _describe(right)


def _describe(node: object) -> object:
    if isinstance(node, c_ast.Node):
        fields = {}
        for name in node.__dataclass_fields__:
            if name in ("line", "column", "filename"):
                continue
            fields[name] = _describe(getattr(node, name))
        return (type(node).__name__, tuple(sorted(fields.items(), key=lambda kv: kv[0])))
    if isinstance(node, list):
        return tuple(_describe(item) for item in node)
    if isinstance(node, ct.CType):
        return str(node)
    return node
