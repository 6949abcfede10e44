"""Abstract syntax for the supported C subset.

The AST is deliberately close to the concrete syntax: the dynamic semantics
(:mod:`repro.core`) plays the role of the K rewrite rules and interprets these
nodes directly, and the static checks (:mod:`repro.sema`) walk them.

Every node carries a source ``line`` so undefined-behavior reports can point
at the offending construct, as kcc's reports do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.cfront.ctypes import CType


@dataclass
class Node:
    """Base class of all AST nodes."""

    line: int = 0


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expression(Node):
    pass


@dataclass
class IntegerLiteral(Expression):
    value: int = 0
    type: Optional[CType] = None


@dataclass
class FloatLiteral(Expression):
    value: float = 0.0
    type: Optional[CType] = None


@dataclass
class CharLiteral(Expression):
    value: int = 0


@dataclass
class StringLiteral(Expression):
    value: str = ""


@dataclass
class Identifier(Expression):
    name: str = ""


@dataclass
class UnaryOp(Expression):
    """Unary operators.

    ``op`` is one of ``+ - ~ ! * &`` for the ordinary unary operators,
    ``++pre --pre ++post --post`` for increment/decrement, and ``sizeof``
    for ``sizeof expr``.
    """

    op: str = ""
    operand: Optional[Expression] = None


@dataclass
class SizeofType(Expression):
    type_name: Optional[CType] = None


@dataclass
class BinaryOp(Expression):
    """Binary operators: arithmetic, relational, bitwise, logical.

    The operands of ``&&``/``||`` are sequenced; the rest are unsequenced,
    which is what the evaluation-order search explores.
    """

    op: str = ""
    left: Optional[Expression] = None
    right: Optional[Expression] = None


@dataclass
class Assignment(Expression):
    """Simple (``=``) or compound (``+=`` ...) assignment."""

    op: str = "="
    target: Optional[Expression] = None
    value: Optional[Expression] = None


@dataclass
class Conditional(Expression):
    condition: Optional[Expression] = None
    then: Optional[Expression] = None
    otherwise: Optional[Expression] = None


@dataclass
class Comma(Expression):
    left: Optional[Expression] = None
    right: Optional[Expression] = None


@dataclass
class Cast(Expression):
    target_type: Optional[CType] = None
    operand: Optional[Expression] = None


@dataclass
class Call(Expression):
    function: Optional[Expression] = None
    arguments: list[Expression] = field(default_factory=list)


@dataclass
class ArraySubscript(Expression):
    array: Optional[Expression] = None
    index: Optional[Expression] = None


@dataclass
class Member(Expression):
    """``obj.field`` (arrow=False) or ``ptr->field`` (arrow=True)."""

    object: Optional[Expression] = None
    member: str = ""
    arrow: bool = False


@dataclass
class InitList(Expression):
    """A brace-enclosed initializer list (no designators)."""

    items: list[Expression] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Statement(Node):
    pass


@dataclass
class ExpressionStmt(Statement):
    expression: Optional[Expression] = None  # None == empty statement


@dataclass
class Compound(Statement):
    items: list[Union["Statement", "Declaration"]] = field(default_factory=list)


@dataclass
class If(Statement):
    condition: Optional[Expression] = None
    then: Optional[Statement] = None
    otherwise: Optional[Statement] = None


@dataclass
class While(Statement):
    condition: Optional[Expression] = None
    body: Optional[Statement] = None


@dataclass
class DoWhile(Statement):
    body: Optional[Statement] = None
    condition: Optional[Expression] = None


@dataclass
class For(Statement):
    init: Optional[Union["Declaration", Expression, list["Declaration"]]] = None
    condition: Optional[Expression] = None
    step: Optional[Expression] = None
    body: Optional[Statement] = None


@dataclass
class Return(Statement):
    value: Optional[Expression] = None


@dataclass
class Break(Statement):
    pass


@dataclass
class Continue(Statement):
    pass


@dataclass
class Switch(Statement):
    expression: Optional[Expression] = None
    body: Optional[Statement] = None


@dataclass
class Case(Statement):
    expression: Optional[Expression] = None
    statement: Optional[Statement] = None


@dataclass
class Default(Statement):
    statement: Optional[Statement] = None


@dataclass
class Goto(Statement):
    label: str = ""


@dataclass
class Label(Statement):
    name: str = ""
    statement: Optional[Statement] = None


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class Declaration(Node):
    """A single declared name (one init-declarator)."""

    name: str = ""
    type: Optional[CType] = None
    initializer: Optional[Expression] = None
    storage: Optional[str] = None  # 'typedef' | 'static' | 'extern' | 'auto' | 'register' | None
    is_definition: bool = True


@dataclass
class FunctionDef(Node):
    name: str = ""
    type: Optional[CType] = None          # FunctionType
    parameter_names: list[str] = field(default_factory=list)
    body: Optional[Compound] = None
    storage: Optional[str] = None
    #: The names the definition applies ``&`` to (``&name``), recorded by the
    #: parser; the bytecode compiler keeps each of them in memory.
    addressed: frozenset = field(default=frozenset(), repr=False, compare=False)


@dataclass
class StaticAssert(Node):
    condition: Optional[Expression] = None
    message: str = ""


@dataclass
class TranslationUnit(Node):
    """A whole parsed program: the ordered list of top-level declarations."""

    declarations: list[Union[Declaration, FunctionDef, StaticAssert]] = field(default_factory=list)
    filename: str = "<input>"

    def functions(self) -> dict[str, FunctionDef]:
        return {d.name: d for d in self.declarations if isinstance(d, FunctionDef)}

    def globals(self) -> list[Declaration]:
        return [d for d in self.declarations if isinstance(d, Declaration)]


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------

_CHILD_FIELDS = {
    IntegerLiteral: (),
    FloatLiteral: (),
    CharLiteral: (),
    StringLiteral: (),
    Identifier: (),
    UnaryOp: ("operand",),
    SizeofType: (),
    BinaryOp: ("left", "right"),
    Assignment: ("target", "value"),
    Conditional: ("condition", "then", "otherwise"),
    Comma: ("left", "right"),
    Cast: ("operand",),
    Call: ("function", "arguments"),
    ArraySubscript: ("array", "index"),
    Member: ("object",),
    InitList: ("items",),
    ExpressionStmt: ("expression",),
    Compound: ("items",),
    If: ("condition", "then", "otherwise"),
    While: ("condition", "body"),
    DoWhile: ("body", "condition"),
    For: ("init", "condition", "step", "body"),
    Return: ("value",),
    Break: (),
    Continue: (),
    Switch: ("expression", "body"),
    Case: ("expression", "statement"),
    Default: ("statement",),
    Goto: (),
    Label: ("statement",),
    Declaration: ("initializer",),
    FunctionDef: ("body",),
    StaticAssert: ("condition",),
    TranslationUnit: ("declarations",),
}


def children(node: Node) -> list[Node]:
    """Return the direct child nodes of ``node`` (for generic walks)."""
    result: list[Node] = []
    for field_name in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, field_name, None)
        if value is None:
            continue
        if isinstance(value, list):
            result.extend(v for v in value if isinstance(v, Node))
        elif isinstance(value, Node):
            result.append(value)
    return result


#: ``_CHILD_FIELDS`` back to front, the order ``walk`` pushes children in.
_CHILD_FIELDS_REVERSED = {cls: names[::-1] for cls, names in _CHILD_FIELDS.items()}


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all its descendants in preorder: the order of a
    recursion over :func:`children`, kept on an explicit stack."""
    stack = [node]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        for field_name in _CHILD_FIELDS_REVERSED.get(type(node), ()):
            value = getattr(node, field_name, None)
            if isinstance(value, Node):
                push(value)
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, Node):
                        push(item)
