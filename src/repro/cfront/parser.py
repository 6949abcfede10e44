"""Recursive-descent parser for the supported C subset.

The parser consumes tokens from :mod:`repro.cfront.lexer` and produces the
AST of :mod:`repro.cfront.ast` with types from :mod:`repro.cfront.ctypes`.

Supported subset (roughly freestanding C99 minus VLAs, bit-fields,
designated initializers, and ``_Generic``):

* all basic types, pointers, arrays, structs, unions, enums, typedefs,
  function types (with prototypes and variadic ``...``),
* all expression forms and operators, ``sizeof``, casts, string literals,
* all statements: ``if``/``while``/``do``/``for`` (with declarations in the
  init clause), ``switch``/``case``/``default``, ``goto``/labels, blocks,
* function definitions and global declarations with initializers,
* ``_Static_assert``.

The parser deliberately accepts some constraint-violating programs (for
example arrays of size zero) so the *static undefinedness checker* in
:mod:`repro.sema` can flag them, mirroring the paper's observation that the
semantics must contain extra checks that correct programs never need.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.lexer import IntConstant, FloatConstant, Token, TokenKind, tokenize
from repro.cfront.preprocessor import preprocess, source_lines
from repro.errors import CParseError, UnsupportedFeatureError

if TYPE_CHECKING:
    from repro.cfront.prelude import Prelude

_TYPE_SPECIFIER_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "_Bool", "struct", "union", "enum",
})
_STORAGE_KEYWORDS = frozenset({"typedef", "extern", "static", "auto", "register"})
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "restrict"})
_FUNCTION_SPECIFIERS = frozenset({"inline", "_Noreturn"})
_DECLARATION_KEYWORDS = (_TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS | _QUALIFIER_KEYWORDS
                         | _FUNCTION_SPECIFIERS | {"_Static_assert"})


#: Binary operator precedence, higher binds tighter (C11 6.5.5-6.5.14).  The
#: expression parser climbs it and the printer parenthesizes by it, so a
#: printed tree parses back to itself.
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
#: Below the binary operators, for ``Parser._parse_assignment``: ``?:``,
#: then the assignment operators (C11 6.5.15-6.5.16).
_CONDITIONAL = 0
_ASSIGNMENT = -1
_PRECEDENCE = {
    **BINARY_PRECEDENCE, "?": _CONDITIONAL,
    **dict.fromkeys(("=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=", "^=", "|="),
                    _ASSIGNMENT),
}
_PREFIX_OPERATORS = frozenset({"&", "*", "+", "-", "~", "!"})
#: Only punctuators are spelled so: a literal's text keeps its quotes.
_POSTFIX_OPERATORS = frozenset({"[", "(", ".", "->", "++", "--"})


class Parser:
    """Parses a token stream into a :class:`repro.cfront.ast.TranslationUnit`."""

    def __init__(self, tokens: list[Token], *, filename: str = "<input>",
                 profile: ct.ImplementationProfile = ct.LP64) -> None:
        self.tokens = tokens
        self.index = 0
        self.filename = filename
        self.profile = profile
        self._constant_types = _constant_type_chains(profile)
        self.typedefs: dict[str, ct.CType] = {}
        self.struct_tags: dict[str, ct.StructType] = {}
        self.union_tags: dict[str, ct.UnionType] = {}
        self.enum_tags: dict[str, ct.EnumType] = {}
        self.enum_constants: dict[str, int] = {}
        #: The names under ``&`` in the function body being parsed (see
        #: ``FunctionDef.addressed``).
        self.addressed: set[str] = set()

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # The token list always ends in EOF and ``_next`` never moves past it.
        if not offset:
            return self.tokens[self.index]
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _accept_punct(self, *names: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind is TokenKind.PUNCTUATOR and token.text in names:
            self.index += 1
            return token
        return None

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._next()
        return None

    def _expect_punct(self, name: str) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.PUNCTUATOR or token.text != name:
            raise self._error(f"expected {name!r}, found {token.text!r}")
        self.index += 1
        return token

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected keyword {name!r}, found {token.text!r}")
        return self._next()

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise self._error(f"expected identifier, found {token.text!r}")
        return self._next()

    def _error(self, message: str) -> CParseError:
        token = self._peek()
        return CParseError(message, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> c_ast.TranslationUnit:
        unit = c_ast.TranslationUnit(line=1, filename=self.filename)
        while not self._at_eof():
            if self._accept_punct(";"):
                continue
            if self._peek().is_keyword("_Static_assert"):
                unit.declarations.append(self._parse_static_assert())
            else:
                unit.declarations.extend(self._parse_declaration(file_scope=True))
        return unit

    def parse_constant_expression(self) -> c_ast.Expression:
        """Parse the whole token list as one conditional expression."""
        expr = self._parse_assignment(_CONDITIONAL)
        if not self._at_eof():
            raise self._error(f"unexpected token {self._peek().text!r} after expression")
        return expr

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _parse_declaration(self, file_scope: bool) -> list[c_ast.Node]:
        """Parse a declaration (C11 6.7), or at file scope a function definition.

        Only the first declarator at file scope may take a function body, and
        only a file-scope ``extern`` without an initializer declares without
        defining.
        """
        start = self._peek()
        base_type, storage = self._parse_declaration_specifiers()
        declarations: list[c_ast.Node] = []
        if self._accept_punct(";"):
            # struct/union/enum declaration with no declarators
            return declarations
        may_define = file_scope
        while True:
            name, build, param_names = self._parse_declarator()
            full_type = build(base_type)
            if may_define and isinstance(full_type, ct.FunctionType) and self._peek().is_punct("{"):
                self.addressed = set()
                body = self._parse_compound_statement()
                declarations.append(c_ast.FunctionDef(
                    line=start.line, name=name or "", type=full_type,
                    parameter_names=param_names or [], body=body, storage=storage,
                    addressed=frozenset(self.addressed)))
                return declarations
            may_define = False
            initializer = None
            if self._accept_punct("="):
                initializer = self._parse_initializer()
            if storage == "typedef":
                if name:
                    self.typedefs[name] = full_type
            else:
                declarations.append(c_ast.Declaration(
                    line=start.line, name=name or "", type=full_type,
                    initializer=initializer, storage=storage,
                    is_definition=(not file_scope or storage != "extern"
                                   or initializer is not None)))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return declarations

    def _parse_static_assert(self) -> c_ast.StaticAssert:
        token = self._expect_keyword("_Static_assert")
        self._expect_punct("(")
        condition = self._parse_assignment(_CONDITIONAL)
        message = ""
        if self._accept_punct(","):
            msg_token = self._next()
            if msg_token.kind is TokenKind.STRING:
                message = str(msg_token.value)
        self._expect_punct(")")
        self._expect_punct(";")
        return c_ast.StaticAssert(line=token.line, condition=condition, message=message)

    def _starts_declaration(self) -> bool:
        token = self.tokens[self.index]
        if token.kind is TokenKind.KEYWORD:
            return token.text in _DECLARATION_KEYWORDS
        if token.kind is TokenKind.IDENTIFIER and token.text in self.typedefs:
            # A typedef name only starts a declaration when followed by
            # something that can continue a declarator.
            nxt = self._peek(1)
            return (nxt.kind is TokenKind.IDENTIFIER
                    or nxt.is_punct("*", "(", ";")
                    or (nxt.kind is TokenKind.KEYWORD and nxt.text in _QUALIFIER_KEYWORDS))
        return False

    def _parse_declaration_specifiers(self) -> tuple[ct.CType, Optional[str]]:
        storage: Optional[str] = None
        const = False
        volatile = False
        specifiers: list[str] = []
        base_type: Optional[ct.CType] = None
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            text = token.text
            if token.kind is TokenKind.KEYWORD:
                if text == "struct" or text == "union":
                    base_type = self._parse_struct_or_union_specifier()
                elif text == "enum":
                    base_type = self._parse_enum_specifier()
                elif text in _TYPE_SPECIFIER_KEYWORDS:
                    self.index += 1
                    specifiers.append(text)
                elif text in _STORAGE_KEYWORDS:
                    self.index += 1
                    if storage is not None and storage != text:
                        raise self._error("multiple storage class specifiers")
                    storage = text
                elif text in _QUALIFIER_KEYWORDS:
                    self.index += 1
                    if text == "const":
                        const = True
                    elif text == "volatile":
                        volatile = True
                elif text in _FUNCTION_SPECIFIERS:
                    self.index += 1
                else:
                    break
            elif (token.kind is TokenKind.IDENTIFIER and text in self.typedefs
                  and base_type is None and not specifiers):
                self.index += 1
                base_type = self.typedefs[text]
            else:
                break
        if base_type is None:
            base_type = self._type_from_specifiers(specifiers)
        elif specifiers:
            raise self._error("both a named type and basic type specifiers given")
        if const or volatile:
            base_type = base_type.with_qualifiers(const=const, volatile=volatile)
        return base_type, storage

    def _type_from_specifiers(self, specifiers: list[str]) -> ct.CType:
        if not specifiers:
            # Implicit int (pre-C99 style); we accept it for the test corpus.
            return ct.INT
        counts = {s: specifiers.count(s) for s in set(specifiers)}
        if "void" in counts:
            return ct.VOID
        if "_Bool" in counts:
            return ct.BOOL
        if "float" in counts:
            return ct.FLOAT
        if "double" in counts:
            return ct.LDOUBLE if "long" in counts else ct.DOUBLE
        unsigned = "unsigned" in counts
        signed = "signed" in counts
        if "char" in counts:
            if unsigned:
                return ct.UCHAR
            if signed:
                return ct.SCHAR
            return ct.CHAR
        long_count = counts.get("long", 0)
        if long_count >= 2:
            return ct.ULLONG if unsigned else ct.LLONG
        if long_count == 1:
            return ct.ULONG if unsigned else ct.LONG
        if "short" in counts:
            return ct.USHORT if unsigned else ct.SHORT
        if "int" in counts or signed or unsigned:
            return ct.UINT if unsigned else ct.INT
        raise self._error("unsupported type specifier combination: "
                          + " ".join(sorted(specifiers)))

    # -- struct/union/enum -------------------------------------------------
    def _parse_struct_or_union_specifier(self) -> ct.CType:
        keyword = self._next()
        is_union = keyword.text == "union"
        tag: Optional[str] = None
        if self._peek().kind is TokenKind.IDENTIFIER:
            tag = self._next().text
        registry = self.union_tags if is_union else self.struct_tags
        if tag is not None and tag in registry:
            record = registry[tag]
        else:
            record = ct.UnionType(tag=tag) if is_union else ct.StructType(tag=tag)
            if tag is not None:
                registry[tag] = record
        if self._accept_punct("{"):
            fields = self._parse_struct_declaration_list()
            record.complete(tuple(fields))
            self._expect_punct("}")
        return record

    def _parse_struct_declaration_list(self) -> list[ct.StructField]:
        fields: list[ct.StructField] = []
        while not self._peek().is_punct("}"):
            base_type, storage = self._parse_declaration_specifiers()
            if storage is not None:
                raise self._error("storage class specifier in struct member")
            if self._accept_punct(";"):
                continue  # anonymous struct/union member: flattened below
            while True:
                bit_width: Optional[int] = None
                if self._peek().is_punct(":"):
                    name = None
                    full_type = base_type
                else:
                    name, build, _ = self._parse_declarator()
                    full_type = build(base_type)
                if self._accept_punct(":"):
                    width_expr = self._parse_assignment(_CONDITIONAL)
                    bit_width = fold_constant(width_expr, self.profile)
                if name is not None:
                    fields.append(ct.StructField(name=name, type=full_type, bit_width=bit_width))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        return fields

    def _parse_enum_specifier(self) -> ct.CType:
        self._expect_keyword("enum")
        tag: Optional[str] = None
        if self._peek().kind is TokenKind.IDENTIFIER:
            tag = self._next().text
        if self._accept_punct("{"):
            enumerators: list[tuple[str, int]] = []
            next_value = 0
            while not self._peek().is_punct("}"):
                name_token = self._expect_identifier()
                value = next_value
                if self._accept_punct("="):
                    expr = self._parse_assignment(_CONDITIONAL)
                    folded = fold_constant(expr, self.profile)
                    if folded is None:
                        raise self._error("enumerator value is not a constant expression")
                    value = folded
                enumerators.append((name_token.text, value))
                self.enum_constants[name_token.text] = value
                next_value = value + 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            enum_type = ct.EnumType(tag=tag, enumerators=tuple(enumerators))
            if tag is not None:
                self.enum_tags[tag] = enum_type
            return enum_type
        if tag is not None and tag in self.enum_tags:
            return self.enum_tags[tag]
        enum_type = ct.EnumType(tag=tag)
        if tag is not None:
            self.enum_tags[tag] = enum_type
        return enum_type

    # -- declarators ---------------------------------------------------------
    def _parse_declarator(self) -> tuple[Optional[str], Callable[[ct.CType], ct.CType],
                                         Optional[list[str]]]:
        """Parse a possibly abstract declarator (C11 6.7.6).

        Returns ``(name, build, parameter_names)``.  ``build`` wraps a base
        type in the declarator's pointers, arrays and functions, folding the
        array sizes.  ``parameter_names`` are those of the function
        declarator nearest the name, the ones a function definition binds,
        or None if there is no function declarator.
        """
        tokens = self.tokens
        pointer_layers: list[tuple[bool, bool]] = []
        while (token := tokens[self.index]).kind is TokenKind.PUNCTUATOR and token.text == "*":
            self.index += 1
            const = volatile = False
            while ((token := tokens[self.index]).kind is TokenKind.KEYWORD
                   and token.text in _QUALIFIER_KEYWORDS):
                self.index += 1
                const = const or token.text == "const"
                volatile = volatile or token.text == "volatile"
            pointer_layers.append((const, volatile))

        name: Optional[str] = None
        inner: Optional[Callable[[ct.CType], ct.CType]] = None
        param_names: Optional[list[str]] = None
        token = tokens[self.index]
        if token.kind is TokenKind.IDENTIFIER:
            self.index += 1
            name = token.text
        elif (token.kind is TokenKind.PUNCTUATOR and token.text == "("
              and self._is_nested_declarator()):
            self.index += 1
            name, inner, param_names = self._parse_declarator()
            self._expect_punct(")")

        suffixes: list[tuple] = []
        while (token := tokens[self.index]).kind is TokenKind.PUNCTUATOR:
            if token.text == "[":
                self.index += 1
                if self._accept_punct("]"):
                    suffixes.append(("array", None))
                else:
                    size_expr = self._parse_assignment(_CONDITIONAL)
                    self._expect_punct("]")
                    suffixes.append(("array", size_expr))
            elif token.text == "(":
                self.index += 1
                params, variadic, names, has_prototype = self._parse_parameter_list()
                self._expect_punct(")")
                suffixes.append(("function", params, variadic, has_prototype))
                if param_names is None:
                    param_names = names
            else:
                break

        def build(result: ct.CType) -> ct.CType:
            for const, volatile in pointer_layers:
                result = ct.PointerType(pointee=result, const=const, volatile=volatile)
            for suffix in reversed(suffixes):
                if suffix[0] == "array":
                    size = None
                    if suffix[1] is not None:
                        size = fold_constant(suffix[1], self.profile)
                        if size is None:
                            raise UnsupportedFeatureError(
                                "variable length arrays are not supported")
                    result = ct.ArrayType(element=result, length=size)
                else:
                    _, params, variadic, has_prototype = suffix
                    result = ct.FunctionType(
                        return_type=result, parameters=tuple(params),
                        variadic=variadic, has_prototype=has_prototype)
            return result if inner is None else inner(result)

        return name, build, param_names

    def _is_nested_declarator(self) -> bool:
        """Disambiguate ``(declarator)`` from a parameter list after '('."""
        nxt = self._peek(1)
        if nxt.is_punct("*", "("):
            return True
        if nxt.kind is TokenKind.IDENTIFIER and nxt.text not in self.typedefs:
            return True
        return False

    def _parse_parameter_list(self) -> tuple[list[ct.CType], bool, list[str], bool]:
        params: list[ct.CType] = []
        names: list[str] = []
        variadic = False
        has_prototype = True
        if self._peek().is_punct(")"):
            # Empty parens: an old-style declaration with no prototype.
            return params, variadic, names, False
        if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            return params, variadic, names, True
        while True:
            if self._accept_punct("..."):
                variadic = True
                break
            base_type, storage = self._parse_declaration_specifiers()
            name, build, _ = self._parse_declarator()
            # Parameters of array/function type adjust to pointers (§6.7.6.3).
            full_type = ct.decay(build(base_type))
            params.append(full_type)
            names.append(name or "")
            if not self._accept_punct(","):
                break
        return params, variadic, names, has_prototype

    def _parse_type_name(self) -> ct.CType:
        base_type, storage = self._parse_declaration_specifiers()
        if storage is not None:
            raise self._error("storage class in type name")
        name, build, _ = self._parse_declarator()
        full_type = build(base_type)
        if name is not None:
            raise self._error("type name must not declare an identifier")
        return full_type

    def _parse_initializer(self) -> c_ast.Expression:
        if self._peek().is_punct("{"):
            token = self._next()
            items: list[c_ast.Expression] = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return c_ast.InitList(line=token.line, items=items)
        return self._parse_assignment()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_compound_statement(self) -> c_ast.Compound:
        start = self._expect_punct("{")
        block = c_ast.Compound(line=start.line)
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            if token.kind is TokenKind.PUNCTUATOR and token.text == "}":
                self.index += 1
                return block
            if token.kind is TokenKind.EOF:
                raise self._error("unterminated block")
            block.items.extend(self._parse_block_item())

    def _parse_block_item(self) -> list[c_ast.Node]:
        if self._starts_declaration():
            if self.tokens[self.index].text == "_Static_assert":
                return [self._parse_static_assert()]
            return self._parse_declaration(file_scope=False)
        return [self._parse_statement()]

    def _parse_statement(self) -> c_ast.Statement:
        """A statement (C11 6.8): keyword-led ones through ``_STATEMENTS``."""
        token = self.tokens[self.index]
        kind = token.kind
        if kind is TokenKind.KEYWORD:
            rule = self._STATEMENTS.get(token.text)
            if rule is not None:
                return rule(self)
        elif kind is TokenKind.PUNCTUATOR:
            if token.text == "{":
                return self._parse_compound_statement()
            if token.text == ";":
                self.index += 1
                return c_ast.ExpressionStmt(line=token.line, expression=None)
        elif kind is TokenKind.IDENTIFIER and self._peek(1).is_punct(":"):
            self.index += 2
            return c_ast.Label(line=token.line, name=token.text,
                               statement=self._parse_statement())
        expr = self._parse_expression()
        self._expect_punct(";")
        return c_ast.ExpressionStmt(line=token.line, expression=expr)

    # Each rule below starts at its keyword, which ``_parse_statement`` has
    # looked up in ``_STATEMENTS``.
    def _parse_if(self) -> c_ast.If:
        token = self._next()
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self._parse_statement()
        return c_ast.If(line=token.line, condition=condition, then=then, otherwise=otherwise)

    def _parse_while(self) -> c_ast.While:
        token = self._next()
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.While(line=token.line, condition=condition, body=body)

    def _parse_do_while(self) -> c_ast.DoWhile:
        token = self._next()
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return c_ast.DoWhile(line=token.line, body=body, condition=condition)

    def _parse_for(self) -> c_ast.For:
        token = self._next()
        self._expect_punct("(")
        init: Optional[object] = None
        if not self._peek().is_punct(";"):
            if self._starts_declaration():
                init = self._parse_declaration(file_scope=False)
            else:
                init = self._parse_expression()
                self._expect_punct(";")
        else:
            self._next()
        condition = None
        if not self._peek().is_punct(";"):
            condition = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._peek().is_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.For(line=token.line, init=init, condition=condition, step=step, body=body)

    def _parse_switch(self) -> c_ast.Switch:
        token = self._next()
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return c_ast.Switch(line=token.line, expression=expression, body=body)

    def _parse_case(self) -> c_ast.Case:
        token = self._next()
        expr = self._parse_assignment(_CONDITIONAL)
        self._expect_punct(":")
        return c_ast.Case(line=token.line, expression=expr, statement=self._parse_statement())

    def _parse_default(self) -> c_ast.Default:
        token = self._next()
        self._expect_punct(":")
        return c_ast.Default(line=token.line, statement=self._parse_statement())

    def _parse_return(self) -> c_ast.Return:
        token = self._next()
        value = None
        if not self._peek().is_punct(";"):
            value = self._parse_expression()
        self._expect_punct(";")
        return c_ast.Return(line=token.line, value=value)

    def _parse_break_or_continue(self) -> c_ast.Break | c_ast.Continue:
        token = self._next()
        self._expect_punct(";")
        node = c_ast.Break if token.text == "break" else c_ast.Continue
        return node(line=token.line)

    def _parse_goto(self) -> c_ast.Goto:
        token = self._next()
        label = self._expect_identifier().text
        self._expect_punct(";")
        return c_ast.Goto(line=token.line, label=label)

    _STATEMENTS: dict[str, Callable[[Parser], c_ast.Statement]] = {
        "if": _parse_if, "while": _parse_while, "do": _parse_do_while,
        "for": _parse_for, "switch": _parse_switch, "case": _parse_case,
        "default": _parse_default, "return": _parse_return,
        "break": _parse_break_or_continue, "continue": _parse_break_or_continue,
        "goto": _parse_goto,
    }

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> c_ast.Expression:
        expr = self._parse_assignment()
        tokens = self.tokens
        while (token := tokens[self.index]).kind is TokenKind.PUNCTUATOR and token.text == ",":
            self.index += 1
            expr = c_ast.Comma(line=token.line, left=expr, right=self._parse_assignment())
        return expr

    def _parse_assignment(self, min_precedence: int = _ASSIGNMENT) -> c_ast.Expression:
        """An assignment expression (C11 6.5.16), by precedence climbing.

        One loop takes every operator that binds at least ``min_precedence``
        (``_PRECEDENCE``): the binary operators left-associative, ``?:`` and
        assignment right-associative.  ``_CONDITIONAL`` asks for a
        conditional expression (6.5.15), as constant expressions are.  An
        assignment's target is the whole operand before its operator, an
        lvalue or not (``a + b = c``).  Only punctuators spell operators, so
        the token's text alone selects its precedence.
        """
        expr = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            precedence = _PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return expr
            self.index += 1
            if precedence > _CONDITIONAL:
                expr = c_ast.BinaryOp(line=token.line, op=token.text, left=expr,
                                      right=self._parse_assignment(precedence + 1))
            elif precedence == _CONDITIONAL:
                then = self._parse_expression()
                self._expect_punct(":")
                expr = c_ast.Conditional(line=token.line, condition=expr, then=then,
                                         otherwise=self._parse_assignment(_CONDITIONAL))
            else:
                expr = c_ast.Assignment(line=token.line, op=token.text, target=expr,
                                        value=self._parse_assignment())

    def _starts_type_name(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind is TokenKind.KEYWORD:
            return token.text in _TYPE_SPECIFIER_KEYWORDS or token.text in _QUALIFIER_KEYWORDS
        return token.kind is TokenKind.IDENTIFIER and token.text in self.typedefs

    def _parse_unary(self, cast: bool = True) -> c_ast.Expression:
        """A cast expression (C11 6.5.4), or with ``cast`` False a unary
        expression (6.5.3): its prefix operators, or its primary expression
        (6.5.1) and the postfix operators after it (6.5.2).
        """
        token = self.tokens[self.index]
        kind = token.kind
        text = token.text
        if kind is TokenKind.IDENTIFIER:
            self.index += 1
            value = self.enum_constants.get(text)
            if value is None:
                expr = c_ast.Identifier(line=token.line, name=text)
            else:
                expr = c_ast.IntegerLiteral(line=token.line, value=value, type=ct.INT)
        elif kind is TokenKind.INT_CONST:
            self.index += 1
            constant = token.value
            assert isinstance(constant, IntConstant)
            expr = c_ast.IntegerLiteral(line=token.line, value=constant.value,
                                        type=self._integer_constant_type(constant))
        elif kind is TokenKind.PUNCTUATOR:
            if text == "(":
                if cast and self._starts_type_name(1):
                    self.index += 1
                    target_type = self._parse_type_name()
                    self._expect_punct(")")
                    if self._peek().is_punct("{"):
                        # A compound literal: an initializer list cast to the
                        # target type.
                        operand = self._parse_initializer()
                    else:
                        operand = self._parse_unary()
                    return c_ast.Cast(line=token.line, target_type=target_type, operand=operand)
                self.index += 1
                expr = self._parse_expression()
                self._expect_punct(")")
            elif text == "++" or text == "--":
                self.index += 1
                return c_ast.UnaryOp(line=token.line, op=text + "pre",
                                     operand=self._parse_unary(cast=False))
            elif text in _PREFIX_OPERATORS:
                self.index += 1
                operand = self._parse_unary()
                if text == "&" and type(operand) is c_ast.Identifier:
                    self.addressed.add(operand.name)
                return c_ast.UnaryOp(line=token.line, op=text, operand=operand)
            else:
                raise self._error(f"unexpected token {text!r} in expression")
        elif kind is TokenKind.KEYWORD and text == "sizeof":
            self.index += 1
            if self._peek().is_punct("(") and self._starts_type_name(1):
                self.index += 1
                type_name = self._parse_type_name()
                self._expect_punct(")")
                return c_ast.SizeofType(line=token.line, type_name=type_name)
            return c_ast.UnaryOp(line=token.line, op="sizeof",
                                 operand=self._parse_unary(cast=False))
        elif kind is TokenKind.KEYWORD and text == "_Alignof":
            self.index += 1
            self._expect_punct("(")
            type_name = self._parse_type_name()
            self._expect_punct(")")
            return c_ast.SizeofType(line=token.line, type_name=type_name)
        elif kind is TokenKind.STRING:
            self.index += 1
            text = str(token.value)
            # Adjacent string literals concatenate (§6.4.5).
            while self._peek().kind is TokenKind.STRING:
                text += str(self._next().value)
            expr = c_ast.StringLiteral(line=token.line, value=text)
        elif kind is TokenKind.CHAR_CONST:
            self.index += 1
            expr = c_ast.CharLiteral(line=token.line, value=int(token.value))
        elif kind is TokenKind.FLOAT_CONST:
            self.index += 1
            constant = token.value
            assert isinstance(constant, FloatConstant)
            ftype = ct.FLOAT if constant.is_float else (
                ct.LDOUBLE if constant.is_long_double else ct.DOUBLE)
            expr = c_ast.FloatLiteral(line=token.line, value=constant.value, type=ftype)
        else:
            raise self._error(f"unexpected token {text!r} in expression")

        tokens = self.tokens
        while True:
            token = tokens[self.index]
            text = token.text
            if text not in _POSTFIX_OPERATORS:
                return expr
            self.index += 1
            if text == "[":
                index = self._parse_expression()
                self._expect_punct("]")
                expr = c_ast.ArraySubscript(line=token.line, array=expr, index=index)
            elif text == "(":
                arguments: list[c_ast.Expression] = []
                if not self._peek().is_punct(")"):
                    arguments.append(self._parse_assignment())
                    while self._accept_punct(","):
                        arguments.append(self._parse_assignment())
                self._expect_punct(")")
                expr = c_ast.Call(line=token.line, function=expr, arguments=arguments)
            elif text == "." or text == "->":
                member = self._expect_identifier().text
                expr = c_ast.Member(line=token.line, object=expr, member=member,
                                    arrow=text == "->")
            else:
                expr = c_ast.UnaryOp(line=token.line, op=text + "post", operand=expr)

    def _integer_constant_type(self, constant: IntConstant) -> ct.CType:
        """Pick the type of an integer constant (§6.4.4.1:5): the first of
        its candidate types that can represent its value, else the last."""
        chain = self._constant_types[
            constant.unsigned, constant.base == 10,
            2 if constant.long_long else 1 if constant.long else 0]
        value = constant.value
        for largest, ctype in chain:
            if value <= largest:
                return ctype
        return ctype


#: ``_constant_type_chains(profile)``'s tables, one per profile.
_CONSTANT_TYPE_CHAINS: dict[ct.ImplementationProfile, dict[tuple, tuple]] = {}


def _constant_type_chains(profile: ct.ImplementationProfile) -> dict[tuple, tuple]:
    """The candidate types of an integer constant (C11 6.4.4.1:5) under
    ``profile``, each with the largest value it represents, keyed by
    ``(unsigned suffix, decimal, length suffix: 0, 1 for l or 2 for ll)``.

    A constant's value is never negative, so its largest value alone
    decides whether a candidate type represents it.
    """
    chains = _CONSTANT_TYPE_CHAINS.get(profile)
    if chains is None:
        chains = {}
        for unsigned in (False, True):
            for decimal in (False, True):
                if unsigned:
                    candidates = (ct.UINT, ct.ULONG, ct.ULLONG)
                elif decimal:
                    candidates = (ct.INT, ct.LONG, ct.LLONG)
                else:
                    candidates = (ct.INT, ct.UINT, ct.LONG, ct.ULONG, ct.LLONG, ct.ULLONG)
                for length, least_rank in enumerate((0, 4, 5)):
                    chains[unsigned, decimal, length] = tuple(
                        (ct.integer_range(ctype, profile)[1], ctype)
                        for ctype in candidates if ctype.rank >= least_rank)
        _CONSTANT_TYPE_CHAINS[profile] = chains
    return chains


#: ``fold_constant`` gives up on a left shift by more than this: far beyond
#: the widest integer type of any profile, yet ``1 << MAX_FOLDED_SHIFT``
#: stays a small number to build.
MAX_FOLDED_SHIFT = 4096


def fold_constant(expr: c_ast.Expression,
                  profile: ct.ImplementationProfile = ct.LP64) -> Optional[int]:
    """Best-effort integer constant folding used at parse/static-check time.

    The static checker folds in its own pass, bottom-up, by the same
    per-operator rules: :func:`fold_sizeof`, :func:`fold_unary`,
    :func:`fold_cast` and :func:`fold_binary`.
    """
    if isinstance(expr, (c_ast.IntegerLiteral, c_ast.CharLiteral)):
        return expr.value
    if isinstance(expr, c_ast.SizeofType) and expr.type_name is not None:
        return fold_sizeof(expr.type_name, profile)
    if isinstance(expr, c_ast.UnaryOp) and expr.operand is not None:
        inner = fold_constant(expr.operand, profile)
        return None if inner is None else fold_unary(expr.op, inner)
    if isinstance(expr, c_ast.Cast) and expr.operand is not None:
        inner = fold_constant(expr.operand, profile)
        if inner is None or expr.target_type is None:
            return None
        return fold_cast(expr.target_type, inner, profile)
    if isinstance(expr, c_ast.Conditional):
        cond = fold_constant(expr.condition, profile) if expr.condition else None
        if cond is None:
            return None
        branch = expr.then if cond else expr.otherwise
        return fold_constant(branch, profile) if branch is not None else None
    if isinstance(expr, c_ast.BinaryOp) and expr.left is not None and expr.right is not None:
        left = fold_constant(expr.left, profile)
        right = fold_constant(expr.right, profile)
        if left is None or right is None:
            return None
        return fold_binary(expr.op, left, right)
    return None


def fold_sizeof(ctype: ct.CType, profile: ct.ImplementationProfile) -> Optional[int]:
    try:
        return ct.size_of(ctype, profile)
    except ct.LayoutError:
        return None


def fold_unary(op: str, value: int) -> Optional[int]:
    if op == "-":
        return -value
    if op == "+":
        return value
    if op == "~":
        return ~value
    if op == "!":
        return 0 if value else 1
    return None


def fold_cast(target_type: ct.CType, value: int,
              profile: ct.ImplementationProfile) -> Optional[int]:
    if not target_type.is_integer:
        return None
    if ct.is_signed_type(target_type, profile):
        bits = ct.integer_bits(target_type, profile)
        value &= (1 << bits) - 1
        if value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value
    return ct.wrap_unsigned(value, target_type, profile)


_BINARY_FOLDS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)), "||": lambda a, b: int(bool(a) or bool(b)),
}


def fold_binary(op: str, left: int, right: int) -> Optional[int]:
    """``left op right``, or None where C leaves it undefined or the fold
    gives up (a zero divisor, a negative shift, a left shift past
    ``MAX_FOLDED_SHIFT``)."""
    try:
        if op == "/" or op == "%":
            if right == 0:
                return None
            quotient = ct.trunc_div(left, right)
            return quotient if op == "/" else left - quotient * right
        if op == "<<":
            return left << right if 0 <= right <= MAX_FOLDED_SHIFT else None
        if op == ">>":
            return left >> right if right >= 0 else None
        fold = _BINARY_FOLDS.get(op)
        return None if fold is None else fold(left, right)
    except (ValueError, OverflowError):
        return None


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def parse(source: str, *, filename: str = "<input>",
          profile: ct.ImplementationProfile = ct.LP64) -> c_ast.TranslationUnit:
    """Preprocess, tokenize and parse C source text."""
    return parse_unit(source, filename=filename, profile=profile)[0]


def parse_unit(source: str, *, filename: str = "<input>",
               profile: ct.ImplementationProfile = ct.LP64
               ) -> tuple[c_ast.TranslationUnit, Optional[Prelude]]:
    """:func:`parse`, and the prelude snapshot the unit starts from, or None.

    A unit whose opening lines are only builtin ``#include`` lines starts from
    their prelude (:mod:`repro.cfront.prelude`): only the lines after them are
    preprocessed, tokenized and parsed, and the header declarations head the
    unit's ``declarations``.
    """
    # Imported here because the prelude module imports this one.
    from repro.cfront.prelude import find_prelude

    lines = source_lines(source)
    prelude = find_prelude(lines, profile)
    tokens = tokenize(preprocess(lines, filename=filename, prelude=prelude), filename)
    parser = Parser(tokens, filename=filename, profile=profile)
    if prelude is not None:
        parser.typedefs.update(prelude.typedefs)
    unit = parser.parse_translation_unit()
    if prelude is not None:
        unit.declarations[:0] = prelude.declarations
    return unit, prelude


def parse_file(path: str, *, profile: ct.ImplementationProfile = ct.LP64) -> c_ast.TranslationUnit:
    """Parse a C file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), filename=path, profile=profile)
