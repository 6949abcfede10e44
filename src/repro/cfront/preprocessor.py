"""A small, self-contained C preprocessor.

Before any directive runs, the source goes through translation phases 2
and 3 (C11 5.1.1.2), in a form that keeps every line where it was:

* a backslash-newline splice is deleted, and the newlines it removed go
  after the logical line, so a token spliced in the middle stays whole and
  the lines after it keep their numbers;
* each comment outside string literals and character constants becomes
  spaces, its own newlines kept, so no token's line or column moves and a
  directive or macro inside a comment does nothing.  An unterminated ``/*``
  stays for the lexer to report.

The preprocessor then supports the features our test suites and example
programs actually use:

* ``#include <header>`` / ``#include "header"`` resolved against the builtin
  header table (:mod:`repro.cfront.headers`) plus an optional user-provided
  mapping (so multi-file test programs work without touching the host file
  system),
* object-like and function-like ``#define`` / ``#undef`` with recursive
  expansion protection,
* conditional compilation: ``#if`` / ``#ifdef`` / ``#ifndef`` / ``#elif`` /
  ``#else`` / ``#endif``.  After ``defined`` and macro expansion, an ``#if``
  condition is tokenized by the lexer, every identifier or keyword left in
  it becomes ``0`` (C11 6.10.1), and it is parsed with the parser's own
  expression grammar and folded by its ``fold_constant``,
* ``#error`` (raises), other directives (``#pragma``, ``#line``) are ignored.

The output is plain C text with the original line structure preserved, so
token line numbers still make sense for error reports: directive lines
become empty lines, and an included header's text is joined onto the line
of its ``#include``.

A preprocessor may start from a prelude snapshot
(:mod:`repro.cfront.prelude`): the macros and included headers after the
``#include`` lines that open the unit (:func:`opening_includes`).  Those
lines then come out empty, as their header text is already parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.cfront.headers import BUILTIN_HEADERS
from repro.cfront.lexer import IntConstant, Token, TokenKind, join_lines, tokenize
from repro.errors import CParseError

if TYPE_CHECKING:
    from repro.cfront.prelude import Prelude


@dataclass
class MacroDefinition:
    name: str
    body: str
    parameters: Optional[list[str]] = None  # None == object-like

    @property
    def is_function_like(self) -> bool:
        return self.parameters is not None


# A string literal or character constant (to its closing quote or the end of
# the text), or an identifier: what macro expansion looks at.
_LITERAL_OR_NAME_RE = re.compile(
    r"""(["'])(?:\\.|(?!\1)[^\\])*\1?|[A-Za-z_]\w*""", re.S | re.A)
# Every name in a text, literals included: a superset of what expansion
# looks up, so a text none of whose names is a macro expands to itself.
_NAME_RE = re.compile(r"[A-Za-z_]\w*", re.A)
_DEFINE_RE = re.compile(
    r"^\s*#\s*define\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?P<params>\([^)]*\))?(?P<body>.*)$")
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+[<"](?P<name>[^>"]+)[>"]\s*$')
_DIRECTIVE_RE = re.compile(r"^\s*#\s*(?P<directive>[a-z_]+)\b(?P<rest>.*)$")
# Phase 2: a run of physical lines that end in a backslash, and the line
# that ends the run.
_SPLICE_RE = re.compile(r"^(?:[^\n]*\\\n)+[^\n]*", re.M)
# Phase 3: a comment, or a literal that may hold comment-like text.  A
# literal stops at the end of its line.
_COMMENT_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"""|"(?:[^"\\\n]++|\\[^\n])*+"?|'(?:[^'\\\n]++|\\[^\n])*+'?""",
    re.S)


def source_lines(source: str) -> list[str]:
    """The lines of ``source`` after translation phases 2 and 3: as many lines
    as ``source`` has."""
    if "\\\n" in source:
        source = _SPLICE_RE.sub(_splice, source)
    if "//" in source or "/*" in source:
        source = _COMMENT_RE.sub(_blank_comment, source)
    return source.split("\n")


def _splice(match: re.Match[str]) -> str:
    text = match[0]
    return text.replace("\\\n", "") + "\n" * text.count("\\\n")


def _blank_comment(match: re.Match[str]) -> str:
    text = match[0]
    if text[0] != "/":
        return text
    if "\n" not in text:
        return " " * len(text)
    return "\n".join(" " * len(part) for part in text.split("\n"))


def opening_includes(lines: list[str]) -> tuple[tuple[int, str], ...]:
    """``(line, header)`` of each ``#include`` of a builtin header that opens
    ``lines``: before the first line that is neither blank nor such an include.
    """
    includes = []
    for lineno, line in enumerate(lines, start=1):
        match = _INCLUDE_RE.match(line)
        if match is not None and match.group("name") in BUILTIN_HEADERS:
            includes.append((lineno, match.group("name")))
        elif line.strip():
            break
    return tuple(includes)


class Preprocessor:
    """Expand directives and macros in C source text."""

    def __init__(self, extra_headers: Optional[dict[str, str]] = None,
                 predefined: Optional[dict[str, str]] = None,
                 prelude: Optional[Prelude] = None) -> None:
        self.headers = dict(BUILTIN_HEADERS)
        if extra_headers:
            self.headers.update(extra_headers)
        self.macros: dict[str, MacroDefinition] = {}
        self.included: set[str] = set()
        self.prelude = prelude
        if prelude is not None:
            self.macros.update(prelude.macros)
            self.included.update(prelude.included)
        for name, body in (predefined or {}).items():
            self.macros[name] = MacroDefinition(name, body)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def preprocess(self, source: Union[str, list[str]], filename: str = "<input>") -> str:
        """Preprocess C source text, or the lines :func:`source_lines` made of it."""
        lines = source_lines(source) if isinstance(source, str) else source
        if self.prelude is not None:
            # The prelude holds what the opening #include lines produce.
            lines = [""] * self.prelude.last_line + lines[self.prelude.last_line:]
        out = self._process_lines(lines, filename)
        return "\n".join(out)

    def _process_lines(self, lines: list[str], filename: str) -> list[str]:
        output: list[str] = []
        # Conditional stack: each entry is (taking, taken_any, seen_else)
        cond_stack: list[list[bool]] = []

        def active() -> bool:
            return all(frame[0] for frame in cond_stack)

        for lineno, line in enumerate(lines, start=1):
            directive = self._match_directive(line) if "#" in line else None
            if directive is None:
                if not cond_stack or active():
                    output.append(self._expand_line(line, lineno, filename))
                else:
                    output.append("")
                continue
            name, rest = directive
            if name in ("ifdef", "ifndef", "if"):
                if not active():
                    cond_stack.append([False, True, False])
                    output.append("")
                    continue
                taking = self._evaluate_condition(name, rest, lineno)
                cond_stack.append([taking, taking, False])
            elif name == "elif":
                if not cond_stack:
                    raise CParseError("#elif without #if", lineno)
                frame = cond_stack[-1]
                if frame[2]:
                    raise CParseError("#elif after #else", lineno)
                if frame[1]:
                    frame[0] = False
                else:
                    cond_stack.pop()
                    if active():
                        taking = self._evaluate_condition("if", rest, lineno)
                    else:
                        taking = False
                    cond_stack.append([taking, taking or frame[1], False])
            elif name == "else":
                if not cond_stack:
                    raise CParseError("#else without #if", lineno)
                frame = cond_stack[-1]
                if frame[2]:
                    raise CParseError("duplicate #else", lineno)
                frame[2] = True
                frame[0] = (not frame[1]) and all(f[0] for f in cond_stack[:-1])
                frame[1] = True
            elif name == "endif":
                if not cond_stack:
                    raise CParseError("#endif without #if", lineno)
                cond_stack.pop()
            elif not active():
                pass  # ignore all other directives inside a false branch
            elif name == "include":
                # The header goes on the #include line itself, so every later
                # line keeps its own number in diagnostics.
                header = self._handle_include(line, lineno, filename)
                output.append(join_lines("\n".join(header)))
                continue
            elif name == "define":
                self._handle_define(line, lineno)
            elif name == "undef":
                macro_name = rest.strip()
                self.macros.pop(macro_name, None)
            elif name == "error":
                raise CParseError(f"#error{rest}", lineno)
            elif name in ("pragma", "line", "warning"):
                pass
            else:
                raise CParseError(f"unsupported preprocessor directive #{name}", lineno)
            output.append("")
        if cond_stack:
            raise CParseError("unterminated #if block")
        return output

    @staticmethod
    def _match_directive(line: str) -> Optional[tuple[str, str]]:
        stripped = line.lstrip()
        if not stripped.startswith("#"):
            return None
        match = _DIRECTIVE_RE.match(line)
        if not match:
            return ("pragma", "")  # bare '#' line: ignore
        return match.group("directive"), match.group("rest")

    # ------------------------------------------------------------------
    # Directives
    # ------------------------------------------------------------------
    def _handle_include(self, line: str, lineno: int, filename: str) -> list[str]:
        match = _INCLUDE_RE.match(line)
        if not match:
            raise CParseError(f"malformed #include: {line.strip()!r}", lineno)
        name = match.group("name")
        if name in self.included:
            return [""]
        if name not in self.headers:
            raise CParseError(f"unknown header {name!r} (no host includes available)", lineno)
        self.included.add(name)
        return self._process_lines(source_lines(self.headers[name]), name)

    def _handle_define(self, line: str, lineno: int) -> None:
        match = _DEFINE_RE.match(line)
        if not match:
            raise CParseError(f"malformed #define: {line.strip()!r}", lineno)
        name = match.group("name")
        params_text = match.group("params")
        body = match.group("body").strip()
        if params_text is None:
            self.macros[name] = MacroDefinition(name, body)
            return
        params_inner = params_text[1:-1].strip()
        if params_inner:
            params = [p.strip() for p in params_inner.split(",")]
        else:
            params = []
        self.macros[name] = MacroDefinition(name, body, params)

    # ------------------------------------------------------------------
    # Macro expansion
    # ------------------------------------------------------------------
    def _expand_line(self, line: str, lineno: int, filename: str) -> str:
        # One scan and a set test: a line that names no macro, as every line
        # of a unit without macros, skips the search loop.
        if not self.macros or self.macros.keys().isdisjoint(_NAME_RE.findall(line)):
            return line
        return self._expand_text(line, lineno, frozenset())

    def _expand_text(self, text: str, lineno: int, active: frozenset[str]) -> str:
        result: list[str] = []
        copied = pos = 0  # text[:copied] is in result
        while (match := _LITERAL_OR_NAME_RE.search(text, pos)) is not None:
            pos = match.end()
            name = match[0]
            macro = None if match[1] or name in active else self.macros.get(name)
            if macro is None:
                continue
            if macro.is_function_like:
                call_end, args = self._parse_macro_args(text, pos)
                if args is None:
                    continue
                pos = call_end
                expansion = self._substitute(macro, args, lineno, active)
            else:
                expansion = self._expand_text(macro.body, lineno, active | {name})
            result.append(text[copied:match.start()])
            result.append(expansion)
            copied = pos
        if not result:
            return text
        result.append(text[copied:])
        return "".join(result)

    @staticmethod
    def _skip_literal(text: str, start: int) -> int:
        quote = text[start]
        index = start + 1
        while index < len(text):
            if text[index] == "\\":
                index += 2
                continue
            if text[index] == quote:
                return index + 1
            index += 1
        return len(text)

    @staticmethod
    def _parse_macro_args(text: str, index: int) -> tuple[int, Optional[list[str]]]:
        """Parse ``(arg, arg, ...)`` starting at ``index`` (skipping spaces)."""
        pos = index
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        if pos >= len(text) or text[pos] != "(":
            return index, None
        depth = 0
        args: list[str] = []
        current: list[str] = []
        while pos < len(text):
            ch = text[pos]
            if ch in "\"'":
                end = Preprocessor._skip_literal(text, pos)
                current.append(text[pos:end])
                pos = end
                continue
            if ch == "(":
                depth += 1
                if depth > 1:
                    current.append(ch)
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    return pos + 1, args
                current.append(ch)
            elif ch == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
            pos += 1
        return index, None

    def _substitute(self, macro: MacroDefinition, args: list[str], lineno: int,
                    active: frozenset[str]) -> str:
        params = macro.parameters or []
        if len(params) != len(args):
            if not (len(params) == 0 and args == [""]):
                raise CParseError(
                    f"macro {macro.name!r} expects {len(params)} arguments, got {len(args)}",
                    lineno)
            args = []
        expanded_args = [self._expand_text(a, lineno, active) for a in args]
        mapping = dict(zip(params, expanded_args))
        body = _LITERAL_OR_NAME_RE.sub(
            lambda match: match[0] if match[1] else mapping.get(match[0], match[0]),
            macro.body)
        return self._expand_text(body, lineno, active | {macro.name})

    # ------------------------------------------------------------------
    # #if expression evaluation
    # ------------------------------------------------------------------
    def _evaluate_condition(self, directive: str, rest: str, lineno: int) -> bool:
        rest = rest.strip()
        if directive == "ifdef":
            return rest in self.macros
        if directive == "ifndef":
            return rest not in self.macros
        return self._evaluate_if_expression(rest, lineno) != 0

    def _evaluate_if_expression(self, text: str, lineno: int) -> int:
        # Replace defined(NAME) / defined NAME before macro expansion.
        def replace_defined(match: re.Match[str]) -> str:
            name = match.group("name") or match.group("bare")
            return "1" if name in self.macros else "0"

        text = re.sub(
            r"defined\s*(?:\(\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\)|(?P<bare>[A-Za-z_][A-Za-z0-9_]*))",
            replace_defined, text)
        text = self._expand_text(text, lineno, frozenset())
        # Imported here because the parser module imports this one.
        from repro.cfront.parser import Parser, fold_constant

        zero = IntConstant(0)
        try:
            # Identifiers left after expansion, keywords too, are 0 (C11 6.10.1).
            tokens = [Token(TokenKind.INT_CONST, "0", token.line, token.column, zero)
                      if token.kind is TokenKind.IDENTIFIER or token.kind is TokenKind.KEYWORD
                      else token for token in tokenize(text)]
            value = fold_constant(Parser(tokens).parse_constant_expression())
        except CParseError as error:
            raise CParseError(f"bad #if expression {text.strip()!r}", lineno) from error
        if value is None:
            raise CParseError(
                f"#if expression {text.strip()!r} is not an integer constant", lineno)
        return value


def preprocess(source: Union[str, list[str]], *,
               extra_headers: Optional[dict[str, str]] = None,
               predefined: Optional[dict[str, str]] = None,
               filename: str = "<input>", prelude: Optional[Prelude] = None) -> str:
    """Convenience wrapper: preprocess ``source`` with a fresh preprocessor,
    started from ``prelude`` when that is the snapshot of its opening."""
    return Preprocessor(extra_headers=extra_headers, predefined=predefined,
                        prelude=prelude).preprocess(source, filename)
