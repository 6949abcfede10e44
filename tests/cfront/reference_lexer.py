"""A lexer for the C99/C11 subset supported by the reproduction.

The lexer works on already-preprocessed text (see
:mod:`repro.cfront.preprocessor`) and produces a flat list of
:class:`Token` objects carrying source positions, which every later stage
uses for error reports (kcc reports include the function and line of the
undefined behavior).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.errors import CParseError


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    INT_CONST = "integer-constant"
    FLOAT_CONST = "floating-constant"
    CHAR_CONST = "character-constant"
    STRING = "string-literal"
    PUNCTUATOR = "punctuator"
    EOF = "eof"


KEYWORDS = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool", "_Alignof",
    "_Static_assert", "_Noreturn",
})

# Longest-match-first list of punctuators.
PUNCTUATORS = (
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
)

SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "a": "\a", "b": "\b",
    "f": "\f", "v": "\v", "\\": "\\", "'": "'", '"': '"', "?": "?",
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None  # decoded value for constants / string literals

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind is TokenKind.PUNCTUATOR and self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, line={self.line})"


@dataclass(frozen=True)
class IntConstant:
    """Decoded integer constant: value plus suffix information."""

    value: int
    unsigned: bool = False
    long: bool = False
    long_long: bool = False
    base: int = 10


@dataclass(frozen=True)
class FloatConstant:
    value: float
    is_float: bool = False       # 'f' suffix
    is_long_double: bool = False


class Lexer:
    """Tokenizes preprocessed C source text."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low level helpers -------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos:self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def _error(self, message: str) -> CParseError:
        return CParseError(message, line=self.line, column=self.column)

    # -- whitespace and comments -------------------------------------------
    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            elif ch == "#":
                # Residual line markers from the preprocessor: skip the line.
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    # -- token producers -----------------------------------------------------
    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                yield Token(TokenKind.EOF, "", self.line, self.column)
                return
            yield self._next_token()

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(line, column)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        if ch == "'":
            return self._lex_char(line, column)
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCTUATOR, punct, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (self._peek(1).isdigit() or
                                         (self._peek(1) in "+-" and self._peek(2).isdigit())):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        digits = self.source[start:self.pos]
        suffix_start = self.pos
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        suffix = self.source[suffix_start:self.pos].lower()
        if is_float or "f" in suffix and not digits.lower().startswith("0x"):
            value = FloatConstant(
                value=float(digits),
                is_float="f" in suffix,
                is_long_double="l" in suffix and "f" not in suffix,
            )
            return Token(TokenKind.FLOAT_CONST, digits + suffix, line, column, value)
        base = 10
        text = digits
        if text.lower().startswith("0x"):
            base = 16
        elif text.startswith("0") and len(text) > 1:
            base = 8
        try:
            int_value = int(text, base)
        except ValueError as exc:
            raise CParseError(f"malformed integer constant {text!r}", line, column) from exc
        value = IntConstant(
            value=int_value,
            unsigned="u" in suffix,
            long=suffix.count("l") == 1,
            long_long=suffix.count("l") >= 2,
            base=base,
        )
        return Token(TokenKind.INT_CONST, digits + suffix, line, column, value)

    def _lex_escape(self) -> str:
        assert self._peek() == "\\"
        self._advance()
        ch = self._peek()
        if ch in SIMPLE_ESCAPES:
            self._advance()
            return SIMPLE_ESCAPES[ch]
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() in "0123456789abcdefABCDEF":
                digits += self._advance()
            if not digits:
                raise self._error("\\x used with no following hex digits")
            return chr(int(digits, 16) & 0xFF)
        if ch.isdigit():
            digits = ""
            while self._peek().isdigit() and len(digits) < 3:
                digits += self._advance()
            return chr(int(digits, 8) & 0xFF)
        raise self._error(f"unknown escape sequence \\{ch}")

    def _lex_string(self, line: int, column: int) -> Token:
        assert self._peek() == '"'
        self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == '"':
                self._advance()
                break
            if ch == "\n":
                raise self._error("newline in string literal")
            if ch == "\\":
                chars.append(self._lex_escape())
            else:
                chars.append(self._advance())
        value = "".join(chars)
        return Token(TokenKind.STRING, f'"{value}"', line, column, value)

    def _lex_char(self, line: int, column: int) -> Token:
        assert self._peek() == "'"
        self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated character constant")
            ch = self._peek()
            if ch == "'":
                self._advance()
                break
            if ch == "\\":
                chars.append(self._lex_escape())
            else:
                chars.append(self._advance())
        if not chars:
            raise self._error("empty character constant")
        # Multi-character constants have implementation-defined value; we take
        # the last character, which matches common implementations.
        value = ord(chars[-1])
        return Token(TokenKind.CHAR_CONST, f"'{''.join(chars)}'", line, column, value)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize preprocessed source into a list ending with an EOF token."""
    return list(Lexer(source, filename).tokens())
