"""A lexer for the C99/C11 subset supported by the reproduction.

The lexer works on already-preprocessed text (see
:mod:`repro.cfront.preprocessor`) and produces a flat list of
:class:`Token` objects carrying source positions, which every later stage
uses for error reports (kcc reports include the function and line of the
undefined behavior).

One compiled master regular expression does the scanning.  Each match is
the whitespace and comments before a token followed by the token itself,
so the matches tile the text: a token's column is a running offset from
the start of its line, and only skipped text (and the rare character
constant spanning a newline) moves the line counter.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

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


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern float
    for goto if inline int long register restrict return short signed sizeof
    static struct switch typedef union unsigned void volatile while _Bool
    _Alignof _Static_assert _Noreturn
    """.split()
)

# Longest-match-first list of punctuators.  ``#`` is not among them: a ``#``
# at the start of a token skips the rest of its line (residual line markers
# from the preprocessor).
PUNCTUATORS = tuple(
    """
    ... <<= >>= -> ++ -- << >> <= >= == != && || *= /= %= += -= &= ^= |=
    [ ] ( ) { } . & * + - ~ ! / % < > ^ | ? : ; = ,
    """.split()
)

SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "?": "?",
}


class Token:
    __slots__ = ("kind", "text", "line", "column", "value")

    def __init__(
        self, kind: TokenKind, text: str, line: int, column: int, value: object = None
    ) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.value = value  # decoded value for constants / string literals

    def _key(self) -> tuple:
        return (self.kind, self.text, self.line, self.column, self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
    is_float: bool = False  # 'f' suffix
    is_long_double: bool = False


# A digit is a ``str.isdigit`` character.  ``\d`` matches only the Unicode
# decimal digits, so the class adds the other digits (superscripts,
# subscripts, circled digits, ...); a test checks it against ``isdigit``
# over every code point.
_D = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff\u2776-\u277e"
    r"\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43\U00010e60-\U00010e68"
    r"\U00011052-\U0001105a\U0001f100-\U0001f10a]"
)
# An escape sequence (C11 6.4.4.4): simple, hexadecimal, or 1-3 octal digits.
_ESCAPE = r"""\\(?:[ntrabfv\\'"?]|x[0-9a-fA-F]+|[0-7]{1,3})"""
_SKIP = r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/|\#[^\n]*)*+"
_NUMBER = (
    r"0[xX][0-9a-fA-F]*[uUlLfF]*"
    rf"|(?:{_D}+(?:\.{_D}*)?|\.{_D}+)(?:[eE][+-]?{_D}+)?[uUlLfF]*"
)
# The longest valid start of a string literal or character constant, up to
# its closing quote.  A string stops only before a newline, a backslash that
# starts no escape, its closing quote or the end of the text; a character
# constant likewise, but it may hold newlines.
_STRING = rf'"(?:[^"\\\n]++|{_ESCAPE})*+'
_CHAR = rf"'(?:[^'\\]++|{_ESCAPE})*+"
# The one-character punctuators no other punctuator starts with are the
# most frequent tokens; as one class they are tried right after words.
_LONE = "".join(p for p in PUNCTUATORS if sum(q[0] == p for q in PUNCTUATORS) == 1)
_PUNCT = "|".join(re.escape(p) for p in PUNCTUATORS if p not in _LONE)

# Group 1 is the skipped text, group 2 the token, group 3 the closing quote
# of a literal (empty if it has none; a string cannot stop before a ``'``,
# nor a character constant before a ``"``).  The other error forms are an
# unterminated ``/*``, which takes the rest of the text and so ends the
# scan, a word starting with a non-letter, and any other character.  The
# token is empty only at the end of the text.
_TOKEN_RE = re.compile(
    rf"({_SKIP})([A-Za-z_]\w*|[{re.escape(_LONE)}]|{_NUMBER}|/\*.*|{_PUNCT}"
    rf"|(?:{_STRING}|{_CHAR})([\"']?)|\w+|.|\Z)",
    re.S,
)
_NUMBER_PARTS_RE = re.compile(r"(0[xX][0-9a-fA-F]*|[^uUlLfF]*)(.*)", re.S)
_ESCAPE_RE = re.compile(r"\\(?:x([0-9a-fA-F]+)|([0-7]{1,3})|(.))", re.S)
# Line joining: group 1 (block comments, line breaks) becomes a space and
# group 2 (what the lexer skips to the end of a line) is dropped.  Literals
# stay, and so does all text from a literal or ``/*`` that does not end.
_JOIN_RE = re.compile(
    rf"""(/\*.*?\*/|\n)|(//[^\n]*|\#[^\n]*)|{_STRING}"|{_CHAR}'|(?:["']|/\*).*""",
    re.S,
)
_FIXED_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(PUNCTUATORS, TokenKind.PUNCTUATOR),
}
_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize preprocessed source into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    fixed = _FIXED_KINDS.get
    identifier = TokenKind.IDENTIFIER
    line, line_start, pos = 1, 0, 0
    for skipped, text, closed in _TOKEN_RE.findall(source):
        if skipped:
            if "\n" in skipped:
                line += skipped.count("\n")
                line_start = pos + skipped.rindex("\n") + 1
            pos += len(skipped)
        kind = fixed(text)
        if kind is not None:
            append(Token(kind, text, line, pos - line_start + 1))
        elif text[:1] in _WORD_START:
            append(Token(identifier, text, line, pos - line_start + 1))
        elif not text:
            break
        else:
            append(_decode(source, pos, text, closed, line, pos - line_start + 1))
            if "\n" in text:  # a character constant spanning lines
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
        pos += len(text)
    append(Token(TokenKind.EOF, "", line, pos - line_start + 1))
    return tokens


def join_lines(text: str) -> str:
    """``text`` on one line: the same tokens, or the same error message.

    Block comments and line breaks become spaces and the ``//`` and ``#``
    tails the lexer skips are dropped, so none reaches past its own line.
    """
    if "/" in text or "#" in text or '"' in text or "'" in text:
        return _JOIN_RE.sub(_join_piece, text)
    return text.replace("\n", " ")


def _join_piece(match: re.Match[str]) -> str:
    return " " if match[1] else "" if match[2] else match[0]


def _decode(
    source: str, pos: int, text: str, closed: str, line: int, column: int
) -> Token:
    """The token for a literal or a non-ASCII word, or the error at ``pos``."""
    first = text[0]
    if first == '"' or first == "'":
        if not closed:
            raise _literal_error(source, pos, pos + len(text))
        value = text[1:-1]
        if "\\" in value:
            value = _ESCAPE_RE.sub(_unescape, value)
        if first == '"':
            return Token(TokenKind.STRING, f'"{value}"', line, column, value)
        if not value:
            raise _error(source, pos + 2, "empty character constant")
        return Token(TokenKind.CHAR_CONST, f"'{value}'", line, column, ord(value[-1]))
    if text[:2] == "/*":
        raise _error(source, len(source), "unterminated block comment")
    if first != "." and not first.isdigit():
        if first.isalpha():
            return Token(TokenKind.IDENTIFIER, text, line, column)
        raise _error(source, pos, f"unexpected character {first!r}")
    digits, suffix = _NUMBER_PARTS_RE.match(text).groups()
    suffix = suffix.lower()
    text = digits + suffix
    hexadecimal = digits[1:2] in ("x", "X")
    # Besides digits, a decimal constant can only hold "." and an exponent.
    if not hexadecimal and ("f" in suffix or not digits.isdigit()):
        try:
            float_value = float(digits)
        except ValueError as exc:  # a Unicode digit, as in "1.²"
            message = f"malformed floating constant {digits!r}"
            raise _error(source, pos, message) from exc
        value = FloatConstant(
            float_value,
            is_float="f" in suffix,
            is_long_double="l" in suffix and "f" not in suffix,
        )
        return Token(TokenKind.FLOAT_CONST, text, line, column, value)
    base = 16 if hexadecimal else 8 if first == "0" and len(digits) > 1 else 10
    try:
        int_value = int(digits, base)
    except ValueError as exc:
        raise _error(source, pos, f"malformed integer constant {digits!r}") from exc
    longs = suffix.count("l")
    value = IntConstant(
        int_value,
        unsigned="u" in suffix,
        long=longs == 1,
        long_long=longs >= 2,
        base=base,
    )
    return Token(TokenKind.INT_CONST, text, line, column, value)


def _unescape(match: re.Match[str]) -> str:
    hex_digits, octal_digits, simple = match.groups()
    if simple is not None:
        return SIMPLE_ESCAPES[simple]
    if hex_digits is not None:
        return chr(int(hex_digits, 16) & 0xFF)
    return chr(int(octal_digits, 8) & 0xFF)


def _literal_error(source: str, start: int, end: int) -> CParseError:
    """The defect at ``end`` of the unclosed literal that starts at ``start``."""
    if end == len(source):
        what = "string literal" if source[start] == '"' else "character constant"
        return _error(source, end, f"unterminated {what}")
    if source[end] == "\n":
        return _error(source, end, "newline in string literal")
    escape = source[end + 1 : end + 2]  # after a backslash that starts no escape
    if escape == "x":
        return _error(source, end + 2, "\\x used with no following hex digits")
    return _error(source, end + 1, f"unknown escape sequence \\{escape}")


def _error(source: str, offset: int, message: str) -> CParseError:
    line = source.count("\n", 0, offset) + 1
    line_start = source.rfind("\n", 0, offset) + 1
    return CParseError(message, line, offset - line_start + 1)
