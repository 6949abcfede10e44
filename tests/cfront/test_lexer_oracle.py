"""The regex lexer against the character-at-a-time lexer it replaced.

``reference_lexer.py`` is that lexer, kept verbatim as a test oracle.  On
every input the two must produce the same tokens, or the same error with
the same message, line and column.  The one intended difference is octal
escapes (C11 6.4.4.4): an octal escape is 1-3 digits in ``[0-7]``, so
``\\8`` is an unknown escape and ``'\\18'`` is the two characters ``\\1``
and ``8``.  The oracle with that rule patched in must agree exactly, and
the unpatched oracle must agree on any input without a backslash before a
digit.  The other intended difference is a floating constant spelled with a
non-decimal Unicode digit (``1.²``): the oracle lets ``float()``'s
``ValueError`` out, the regex lexer reports a ``CParseError``; the two
count as the same outcome, without a position to compare.  On the same
inputs, ``join_lines`` (which puts an included header on its ``#include``
line) must keep the tokens, or the error message.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cfront.lexer import _D, join_lines, tokenize
from repro.errors import CParseError
from tests.cfront import reference_lexer

OCTAL_DIGITS = "01234567"


class OctalFixedLexer(reference_lexer.Lexer):
    """The reference lexer with C11 octal escapes."""

    def _lex_escape(self) -> str:
        ch = self._peek(1)
        if ch and ch in OCTAL_DIGITS:
            self._advance()
            digits = ""
            while self._peek() and self._peek() in OCTAL_DIGITS and len(digits) < 3:
                digits += self._advance()
            return chr(int(digits, 8) & 0xFF)
        if ch.isdigit():
            self._advance()
            raise self._error(f"unknown escape sequence \\{ch}")
        return super()._lex_escape()


#: The reference lexer loops forever on a ``\x`` escape whose hex digits
#: run to the end of the text; the regex lexer reports the unterminated
#: literal (see test_lexer.py).
HANGS_REFERENCE = re.compile(r"\\x[0-9a-fA-F]*\Z")

PUNCTUATION = [*reference_lexer.PUNCTUATORS, ".."]
SKIPPED = [" ", "\t", "\n", "\r", "\f", "\v", "#", '# 1 "x.c"\n', "//", "/*", "*/"]
NUMBERS = ["0", "1", "7", "8", "9", ".5", "1.", "1e+", "1e5", "0x", "0X1fUL", "08"]
SUFFIXES = ["1f", "1ull", "e", "E", "x", "u", "L", "f"]
QUOTES = ['"', "'", "'a'", '"s"']
ESCAPES = ["\\", "\\x", "\\x41", "\\0", "\\1", "\\8", "\\n", "\\q"]
#: Characters on which str.isalpha/isdigit and the regex \w/\d disagree.
WORDS = ["a", "_", "int", "while", "é", "²", "٣", "½", "@", "$", "\x00"]
PIECES = PUNCTUATION + SKIPPED + NUMBERS + SUFFIXES + QUOTES + ESCAPES + WORDS

sources = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    st.text(alphabet="".join(sorted(set("".join(PIECES)))), max_size=24),
)


MALFORMED_FLOAT = "malformed floating constant"


def outcome(make_tokens) -> object:
    try:
        return [_normalized(token) for token in make_tokens()]
    except CParseError as error:
        if str(error).startswith(MALFORMED_FLOAT):
            return MALFORMED_FLOAT
        return ("CParseError", str(error), error.line, error.column)


def reference_outcome(make_tokens) -> object:
    """``outcome`` of an oracle lexer, whose ``float()`` of non-decimal
    digits raises ``ValueError``."""
    try:
        return outcome(make_tokens)
    except ValueError:
        return MALFORMED_FLOAT


def _normalized(token) -> tuple:
    value = token.value
    if dataclasses.is_dataclass(value):
        value = (type(value).__name__, *dataclasses.astuple(value))
    return (token.kind.value, token.text, token.line, token.column, value)


def _has_digit_escape(source: str) -> bool:
    return any(a == "\\" and b.isdigit() for a, b in zip(source, source[1:]))


@settings(max_examples=2000, deadline=None)
@given(source=sources)
def test_tokens_and_errors_match_the_reference(source):
    assume(not HANGS_REFERENCE.search(source))
    expected = reference_outcome(lambda: OctalFixedLexer(source).tokens())
    assert outcome(lambda: tokenize(source)) == expected
    if not _has_digit_escape(source):
        reference = reference_outcome(lambda: reference_lexer.Lexer(source).tokens())
        assert reference == expected


def lexed(source: str) -> object:
    """The tokens without their places, or the error message alone."""
    try:
        return [(token.kind, token.text, token.value) for token in tokenize(source)]
    except CParseError as error:
        return str(error).rsplit(" at line ", 1)[0]


@settings(max_examples=2000, deadline=None)
@given(source=sources)
def test_joined_lines_lex_alike(source):
    joined = join_lines(source)
    tokens = lexed(source)
    assert lexed(joined) == tokens
    if isinstance(tokens, list) and not any("\n" in token[1] for token in tokens):
        assert "\n" not in joined


@pytest.mark.parametrize(
    "source",
    [
        "int main(void) { return 0; }",
        "a...b..c.5 1. 1e+ 0x 0X1fUL 08 1f 1ull",
        "x = '\\n' + '\\x41' + 'ab';\n\"s\\t\\\"q\\\"\" /* c\n */ y // z",
        "#line 1\n  # 2\nq",
        "x /* a /* b */ y /* c\n /* d",
        "'\n'",
        "é² ٣ ½",
        "1²f",
    ],
)
def test_examples_match_the_reference(source):
    expected = reference_outcome(lambda: reference_lexer.Lexer(source).tokens())
    assert outcome(lambda: tokenize(source)) == expected


def test_digit_class_is_str_isdigit():
    digit = re.compile(_D)
    mismatched = [
        code
        for code in range(sys.maxunicode + 1)
        if bool(digit.match(chr(code))) != chr(code).isdigit()
    ]
    assert mismatched == []


def test_word_class_is_isalnum_or_underscore():
    word = re.compile(r"\w")
    mismatched = [
        code
        for code in range(sys.maxunicode + 1)
        if bool(word.match(chr(code))) != (chr(code).isalnum() or chr(code) == "_")
    ]
    assert mismatched == []


def test_no_source_module_imports_the_reference():
    src = Path(__file__).resolve().parents[2] / "src"
    importers = [
        str(path)
        for path in src.rglob("*.py")
        if "reference_lexer" in path.read_text(encoding="utf-8")
    ]
    assert importers == []
