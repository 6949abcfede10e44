"""Unit tests for the C lexer."""

import time

import pytest

from repro.cfront.lexer import (
    FloatConstant, IntConstant, TokenKind, join_lines, tokenize)
from repro.errors import CParseError


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while_ _bar")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[2].kind is TokenKind.IDENTIFIER  # while_ is not a keyword
        assert tokens[3].kind is TokenKind.IDENTIFIER

    def test_all_keywords_recognized(self):
        for keyword in ("if", "else", "while", "for", "return", "struct", "union",
                        "enum", "typedef", "sizeof", "const", "volatile", "_Bool"):
            token = tokenize(keyword)[0]
            assert token.kind is TokenKind.KEYWORD, keyword

    def test_punctuators_longest_match(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a-- -b") == ["a", "--", "-", "b"]
        assert texts("x...") == ["x", "..."]

    def test_line_and_column_tracking(self):
        tokens = tokenize("int x;\nint y;")
        assert tokens[0].line == 1
        y_token = [t for t in tokens if t.text == "y"][0]
        assert y_token.line == 2

    def test_unexpected_character_raises(self):
        with pytest.raises(CParseError):
            tokenize("int x @ y;")


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("int x; // comment here\nint y;") == ["int", "x", ";", "int", "y", ";"]

    def test_block_comment_skipped(self):
        assert texts("int /* hello */ x;") == ["int", "x", ";"]

    def test_block_comment_spanning_lines(self):
        tokens = tokenize("/* line one\nline two */ int x;")
        assert tokens[0].text == "int"
        assert tokens[0].line == 2

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(CParseError):
            tokenize("/* never closed")


class TestIntegerConstants:
    def test_decimal_constant(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT_CONST
        assert isinstance(token.value, IntConstant)
        assert token.value.value == 42
        assert token.value.base == 10

    def test_hex_constant(self):
        token = tokenize("0xFF")[0]
        assert token.value.value == 255
        assert token.value.base == 16

    def test_octal_constant(self):
        token = tokenize("0777")[0]
        assert token.value.value == 511
        assert token.value.base == 8

    def test_unsigned_suffix(self):
        token = tokenize("42u")[0]
        assert token.value.unsigned is True

    def test_long_suffixes(self):
        assert tokenize("42L")[0].value.long is True
        assert tokenize("42LL")[0].value.long_long is True
        assert tokenize("42uLL")[0].value.unsigned is True

    def test_zero(self):
        assert tokenize("0")[0].value.value == 0


class TestFloatingConstants:
    def test_simple_double(self):
        token = tokenize("3.5")[0]
        assert token.kind is TokenKind.FLOAT_CONST
        assert isinstance(token.value, FloatConstant)
        assert token.value.value == 3.5

    def test_exponent(self):
        assert tokenize("1e3")[0].value.value == 1000.0
        assert tokenize("2.5e-1")[0].value.value == 0.25

    def test_float_suffix(self):
        token = tokenize("1.5f")[0]
        assert token.value.is_float is True

    def test_unicode_digit_is_a_parse_error(self):
        # "²" is a digit to str.isdigit but not to float().
        with pytest.raises(CParseError, match="malformed floating constant") as info:
            tokenize("double d = 1.\u00b2;")
        assert (info.value.line, info.value.column) == (1, 12)

    def test_checker_reports_unicode_digit_as_inconclusive(self):
        from repro.api import Checker

        report = Checker().check("int main(void) { double d = 1.\u00b2; return 0; }")
        assert report.outcome.kind.name == "INCONCLUSIVE"
        assert "malformed floating constant" in report.outcome.detail


class TestCharAndStringConstants:
    def test_simple_char(self):
        token = tokenize("'a'")[0]
        assert token.kind is TokenKind.CHAR_CONST
        assert token.value == ord("a")

    def test_escaped_char(self):
        assert tokenize(r"'\n'")[0].value == ord("\n")
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_empty_char_constant_raises(self):
        with pytest.raises(CParseError):
            tokenize("''")

    def test_string_literal_value(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_string_with_escapes(self):
        assert tokenize(r'"a\tb\n"')[0].value == "a\tb\n"

    def test_unterminated_string_raises(self):
        with pytest.raises(CParseError):
            tokenize('"never closed')


class TestEscapes:
    """Octal escapes are 1-3 digits in [0-7] (C11 6.4.4.4)."""

    @pytest.mark.parametrize("source, digit, column", [
        (r"'\8'", "8", 3), (r"'\9'", "9", 3), (r'"\8"', "8", 3), (r'"a\9b"', "9", 4),
    ])
    def test_non_octal_digit_is_an_unknown_escape(self, source, digit, column):
        with pytest.raises(CParseError) as info:
            tokenize(source)
        assert str(info.value) == f"unknown escape sequence \\{digit} at line 1"
        assert info.value.column == column

    def test_octal_escape_stops_at_a_non_octal_digit(self):
        token = tokenize(r"'\18'")[0]
        assert token.text == "'\x018'"
        assert token.value == ord("8")

    def test_octal_escape_takes_at_most_three_digits(self):
        assert tokenize(r'"\0123\101\0"')[0].value == "\n3A\0"

    def test_hex_escape_at_end_of_text_is_an_unterminated_literal(self):
        with pytest.raises(CParseError, match="unterminated string literal"):
            tokenize('"\\x4a')
        with pytest.raises(CParseError, match="unterminated character constant"):
            tokenize("'\\x4a")

    def test_checker_reports_the_bad_escape_as_inconclusive(self):
        from repro import Checker

        for source in (
            r"int main(void){ char c = '\8'; return 0; }",
            r'int main(void){ char *s = "\9"; return 0; }',
        ):
            report = Checker().check(source)
            assert not report.flagged
            assert "unknown escape sequence" in report.render()


class TestTokenObjects:
    def test_equal_tokens_hash_alike(self):
        first, second = tokenize("x 1"), tokenize("x 1")
        assert first == second
        assert {*first} == {*second}
        assert first[0] != tokenize(" x")[0]  # same text, other column

    def test_tokens_have_no_instance_dict(self):
        token = tokenize("x")[0]
        assert not hasattr(token, "__dict__")
        assert (token.kind, token.text, token.line, token.column, token.value) == (
            TokenKind.IDENTIFIER, "x", 1, 1, None)
        assert token.is_punct() is False and tokenize(";")[0].is_punct(";", ",")


class TestMalformedInputCost:
    """Malformed text costs one pass: a check may be many megabytes long."""

    @pytest.mark.parametrize("piece", ["/* ", "'/*\"", "\"a\\q\n"])
    def test_repeated_errors_lex_in_linear_time(self, piece):
        start = time.perf_counter()
        with pytest.raises(CParseError):
            tokenize(piece * 20000)
        join_lines(piece * 20000)
        assert time.perf_counter() - start < 0.5
