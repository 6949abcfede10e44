"""Unit tests for the preprocessor."""

import pytest

from repro.cfront.lexer import tokenize
from repro.cfront.preprocessor import preprocess
from repro.errors import CParseError


class TestObjectMacros:
    def test_simple_replacement(self):
        assert "5 + 5" in preprocess("#define FIVE 5\nFIVE + FIVE")

    def test_undef(self):
        out = preprocess("#define X 1\n#undef X\nX")
        assert out.strip().splitlines()[-1].strip() == "X"

    def test_macro_not_expanded_inside_string(self):
        out = preprocess('#define NAME world\nchar *s = "NAME";')
        assert '"NAME"' in out

    def test_recursive_macro_does_not_loop(self):
        out = preprocess("#define X X + 1\nX")
        assert "X + 1" in out

    def test_empty_macro(self):
        out = preprocess("#define NOTHING\nint NOTHING x;")
        assert "int" in out and "x;" in out


class TestFunctionMacros:
    def test_single_argument(self):
        out = preprocess("#define SQUARE(x) ((x) * (x))\nSQUARE(4)")
        assert "((4) * (4))" in out

    def test_multiple_arguments(self):
        out = preprocess("#define ADD(a, b) (a + b)\nADD(1, 2)")
        assert "(1 + 2)" in out

    def test_nested_call_argument(self):
        out = preprocess("#define ID(x) x\nID(f(1, 2))")
        assert "f(1, 2)" in out

    def test_name_without_parens_not_expanded(self):
        out = preprocess("#define CALL(x) x()\nint CALL;")
        assert "int CALL;" in out

    def test_wrong_argument_count_raises(self):
        with pytest.raises(CParseError):
            preprocess("#define TWO(a, b) a + b\nTWO(1)")


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define FLAG 1\n#ifdef FLAG\nint yes;\n#endif")
        assert "int yes;" in out

    def test_ifdef_not_taken(self):
        out = preprocess("#ifdef MISSING\nint no;\n#endif")
        assert "int no;" not in out

    def test_ifndef(self):
        out = preprocess("#ifndef MISSING\nint yes;\n#endif")
        assert "int yes;" in out

    def test_else_branch(self):
        out = preprocess("#ifdef MISSING\nint a;\n#else\nint b;\n#endif")
        assert "int b;" in out
        assert "int a;" not in out

    def test_if_with_expression(self):
        out = preprocess("#if 2 + 2 == 4\nint math_works;\n#endif")
        assert "int math_works;" in out

    def test_if_with_defined(self):
        out = preprocess("#define A 1\n#if defined(A) && !defined(B)\nint ok;\n#endif")
        assert "int ok;" in out

    def test_elif(self):
        source = "#if 0\nint a;\n#elif 1\nint b;\n#else\nint c;\n#endif"
        out = preprocess(source)
        assert "int b;" in out
        assert "int a;" not in out
        assert "int c;" not in out

    def test_nested_conditionals(self):
        source = "#if 1\n#if 0\nint a;\n#endif\nint b;\n#endif"
        out = preprocess(source)
        assert "int b;" in out
        assert "int a;" not in out

    def test_unterminated_if_raises(self):
        with pytest.raises(CParseError):
            preprocess("#if 1\nint x;")

    def test_error_directive_raises(self):
        with pytest.raises(CParseError):
            preprocess("#error something is wrong")

    def test_error_in_untaken_branch_ignored(self):
        out = preprocess("#if 0\n#error skipped\n#endif\nint ok;")
        assert "int ok;" in out


class TestIfExpressions:
    """``#if`` conditions are C constant expressions, parsed by the parser."""

    TRUE_CONDITIONS = [
        "(1 | 2 & 0) == 1",
        "(3 ^ 1 & 2) == 3",
        "010 == 8",
        "'a' == 97",
        "9007199254740993 / 1 == 9007199254740993",
        "0x10 == 16 && 1UL == 1",
        "UNDEFINED_NAME == 0 && !sizeof",
        "-7 / 2 == -3 && -7 % 2 == -1",
        "1 ? 2 : 0",
    ]

    @pytest.mark.parametrize("condition", TRUE_CONDITIONS)
    def test_if_takes_its_branch(self, condition):
        out = preprocess(f"#if {condition}\nint yes;\n#else\nint no;\n#endif")
        assert "int yes;" in out and "int no;" not in out

    @pytest.mark.parametrize("condition", TRUE_CONDITIONS)
    def test_elif_takes_its_branch(self, condition):
        out = preprocess(f"#if 0\nint no;\n#elif {condition}\nint yes;\n#endif")
        assert "int yes;" in out and "int no;" not in out

    def test_macros_expand_before_evaluation(self):
        out = preprocess("#define WIDTH 010\n#define TWICE(x) ((x) * 2)\n"
                         "#if TWICE(WIDTH) == 16\nint yes;\n#endif")
        assert "int yes;" in out

    @pytest.mark.parametrize("condition", ["", "1 +", "(1", "1 2", "1/0", "1.5", "x = 1"])
    def test_malformed_conditions_raise_at_the_directive_line(self, condition):
        for directive, line in ((f"#if {condition}", 3), (f"#if 0\n#elif {condition}", 4)):
            with pytest.raises(CParseError) as info:
                preprocess(f"int a;\n\n{directive}\n#endif\n")
            assert info.value.line == line


class TestIncludes:
    def test_builtin_header(self):
        out = preprocess("#include <stddef.h>\nsize_t n;")
        assert "typedef unsigned long size_t;" in out
        assert "((void*)0)" not in out  # NULL macro not used, only defined

    def test_null_macro_from_stddef(self):
        out = preprocess("#include <stddef.h>\nchar *p = NULL;")
        assert "((void*)0)" in out

    def test_unknown_header_raises(self):
        with pytest.raises(CParseError):
            preprocess("#include <nonexistent_header.h>")

    def test_extra_headers(self):
        out = preprocess('#include "mylib.h"\nMYCONST',
                         extra_headers={"mylib.h": "#define MYCONST 99\n"})
        assert "99" in out

    def test_double_include_is_idempotent(self):
        out = preprocess("#include <stdlib.h>\n#include <stdlib.h>\nint x;")
        assert out.count("void *malloc(size_t size);") == 1

    def test_limits_macros(self):
        out = preprocess("#include <limits.h>\nint m = INT_MAX;")
        assert "2147483647" in out


class TestLineContinuation:
    def test_backslash_newline_joined(self):
        out = preprocess("#define LONG 1 + \\\n2\nLONG")
        assert out.split("\n") == ["", "", "1 + 2"]


class TestIncludeLines:
    """An included header goes on its #include line: later lines keep their numbers."""

    PRELUDE = "#include <stdio.h>\n#include <stdlib.h>\nint main(void){\n"

    def test_header_text_stays_on_the_include_line(self):
        out = preprocess(self.PRELUDE + "  return 0;\n}")
        lines = out.split("\n")
        assert len(lines) == 5
        assert "int printf(" in lines[0] and "void *malloc(" in lines[1]
        assert lines[3] == "  return 0;"

    def test_dynamic_undefinedness_line(self):
        from repro import Checker

        report = Checker().check(self.PRELUDE + "  int z = 0;\n  return 1 / z;\n}")
        assert report.flagged
        assert "Line: 5" in report.render()

    def test_static_violation_line(self):
        from repro import Checker

        report = Checker().check(self.PRELUDE + "  int a[0];\n  return 0;\n}")
        [diagnostic] = report.to_dict()["outcome"]["diagnostics"]
        assert diagnostic["stage"] == "static" and diagnostic["line"] == 4

    def test_parse_error_line(self):
        from repro.cfront.parser import parse

        with pytest.raises(CParseError) as info:
            parse(self.PRELUDE + "  int x = ;\n  return 0;\n}")
        assert (info.value.line, info.value.column) == (4, 11)

    def test_line_comment_in_a_header_ends_at_its_line(self):
        header = "int a; // the first\nint b; # not a directive\nint c;\n"
        out = preprocess('#include "h.h"\nint d;', extra_headers={"h.h": header})
        assert [(t.text, t.line) for t in tokenize(out)][:-1] == [
            ("int", 1), ("a", 1), (";", 1), ("int", 1), ("b", 1), (";", 1),
            ("int", 1), ("c", 1), (";", 1), ("int", 2), ("d", 2), (";", 2)]

    def test_literals_in_a_header_are_kept(self):
        header = "char *s = \"// #\";\nchar c = '#'; /* // */\nint e;\n"
        out = preprocess('#include "h.h"\nint d;', extra_headers={"h.h": header})
        assert out == "char *s = \"// #\"; char c = '#';" + " " * 10 + "int e; \nint d;"

    @pytest.mark.parametrize("header, message", [
        ('char *s = "abc\nint x; // "\n', "newline in string literal"),
        ("int a; /* open\nint b; // x\n", "unterminated block comment"),
        ("char c = '\\q'; // '\n", "unknown escape sequence \\q"),
    ])
    def test_a_malformed_header_keeps_its_error(self, header, message):
        out = preprocess('#include "h.h"\nint d;', extra_headers={"h.h": header})
        with pytest.raises(CParseError) as info:
            tokenize(out)
        assert str(info.value).startswith(message + " at line")


class TestTranslationPhases:
    """Splices (phase 2) and comments (phase 3) go before any directive runs."""

    def check(self, source):
        from repro import Checker

        return Checker().check(source).outcome

    def test_a_comment_after_an_include(self):
        outcome = self.check("#include <stdlib.h> // malloc\n"
                             "int main(void) { return EXIT_FAILURE; }\n")
        assert (outcome.kind.value, outcome.exit_code) == ("defined", 1)

    def test_a_comment_after_a_macro_body(self):
        outcome = self.check("#define N 4 // size\n"
                             "int main(void) { int a[N]; a[N - 1] = 5; return a[3]; }\n")
        assert (outcome.kind.value, outcome.exit_code) == ("defined", 5)

    def test_a_comment_between_macro_uses(self):
        outcome = self.check("#define A 1\n#define B 2\n"
                             "int main(void) { return A /* x */ + B; }\n")
        assert (outcome.kind.value, outcome.exit_code) == ("defined", 3)

    @pytest.mark.parametrize("directive", ["#define main oops", "#include <nonexistent.h>"])
    def test_a_directive_inside_a_block_comment_does_nothing(self, directive):
        outcome = self.check(f"/*\n{directive}\n*/\nint main(void) {{ return 7; }}\n")
        assert (outcome.kind.value, outcome.exit_code) == ("defined", 7)

    def test_a_comment_keeps_token_positions(self):
        tokens = tokenize(preprocess("int /* a\nb */ x; // y\nint z;"))
        assert [(t.text, t.line, t.column) for t in tokens][:-1] == [
            ("int", 1, 1), ("x", 2, 6), (";", 2, 7), ("int", 3, 1), ("z", 3, 5), (";", 3, 6)]

    def test_a_splice_keeps_the_line_numbers_after_it(self):
        outcome = self.check("#define X 1 + \\\n  2\nint main(void) {\n"
                             "  int z = X;\n  int a[0];\n  return z;\n}\n")
        [violation] = outcome.static_violations
        assert violation.line == 5

    def test_a_token_spliced_in_the_middle_stays_whole(self):
        outcome = self.check("int ma\\\nin(void) { ret\\\nurn 4; }\n")
        assert (outcome.kind.value, outcome.exit_code) == ("defined", 4)
