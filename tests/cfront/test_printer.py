"""The pretty-printer round-trip guarantee: parse(print(ast)) == ast.

The fuzz generator depends on this property (the reducer re-renders ASTs
between shrink steps), so it is pinned three ways: over every program of
the hand-written undefinedness suite, over a sweep of generated programs,
and over targeted snippets exercising printer-specific corner cases
(precedence, literal suffixes, escapes, declarators).
"""

import pytest

from repro.cfront import ast_equivalent, parse, to_c_source
from repro.fuzz.generator import generate_case
from repro.suites.ubsuite import generate_undefinedness_suite

SUITE = generate_undefinedness_suite()


def round_trip(source: str) -> None:
    first = parse(source)
    printed = to_c_source(first)
    second = parse(printed)
    assert ast_equivalent(first, second), (
        f"printed form re-parses differently:\n{printed}")


@pytest.mark.parametrize("case", SUITE.cases, ids=lambda c: c.name)
def test_ubsuite_round_trips(case):
    # Every case in the parseable subset round-trips — no carve-outs
    # (anonymous record types render their definition inline).
    try:
        first = parse(case.source)
    except Exception:
        pytest.skip("program outside the parseable subset")
    assert ast_equivalent(first, parse(to_c_source(first)))


@pytest.mark.parametrize("index", range(40))
def test_generated_programs_round_trip(index):
    # Clean and injected alike; the generator's output is the contract.
    round_trip(generate_case(1234, index, inject="mixed").source)


@pytest.mark.parametrize("source", [
    # Precedence and associativity.
    "int main(void) { return 1 + 2 * 3 - (4 - 5) - 6; }",
    "int main(void) { return (1 + 2) * (3 % 2) / 3; }",
    "int main(void) { int x = 0; return x = 1 + (2, 3); }",
    "int main(void) { return 10 >> 1 << 2 & 3 | 4 ^ 5; }",
    "int main(void) { return 1 < 2 == 0 ? 3 : 4 ? 5 : 6; }",
    "int main(void) { return -(-1) + +2 - - 3; }",
    "int main(void) { int a[2] = {1, 2}; int *p = &a[1]; return *p + a[0]; }",
    # Literal suffixes and escapes must survive (they pin the literal type).
    "int main(void) { unsigned int u = 4294967295u; return u > 0u; }",
    "int main(void) { long big = 2147483648L; return big > 0; }",
    'int main(void) { printf("a\\tb\\n\\"q\\" %d\\n", 1); return 0; }',
    "int main(void) { char c = 'x'; char n = '\\n'; return c + n; }",
    "int main(void) { double d = 1.5; float f = 0.25f; return d > f; }",
    # Declarators: pointers, arrays, functions, qualifiers.
    "int add(int a, int b) { return a + b; }\nint main(void) { return add(1, 2); }",
    "int main(void) { const int c = 3; const int *pc = &c; return *pc; }",
    "int main(void) { int m[2][3] = {{1, 2, 3}, {4, 5, 6}}; return m[1][2]; }",
    "int helper(void);\nint helper(void) { return 7; }\nint main(void) { return helper(); }",
    # Statements: loops, switch, goto, labels, do-while.
    """
int main(void) {
    int total = 0;
    for (int i = 0; i < 4; i = i + 1) { if (i == 2) { continue; } total = total + i; }
    while (total > 5) { total = total - 1; break; }
    do { total = total + 1; } while (total < 3);
    switch (total) { case 1: total = 9; break; default: total = 8; }
    goto done;
done:
    return total;
}
""",
    # Structs with tags round-trip nominally.
    """
struct point { int x; int y; };
int main(void) {
    struct point p;
    p.x = 1;
    p.y = 2;
    struct point *q = &p;
    return q->x + q->y;
}
""",
    "int counter = 3;\nstatic int hidden = 4;\nint main(void) { return counter + hidden; }",
    "int main(void) { return (int)sizeof(int) + (int)sizeof 1; }",
], ids=lambda s: s.strip().splitlines()[0][:40])
def test_targeted_snippets_round_trip(source):
    round_trip(source)


def test_printed_text_is_stable():
    # Printing the re-parse of printed text reproduces the text: the printer
    # is a normal form, which the reducer relies on for determinism.
    source = generate_case(77, 0, inject=None).source
    printed = to_c_source(parse(source))
    again = to_c_source(parse(printed))
    assert printed == again


def test_single_statement_and_expression_rendering():
    unit = parse("int main(void) { int x = 1; return x; }")
    main = unit.functions()["main"]
    body_text = to_c_source(main.body)
    assert "int x = 1;" in body_text
    return_stmt = main.body.items[-1]
    assert to_c_source(return_stmt).strip() == "return x;"


def test_string_escapes_round_trip():
    # Octal escapes take up to three digits: NUL before a digit and the
    # control characters need their three-digit form.
    source = 'char *s = "a\\0" "1\\0012\\033[0m\\0";\nint main(void) { return 0; }'
    assert parse(source).declarations[0].initializer.value == "a\x001\x012\x1b[0m\x00"
    round_trip(source)
