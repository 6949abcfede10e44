"""Prelude snapshots against the full front end.

A unit whose opening lines are only builtin ``#include`` lines starts from
the prelude of those lines (``repro.cfront.prelude``).  Its AST, its errors
and its static violations must be those of the staged path the golden
digests take (``preprocess``, ``tokenize`` and ``Parser`` one by one, then
``check_translation_unit`` on the whole unit), and of a compile from an
empty table.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Checker, CheckerOptions
from repro.cfront import ctypes as ct
from repro.cfront import prelude as preludes
from repro.cfront.headers import BUILTIN_HEADERS
from repro.cfront.parser import Parser, parse, parse_unit, preprocess, tokenize
from repro.cfront.preprocessor import source_lines
from repro.core.kcc import KccTool
from repro.errors import CParseError, OutcomeKind, UBKind
from repro.fuzz.reduce import reduce_source
from repro.sema.static_checks import check_translation_unit
from tests.cfront.frontend_golden import corpus, mutants, suite_sources

HEADERS = sorted(BUILTIN_HEADERS)


def staged(source: str):
    """The unit of the staged path, which never reaches a prelude."""
    return Parser(tokenize(preprocess(source))).parse_translation_unit()


def outcome(build, source: str):
    """The AST ``repr``, or the error's type, message, line and column."""
    try:
        return repr(build(source))
    except Exception as error:  # every failure is part of the outcome
        line = getattr(error, "line", None)
        return type(error).__name__, str(error), line, getattr(error, "column", None)


def compiled_outcome(source: str):
    """The AST ``repr`` and static violations of a compile, or its error."""
    compiled = KccTool().compile_unit(source)
    violations = [(v.kind, v.message, v.line) for v in compiled.static_violations]
    return repr(compiled.unit), compiled.parse_error, violations


def staged_compiled_outcome(source: str):
    try:
        unit = staged(source)
    except CParseError as error:
        return "None", str(error), []
    violations = [(v.kind, v.message, v.line) for v in check_translation_unit(unit)]
    return repr(unit), None, violations


# ---------------------------------------------------------------------------
# parse() against the staged path over the golden corpus and its mutants
# ---------------------------------------------------------------------------


def test_parse_agrees_with_the_staged_path_on_the_golden_corpus():
    programs = corpus() + mutants(suite_sources())
    preludes.clear()
    differing = []
    from_preludes = 0
    for key, source in programs:
        if outcome(parse, source) != outcome(staged, source):
            differing.append(key)
        if preludes.find_prelude(source_lines(source), ct.LP64) is not None:
            from_preludes += 1
    assert differing == []
    assert from_preludes > 900  # 975 of the 3,779 programs


# ---------------------------------------------------------------------------
# random openings and user text: a prelude, an empty table, the staged path
# ---------------------------------------------------------------------------

INCLUDE_LINES = st.one_of(
    st.sampled_from(HEADERS).map(lambda name: f"#include <{name}>"),
    st.sampled_from(HEADERS).map(lambda name: f'#include "{name}"  // {name}'),
    st.just(""),
    st.just("/* a comment\n   over two lines */"),
)
USER_LINES = st.sampled_from([
    "#define NULL 0",
    "#undef NULL",
    "#undef EOF",
    "#define EXIT_SUCCESS 7",
    "#define size_t int",
    "#undef assert",
    "#define assert(x) (x)",
    "#include <stdlib.h>",
    "#include <stdint.h>",
    "typedef int size_t;",
    "typedef long wchar_t;",
    "typedef char *text_t;",
    "void *malloc(size_t size);",
    "void *malloc(unsigned long size);",
    "int abs(int j);",
    "size_t strlen(const char *s);",
    "int malloc(int);",
    "long abs(long);",
    "char strlen;",
    "int printf;",
    "int limit = INT_MAX;",
    "void *none = NULL;",
    "int exit_code(void) { return EXIT_SUCCESS + EOF; }",
    "int check(int x) { assert(x); return abs(x) / 0; }",
    "int main(void) { int a[0]; return RAND_MAX > 0; }",
    "int main(void) { char *p = malloc(4); free(p); return 0; }",
    "#define TWO 1 + \\\n  1",
    "int two = TWO; // a comment",
    "/* #include <stdio.h>\n#undef NULL */",
])


@settings(max_examples=150, deadline=None)
@given(st.lists(INCLUDE_LINES, min_size=1, max_size=6),
       st.lists(USER_LINES, max_size=8))
def test_a_prelude_compile_equals_a_fresh_one(opening, user):
    source = "\n".join(opening + user) + "\n"
    expected = staged_compiled_outcome(source)
    preludes.clear()
    assert compiled_outcome(source) == expected  # builds any prelude
    assert compiled_outcome(source) == expected  # starts from it


# ---------------------------------------------------------------------------
# the header prototypes still reach the static checker
# ---------------------------------------------------------------------------


def test_a_conflicting_library_redeclaration_is_still_diagnosed():
    source = "#include <stdlib.h>\n\nint malloc(int);\nint main(void) { return 0; }\n"
    preludes.clear()
    for _ in range(2):  # built, then reused
        unit, prelude = parse_unit(source)
        assert prelude is not None and unit.declarations[0] is prelude.declarations[0]
        [violation] = KccTool().compile_unit(source).static_violations
        assert (violation.kind, violation.line) == (UBKind.INCOMPATIBLE_DECLARATIONS, 3)


# ---------------------------------------------------------------------------
# nothing writes to a prelude
# ---------------------------------------------------------------------------

SHARED = """#include <stdlib.h>
#include <string.h>
#include <stdio.h>
static int d = 5;
static int set(int x) { return d = x; }
int main(void) {
    char *p = malloc(8);
    int n = 0;
    for (int i = 0; i < 3; i++) { n += i; }
    strcpy(p, "abc");
    n += (int)strlen(p);
    printf("%d %s\\n", n, p);
    free(p);
    return (10 / d) + set(0);
}
"""


def snapshot_view(prelude):
    return (prelude.includes, repr(prelude.declarations), repr(dict(prelude.file_scope)),
            repr(dict(prelude.macros)), repr(dict(prelude.typedefs)), prelude.included)


def test_no_stage_writes_to_a_prelude():
    preludes.clear()
    prelude = parse_unit(SHARED)[1]
    assert prelude is not None
    for engine in ("compiled", "walker", "lowered"):
        report = Checker(CheckerOptions(engine=engine)).check(SHARED)
        assert report.outcome.kind is OutcomeKind.DEFINED
    searched = Checker(search_evaluation_order=True).check(SHARED)
    assert searched.outcome.flagged
    reduced = reduce_source(SHARED, lambda text: "strcpy" in text)
    assert "strcpy" in reduced and len(reduced) < len(SHARED)
    assert parse_unit(SHARED)[1] is prelude
    fresh = preludes._build(prelude.includes, ct.LP64)
    assert snapshot_view(prelude) == snapshot_view(fresh)


# ---------------------------------------------------------------------------
# the bound, and the openings that take the full path
# ---------------------------------------------------------------------------


def test_the_table_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(preludes, "MAX_PRELUDES", 3)
    preludes.clear()
    for count, header in enumerate(HEADERS[:6], start=1):
        source = f"#include <{header}>\nint main(void) {{ return 0; }}\n"
        assert parse_unit(source)[1] is not None
        assert len(preludes._preludes) == min(count, 3)


def test_threads_share_the_table_within_its_bound(monkeypatch):
    monkeypatch.setattr(preludes, "MAX_PRELUDES", 3)
    preludes.clear()
    sources = [f"#include <{header}>\nint main(void) {{ return 0; }}\n"
               for header in HEADERS]
    expected = {source: repr(staged(source)) for source in sources}
    wrong = []

    def work(offset):
        for index in range(40):
            source = sources[(offset + index) % len(sources)]
            if repr(parse(source)) != expected[source]:
                wrong.append(source)

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(preludes._preludes) <= 3


@pytest.mark.parametrize("source", [
    "#define X 1\n#include <stdlib.h>\nint main(void) { return X; }\n",
    "#undef NULL\n#include <stddef.h>\nint main(void) { return 0; }\n",
    "int x;\n#include <stdlib.h>\nint main(void) { return x; }\n",
    "int main(void) { return 0; }\n",
])
def test_other_openings_take_the_full_path(source):
    unit, prelude = parse_unit(source)
    assert prelude is None
    assert repr(unit) == repr(staged(source))


def test_a_header_outside_the_builtins_takes_the_full_path():
    source = '#include "mine.h"\nint main(void) { return 0; }\n'
    assert preludes.find_prelude(source_lines(source), ct.LP64) is None
    with pytest.raises(CParseError, match="unknown header 'mine.h'"):
        parse(source)


def test_a_header_with_a_static_violation_takes_the_full_path(monkeypatch):
    monkeypatch.setitem(BUILTIN_HEADERS, "bad.h", "int bad[0];\n")
    preludes.clear()
    source = "#include <bad.h>\nint main(void) { return 0; }\n"
    assert parse_unit(source)[1] is None
    assert preludes._preludes == {}
    [violation] = KccTool().compile_unit(source).static_violations
    assert (violation.kind, violation.line) == (UBKind.ARRAY_SIZE_NOT_POSITIVE, 1)


def test_the_checker_refuses_a_prelude_the_unit_does_not_start_with():
    prelude = parse_unit("#include <stdlib.h>\nint main(void) { return 0; }\n")[1]
    unit = parse("#include <stdio.h>\nint main(void) { return 0; }\n")
    with pytest.raises(ValueError, match="does not start with the prelude"):
        check_translation_unit(unit, ct.LP64, prelude)
