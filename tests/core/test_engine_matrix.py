"""Three-way differential matrix: walker vs lowered closures vs compiled VM.

PR 7 adds the register-bytecode engine (:mod:`repro.core.bytecode` +
:mod:`repro.core.vm`).  Like the lowered fast path before it, the compiled
engine must never change a verdict: for every program, the outcome kind,
the full structured diagnostics, stdout, and the exit code must be
identical across all three engines — over the fixed suites, a fixed-seed
fuzz corpus, and under ablated option sets (each ablation removes checks,
which shifts which fast paths the VM may take, so equality must hold per
configuration, not just for the default one).

This is the contract that lets ``--engine`` be an escape hatch rather than
three different tools.
"""

import ast
import dataclasses
import inspect

import pytest

from repro.core import bytecode, vm
from repro.core.bytecode import (
    OP_BINDP,
    OP_BINDR,
    OP_BINJZ,
    OP_BINOP,
    OP_CALL,
    OP_CONV,
    OP_DCALL,
    OP_DECAY,
    OP_INC,
    OP_JMP,
    OP_JNZ,
    OP_JZ,
    OP_MOV,
    OP_PCMPJZ,
    OP_POPSC,
    OP_PUSHSC,
    OP_RSV,
    OP_STEP,
)
from repro.core.config import CheckerOptions
from repro.core.interpreter import Interpreter
from repro.core.kcc import KccTool
from repro.errors import OutcomeKind
from repro.fuzz.generator import generate_cases
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite
from tests.core.dispatch_count import LOOP_PROGRAMS

ENGINES = ("walker", "lowered", "compiled")

#: Fixed-seed fuzz corpus: 500 programs, mixed clean/injected.  Any change
#: to the seed or count is a deliberate corpus change, not noise.
FUZZ_SEED = 20260808
FUZZ_COUNT = 500

#: Ablated configurations: every check off (the paper's positive-semantics
#: starting point), and single-family ablations of the checks whose fast
#: paths the VM specializes hardest (uninitialized reads gate the register
#: file, sequencing gates the flat stores, arithmetic gates the inlined
#: plans, memory gates the array fast path).
ABLATIONS = {
    "default": CheckerOptions(),
    "all-disabled": CheckerOptions.all_disabled(),
    "no-uninitialized": CheckerOptions(check_uninitialized=False),
    "no-sequencing": CheckerOptions(check_sequencing=False),
    "no-arithmetic": CheckerOptions(check_arithmetic=False),
    "no-memory": CheckerOptions(check_memory=False),
}


def _tools(options: CheckerOptions) -> dict[str, KccTool]:
    return {engine: KccTool(options.without(engine=engine))
            for engine in ENGINES}


TOOLS = {label: _tools(options) for label, options in ABLATIONS.items()}


def facts(report):
    """What the matrix holds equal across engines."""
    outcome = report.outcome
    return (outcome.kind.name,
            [diagnostic.to_dict() for diagnostic in outcome.diagnostics()],
            outcome.stdout,
            outcome.exit_code)


def assert_matrix(source: str, name: str, tools: dict[str, KccTool],
                  label: str = "default") -> None:
    reports = {engine: tool.check(source, filename=name)
               for engine, tool in tools.items()}
    expected = facts(reports["walker"])
    for engine in ("lowered", "compiled"):
        assert facts(reports[engine]) == expected, (
            f"{engine} engine disagrees with the walker on {name} "
            f"under options {label!r}:\n"
            f"  {engine}: {facts(reports[engine])}\n"
            f"  walker:  {expected}")


@pytest.fixture(scope="module")
def ubsuite():
    return generate_undefinedness_suite()


@pytest.fixture(scope="module")
def juliet():
    return generate_juliet_suite()


@pytest.fixture(scope="module")
def fuzz_corpus():
    return generate_cases(FUZZ_SEED, FUZZ_COUNT, inject="mixed")


def test_compiled_engine_is_actually_used():
    """Guard against a silent fallback: native functions must be present
    in the bytecode program, and the compiled tool must select them."""
    tool = TOOLS["default"]["compiled"]
    for name, source in LOOP_PROGRAMS.items():
        program = tool.compile_unit(source).compiled_for(tool.options)
        assert program.fallbacks == {}, name
        assert "main" in program.functions, name
    # And a function outside the native subset stays absent (per-function
    # fallback) with its reason recorded, without poisoning the rest of the
    # program.
    mixed = tool.compile_unit(
        "int f(void){ double d = 1.5; return d > 1.0; }\n"
        "int g(void){ return 7; }\n"
        "int main(void){ return f() - g() + 6; }")
    mixed_program = mixed.compiled_for(tool.options)
    assert mixed_program is not None
    assert "f" not in mixed_program.functions
    assert mixed_program.fallbacks == {"f": "declaration of type double"}
    assert "g" in mixed_program.functions


def test_compiler_exceptions_reach_the_caller(monkeypatch):
    """A defect in the bytecode compiler must fail loudly, not hand the
    program to the walker (where every parity test would pass)."""
    from repro.core import bytecode

    def broken(self):
        raise RuntimeError("compiler defect")

    monkeypatch.setattr(bytecode._FnCompiler, "compile", broken)
    tool = TOOLS["default"]["compiled"]
    unit = tool.compile_unit("int main(void){ return 0; }")
    with pytest.raises(RuntimeError, match="compiler defect"):
        unit.compiled_for(tool.options)


def test_engine_option_validation():
    with pytest.raises(ValueError):
        CheckerOptions(engine="jit").effective_engine()
    # The historical --no-lowering ablation still forces the walker.
    assert CheckerOptions(enable_lowering=False).effective_engine() == "walker"
    assert CheckerOptions().effective_engine() == "compiled"


@pytest.mark.parametrize("fields", [
    {"engine": "jit"},
    {"engine": "Compiled"},
    {"evaluation_order": "bogus"},
    # Search is search_evaluation_order=True, never an order name: the
    # closures and the bytecode take one fixed order from the options.
    {"evaluation_order": "search"},
])
def test_options_reject_unknown_engines_and_orders_when_built(fields):
    with pytest.raises(ValueError, match="unknown"):
        CheckerOptions(**fields)
    with pytest.raises(ValueError, match="unknown"):
        CheckerOptions().without(**fields)


#: A case label and a static assertion whose constants divide mixed-sign
#: operands beyond 2**53, where a float-rounding folder is off by one.
EXACT_DIVISION_PROGRAMS = {
    "switch-case-label": (
        "int main(void){ long x = -9007199254740993L; switch (x) {"
        " case -9007199254740993L / 1: return 1; default: return 0; } }",
        1,
    ),
    "static-assert": (
        "_Static_assert(-9007199254740993LL / 1 == -9007199254740993LL,"
        ' "exact division");\n'
        "int main(void){ return (-9007199254740993LL % 10) == -3; }",
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_DIVISION_PROGRAMS))
@pytest.mark.parametrize("engine", ["walker", "lowered", "compiled"])
def test_constant_division_is_exact_beyond_2_53(engine, name):
    source, exit_code = EXACT_DIVISION_PROGRAMS[name]
    report = KccTool(CheckerOptions(engine=engine)).check(source, filename=name)
    assert report.outcome.kind is OutcomeKind.DEFINED, report.outcome.describe()
    assert report.outcome.exit_code == exit_code


def test_options_accept_every_engine_and_fixed_order():
    for engine in ("walker", "lowered", "compiled"):
        for order in ("left-to-right", "right-to-left"):
            options = CheckerOptions(engine=engine, evaluation_order=order)
            assert options.engine == engine
            assert options.evaluation_order == order


def test_every_ubsuite_case_is_engine_equivalent(ubsuite):
    for case in ubsuite.cases:
        assert_matrix(case.source, case.name, TOOLS["default"])


def test_every_juliet_case_is_engine_equivalent(juliet):
    for case in juliet.cases:
        assert_matrix(case.source, case.name, TOOLS["default"])


def test_fuzz_corpus_is_engine_equivalent(fuzz_corpus):
    for case in fuzz_corpus:
        assert_matrix(case.source, case.name, TOOLS["default"])


@pytest.mark.parametrize("label", [k for k in ABLATIONS if k != "default"])
def test_ubsuite_matrix_under_ablation(ubsuite, label):
    for case in ubsuite.cases:
        assert_matrix(case.source, case.name, TOOLS[label], label)


@pytest.mark.parametrize("label", [k for k in ABLATIONS if k != "default"])
def test_fuzz_sample_under_ablation(fuzz_corpus, label):
    # The full 500-case corpus runs under the default options above; each
    # ablation re-runs a fixed slice (every 5th case) to keep the matrix
    # affordable while still crossing every template family with every
    # ablated fast-path configuration.
    for case in fuzz_corpus[::5]:
        assert_matrix(case.source, case.name, TOOLS[label], label)


#: Targeted programs for the constructs PR 9 taught the generator: negative
#: signed arithmetic, function pointers, printf conversions, compound
#: literals, overlapping aggregate copies, and huge-object pointer
#: differences.  Each is run through every engine under every ablation — the
#: constructs stress exactly the paths where the VM falls back per-function
#: and the lowered engine routes through the generic interpreter.
NEW_CONSTRUCT_PROGRAMS = {
    "signed-trunc-division": """
int main(void) {
    int s = 3 - 40;
    int q = s / 7;
    int r = s % 7;
    printf("%d %d %d %d\\n", s, -s, q, r);
    return 0;
}
""",
    "division-quotient-unrepresentable": """
int main(void) {
    int lo = (-2147483647 - 1);
    int q = lo / -1;
    q = q;
    return 0;
}
""",
    "abs-of-most-negative": """
int main(void) {
    int r = abs(-2147483647 - 1);
    r = r;
    return 0;
}
""",
    "printf-format-grammar": """
int main(void) {
    int v = 48879;
    printf("x=%x X=%X o=%o u=%u c=%c\\n", v, v, v, v, 65);
    return 0;
}
""",
    "printf-pointer-for-int": """
int main(void) {
    int x = 1;
    printf("%d\\n", &x);
    return 0;
}
""",
    "printf-missing-argument": """
int main(void) {
    int x = 7;
    printf("%d %d\\n", x);
    return 0;
}
""",
    "clean-function-pointer": """
int twice(int a, int b) { return a + a + b; }
int main(void) {
    int (*fp)(int, int) = twice;
    printf("%d\\n", fp(3, 4));
    return 0;
}
""",
    "fnptr-wrong-type-call": """
int lone(int a) { return a + 1; }
int main(void) {
    int (*fn)(int, int) = (int (*)(int, int))lone;
    int r = fn(3, 4);
    r = r;
    return 0;
}
""",
    "clean-compound-literal": """
int main(void) {
    int v = (int){ 21 };
    printf("%d\\n", v + 1);
    return 0;
}
""",
    "compound-literal-escapes-scope": """
int main(void) {
    int *p;
    if (1) { p = &(int){21}; }
    int x = *p;
    x = x;
    return 0;
}
""",
    "overlapping-assignment": """
int main(void) {
    struct pair { int a; int b; };
    struct pair arr[3];
    arr[0].a = 1;
    arr[0].b = 2;
    arr[1].a = 3;
    arr[1].b = 4;
    struct pair *src = (struct pair *)((char *)arr + 4);
    arr[0] = *src;
    return 0;
}
""",
    "memcpy-overlapping": """
int main(void) {
    char buf[16];
    int i;
    for (i = 0; i < 16; i = i + 1) { buf[i] = i; }
    memcpy(buf + 2, buf, 8);
    return 0;
}
""",
    "pointer-difference-unrepresentable": """
int main(void) {
    static char vast[9223372036854775812];
    char *a = vast;
    char *b = vast + 9223372036854775810;
    long d = b - a;
    d = d;
    return 0;
}
""",
}


@pytest.mark.parametrize("label", list(ABLATIONS))
def test_new_constructs_under_every_ablation(label):
    for name, source in NEW_CONSTRUCT_PROGRAMS.items():
        assert_matrix(source, name, TOOLS[label], label)


#: Pointer programs for the VM's pointer registers: each one's functions
#: compile natively under every ablation, so the matrix compares the VM's
#: pointer code (fast paths and the shared helpers behind them), not the
#: walker fallback.  Together they cover walking to one past the end and
#: past it, dangling scopes, cross-object comparison and difference, null
#: pointers, indeterminate pointers, heap lifetimes, string literals,
#: misaligned access through casts, and pointer parameters and results.
POINTER_PROGRAMS = {
    "walk-to-one-past-end": """
int main(void) {
    int a[32];
    int *p;
    int s = 0;
    for (p = a; p < a + 32; p++) { *p = 3; }
    for (p = a; p != a + 32; p++) { s += *p; }
    return s == 96 ? 0 : 1;
}
""",
    "deref-one-past-end": """
int main(void) {
    int a[32];
    int *p = a;
    int i;
    for (i = 0; i < 32; i++) { a[i] = i; }
    p = p + 32;
    return *p;
}
""",
    "offset-33-past-32": """
int main(void) {
    int a[32];
    int *p = a;
    int *q = p + 33;
    return q == p;
}
""",
    "inner-scope-array-dangles": """
int main(void) {
    int *p;
    int s = 0;
    {
        int inner[4];
        inner[0] = 1;
        inner[1] = 2;
        p = inner;
        s = *p;
    }
    return s + p[1];
}
""",
    "relational-across-arrays": """
int main(void) {
    int a[4];
    int b[4];
    int *p = a;
    int *q = b;
    return p < q;
}
""",
    "difference-across-arrays": """
int main(void) {
    int a[4];
    int b[4];
    int *p = a + 1;
    int *q = b;
    long d = p - q;
    return d > 0;
}
""",
    "null-dereference": """
int main(void) {
    int *p = 0;
    int x = 5;
    if (x > 0) { x = *p; }
    return x;
}
""",
    "null-arithmetic": """
int main(void) {
    int *p = (int *)0;
    int *q = p + 1;
    return q == p;
}
""",
    "uninitialized-pointer-read": """
int main(void) {
    int *p;
    int x = 1;
    if (x) { x = *p; }
    return x;
}
""",
    "uninitialized-pointer-arithmetic": """
int main(void) {
    int *p;
    int *q = p + 1;
    return q != 0;
}
""",
    "malloc-free-use": """
int main(void) {
    int n = 4;
    int *p = malloc(n * sizeof(int));
    int i;
    for (i = 0; i < n; i++) { p[i] = i * i; }
    int s = p[3];
    free(p);
    return s + p[0];
}
""",
    "malloc-clean": """
int main(void) {
    int n = 8;
    int *p = (int *)malloc(n * sizeof(int));
    int *end = p + n;
    int *q;
    int s = 0;
    for (q = p; q < end; q++) { *q = 2; }
    for (q = p; q < end; ++q) { s += *q; }
    free(p);
    printf("%d\\n", s);
    return 0;
}
""",
    "store-into-string-literal": """
int main(void) {
    char *s = "hello";
    char c = s[1];
    s[0] = c;
    return 0;
}
""",
    "void-char-int-misaligned": """
int main(void) {
    int a[4];
    void *v = a;
    char *c = (char *)v;
    int *q;
    a[0] = 1;
    a[1] = 2;
    c = c + 2;
    q = (int *)c;
    return *q;
}
""",
    "pointer-parameters": """
static int sum(int *p, int n) {
    int s = 0;
    int *end = p + n;
    while (p < end) { s += *p++; }
    return s;
}
static int *middle(int *p, int n) { return p + n / 2; }
int main(void) {
    int a[6];
    int i;
    for (i = 0; i < 6; i++) { a[i] = i + 1; }
    *middle(a, 6) = 10;
    printf("%d %d\\n", sum(a, 6), *middle(a, 6));
    return sum(a, 7);
}
""",
    "pointer-subscripts-and-compound": """
int main(void) {
    unsigned char buf[8];
    unsigned char *p = buf;
    int i;
    for (i = 0; i < 8; i++) { p[i] = 250 + i; }
    p += 2;
    p -= 1;
    i = 1[p] + p[-1] + *(p + 6);
    return i & 255;
}
""",
    "null-compare": """
#include <stdlib.h>
int main(void) {
    int a[3] = {1, 2, 3};
    int *p = NULL;
    int *q = a;
    int n = 0;
    if (p == NULL) n++;
    if (q != 0) n++;
    if (!p) n++;
    while (q) { n += *q; q = 0; }
    p = n > 2 ? a + 1 : a;
    return (p ? *p : 9) + n;
}
""",
    "return-pointer-to-local": """
int *f(void) { int x[2]; x[0] = 4; return x; }
int main(void) { int *p = f(); return *p; }
""",
    "char-view-of-int": """
int main(void) {
    int a[2];
    unsigned char *c = (unsigned char *)a;
    a[0] = 258;
    a[1] = -1;
    return c[0] + c[1] + c[4];
}
""",
    "const-array-through-cast": """
int main(void) {
    const int c[2] = {1, 2};
    int *p = (int *)c;
    int x = *p;
    *p = 5;
    return x;
}
""",
    "realloc-walk": """
#include <stdlib.h>
int main(void) {
    int *p = malloc(2 * sizeof(int));
    int *q;
    p[0] = 1;
    p[1] = 2;
    q = realloc(p, 4 * sizeof(int));
    q[2] = 3;
    return q[0] + q[2] + p[0];
}
""",
    "store-chain-and-postinc": """
int main(void) {
    int a[6];
    int *p = a;
    int i;
    for (i = 0; i < 6; i++) *p++ = i * 3;
    p = a;
    *p = *(p + 1) = 7;
    return a[0] + a[1] + a[5] + (int)(p - a);
}
""",
    "string-walk": """
#include <stdio.h>
static int len(const char *s) { const char *t = s; while (*t) t++; return (int)(t - s); }
int main(void) {
    char *s = "walk";
    char buf[8];
    char *d = buf;
    while ((*d++ = *s++)) ;
    printf("%s %d\\n", buf, len(buf));
    return len("abc");
}
""",
    "bool-pointee": """
int main(void) {
    _Bool b[2];
    _Bool *p = b;
    unsigned char *c = (unsigned char *)b;
    c[0] = 2;
    p[1] = 5;
    return p[0] + p[1];
}
""",
    # Compound assignment and ++/-- through pointers: one load, operate
    # and store sequence for every lvalue in memory.
    "compound-through-pointers": """
#include <stdio.h>
void inc(int *p) { *p += 1; }
int main(void) {
    int a[4] = {10, 20, 30, 40};
    int *p = a + 1;
    int i = 2;
    unsigned char bytes[3] = {250, 5, 7};
    unsigned char *b = bytes;
    *p += 7;
    p[i] -= 5;
    (*p)++;
    p[i]--;
    ++*p;
    --p[-1];
    inc(p);
    inc(&a[0]);
    *b += 10;
    b[2] *= 40;
    i = (*p)++ + p[1]--;
    printf("%d %d %d %d %d %d %d %d\\n", a[0], a[1], a[2], a[3], bytes[0], bytes[2], i, *p);
    return 0;
}
""",
    "slot-scalars-updated": """
#include <stdio.h>
static int counter(void) { static int calls; calls++; calls += 10; return calls; }
static void bump(int *q) { *q += 2; }
int main(void) {
    int x = 5;
    int *px = &x;
    x++;
    x += 3;
    --x;
    x <<= 2;
    bump(&x);
    counter();
    printf("%d %d %d %p\\n", x, *px, counter(), (void *)px);
    return x == *px ? 0 : 1;
}
""",
    "bool-objects": """
#include <stdio.h>
_Bool flag;
_Bool flags[4] = {1, 0, 1};
int main(void) {
    _Bool local[3];
    int i, n = 0;
    for (i = 0; i < 3; i++) local[i] = i;
    flag = local[2] + flags[0];
    flags[3] = 5;
    flags[1]++;
    for (i = 0; i < 4; i++) n += flags[i] + local[i % 3];
    printf("%d %d\\n", flag, n);
    return 0;
}
""",
    "global-array-loop": """
#include <stdio.h>
int table[8];
int total;
int main(void) {
    int i;
    for (i = 0; i < 8; i++) table[i] = i * 3;
    for (i = 0; i < 8; i++) { total += table[i]; table[i] -= 1; }
    for (i = 7; i > 0; i--) table[i - 1] += table[i];
    printf("%d %d %d\\n", total, table[0], table[7]);
    return 0;
}
""",
    "index-first-subscripts": """
#include <stdio.h>
int g[3] = {4, 5, 6};
int main(void) {
    int a[3] = {1, 2, 3};
    int i = 1;
    int *p = a;
    i[a] = 9;
    2[p] += i[g];
    printf("%d %d %d %d\\n", 0[a], i[a], 2[a], 1[p]);
    return 0;
}
""",
}

#: A pointer program the VM leaves to the walker on purpose: the
#: pointer is incremented and read in one unsequenced region, which the
#: compiler cannot order statically.
POINTER_FALLBACK_PROGRAM = """
int main(void) {
    int a[4] = {1, 2, 3, 4};
    int *p = a;
    *p++ = *p;
    return a[0];
}
"""


def _native_program(tool: KccTool, source: str):
    return tool.compile_unit(source).compiled_for(tool.options)


#: The pointer corpus also runs right to left, where the compiler orders
#: deferred reads and store targets the other way round.
POINTER_TOOLS = {
    **TOOLS,
    "right-to-left": _tools(CheckerOptions(evaluation_order="right-to-left")),
}


def assert_native_matrix(programs: dict, label: str) -> None:
    """Every function of each program compiles natively, the engines agree,
    and on a defined run they take the same number of steps."""
    tools = POINTER_TOOLS[label]
    for name, source in programs.items():
        program = _native_program(tools["compiled"], source)
        assert program.fallbacks == {}, (name, program.fallbacks)
        assert_matrix(source, name, tools, label)
        results = {engine: tool.check(source).result for engine, tool in tools.items()}
        if results["walker"] is not None:  # a defined run: the steps agree too
            assert len({result.steps for result in results.values()}) == 1, name


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_pointer_programs_under_every_ablation(label):
    assert_native_matrix(POINTER_PROGRAMS, label)
    assert_matrix(
        POINTER_FALLBACK_PROGRAM, "pointer-fallback", POINTER_TOOLS[label], label
    )


def test_pointer_fallback_records_its_reason():
    program = _native_program(TOOLS["default"]["compiled"], POINTER_FALLBACK_PROGRAM)
    assert "main" not in program.functions
    assert program.fallbacks == {"main": "potentially unsequenced register read"}


#: Call programs for the VM's direct calls between native functions.  They
#: cover recursion, argument conversions, indeterminate arguments, missing
#: returns, UB inside a callee, object bases after direct calls, pointer
#: arguments and results, and the sites that must stay on the generic call
#: path (an incompatible function type, a wrong arity through an
#: unprototyped declaration, an unprototyped definition, and ``main``).
CALL_PROGRAMS = {
    "call-chain": LOOP_PROGRAMS["call-chain"],
    "recursion": """
static int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
static long sum(long n) {
    if (n == 0) return 0;
    return n + sum(n - 1);
}
static int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) {
    printf("%d %ld %d\\n", fact(6), sum(100), fib(12));
    return fact(10) == 3628800 && sum(300) == 45150 ? fib(9) : 1;
}
""",
    "mutual-recursion": """
static int is_odd(unsigned n);
static int is_even(unsigned n) { return n == 0 ? 1 : is_odd(n - 1); }
static int is_odd(unsigned n) { return n == 0 ? 0 : is_even(n - 1); }
int main(void) { return is_even(40) + 2 * is_odd(17) + 4 * is_odd(30); }
""",
    "recursion-overflows": """
static int grow(int x, int n) { return n == 0 ? x : grow(x * 2, n - 1); }
int main(void) { return grow(1, 20) > 0 ? grow(3, 40) : 0; }
""",
    "narrowing-arguments": """
static int sc(signed char c) { return c; }
static unsigned us(unsigned short u) { return u; }
static int b(_Bool v) { return v; }
static long widen(long x) { return x; }
int main(void) {
    int big = 300;
    long huge = 70000;
    int r = sc(big) + sc(-129) + sc(huge) + b(big) + b(0) + b(huge) + b(-1);
    unsigned u = us(huge) + us(-1) + us(big);
    printf("%d %d %u %u %d %ld\\n",
           sc(big), sc(huge), us(huge), us(-1), b(2), widen(big));
    return (r + (int)u) & 0xFF;
}
""",
    "uninitialized-argument": """
static int ignore(int x) { return 7; }
static int id(int x) { return x; }
int main(void) {
    int u;
    int r = 1;
    r = ignore(u);
    return r + id(u);
}
""",
    "uninitialized-char-argument": """
static int count(char c) { return 3; }
static int pass(char c) { return c; }
int main(void) {
    char c;
    int n = count(c);
    return n + pass(c);
}
""",
    "uninitialized-pointer-argument": """
static int first(int *p) { return 5; }
int main(void) {
    int *p;
    return first(p);
}
""",
    "missing-return-discarded": """
static int maybe(int x) { if (x > 100) return 1; }
static void bump(int x) { if (x) return; }
static void nothing(void) { }
int main(void) {
    bump(3);
    bump(0);
    nothing();
    maybe(5);
    return maybe(500);
}
""",
    "missing-return-used": """
static int maybe(int x) { if (x > 100) return 1; }
int main(void) {
    int v = 0;
    v = maybe(5);
    return v + 1;
}
""",
    "ub-inside-callee": """
static int divide(int a, int b) { return a / b; }
static int mid(int a) { return divide(a, a - 3); }
int main(void) {
    printf("%d\\n", mid(5));
    return mid(3);
}
""",
    "out-of-bounds-in-callee": """
static int get(int *p, int i) { return p[i]; }
static int sum3(int *p) { return get(p, 0) + get(p, 1) + get(p, 3); }
int main(void) {
    int a[3];
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
    return sum3(a);
}
""",
    "bases-after-calls": """
#include <stdio.h>
#include <stdlib.h>
static int sq(int x) { return x * x; }
static int work(int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) s += sq(i) + sq(n - i);
    return s;
}
int main(void) {
    int first = work(10);
    int second = work(5);
    int later = first + second;
    int *heap = malloc(sizeof(int));
    printf("%p %p\\n", (void *)&later, (void *)heap);
    printf("%ld %ld\\n", (long)&later, (long)heap);
    *heap = later;
    free(heap);
    return later & 0x7F;
}
""",
    "pointer-arguments-and-results": """
static int *advance(int *p, int n) { return p + n; }
static int get(int *p) { return *p; }
static int is_null(int *p) { return !p; }
static int *pick(int *p, int which) {
    if (which) return p;
    return 0;
}
static void fill(int *p, int *end, int v) { while (p < end) { *p = v; p++; v++; } }
int main(void) {
    int a[8];
    int *end;
    fill(a, a + 8, 3);
    end = advance(a, 8);
    return get(advance(a, 2)) + is_null(pick(a, 0)) + 2 * is_null(end)
        + (int)(end - a) + get(pick(a + 1, 1));
}
""",
    "pointer-one-past-end-dereferenced": """
static int *advance(int *p, int n) { return p + n; }
static int get(int *p) { return *p; }
int main(void) {
    int a[4];
    int i;
    for (i = 0; i < 4; i++) a[i] = i;
    return get(advance(a, 3)) + get(advance(a, 4));
}
""",
    "null-pointer-argument": """
static int get(int *p) { return *p; }
static int *none(void) { return 0; }
int main(void) {
    int a[1];
    a[0] = 4;
    return get(a) + get(none());
}
""",
    "dangling-pointer-result": """
static int *local(int v) { int x[2]; x[0] = v; x[1] = v; return x; }
static int get(int *p) { return *p; }
int main(void) { return get(local(3)); }
""",
    "bad-function-type": """
static int f(int x) { return x + 1; }
int main(void) { return (int)((long (*)(long))f)(2); }
""",
    "wrong-arity-unprototyped": """
int add();
int main(void) { return add(1); }
int add(int a, int b) { return a + b; }
""",
    "unprototyped-definition": """
static int seven() { return 7; }
int main(void) { return seven() + seven(); }
""",
    # An operand that is a register read at the start of a conditional arm
    # or a loop head, so the snapshot or eager read check that the code
    # after it forces lands on the label: every jump there must run it.
    "snapshot-in-conditional-arm": """
static int twice(int n) { return n * 2; }
int main(void) {
    int n = 5;
    int c = 0;
    int r = c ? 1 : n * twice(n -= 1);
    return r;
}
""",
    "read-check-in-conditional-arm": """
static int id(int v) { return v; }
int main(void) {
    int u;
    int c = 0;
    return c ? 1 : u + id(3);
}
""",
    "read-check-at-a-loop-head": """
static int *lost(void) { }
int main(void) {
    int a[4];
    int *p = a;
    int k = 0;
    while (p < a + 4) {
        k++;
        if (k == 2) p = lost();
        else p++;
    }
    return k;
}
""",
    "main-called-again": """
static int depth = 0;
int main(void) {
    depth++;
    if (depth < 3) return main() + 1;
    return 0;
}
""",
}

#: Programs whose every call of a unit function must compile to a direct
#: call: a silent return to the generic path then fails a test, not only a
#: timing.
DIRECT_CALL_PROGRAMS = {
    "pointer-parameters": POINTER_PROGRAMS["pointer-parameters"],
    **{
        name: CALL_PROGRAMS[name]
        for name in (
            "call-chain",
            "recursion",
            "mutual-recursion",
            "recursion-overflows",
            "narrowing-arguments",
            "pointer-arguments-and-results",
        )
    },
}


def _unit_call_sites(tool: KccTool, source: str) -> list:
    """``(caller, callee, opcode)`` of every call of a unit function."""
    program = _native_program(tool, source)
    sites = []
    for caller, fn in program.functions.items():
        for ins in fn.code:
            if ins[0] == OP_DCALL:
                sites.append((caller, ins[2].name, OP_DCALL))
            elif ins[0] == OP_CALL and ins[2] in program.functions:
                sites.append((caller, ins[2], OP_CALL))
    return sites


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_call_programs_under_every_ablation(label):
    tools = POINTER_TOOLS[label]
    for name, source in CALL_PROGRAMS.items():
        assert_matrix(source, name, tools, label)
        results = {engine: tool.check(source).result for engine, tool in tools.items()}
        if results["walker"] is not None:  # a defined run: the steps agree too
            assert len({result.steps for result in results.values()}) == 1, name


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_clean_call_sites_are_direct_calls(label):
    tool = POINTER_TOOLS[label]["compiled"]
    for name, source in DIRECT_CALL_PROGRAMS.items():
        assert _native_program(tool, source).fallbacks == {}, name
        sites = _unit_call_sites(tool, source)
        assert sites, name
        assert {opcode for _caller, _callee, opcode in sites} == {OP_DCALL}, (
            name,
            sites,
        )


def test_unclean_call_sites_stay_generic():
    tool = TOOLS["default"]["compiled"]
    bad_type = _native_program(tool, CALL_PROGRAMS["bad-function-type"])
    assert bad_type.fallbacks == {"main": "call through a non-identifier designator"}
    for name, callee in (
        ("wrong-arity-unprototyped", "add"),
        ("unprototyped-definition", "seven"),
        ("main-called-again", "main"),
    ):
        sites = _unit_call_sites(tool, CALL_PROGRAMS[name])
        assert sites and all(
            site[1] == callee and site[2] == OP_CALL for site in sites
        ), (name, sites)


def test_step_limit_inside_a_callee():
    # Every step limit over call-chain's first three calls (about 19 steps
    # an iteration), so that one runs out at each point of a direct call:
    # before it, in the callee's body and after its return; then limits
    # deep inside a mutual recursion (814 steps in all).
    for name, limits in (
        ("call-chain", range(1, 60)),
        ("mutual-recursion", (400, 401, 402, 403, 813, 814)),
    ):
        for max_steps in limits:
            tools = _tools(CheckerOptions(max_steps=max_steps))
            assert_matrix(CALL_PROGRAMS[name], f"{name} max_steps={max_steps}", tools)


def test_lowering_exceptions_reach_the_caller(monkeypatch):
    """A defect in the lowering must fail loudly, not hand the program to
    the walker (where every parity test would pass)."""
    from repro import Checker
    from repro.core import lowering

    def broken(*args, **kwargs):
        raise RuntimeError("lowering defect")

    monkeypatch.setattr(lowering, "lower_unit", broken)
    with pytest.raises(RuntimeError, match="lowering defect"):
        Checker(CheckerOptions(engine="lowered")).check("int main(void){ return 0; }")


#: Programs for the shape of the VM's instruction stream: blocks that push
#: no scope because they declare nothing, step charges riding on jumps, and
#: compare-and-branches.  They cover ``break`` and ``continue`` out of
#: declaring and declaration-free blocks nested two deep in every loop
#: kind, a local array reached through a pointer after its block ended by
#: ``break`` (or by the end of a ``for`` whose init declares it), loops
#: whose body ends in an ``if`` without ``else`` (a jump that is itself a
#: label target right after a step charge), and the slow paths of a
#: compare-and-branch.  Every function compiles natively.
STREAM_PROGRAMS = {
    "break-continue-nested": """
int main(void) {
    int s = 0;
    int i, j;
    for (i = 0; i < 6; i++) {
        if (i == 1) continue;
        for (j = 0; j < 5; j++) {
            { { if (j == 3) break; } }
            { int t = j; { if (t == 1) continue; } }
            s += i * j;
        }
        { int k = i; { int m = k + 1; if (k == 4) { s += m; continue; } } s += k; }
        if (i == 5) { int t = s; { s = t + 1; break; } }
    }
    i = 0;
    while (i < 8) {
        int w = i++;
        { { if (w == 2) continue; } }
        { int v = w * 2; { if (v > 10) break; } s += v; }
    }
    do {
        i--;
        { { if (i == 6) continue; } }
        { int d = i; { int e = d; if (e < 3) break; } s += d; }
    } while (i > 0);
    printf("%d %d\\n", s, i);
    return s & 0x7F;
}
""",
    "array-in-loop-block-after-break": """
int main(void) {
    int *p = 0;
    int i;
    for (i = 0; i < 3; i++) {
        int a[4];
        a[0] = i;
        p = a;
        { if (i == 1) { break; } }
    }
    return *p;
}
""",
    "array-in-loop-block-used-in-time": """
int main(void) {
    int *p = 0;
    int i, s = 0;
    for (i = 0; i < 5; i++) {
        int a[4];
        a[1] = i;
        p = a + 1;
        if (i == 3) { s += *p; break; }
        { if (i == 1) continue; }
        s += p[0];
    }
    while (s < 100) {
        int b[2];
        b[0] = s;
        p = b;
        s += *p + 1;
    }
    return s & 0xFF;
}
""",
    "for-init-declarations": """
int main(void) {
    int s = 0;
    int *p = 0;
    for (int k = 0, m = 3; k < m; k++) { s += k * m; }
    for (int k = 2; k; k--) s += k;
    for (int b[2] = {1, 2}, k = 0; k < 2; k++) { p = b; s += b[k]; }
    printf("%d\\n", s);
    return *p;
}
""",
    "for-without-declarations": """
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 4; i++) { s += i; }
    for (; i < 9;) i += 2;
    for (;;) { if (++s > 20) break; }
    for (i = 0; i < 3; i++) { { { s += i; } } }
    return s + i;
}
""",
    "if-ends-loop-body": """
int main(void) {
    int i = 0, s = 0;
    while (i < 5) {
        i++;
        if (i % 2) s += i;
    }
    for (i = 0; i < 4;)
        if (i++ & 1) printf("%d\\n", s);
    do {
        i--;
        if (i > 1) { s++; printf("%d\\n", i); }
    } while (i);
    for (i = 0; i < 3; i++)
        if (i) s -= 1;
    return s;
}
""",
    "compare-and-branch-slow-paths": """
int main(void) {
    int a[4];
    int b[4];
    int *p = a;
    int *q = 0;
    int n;
    int big = 2147483647;
    a[0] = 1;
    while (p != q) { p = q; }
    if (q == 0) { p = a; }
    for (p = a; p < a + 4; p++) { *p = 2; }
    if (n < 3) { return 1; }
    if (big + big) { return 2; }
    for (p = a; p < b + 4; p++) { }
    return 0;
}
""",
    "compare-and-branch-overflow": """
int main(void) {
    int x = 1;
    int i;
    for (i = 0; x * 2 > 0; i++) { x = x * 2; }
    if (x + x) { return i; }
    return 0;
}
""",
    "continue-names-its-label": """
int main(void) {
    int i, s = 0;
    for (i = 0; i < 6; i++) {
        if (i % 3 == 1) continue;
        printf("%d\\n", s);
        s += i * 3;
    }
    return s & 0x7F;
}
""",
    "relational-across-arrays-in-loop": """
int main(void) {
    int a[4];
    int b[4];
    int *p;
    int s = 0;
    for (p = a; p < b + 4; p++) { s++; }
    return s;
}
""",
}


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_stream_programs_under_every_ablation(label):
    assert_native_matrix(STREAM_PROGRAMS, label)


#: The operand position of the target of each kind of jump.
JUMP_TARGETS = {OP_JMP: 1, OP_JZ: 2, OP_JNZ: 2, OP_BINJZ: 7, OP_PCMPJZ: 7}


def _jump_targets(code: tuple) -> set:
    return {ins[JUMP_TARGETS[ins[0]]] for ins in code if ins[0] in JUMP_TARGETS}


def _unfused_steps(code: tuple) -> list:
    """The pcs of ``STEP``s right before a jump that no label names."""
    targets = _jump_targets(code)
    return [
        pc
        for pc, ins in enumerate(code[:-1])
        if ins[0] == OP_STEP
        and code[pc + 1][0] in JUMP_TARGETS
        and pc + 1 not in targets
    ]


def test_loop_programs_compile_to_the_short_stream():
    tool = TOOLS["default"]["compiled"]
    for name, source in LOOP_PROGRAMS.items():
        for fn in _native_program(tool, source).functions.values():
            code = fn.code
            ops = [ins[0] for ins in code]
            assert OP_PUSHSC not in ops and OP_POPSC not in ops, name
            # A local array's pointer is in its register from its ALLOC on.
            assert OP_DECAY not in ops, name
            assert _unfused_steps(code) == [], name
            converted = {ins[1] for ins in code if ins[0] == OP_CONV}
            assert not [ins for ins in code if ins[0] == OP_MOV and ins[2] in converted]
            # Each loop's back edge jumps to a head whose first branch is
            # one compare-and-branch.
            heads = [
                ins[1] for pc, ins in enumerate(code) if ins[0] == OP_JMP and ins[1] < pc
            ]
            assert fn.name != "main" or heads, name
            for head in heads:
                branch = next(op for op in ops[head:] if op in JUMP_TARGETS)
                assert branch in (OP_BINJZ, OP_PCMPJZ), (name, head, code[head:])
    # One arith-loop iteration: the compare-and-branch, four BINOPs (the
    # last writes s itself), the INC and the back edge, which charges the
    # iteration's steps.  s starts at 0, so its read needs no RDCHK.
    code = _native_program(tool, LOOP_PROGRAMS["arith-loop"]).functions["main"].code
    back = next(pc for pc, ins in enumerate(code) if ins[0] == OP_JMP and ins[1] < pc)
    body = [ins[0] for ins in code[code[back][1] : back + 1]]
    assert body == [OP_BINJZ] + [OP_BINOP] * 4 + [OP_INC, OP_JMP]
    assert code[back - 2][1] == 0  # s's register


def test_dispatch_groups_match_the_opcode_numbering():
    # The VM tests ``op < 8``, ``op < 16``, ... and then the opcodes of the
    # group: an opcode tested outside the group its number falls in would
    # be skipped without a sound, so every opcode must sit in its own, be
    # tested once, and (numbered by frequency) in numeric order.
    loop = next(
        node
        for node in ast.walk(ast.parse(inspect.getsource(vm.run_native)))
        if isinstance(node, ast.While)
    )
    level = next(node for node in loop.body if isinstance(node, ast.If))
    placed = {}
    low = 0
    while isinstance(level, ast.If):
        compare = level.test
        if isinstance(compare.ops[0], ast.Lt):
            high = compare.comparators[0].value
            branch = level.body[0]
        else:  # the last group's single test
            high = None
            branch = level
        tested = []
        while isinstance(branch, ast.If):
            name = branch.test.comparators[0].id
            assert name not in placed, f"{name} is tested twice"
            placed[name] = (low, high)
            tested.append(name)
            branch = branch.orelse[0] if branch.orelse else None
        order = [getattr(bytecode, name) for name in tested]
        assert order == sorted(order), tested
        low = high
        level = level.orelse[0] if high is not None else None
    numbers = {
        name: value
        for name, value in vars(bytecode).items()
        if name.startswith("OP_") and isinstance(value, int)
    }
    assert sorted(numbers.values()) == list(range(len(numbers)))
    assert set(placed) == set(numbers)
    for name, (low, high) in placed.items():
        assert low <= numbers[name] and (high is None or numbers[name] < high), name


def test_nothing_fuses_across_a_named_label():
    # `continue` names the label before i++: the body's charge stays a STEP
    # in front of it, and the back edge charges only the i++ statement.
    code = _native_program(
        TOOLS["default"]["compiled"], STREAM_PROGRAMS["continue-names-its-label"]
    ).functions["main"].code
    targets = _jump_targets(code)
    (increment,) = [pc for pc, ins in enumerate(code) if ins[0] == OP_INC]
    assert increment in targets
    assert code[increment - 1][0] == OP_STEP
    assert code[increment + 1][0] == OP_JMP and code[increment + 1][2] == 2


def test_a_labelled_jump_keeps_its_step_charge_apart():
    # The loop bodies end in an if without else: the jump back is the
    # else branch's target, so the then branch's charge stays a STEP.
    code = _native_program(
        TOOLS["default"]["compiled"], STREAM_PROGRAMS["if-ends-loop-body"]
    ).functions["main"].code
    targets = _jump_targets(code)
    labelled = [
        pc
        for pc, ins in enumerate(code[:-1])
        if ins[0] == OP_STEP and code[pc + 1][0] == OP_JMP and pc + 1 in targets
    ]
    assert labelled
    assert _unfused_steps(code) == []


def _limit_facts(options, unit, max_steps: int):
    report = KccTool(options.without(max_steps=max_steps)).run_unit(unit)
    steps = report.result.steps if report.result is not None else None
    return facts(report), steps


#: Step-limit windows per loop program: the first three iterations of
#: every loop, whose INC and back edge carry the iteration's charge.  The
#: nested loops of array-sweep and pointer-walk start after their first
#: loop's 64 and 32 iterations (its last INC and back edge at about 895 and
#: 386 steps, the nested loops at about 910 and 398), and their outer
#: loop's first INC and back edge follow the first inner run, at about
#: 1,821 and 832 steps.
LOOP_LIMIT_WINDOWS = {
    "arith-loop": (range(1, 75),),
    "array-sweep": (range(1, 50), range(870, 990), range(1800, 1860)),
    "call-chain": (range(1, 75),),
    "pointer-walk": (range(1, 50), range(370, 475), range(815, 870)),
}


def test_step_limit_on_every_fused_jump():
    # Every limit through the first iterations of each loop program, and
    # through the whole run of a program that prints inside its loops,
    # lands on each fused jump and compare-and-branch: the walker and the
    # VM must stop at the same point (same outcome, same stdout).
    walker = CheckerOptions(engine="walker")
    compiled = CheckerOptions(engine="compiled")
    cases = [
        (LOOP_PROGRAMS[name], name, [k for window in windows for k in window])
        for name, windows in LOOP_LIMIT_WINDOWS.items()
    ]
    for name in ("if-ends-loop-body", "continue-names-its-label"):
        source = STREAM_PROGRAMS[name]
        total = KccTool(walker).check(source).result.steps
        cases.append((source, name, range(1, total + 2)))
    for source, name, limits in cases:
        unit = KccTool(walker).compile_unit(source, filename=name)
        for max_steps in limits:
            expected = _limit_facts(walker, unit, max_steps)
            assert _limit_facts(compiled, unit, max_steps) == expected, (
                name,
                max_steps,
            )


#: Programs whose functions declare every kind of local the VM declares
#: itself: registers (flat integers and native pointers) with no
#: initializer, a literal, an expression over registers, a call, an
#: out-of-range conversion, and const ones; declarations run again in loops
#: and nested blocks; local arrays with and without a list; scalars whose
#: address is taken (passed to a callee, stored, compared, used after their
#: block ends); and static locals across calls and recursion.  Each prints
#: ``%p`` and pointer-to-integer values after its cases, so a base that
#: moved shows in the output.  Every function compiles natively.
DECLARATION_PROGRAMS = {
    "register-initializers": """
#include <stdio.h>
static int twice(int v) { return v * 2; }
int main(void) {
    int a;
    int b = 7;
    int c = b * 3 + 1;
    int d = twice(c);
    signed char e = 300;
    unsigned char f = -1;
    const int g = d - 1;
    _Bool h = 5;
    long i = -1;
    unsigned short j = 70000;
    int braced = {4};
    int marker[1];
    a = b + c;
    printf("%d %d %d %d %d %d %d %d %ld %d %d\\n", a, b, c, d, e, f, g, h, i, j, braced);
    printf("%p %lu\\n", (void *)marker, (unsigned long)marker);
    return 0;
}
""",
    "pointer-initializers": """
#include <stdio.h>
#include <stdlib.h>
static int *pick(int *p, int *q, int first) { return first ? p : q; }
int main(void) {
    int arr[4] = {1, 2, 3, 4};
    int *p;
    int *q = arr;
    int *r = q + 2;
    int *s = pick(q, r, 0);
    int *t = malloc(2 * sizeof(int));
    const int *u = arr + 1;
    void *v = t;
    int *w = 0;
    char *name = "decl";
    p = r - 1;
    t[0] = *s;
    t[1] = *u;
    printf("%d %d %d %d %d %s\\n", *p, *r, t[0], t[1], w == 0, name);
    printf("%p %p %lu %lu\\n", (void *)q, v, (unsigned long)r, (unsigned long)name);
    free(t);
    return 0;
}
""",
    "loops-and-blocks": """
#include <stdio.h>
int main(void) {
    int total = 0;
    for (int i = 0; i < 3; i++) {
        int sq = i * i;
        int pending;
        if (i > 0) { int inner = sq + i; total += inner; }
        pending = sq;
        total += pending;
        int tail[2] = {i, sq};
        printf("%p %lu\\n", (void *)tail, (unsigned long)&tail[1]);
    }
    int k = 0;
    while (k < 2) { int w = k + 10; k++; { int z = w; total += z; } }
    do { int once = 5; total += once; } while (0);
    for (int m = 0; m < 2; m++) { int fresh; fresh = m; total += fresh; }
    printf("%d\\n", total);
    int after[1];
    printf("%p %lu\\n", (void *)after, (unsigned long)after);
    return 0;
}
""",
    "arrays": """
#include <stdio.h>
int main(void) {
    int none[3];
    int full[3] = {1, 2, 3};
    int part[4] = {9};
    unsigned char bytes[5] = {255, 256, -1};
    char text[6] = "hi";
    char cut[2] = "long";
    const short fixed[2] = {7, 8};
    none[1] = full[2] + part[0];
    printf("%d %d %d %d %d %d %s %d %d\\n", none[1], part[3], bytes[0], bytes[1],
           bytes[2], text[1], text, cut[1], fixed[0] + fixed[1]);
    printf("%p %p %lu\\n", (void *)none, (void *)part, (unsigned long)bytes);
    return 0;
}
""",
    "address-taken": """
#include <stdio.h>
static void bump(int *p) { *p = *p + 1; }
static int same(const int *a, const int *b) { return a == b; }
static int read_param(int v) { int *pv = &v; *pv = *pv * 3; return v; }
int main(void) {
    int x = 1;
    int y;
    int *saved = &x;
    bump(&x);
    bump(saved);
    y = 10;
    bump(&y);
    int cmp = same(&x, saved) + 2 * (saved != &y) + 4 * (saved == &y);
    x++;
    y += read_param(x);
    const int c = 4;
    const int *pc = &c;
    printf("%d %d %d %d\\n", x, y, cmp, *pc);
    printf("%p %p %lu %lu\\n", (void *)&x, (void *)saved, (unsigned long)&y,
           (unsigned long)pc);
    return 0;
}
""",
    "statics": """
#include <stdio.h>
static int counter(void) { static int calls; calls++; return calls; }
static int depth(int n) {
    static int seen = 100;
    seen--;
    if (n > 0) return depth(n - 1) + 1;
    return seen;
}
static int *cell(void) { static int slot[2] = {4, 5}; slot[0]++; return &slot[1]; }
int main(void) {
    int a = counter();
    int b = counter();
    int c = depth(3);
    int *p = cell();
    int *q = cell();
    static const int limit = 3;
    int local = limit;
    printf("%d %d %d %d %d %d\\n", a, b, c, *p, p == q, local);
    printf("%p %lu\\n", (void *)p, (unsigned long)q);
    return 0;
}
""",
    "uninitialized-after-loop": """
int main(void) {
    int n;
    int i = 0;
    while (i < 2) i++;
    while (n < 3) { n = 5; }
    return 0;
}
""",
    "fresh-in-every-iteration": """
#include <stdio.h>
int main(void) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        int t;
        printf("%d\\n", i);
        if (i == 2) s += t;
        t = 1;
        s += t;
    }
    return s;
}
""",
    "overflow-in-initializer": """
#include <stdio.h>
int main(void) {
    int big = 2147483647;
    int marker[1];
    printf("%p\\n", (void *)marker);
    int boom = big + 1;
    return boom;
}
""",
    "uninitialized-argument": """
#include <stdio.h>
int main(void) {
    int x;
    int y = 2;
    printf("%d %d\\n", y, 1);
    printf("%d %d\\n", x, y + 1);
    return 0;
}
""",
    "dangling-address": """
#include <stdio.h>
int main(void) {
    int *p = 0;
    int sum = 0;
    {
        int inner = 5;
        p = &inner;
        sum += *p;
        printf("%p %lu\\n", (void *)p, (unsigned long)p);
    }
    printf("%d\\n", sum);
    return *p;
}
""",
    "const-written-through-pointer": """
int main(void) {
    const int c = 1;
    int *p = (int *)&c;
    *p = 2;
    return c;
}
""",
    "past-a-scalar": """
int main(void) {
    int x = 1;
    int *p = &x;
    p[1] = 2;
    return x;
}
""",
    "shift-overflow-in-element": """
int main(void) {
    int a[2] = {1, 3};
    int k = 30;
    a[0] <<= k;
    a[1] <<= k;
    return a[1];
}
""",
    "store-one-past-the-end": """
int main(void) {
    int a[4];
    int i;
    for (i = 0; i <= 4; i++) a[i] = i;
    return a[0];
}
""",
    "const-element-through-cast": """
int main(void) {
    const int ca[3] = {1, 2, 3};
    int *p = (int *)ca;
    p[1] += 7;
    return ca[1];
}
""",
    # The walker reads the old value at the operator's line, not the
    # subscript's.
    "uninitialized-element-update": """
int main(void) {
    int a[2];
    a[0] = 1;
    a
    [1]
    +=
    a[0];
    return a[1];
}
""",
    # `sizeof` of a local's or a parameter's name is a constant charged as
    # the walker charges the sizeof node, with no step for the operand.
    "sizeof-of-locals": """
#include <string.h>
long f(int p) { return sizeof p + sizeof(p); }
int main(void) {
    int data[8];
    char c = 1;
    long n = 0;
    static short st;
    int *q = data;
    memset(data, 0, sizeof(data));
    n = sizeof data + sizeof c + sizeof n + sizeof st + sizeof q + f(1);
    int x = sizeof x;
    printf("%ld %d %d\\n", n, x, data[7]);
    return (int)(n & 0x7F);
}
""",
    # An RDCHK is kept only for a register that may be indeterminate; each
    # of these reads one where a later operand can raise, so the check must
    # stay and report the read first.
    "call-result-accumulated": """
int g(int x) { if (x > 0) return x; }
int main(void) {
    int n = 4;
    int s = g(0);
    s += n * 2;
    return s;
}
""",
    "uninitialized-char-element-copied": """
int main(void) {
    unsigned char a[4];
    int y = 3;
    int x = a[1];
    return x + y * 2;
}
""",
    "read-in-its-own-initializer": """
int f(void) { printf("f\\n"); return 1; }
int main(void) {
    int x = x + f();
    return x;
}
""",
    "declared-in-loop-without-initializer": """
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 3; i++) {
        int t;
        if (i < 2) t = i;
        s += t + i * 2;
    }
    return s;
}
""",
    # The body's step charge rides past the loop's increment onto the back
    # edge: an increment that raises is weighed against it, as the walker
    # charges the body before the increment.
    "overflow-past-a-moved-charge": """
int main(void) {
    int s = 0;
    int i;
    for (i = 2147483645; i > 0; i++) { s += 2; }
    return s;
}
""",
    "uninitialized-past-a-moved-charge": """
int main(void) {
    int s = 0;
    int i, j;
    for (i = 0; i < 3; i++, j++) { s += i; }
    return s;
}
""",
}

#: The programs of the corpus whose run is undefined.
UNDEFINED_DECLARATIONS = (
    "uninitialized-after-loop",
    "fresh-in-every-iteration",
    "overflow-in-initializer",
    "uninitialized-argument",
    "dangling-address",
    "const-written-through-pointer",
    "past-a-scalar",
    "shift-overflow-in-element",
    "store-one-past-the-end",
    "const-element-through-cast",
    "uninitialized-element-update",
    "call-result-accumulated",
    "uninitialized-char-element-copied",
    "read-in-its-own-initializer",
    "declared-in-loop-without-initializer",
    "overflow-past-a-moved-charge",
    "uninitialized-past-a-moved-charge",
)


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_declaration_programs_under_every_ablation(label):
    assert_native_matrix(DECLARATION_PROGRAMS, label)


def test_declaration_corpus_verdicts():
    tool = TOOLS["default"]["compiled"]
    for name, source in DECLARATION_PROGRAMS.items():
        kind = tool.check(source).outcome.kind
        expected = OutcomeKind.UNDEFINED if name in UNDEFINED_DECLARATIONS else OutcomeKind.DEFINED
        assert kind is expected, name


def test_no_native_declaration_runs_the_walker(monkeypatch):
    # A register local has no object and a slot is allocated by the VM:
    # the walker's declaration executor never runs for a native function,
    # and no register is loaded back from an object after the prologue.
    def forbidden(self, declaration):
        raise AssertionError(f"walker declared {declaration.name!r}")

    monkeypatch.setattr(Interpreter, "exec_local_declaration", forbidden)
    monkeypatch.setattr(Interpreter, "define_auto_object", forbidden)
    tool = TOOLS["default"]["compiled"]
    for source in DECLARATION_PROGRAMS.values():
        program = _native_program(tool, source)
        for fn in program.functions.values():
            ops = [ins[0] for ins in fn.code]
            assert OP_BINDR not in ops[fn.entry:] and OP_BINDP not in ops[fn.entry:]
        tool.check(source)
    # One reservation covers a run of register declarations, and a block
    # that declares only registers pushes no run-time scope.
    source = "int main(void) { int a = 1; int b = a + 2; int c; { int d = b; c = d; } return c; }"
    ops = [ins[0] for ins in _native_program(tool, source).functions["main"].code]
    assert ops.count(OP_RSV) == 2 and OP_PUSHSC not in ops
    code = _native_program(tool, STREAM_PROGRAMS["break-continue-nested"])
    assert OP_PUSHSC not in [ins[0] for ins in code.functions["main"].code]


def test_a_function_that_takes_an_address_compiles_once(monkeypatch):
    # The parser records the names under `&` on the definition, so the
    # compiler knows which locals are slots before it starts.
    source = "int main(void){ int x = 1; int *p = &x; return *p - 1; }"
    attempts = []
    compile_definition = bytecode._FnCompiler.compile

    def counted(self):
        attempts.append(self.definition.name)
        return compile_definition(self)

    monkeypatch.setattr(bytecode._FnCompiler, "compile", counted)
    tool = TOOLS["default"]["compiled"]
    unit = tool.compile_unit(source).unit
    assert unit.declarations[0].addressed == {"x"}
    program = bytecode.compile_unit_bytecode(unit, tool.options)
    assert attempts == ["main"] and "main" in program.functions
    # A hand-built definition without the record leaves the subset at `&x`.
    unit.declarations[0] = dataclasses.replace(unit.declarations[0],
                                               addressed=frozenset())
    program = bytecode.compile_unit_bytecode(unit, tool.options)
    assert program.fallbacks == {"main": "address of 'x'"}


def _assert_limits_agree_up_to_the_undefined_behavior(programs, order):
    # Every limit up to and past the undefined operation: where the walker
    # charges the steps that reach max_steps before the operation, the VM
    # and the lowered closures report the step limit, and past it all three
    # report the operation.
    walker = CheckerOptions(engine="walker", evaluation_order=order)
    engines = [CheckerOptions(engine=engine, evaluation_order=order)
               for engine in ("compiled", "lowered")]
    for name, source in programs.items():
        unit = KccTool(walker).compile_unit(source, filename=name)
        max_steps = 1
        while True:
            expected = _limit_facts(walker, unit, max_steps)
            for options in engines:
                assert _limit_facts(options, unit, max_steps) == expected, (
                    name, options.engine, max_steps)
            if expected[0][0] == "UNDEFINED":
                break
            max_steps += 1


def test_step_limit_before_undefined_behavior():
    _assert_limits_agree_up_to_the_undefined_behavior(
        {name: DECLARATION_PROGRAMS[name] for name in UNDEFINED_DECLARATIONS},
        "left-to-right",
    )


#: Constant operands whose fold is undefined, beside an operand that is not
#: constant or that is undefined too.  Right to left the walker evaluates
#: the right operand first, so the folded left operand must not stand for
#: the whole expression.  Each maps to its diagnostic left to right and
#: right to left.
FOLD_PROGRAMS = {
    "undefined-fold-beside-uninitialized": (
        "int main(void) { int x; return (2147483647 << 7) + x; }"
    ),
    "undefined-fold-beside-calls": """
int g(int x) { if (x > 0) return x; }
int main(void) {
    unsigned char v1 = 3;
    v1 -= (((0 == 7) * (2147483647 << 7)) & ((g(0) % 1) % g(1)));
    return v1;
}
""",
    "undefined-folds-on-both-sides": (
        "int main(void) { return (2147483647 << 7) - (2147483647 << 8); }"
    ),
}

FOLD_DIAGNOSTICS = {
    "undefined-fold-beside-uninitialized": (
        "Left shift of 2147483647 by 7 overflows int.",
        "Read of an uninitialized (indeterminate) value of type int.",
    ),
    "undefined-fold-beside-calls": (
        "Left shift of 2147483647 by 7 overflows int.",
        "Indeterminate value used as left operand of '%'.",
    ),
    "undefined-folds-on-both-sides": (
        "Left shift of 2147483647 by 7 overflows int.",
        "Left shift of 2147483647 by 8 overflows int.",
    ),
}


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_undefined_folds_under_every_ablation(label):
    assert_native_matrix(FOLD_PROGRAMS, label)


@pytest.mark.parametrize("position, order", enumerate(("left-to-right", "right-to-left")))
def test_undefined_folds_raise_in_evaluation_order(position, order):
    tool = KccTool(CheckerOptions(evaluation_order=order))
    for name, source in FOLD_PROGRAMS.items():
        outcome = tool.check(source, filename=name).outcome
        assert outcome.kind is OutcomeKind.UNDEFINED, name
        messages = [diagnostic.message for diagnostic in outcome.diagnostics()]
        assert messages == [FOLD_DIAGNOSTICS[name][position]], (name, order)
    _assert_limits_agree_up_to_the_undefined_behavior(FOLD_PROGRAMS, order)
