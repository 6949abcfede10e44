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

import pytest

from repro.core.bytecode import OP_CALL, OP_DCALL
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.errors import OutcomeKind
from repro.fuzz.generator import generate_cases
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite

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


#: The loops-warm benchmark programs, copied here so that the benchmark and
#: this guard can change independently.  All four run entirely on the VM.
LOOP_PROGRAMS = {
    "arith-loop": """
int main(void){
    long s = 0;
    int i;
    for (i = 0; i < 6000; i++) { s += i * 2 + (i % 3); }
    return s & 0xFF ? 0 : 1;
}
""",
    "array-sweep": """
int main(void){
    int a[64];
    int i, j, s = 0;
    for (i = 0; i < 64; i++) a[i] = i * i;
    for (j = 0; j < 90; j++)
        for (i = 0; i < 64; i++)
            s += a[i] >> 2;
    return s == 0;
}
""",
    "call-chain": """
static int f(int x){ return x * 2 + 1; }
int main(void){
    int i, s = 0;
    for (i = 0; i < 1500; i++) s += f(i) & 7;
    return s < 0;
}
""",
    "pointer-walk": """
int main(void){
    int a[32];
    int *p;
    int i, j, s = 0;
    for (i = 0; i < 32; i++) a[i] = i;
    for (j = 0; j < 120; j++)
        for (p = a; p < a + 32; p++)
            s += *p;
    return s == 0;
}
""",
}


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


@pytest.mark.parametrize("label", list(POINTER_TOOLS))
def test_pointer_programs_under_every_ablation(label):
    tools = POINTER_TOOLS[label]
    for name, source in POINTER_PROGRAMS.items():
        program = _native_program(tools["compiled"], source)
        assert program.fallbacks == {}, (name, program.fallbacks)
        assert_matrix(source, name, tools, label)
        results = {engine: tool.check(source).result for engine, tool in tools.items()}
        if results["walker"] is not None:  # a defined run: the steps agree too
            assert len({result.steps for result in results.values()}) == 1, name
    assert_matrix(POINTER_FALLBACK_PROGRAM, "pointer-fallback", tools, label)


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
