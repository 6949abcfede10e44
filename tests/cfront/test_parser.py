"""Unit tests for the parser."""

import tracemalloc

import pytest

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.parser import MAX_FOLDED_SHIFT, fold_constant, parse
from repro.cfront.preprocessor import preprocess
from repro.core.kcc import KccTool
from repro.errors import CParseError, OutcomeKind, UBKind


def parse_decls(source):
    return parse(source).declarations


def only_function(source, name="main"):
    unit = parse(source)
    return unit.functions()[name]


class TestDeclarations:
    def test_simple_variable(self):
        decl = parse_decls("int x;")[0]
        assert isinstance(decl, c_ast.Declaration)
        assert decl.name == "x"
        assert decl.type == ct.INT

    def test_multiple_declarators(self):
        decls = parse_decls("int x, y, z;")
        assert [d.name for d in decls] == ["x", "y", "z"]

    def test_pointer_declarator(self):
        decl = parse_decls("int *p;")[0]
        assert decl.type == ct.PointerType(pointee=ct.INT)

    def test_pointer_to_pointer(self):
        decl = parse_decls("char **argv;")[0]
        assert decl.type == ct.PointerType(pointee=ct.PointerType(pointee=ct.CHAR))

    def test_array_declarator(self):
        decl = parse_decls("int a[10];")[0]
        assert isinstance(decl.type, ct.ArrayType)
        assert decl.type.length == 10
        assert decl.type.element == ct.INT

    def test_two_dimensional_array(self):
        decl = parse_decls("int grid[2][3];")[0]
        assert decl.type.length == 2
        assert decl.type.element.length == 3

    def test_array_of_pointers(self):
        decl = parse_decls("int *table[4];")[0]
        assert isinstance(decl.type, ct.ArrayType)
        assert isinstance(decl.type.element, ct.PointerType)

    def test_pointer_to_array(self):
        decl = parse_decls("int (*p)[4];")[0]
        assert isinstance(decl.type, ct.PointerType)
        assert isinstance(decl.type.pointee, ct.ArrayType)

    def test_function_prototype(self):
        decl = parse_decls("int add(int a, int b);")[0]
        assert isinstance(decl.type, ct.FunctionType)
        assert decl.type.parameters == (ct.INT, ct.INT)
        assert decl.type.return_type == ct.INT

    def test_function_returning_pointer(self):
        decl = parse_decls("void *alloc(unsigned long n);")[0]
        assert isinstance(decl.type, ct.FunctionType)
        assert decl.type.return_type == ct.PointerType(pointee=ct.VOID)

    def test_function_pointer_declarator(self):
        decl = parse_decls("int (*callback)(int, int);")[0]
        assert isinstance(decl.type, ct.PointerType)
        assert isinstance(decl.type.pointee, ct.FunctionType)
        assert len(decl.type.pointee.parameters) == 2

    def test_variadic_prototype(self):
        decl = parse_decls("int printf(const char *fmt, ...);")[0]
        assert decl.type.variadic is True

    def test_void_parameter_list(self):
        decl = parse_decls("int get(void);")[0]
        assert decl.type.parameters == ()
        assert decl.type.has_prototype is True

    def test_const_qualifier(self):
        decl = parse_decls("const int limit = 5;")[0]
        assert decl.type.const is True

    def test_unsigned_types(self):
        assert parse_decls("unsigned int x;")[0].type == ct.UINT
        assert parse_decls("unsigned long x;")[0].type == ct.ULONG
        assert parse_decls("unsigned char x;")[0].type == ct.UCHAR
        assert parse_decls("unsigned x;")[0].type == ct.UINT

    def test_long_long(self):
        assert parse_decls("long long x;")[0].type == ct.LLONG
        assert parse_decls("unsigned long long x;")[0].type == ct.ULLONG

    def test_storage_classes(self):
        assert parse_decls("static int x;")[0].storage == "static"
        assert parse_decls("extern int x;")[0].storage == "extern"

    def test_typedef_then_use(self):
        decls = parse_decls("typedef unsigned long word; word w;")
        assert decls[0].name == "w"
        assert decls[0].type == ct.ULONG

    def test_function_returning_function_pointer(self):
        # f takes an int and returns a pointer to a function taking a char.
        decl = parse_decls("int (*(f)(int a))(char b);")[0]
        returned = ct.PointerType(pointee=ct.FunctionType(
            return_type=ct.INT, parameters=(ct.CHAR,), has_prototype=True))
        assert decl.type == ct.FunctionType(
            return_type=returned, parameters=(ct.INT,), has_prototype=True)

    def test_array_of_pointers_to_arrays(self):
        decl = parse_decls("int (*table[2])[3];")[0]
        row = ct.PointerType(pointee=ct.ArrayType(element=ct.INT, length=3))
        assert decl.type == ct.ArrayType(element=row, length=2)

    def test_typedef_function_pointer(self):
        decls = parse_decls("typedef int (*cmp)(int, int); cmp comparator;")
        assert isinstance(decls[0].type, ct.PointerType)
        assert isinstance(decls[0].type.pointee, ct.FunctionType)

    def test_initializer(self):
        decl = parse_decls("int x = 1 + 2;")[0]
        assert isinstance(decl.initializer, c_ast.BinaryOp)

    def test_initializer_list(self):
        decl = parse_decls("int a[3] = {1, 2, 3};")[0]
        assert isinstance(decl.initializer, c_ast.InitList)
        assert len(decl.initializer.items) == 3


class TestStructUnionEnum:
    def test_struct_definition(self):
        decl = parse_decls("struct point { int x; int y; } origin;")[0]
        assert isinstance(decl.type, ct.StructType)
        assert decl.type.tag == "point"
        assert [f.name for f in decl.type.fields] == ["x", "y"]

    def test_struct_reference_after_definition(self):
        decls = parse_decls("struct point { int x; }; struct point p;")
        assert decls[0].name == "p"
        assert decls[0].type.is_complete

    def test_self_referential_struct(self):
        decl = parse_decls("struct node { int value; struct node *next; } head;")[0]
        next_field = decl.type.field_named("next")
        assert isinstance(next_field.type, ct.PointerType)
        assert next_field.type.pointee.tag == "node"

    def test_union_definition(self):
        decl = parse_decls("union number { int i; double d; } n;")[0]
        assert isinstance(decl.type, ct.UnionType)
        assert len(decl.type.fields) == 2

    def test_enum_definition(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE }; int main(void) { return BLUE; }")
        main = unit.functions()["main"]
        ret = main.body.items[0]
        assert isinstance(ret, c_ast.Return)
        assert isinstance(ret.value, c_ast.IntegerLiteral)
        assert ret.value.value == 6

    def test_anonymous_struct_typedef(self):
        decls = parse_decls("typedef struct { int a; } wrapper; wrapper w;")
        assert isinstance(decls[0].type, ct.StructType)


class TestExpressions:
    def _expr(self, text):
        unit = parse(f"int main(void) {{ return {text}; }}")
        return unit.functions()["main"].body.items[0].value

    def test_precedence_multiplication_over_addition(self):
        expr = self._expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_relational_over_logical(self):
        expr = self._expr("a < b && c > d")
        assert expr.op == "&&"

    def test_assignment_right_associative(self):
        unit = parse("int main(void) { int a, b; a = b = 1; return a; }")
        stmt = unit.functions()["main"].body.items[2]
        assert isinstance(stmt.expression, c_ast.Assignment)
        assert isinstance(stmt.expression.value, c_ast.Assignment)

    def test_conditional_expression(self):
        expr = self._expr("a ? b : c")
        assert isinstance(expr, c_ast.Conditional)

    def test_cast_expression(self):
        expr = self._expr("(long)x")
        assert isinstance(expr, c_ast.Cast)
        assert expr.target_type == ct.LONG

    def test_cast_vs_parenthesized_expression(self):
        expr = self._expr("(x) + 1")
        assert isinstance(expr, c_ast.BinaryOp)

    def test_sizeof_type(self):
        expr = self._expr("sizeof(int)")
        assert isinstance(expr, c_ast.SizeofType)

    def test_sizeof_expression(self):
        expr = self._expr("sizeof x")
        assert isinstance(expr, c_ast.UnaryOp)
        assert expr.op == "sizeof"

    def test_unary_operators(self):
        assert self._expr("-x").op == "-"
        assert self._expr("!x").op == "!"
        assert self._expr("~x").op == "~"
        assert self._expr("&x").op == "&"
        assert self._expr("*p").op == "*"

    def test_increment_decrement(self):
        assert self._expr("++x").op == "++pre"
        assert self._expr("x++").op == "++post"
        assert self._expr("--x").op == "--pre"
        assert self._expr("x--").op == "--post"

    def test_call_with_arguments(self):
        expr = self._expr("f(1, 2, 3)")
        assert isinstance(expr, c_ast.Call)
        assert len(expr.arguments) == 3

    def test_member_and_arrow(self):
        dot = self._expr("s.field")
        arrow = self._expr("p->field")
        assert isinstance(dot, c_ast.Member) and dot.arrow is False
        assert isinstance(arrow, c_ast.Member) and arrow.arrow is True

    def test_array_subscript(self):
        expr = self._expr("a[i]")
        assert isinstance(expr, c_ast.ArraySubscript)

    def test_chained_postfix(self):
        expr = self._expr("matrix[1][2]")
        assert isinstance(expr, c_ast.ArraySubscript)
        assert isinstance(expr.array, c_ast.ArraySubscript)

    def test_string_literal_concatenation(self):
        expr = self._expr('"foo" "bar"')
        assert isinstance(expr, c_ast.StringLiteral)
        assert expr.value == "foobar"

    def test_comma_expression(self):
        expr = self._expr("(a, b)")
        assert isinstance(expr, c_ast.Comma)

    def test_integer_constant_types(self):
        assert self._expr("5").type == ct.INT
        assert self._expr("5000000000").type == ct.LONG
        assert self._expr("5u").type == ct.UINT


class TestStatements:
    def _body(self, text):
        unit = parse(f"int main(void) {{ {text} }}")
        return unit.functions()["main"].body.items

    def test_if_else(self):
        items = self._body("if (1) return 1; else return 2;")
        assert isinstance(items[0], c_ast.If)
        assert items[0].otherwise is not None

    def test_while(self):
        items = self._body("while (1) { break; }")
        assert isinstance(items[0], c_ast.While)

    def test_do_while(self):
        items = self._body("do { } while (0);")
        assert isinstance(items[0], c_ast.DoWhile)

    def test_for_with_declaration(self):
        items = self._body("for (int i = 0; i < 10; i++) { }")
        loop = items[0]
        assert isinstance(loop, c_ast.For)
        assert isinstance(loop.init, list)
        assert isinstance(loop.init[0], c_ast.Declaration)

    def test_for_with_empty_clauses(self):
        items = self._body("for (;;) { break; }")
        loop = items[0]
        assert loop.init is None and loop.condition is None and loop.step is None

    def test_switch_with_cases(self):
        items = self._body("switch (x) { case 1: return 1; default: return 0; }")
        assert isinstance(items[0], c_ast.Switch)

    def test_goto_and_label(self):
        items = self._body("goto end; end: return 0;")
        assert isinstance(items[0], c_ast.Goto)
        assert isinstance(items[1], c_ast.Label)

    def test_nested_blocks(self):
        items = self._body("{ int x; { int y; } }")
        assert isinstance(items[0], c_ast.Compound)

    def test_empty_statement(self):
        items = self._body(";")
        assert isinstance(items[0], c_ast.ExpressionStmt)
        assert items[0].expression is None

    def test_local_declarations_mixed_with_statements(self):
        items = self._body("int x = 1; x = 2; int y = x;")
        assert isinstance(items[0], c_ast.Declaration)
        assert isinstance(items[1], c_ast.ExpressionStmt)
        assert isinstance(items[2], c_ast.Declaration)


class TestFunctionDefinitions:
    def test_parameter_names(self):
        func = only_function("int main(void) { return 0; } "
                             "int add(int first, int second) { return first + second; }",
                             name="add")
        assert func.parameter_names == ["first", "second"]

    def test_static_function(self):
        unit = parse("static int helper(void) { return 1; } int main(void) { return helper(); }")
        assert unit.functions()["helper"].storage == "static"

    def test_void_function(self):
        unit = parse("void nothing(void) { return; } int main(void) { nothing(); return 0; }")
        assert unit.functions()["nothing"].type.return_type == ct.VOID

    def test_parameter_names_come_from_the_declarator_nearest_the_name(self):
        func = only_function("int (*(f)(int a))(char b) { return 0; }", name="f")
        assert func.parameter_names == ["a"]

    def test_function_returning_a_function_pointer_binds_its_own_parameter(self):
        # The parameter of the returned pointer's type, b, is not in scope
        # in f's body; a is.
        source = ("static int g(char b) { return b; } "
                  "int (*(f)(int a))(char b) { return a ? g : 0; } "
                  "int main(void) { return f(1) != 0 ? 0 : 1; }")
        report = KccTool().check(source)
        assert report.outcome.kind is OutcomeKind.DEFINED, report.render()
        assert report.outcome.exit_code == 0

    def test_function_body_only_at_file_scope(self):
        with pytest.raises(CParseError):
            parse("int main(void) { int inner(void) { return 0; } return 0; }")


class TestDeclarationScopes:
    def test_file_scope_extern_declares_without_defining(self):
        extern, defined = parse_decls("extern int x; extern int y = 1;")
        assert extern.is_definition is False
        assert defined.is_definition is True

    def test_block_scope_declarations_stay_definitions(self):
        items = only_function("int main(void) { extern int x; static int y; return 0; }").body.items
        assert [(d.name, d.storage, d.is_definition) for d in items[:2]] == [
            ("x", "extern", True), ("y", "static", True)]


class TestConstantFolding:
    def _fold(self, text):
        unit = parse(f"int main(void) {{ return {text}; }}")
        return fold_constant(unit.functions()["main"].body.items[0].value)

    def test_arithmetic(self):
        assert self._fold("2 + 3 * 4") == 14
        assert self._fold("(10 - 4) / 3") == 2
        assert self._fold("7 % 3") == 1

    def test_c_division_truncates_toward_zero(self):
        assert self._fold("-7 / 2") == -3
        assert self._fold("-7 % 2") == -1

    @pytest.mark.parametrize("left, right", [
        (-9007199254740993, 1),      # -(2**53 + 1): not a double
        (9007199254740993, -1),
        (-9007199254740993, 10),
        (-(2**62) - 3, 7),
        (2**62 + 3, -7),
        (-(2**63) + 1, 3),
    ])
    def test_mixed_sign_division_is_exact_beyond_2_53(self, left, right):
        # C truncates toward zero (§6.5.5:6) and (a/b)*b + a%b == a; the
        # folder must not round through a double on the way.
        quotient = self._fold(f"({left}LL) / ({right}LL)")
        remainder = self._fold(f"({left}LL) % ({right}LL)")
        assert abs(quotient) == abs(left) // abs(right)
        assert (quotient < 0) == ((left < 0) != (right < 0))
        assert quotient * right + remainder == left
        assert abs(remainder) < abs(right)
        assert remainder == 0 or (remainder < 0) == (left < 0)

    def test_shifts_and_bitwise(self):
        assert self._fold("1 << 4") == 16
        assert self._fold("0xFF & 0x0F") == 15
        assert self._fold("1 | 6") == 7

    def test_comparisons(self):
        assert self._fold("3 < 5") == 1
        assert self._fold("3 == 4") == 0

    def test_conditional(self):
        assert self._fold("1 ? 10 : 20") == 10

    def test_sizeof_folds(self):
        assert self._fold("sizeof(int)") == 4
        assert self._fold("sizeof(long)") == 8

    def test_non_constant_returns_none(self):
        unit = parse("int main(void) { int x = 1; return x + 1; }")
        expr = unit.functions()["main"].body.items[1].value
        assert fold_constant(expr) is None

    def test_division_by_zero_returns_none(self):
        assert self._fold("1 / 0") is None

    def test_left_shift_count_is_bounded(self):
        assert self._fold(f"1 << {MAX_FOLDED_SHIFT}") == 1 << MAX_FOLDED_SHIFT
        assert self._fold(f"1 << {MAX_FOLDED_SHIFT + 1}") is None
        assert self._fold("-1 << 3") == -8


#: A shift count far past the folding limit: ``1 << HUGE_SHIFT`` alone
#: would take 50 MB, and each place that folded it paid that again.
HUGE_SHIFT = 400_000_000


def _traced(action):
    """``action()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return action(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHugeShiftsStayCheap:
    """A huge constant shift count costs no memory wherever it is folded."""

    LIMIT = 8 << 20

    def test_in_an_expression_checked_by_sema(self):
        source = f"int main(void){{ return ((1 << {HUGE_SHIFT}) + 1) > 0; }}"
        compiled, peak = _traced(lambda: KccTool().compile_unit(source))
        assert peak < self.LIMIT
        [violation] = compiled.static_violations
        assert violation.kind is UBKind.SHIFT_TOO_FAR

    def test_in_an_array_size(self):
        source = f"int a[1 << {HUGE_SHIFT}]; int main(void){{ return 0; }}"
        compiled, peak = _traced(lambda: KccTool().compile_unit(source))
        assert peak < self.LIMIT
        assert "variable length arrays" in compiled.parse_error

    def test_in_an_if_directive(self):
        def run():
            with pytest.raises(CParseError):
                preprocess(f"#if (1 << {HUGE_SHIFT}) > 0\nint x;\n#endif\n")

        _, peak = _traced(run)
        assert peak < self.LIMIT


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(CParseError):
            parse("int main(void) { int x = 1 return x; }")

    def test_unbalanced_braces(self):
        with pytest.raises(CParseError):
            parse("int main(void) { return 0;")

    def test_garbage_input(self):
        with pytest.raises(CParseError):
            parse("$$$")
