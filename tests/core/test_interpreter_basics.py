"""Integration tests: executing defined C programs on the dynamic semantics."""

from tests.util import exit_code_of, stdout_of


class TestArithmetic:
    def test_return_constant(self):
        assert exit_code_of("int main(void) { return 7; }") == 7

    def test_integer_arithmetic(self):
        assert exit_code_of("int main(void) { return 2 + 3 * 4; }") == 14

    def test_division_and_modulus(self):
        assert exit_code_of("int main(void) { return 17 / 5 + 17 % 5; }") == 5

    def test_negative_division_truncates_toward_zero(self):
        assert exit_code_of("int main(void) { int a = -7; return (a / 2) == -3 ? 1 : 0; }") == 1

    def test_unsigned_wraparound_is_defined(self):
        source = """
        int main(void) {
            unsigned int x = 4294967295u;
            x = x + 1u;
            return x == 0u ? 1 : 0;
        }
        """
        assert exit_code_of(source) == 1

    def test_bitwise_operators(self):
        assert exit_code_of("int main(void) { return (0xF0 & 0x3C) | (1 << 0); }") == 0x31

    def test_shift_operators(self):
        assert exit_code_of("int main(void) { return (1 << 5) >> 2; }") == 8

    def test_relational_and_equality(self):
        assert exit_code_of("int main(void) { return (3 < 5) + (5 <= 5) + (7 == 7) + (1 != 2); }") == 4

    def test_logical_operators_short_circuit(self):
        source = """
        int main(void) {
            int x = 0;
            int r = (x != 0) && (10 / x > 1);
            return r;
        }
        """
        assert exit_code_of(source) == 0

    def test_logical_or_short_circuit(self):
        source = """
        int main(void) {
            int x = 0;
            return (x == 0) || (10 / x > 1);
        }
        """
        assert exit_code_of(source) == 1

    def test_conditional_expression(self):
        assert exit_code_of("int main(void) { int x = 3; return x > 2 ? 10 : 20; }") == 10

    def test_comma_expression(self):
        assert exit_code_of("int main(void) { int x = (1, 2, 3); return x; }") == 3

    def test_compound_assignment(self):
        source = """
        int main(void) {
            int x = 10;
            x += 5; x -= 3; x *= 2; x /= 4; x %= 5; x <<= 2; x |= 1; x &= 7; x ^= 2;
            return x;
        }
        """
        assert exit_code_of(source) == 7

    def test_increment_decrement(self):
        source = """
        int main(void) {
            int x = 5;
            int a = x++;
            int b = ++x;
            int c = x--;
            int d = --x;
            return a + b * 2 + c * 3 + d * 4;
        }
        """
        assert exit_code_of(source) == 5 + 7 * 2 + 7 * 3 + 5 * 4

    def test_floating_point_arithmetic(self):
        source = """
        int main(void) {
            double x = 1.5;
            double y = x * 4.0 - 2.0;
            return (int)y;
        }
        """
        assert exit_code_of(source) == 4

    def test_mixed_int_float_promotes(self):
        assert exit_code_of("int main(void) { return (int)(7 / 2.0 * 2.0); }") == 7

    def test_char_arithmetic(self):
        assert exit_code_of("int main(void) { char c = 'A'; return c + 1; }") == 66

    def test_sizeof_values(self):
        source = """
        int main(void) {
            int x = 0;
            int a[10];
            a[0] = x;
            return (int)(sizeof(char) + sizeof(int) + sizeof(long) + sizeof x + sizeof a);
        }
        """
        assert exit_code_of(source) == 1 + 4 + 8 + 4 + 40

    def test_casts(self):
        source = """
        int main(void) {
            long big = 300;
            char truncated = (char)big;
            unsigned char u = (unsigned char)300;
            return truncated == 44 && u == 44;
        }
        """
        assert exit_code_of(source) == 1


class TestControlFlow:
    def test_if_else_chains(self):
        source = """
        int classify(int x) {
            if (x < 0) return -1;
            else if (x == 0) return 0;
            else return 1;
        }
        int main(void) { return classify(-5) + classify(0) * 10 + classify(7) * 100; }
        """
        assert exit_code_of(source) == 99

    def test_while_loop(self):
        source = """
        int main(void) {
            int i = 0, total = 0;
            while (i < 10) { total += i; i++; }
            return total;
        }
        """
        assert exit_code_of(source) == 45

    def test_do_while_runs_at_least_once(self):
        source = """
        int main(void) {
            int count = 0;
            do { count++; } while (0);
            return count;
        }
        """
        assert exit_code_of(source) == 1

    def test_for_loop_with_break_and_continue(self):
        source = """
        int main(void) {
            int total = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                total += i;
            }
            return total;
        }
        """
        assert exit_code_of(source) == 1 + 3 + 5 + 7 + 9

    def test_nested_loops(self):
        source = """
        int main(void) {
            int total = 0;
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    total += i * j;
            return total;
        }
        """
        assert exit_code_of(source) == 18

    def test_switch_with_fallthrough(self):
        source = """
        int describe(int x) {
            int result = 0;
            switch (x) {
                case 1:
                    result += 1;
                case 2:
                    result += 2;
                    break;
                case 3:
                    result += 100;
                    break;
                default:
                    result = 42;
            }
            return result;
        }
        int main(void) { return describe(1) + describe(2) * 10 + describe(9); }
        """
        assert exit_code_of(source) == 3 + 20 + 42

    def test_goto_forward(self):
        source = """
        int main(void) {
            int x = 1;
            goto skip;
            x = 100;
        skip:
            return x;
        }
        """
        assert exit_code_of(source) == 1

    def test_goto_backward_loop(self):
        source = """
        int main(void) {
            int count = 0;
        again:
            count++;
            if (count < 5) goto again;
            return count;
        }
        """
        assert exit_code_of(source) == 5

    def test_early_return(self):
        source = """
        int find(int needle) {
            for (int i = 0; i < 10; i++) {
                if (i == needle) return i * 2;
            }
            return -1;
        }
        int main(void) { return find(4); }
        """
        assert exit_code_of(source) == 8


class TestFunctions:
    def test_simple_call(self):
        source = """
        int add(int a, int b) { return a + b; }
        int main(void) { return add(2, 3); }
        """
        assert exit_code_of(source) == 5

    def test_recursion(self):
        source = """
        int factorial(int n) { return n <= 1 ? 1 : n * factorial(n - 1); }
        int main(void) { return factorial(5); }
        """
        assert exit_code_of(source) == 120

    def test_mutual_recursion(self):
        source = """
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main(void) { return is_even(10) + is_odd(7) * 10; }
        """
        assert exit_code_of(source) == 11

    def test_void_function_side_effect(self):
        source = """
        int counter = 0;
        void bump(void) { counter++; }
        int main(void) { bump(); bump(); bump(); return counter; }
        """
        assert exit_code_of(source) == 3

    def test_pass_by_value(self):
        source = """
        void try_to_change(int x) { x = 100; }
        int main(void) { int x = 5; try_to_change(x); return x; }
        """
        assert exit_code_of(source) == 5

    def test_pass_pointer_to_modify(self):
        source = """
        void change(int *x) { *x = 100; }
        int main(void) { int x = 5; change(&x); return x; }
        """
        assert exit_code_of(source) == 100

    def test_function_pointer_call(self):
        source = """
        int twice(int x) { return 2 * x; }
        int thrice(int x) { return 3 * x; }
        int main(void) {
            int (*f)(int) = twice;
            int a = f(4);
            f = thrice;
            return a + f(4);
        }
        """
        assert exit_code_of(source) == 20

    def test_function_pointer_in_array(self):
        source = """
        int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int main(void) {
            int (*ops[2])(int, int) = { add, sub };
            return ops[0](10, 3) + ops[1](10, 3);
        }
        """
        assert exit_code_of(source) == 20

    def test_static_local_persists(self):
        source = """
        int next_id(void) { static int id = 0; return ++id; }
        int main(void) { next_id(); next_id(); return next_id(); }
        """
        assert exit_code_of(source) == 3

    def test_main_without_return_yields_zero(self):
        assert exit_code_of("int main(void) { int x = 1; x++; }") == 0

    def test_struct_passed_by_value(self):
        source = """
        struct pair { int a; int b; };
        int total(struct pair p) { p.a = 0; return p.a + p.b; }
        int main(void) {
            struct pair p = { 3, 4 };
            int t = total(p);
            return t * 10 + p.a;
        }
        """
        assert exit_code_of(source) == 43

    def test_struct_returned_by_value(self):
        source = """
        struct pair { int a; int b; };
        struct pair make(int a, int b) { struct pair p = { a, b }; return p; }
        int main(void) {
            struct pair p = make(4, 5);
            return p.a * 10 + p.b;
        }
        """
        assert exit_code_of(source) == 45


class TestGlobalsAndScope:
    def test_global_initialization(self):
        source = """
        int global_value = 42;
        int main(void) { return global_value; }
        """
        assert exit_code_of(source) == 42

    def test_uninitialized_global_is_zero(self):
        source = """
        int zero_by_default;
        int main(void) { return zero_by_default; }
        """
        assert exit_code_of(source) == 0

    def test_global_array_initializer(self):
        source = """
        int table[4] = { 10, 20, 30 };
        int main(void) { return table[0] + table[2] + table[3]; }
        """
        assert exit_code_of(source) == 40

    def test_global_pointer_to_global(self):
        source = """
        int target = 9;
        int *pointer = &target;
        int main(void) { return *pointer; }
        """
        assert exit_code_of(source) == 9

    def test_block_scope_shadowing(self):
        source = """
        int main(void) {
            int x = 1;
            {
                int x = 2;
                x++;
            }
            return x;
        }
        """
        assert exit_code_of(source) == 1

    def test_enum_constants(self):
        source = """
        enum state { IDLE, RUNNING = 10, DONE };
        int main(void) { return IDLE + RUNNING + DONE; }
        """
        assert exit_code_of(source) == 21


class TestOutput:
    def test_printf_integers(self):
        source = """
        #include <stdio.h>
        int main(void) { printf("%d %d %u\\n", -3, 42, 7u); return 0; }
        """
        assert stdout_of(source) == "-3 42 7\n"

    def test_printf_strings_and_chars(self):
        source = """
        #include <stdio.h>
        int main(void) { printf("%s|%c|%%\\n", "hi", 'x'); return 0; }
        """
        assert stdout_of(source) == "hi|x|%\n"

    def test_printf_float(self):
        source = """
        #include <stdio.h>
        int main(void) { printf("%f\\n", 2.5); return 0; }
        """
        assert stdout_of(source) == "2.500000\n"

    def test_puts_and_putchar(self):
        source = """
        #include <stdio.h>
        int main(void) { puts("line"); putchar('A'); putchar('\\n'); return 0; }
        """
        assert stdout_of(source) == "line\nA\n"

    def test_exit_stops_program(self):
        source = """
        #include <stdlib.h>
        #include <stdio.h>
        int main(void) {
            puts("before");
            exit(3);
            puts("after");
            return 0;
        }
        """
        from tests.util import run_ok
        outcome = run_ok(source)
        assert outcome.exit_code == 3
        assert outcome.stdout == "before\n"


def test_unit_bindings_are_built_once_and_copied_per_run():
    import copy
    import gc

    from repro.cfront.parser import parse
    from repro.core import interpreter as interpreter_module
    from repro.core.interpreter import Interpreter

    source = """
    #include <stdlib.h>
    #include <string.h>
    int helper(int v);
    int helper(int v) { return v + 1; }
    int main(void) { return helper(abs(-2)) == 3 ? 0 : 1; }
    """
    unit = parse(source)
    first = Interpreter(unit)
    entry = interpreter_module._UNIT_BINDINGS[id(unit)]
    second = Interpreter(unit)
    # The same bindings, in dicts of each run's own.
    assert second.function_bindings == first.function_bindings
    assert second.functions == first.functions
    assert second.function_bindings is not first.function_bindings
    assert second.function_bindings is not entry[3]
    assert first.function_bindings["abs"].is_builtin
    assert first.function_bindings["helper"].has_definition
    # A run that declares a function at run time changes only its own copy.
    second.register_function_declaration("late", first.function_bindings["helper"].type)
    assert "late" not in Interpreter(unit).function_bindings
    # An edited copy of the unit (the reducer's) gets its own bindings.
    clone = copy.deepcopy(unit)
    del clone.declarations[-1]
    assert "main" not in Interpreter(clone).functions
    assert Interpreter(unit).run().exit_code == 0
    # The entry goes with its unit.
    key = id(clone)
    del clone
    gc.collect()
    assert key not in interpreter_module._UNIT_BINDINGS
