"""Unit tests for the translation-time (static) undefinedness checks."""

import pytest

from repro import CheckerOptions, UBKind
from repro.core.config import ENGINES
from repro.cfront.parser import parse
from repro.sema.static_checks import check_translation_unit
from tests.util import expect_static_error, run_ok


def violations_of(source):
    return check_translation_unit(parse(source))


def kinds_of(source):
    return [v.kind for v in violations_of(source)]


class TestArrayDeclarations:
    def test_zero_length_array(self):
        assert UBKind.ARRAY_SIZE_NOT_POSITIVE in kinds_of(
            "int main(void){ int a[0]; return 0; }")

    def test_negative_length_array(self):
        assert UBKind.ARRAY_SIZE_NOT_POSITIVE in kinds_of(
            "int main(void){ int a[-3]; return 0; }")

    def test_positive_length_array_is_fine(self):
        assert kinds_of("int main(void){ int a[3]; a[0] = 1; return a[0]; }") == []

    def test_global_zero_length_array(self):
        assert UBKind.ARRAY_SIZE_NOT_POSITIVE in kinds_of("int table[0]; int main(void){ return 0; }")


class TestFunctionsAndLabels:
    def test_qualified_function_type(self):
        source = "typedef int fn(void); const fn handler; int main(void){ return 0; }"
        assert UBKind.QUALIFIED_FUNCTION_TYPE in kinds_of(source)

    def test_duplicate_label(self):
        source = """
        int main(void){
            int x = 0;
        dup: x++;
            if (x < 2) goto dup;
        dup: return x;
        }
        """
        assert UBKind.DUPLICATE_LABEL in kinds_of(source)

    def test_goto_missing_label(self):
        source = "int main(void){ int x = 0; if (x) goto nowhere; return 0; }"
        assert UBKind.DUPLICATE_LABEL in kinds_of(source)

    def test_labels_in_different_functions_do_not_conflict(self):
        source = """
        int helper(void){ out: return 1; }
        int main(void){ out: return helper(); }
        """
        assert kinds_of(source) == []

    def test_return_with_value_in_void_function(self):
        source = """
        void report(int code) { return code; }
        int main(void){ report(1); return 0; }
        """
        assert UBKind.VOID_RETURN_WITH_VALUE in kinds_of(source)

    def test_bad_main_signature(self):
        assert UBKind.MAIN_BAD_SIGNATURE in kinds_of("float main(void){ return 0; }")
        assert UBKind.MAIN_BAD_SIGNATURE in kinds_of("int main(int only_one){ return only_one; }")

    def test_standard_main_signatures_are_fine(self):
        assert kinds_of("int main(void){ return 0; }") == []
        assert kinds_of("int main(int argc, char **argv){ return argc ? 0 : (argv != 0); }") == []


class TestDeclarations:
    def test_incompatible_redeclaration(self):
        source = "extern int shared; extern long shared; int main(void){ return 0; }"
        assert UBKind.INCOMPATIBLE_DECLARATIONS in kinds_of(source)

    def test_compatible_redeclaration_is_fine(self):
        source = "extern int shared; extern int shared; int main(void){ return 0; }"
        assert kinds_of(source) == []

    def test_incomplete_object_type(self):
        source = "struct unknown; struct unknown blob; int main(void){ return 0; }"
        assert UBKind.INCOMPLETE_TYPE_OBJECT in kinds_of(source)

    def test_reserved_identifier(self):
        assert UBKind.RESERVED_IDENTIFIER in kinds_of(
            "int __private_thing = 1; int main(void){ return 0; }")

    def test_library_headers_do_not_trigger_reserved_identifiers(self):
        assert kinds_of("#include <assert.h>\nint main(void){ assert(1); return 0; }") == []

    def test_failing_static_assert(self):
        source = '_Static_assert(1 == 2, "impossible"); int main(void){ return 0; }'
        assert len(violations_of(source)) == 1

    def test_passing_static_assert(self):
        source = '_Static_assert(sizeof(long) == 8, "lp64"); int main(void){ return 0; }'
        assert violations_of(source) == []


class TestExpressions:
    def test_constant_division_by_zero(self):
        assert UBKind.DIVISION_BY_ZERO in kinds_of("int main(void){ return 5 / 0; }")

    def test_constant_modulo_by_zero(self):
        assert UBKind.DIVISION_BY_ZERO in kinds_of("int main(void){ return 5 % 0; }")

    def test_constant_shift_too_far(self):
        assert UBKind.SHIFT_TOO_FAR in kinds_of("int main(void){ int x = 1; return x << 40; }")

    def test_reasonable_shift_is_fine(self):
        assert kinds_of("int main(void){ int x = 1; return x << 4; }") == []

    def test_assignment_to_const(self):
        assert UBKind.CONST_VIOLATION in kinds_of(
            "int main(void){ const int x = 1; x = 2; return x; }")

    def test_increment_of_const(self):
        assert UBKind.CONST_VIOLATION in kinds_of(
            "int main(void){ const int x = 1; x++; return x; }")

    def test_assignment_to_plain_variable_is_fine(self):
        assert kinds_of("int main(void){ int x = 1; x = 2; return x; }") == []

    def test_constant_index_out_of_bounds(self):
        assert UBKind.NEGATIVE_ARRAY_INDEX_CONSTANT in kinds_of(
            "int main(void){ int a[4]; a[0] = 1; return a[9]; }")

    def test_in_bounds_constant_index_is_fine(self):
        assert kinds_of("int main(void){ int a[4]; a[0] = 1; return a[3]; }") == []

    def test_void_value_conversion(self):
        assert UBKind.VOID_VALUE_USED in kinds_of(
            "int main(void){ if (0) { (int)(void)5; } return 0; }")

    def test_constant_overflow_in_expression(self):
        assert UBKind.SIGNED_OVERFLOW in kinds_of(
            "int main(void){ return (2147483647 + 1) > 0; }")


class TestUnevaluatedSizeofOperands:
    """The operand of ``sizeof`` is not evaluated (C11 6.5.3.4:2), so the
    checks of what evaluating it would do stay silent there."""

    UNEVALUATED = {
        "division": "int main(void){ return (int)sizeof(1/0) - 4; }",
        "shift": "int main(void){ return (int)sizeof(1 << 40) - 4; }",
        "overflow": "int main(void){ return (int)sizeof(2147483647 + 1) - 4; }",
        "index": "int main(void){ int a[4] = {0}; return (int)sizeof(a[10]) - 4 + a[0]; }",
    }

    @pytest.mark.parametrize("name", sorted(UNEVALUATED))
    def test_no_static_violation(self, name):
        assert kinds_of(self.UNEVALUATED[name]) == []

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(UNEVALUATED))
    def test_defined_on_every_engine(self, name, engine):
        assert run_ok(self.UNEVALUATED[name], CheckerOptions(engine=engine)).exit_code == 0

    def test_evaluated_operands_still_flagged(self):
        assert UBKind.DIVISION_BY_ZERO in kinds_of(
            "int main(void){ return (int)sizeof(int) + 1/0; }")
        assert UBKind.NEGATIVE_ARRAY_INDEX_CONSTANT in kinds_of(
            "int main(void){ int a[4] = {0}; return (int)sizeof(a) + a[10]; }")

    def test_constraint_checks_still_fire(self):
        assert UBKind.CONST_VIOLATION in kinds_of(
            "int main(void){ const int c = 1; return (int)sizeof(c = 2) - 4; }")
        assert UBKind.VOID_VALUE_USED in kinds_of(
            "int main(void){ return (int)sizeof((int)(void)0) - 4; }")
        expect_static_error("int main(void){ const int c = 1; return (int)sizeof(c = 2) - 4; }",
                            UBKind.CONST_VIOLATION)


class TestIntegrationWithTheTool:
    def test_static_errors_reported_through_check_program(self):
        expect_static_error("int main(void){ int a[0]; return 0; }",
                            UBKind.ARRAY_SIZE_NOT_POSITIVE)

    def test_clean_program_has_no_violations(self):
        run_ok("""
        #include <stdio.h>
        #include <stdlib.h>
        #include <string.h>
        static int helper(int x) { return x * 2; }
        int main(void) {
            char buffer[16];
            strcpy(buffer, "ok");
            printf("%s %d\\n", buffer, helper(21));
            return 0;
        }
        """)
