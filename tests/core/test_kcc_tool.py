"""Tests for the kcc-style front end: reports, search mode, options, profiles."""

import pytest

from repro import (
    CheckerOptions,
    KccTool,
    OutcomeKind,
    UBKind,
    WIDE_INT,
    check_program,
    run_program,
)
from repro.errors import UndefinedBehaviorError
from tests.util import expect_undefined


UNSEQUENCED_EXAMPLE = """
int main(void){
    int x = 0;
    return (x = 1) + (x = 2);
}
"""

SET_DENOM_EXAMPLE = """
static int d = 5;
static int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
"""


class TestReports:
    def test_error_report_shape(self):
        report = check_program(UNSEQUENCED_EXAMPLE)
        text = report.render()
        assert "ERROR! KCC encountered an error." in text
        assert "Error: 00016" in text            # same number as the paper's sample
        assert "Unsequenced side effect" in text
        assert "Function: main" in text
        assert "Line:" in text

    def test_defined_report_contains_exit_code(self):
        report = check_program("int main(void){ return 4; }")
        assert report.outcome.kind is OutcomeKind.DEFINED
        assert "exit code 4" in report.render()

    def test_static_error_report(self):
        report = check_program("int main(void){ int a[0]; return 0; }")
        assert report.outcome.kind is OutcomeKind.STATIC_ERROR
        assert "translation" in report.render()

    def test_parse_error_is_inconclusive(self):
        report = check_program("int main(void) { return ; ")
        assert report.outcome.kind is OutcomeKind.INCONCLUSIVE
        assert not report.flagged

    def test_error_location_matches_source_line(self):
        source = "int main(void) {\n    int d = 0;\n    return 1 / d;\n}\n"
        report = check_program(source)
        assert report.outcome.error is not None
        assert report.outcome.error.line == 3

    def test_run_program_raises_on_undefined(self):
        with pytest.raises(UndefinedBehaviorError):
            run_program(UNSEQUENCED_EXAMPLE)

    def test_run_program_returns_result(self):
        result = run_program('#include <stdio.h>\nint main(void){ puts("hi"); return 0; }')
        assert result.exit_code == 0
        assert result.stdout == "hi\n"


class TestEvaluationOrderSearch:
    def test_default_order_misses_order_dependent_ub(self):
        report = check_program(SET_DENOM_EXAMPLE)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_search_finds_order_dependent_ub(self):
        report = check_program(SET_DENOM_EXAMPLE, search_evaluation_order=True)
        assert report.outcome.flagged
        assert UBKind.DIVISION_BY_ZERO in report.outcome.ub_kinds
        assert report.search is not None
        assert report.search.explored >= 2

    def test_search_on_defined_program_stays_defined(self):
        report = check_program("int main(void){ int x = 1; return x + 2; }",
                               search_evaluation_order=True)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_search_finds_write_read_conflict_on_other_order(self):
        source = "int main(void){ int i = 1; return i + (i = 2); }"
        assert check_program(source).outcome.kind is OutcomeKind.DEFINED
        expect_undefined(source, UBKind.UNSEQUENCED_SIDE_EFFECT, search=True)

    def test_right_to_left_option(self):
        options = CheckerOptions(evaluation_order="right-to-left")
        report = check_program(SET_DENOM_EXAMPLE, options)
        assert report.outcome.flagged
        assert UBKind.DIVISION_BY_ZERO in report.outcome.ub_kinds


class TestCheckerOptionAblation:
    """Disabling a technique (§4.1–4.3) silently defines the corresponding programs."""

    def test_without_arithmetic_checks_division_by_zero_is_missed(self):
        options = CheckerOptions(check_arithmetic=False)
        report = check_program("int main(void){ int d = 0; return (5 / d) == 0; }", options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_without_sequencing_tracking_unsequenced_writes_are_missed(self):
        options = CheckerOptions(check_sequencing=False)
        report = check_program(UNSEQUENCED_EXAMPLE, options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_without_const_tracking_const_writes_are_missed(self):
        options = CheckerOptions(check_const=False)
        source = "int main(void){ const int x = 1; *(int*)&x = 2; return x; }"
        report = check_program(source, options)
        assert report.outcome.kind is OutcomeKind.DEFINED
        assert report.outcome.exit_code == 2

    def test_without_provenance_pointer_comparisons_are_missed(self):
        options = CheckerOptions(check_pointer_provenance=False)
        source = "int main(void){ int a; int b; a = b = 0; return (&a < &b) < 2; }"
        report = check_program(source, options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_without_uninit_tracking_uninitialized_reads_are_missed(self):
        options = CheckerOptions(check_uninitialized=False)
        report = check_program("int main(void){ int x; return (x + 1) == (x + 1); }", options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_without_effective_types_aliasing_is_missed(self):
        options = CheckerOptions(check_effective_types=False)
        source = "int main(void){ int v = 1; short *p = (short*)&v; return p[0]; }"
        report = check_program(source, options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_without_function_checks_bad_calls_are_missed(self):
        options = CheckerOptions(check_functions=False)
        source = """
        int add(int a, int b) { return a + b; }
        int main(void){ return add(1, 2, 3); }
        """
        report = check_program(source, options)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_all_disabled_still_runs_defined_programs(self):
        options = CheckerOptions.all_disabled()
        report = check_program("int main(void){ return 5; }", options)
        assert report.outcome.exit_code == 5

    def test_default_options_catch_everything_above(self):
        for source in (
            "int main(void){ int d = 0; return (5 / d) == 0; }",
            UNSEQUENCED_EXAMPLE,
            "int main(void){ const int x = 1; *(int*)&x = 2; return x; }",
            "int main(void){ int a; int b; a = b = 0; return (&a < &b) < 2; }",
            "int main(void){ int x; return (x + 1) == (x + 1); }",
        ):
            assert check_program(source).outcome.flagged, source


class TestImplementationProfiles:
    MALLOC_FOUR = """
    #include <stdlib.h>
    int main(void){
        int *p = malloc(4);
        if (p) { *p = 1000; }
        free(p);
        return 0;
    }
    """

    def test_defined_under_lp64(self):
        report = check_program(self.MALLOC_FOUR)
        assert report.outcome.kind is OutcomeKind.DEFINED

    def test_undefined_with_eight_byte_int(self):
        # The paper's §2.5.1 example: whether this is undefined depends on
        # the implementation-defined size of int.
        report = check_program(self.MALLOC_FOUR, CheckerOptions(profile=WIDE_INT))
        assert report.outcome.flagged
        assert UBKind.BUFFER_OVERFLOW in report.outcome.ub_kinds

    def test_sizeof_long_differs_between_profiles(self):
        from repro import ILP32
        source = "int main(void){ return (int)sizeof(long); }"
        assert check_program(source).outcome.exit_code == 8
        assert check_program(source, CheckerOptions(profile=ILP32)).outcome.exit_code == 4

    def test_char_signedness_profile(self):
        from repro.cfront.ctypes import ImplementationProfile
        unsigned_char = CheckerOptions(profile=ImplementationProfile(name="uc", char_signed=False))
        source = "int main(void){ char c = (char)200; return c > 0; }"
        assert check_program(source).outcome.exit_code == 0
        assert check_program(source, unsigned_char).outcome.exit_code == 1


class TestConfigurationView:
    def test_configuration_has_figure1_cells(self):
        from tests.util import make_interpreter
        interp = make_interpreter("int global_x = 1; int main(void){ return global_x; }")
        interp.run()
        config = interp.configuration()
        for label in ("k", "genv", "mem", "locsWrittenTo", "notWritable", "callStack"):
            assert config.cell(label) is not None, label
        rendered = config.render()
        assert "genv" in rendered and "mem" in rendered

    def test_configuration_tracks_globals(self):
        from tests.util import make_interpreter
        interp = make_interpreter("int counter = 3; int main(void){ return counter; }")
        interp.run()
        genv = interp.configuration().cell("genv")
        assert "counter" in genv.content

    def test_compile_reports_static_violations(self):
        tool = KccTool(CheckerOptions())
        compiled = tool.compile_unit("int main(void){ int bad[0]; return 0; }")
        assert compiled.parse_error is None
        assert compiled.static_violations
        assert compiled.static_violations[0].kind is UBKind.ARRAY_SIZE_NOT_POSITIVE
