"""Constant folding (:mod:`repro.core.plans`) — including UB-on-fold.

Folding evaluates constant subexpressions once at compile time, but it uses
the *same* arithmetic rules as the runtime, so a constant expression that is
undefined (``INT_MAX + 1``, ``1/0``, an out-of-range shift) must still be
reported — via the same catalogued error, at the same line — if and only if
execution actually reaches it.
"""

import pytest

from repro.cfront.parser import parse
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.core.plans import _fold_error_steps, _FoldContext, _FoldUB, _try_fold
from repro.core.values import IntValue
from repro.errors import OutcomeKind, UBKind

INT_MAX = 2147483647  # LP64 profile: 4-byte int

FAST = KccTool(CheckerOptions())
LEGACY = KccTool(CheckerOptions(enable_lowering=False))


def first_expression(source: str):
    """The expression of the first ``return`` in ``main``."""
    unit = parse(source)
    main = unit.functions()["main"]
    for item in main.body.items:
        if hasattr(item, "value") and item.value is not None:
            return item.value
    raise AssertionError("no return expression found")


class TestFoldValues:
    def setup_method(self):
        self.folder = _FoldContext(CheckerOptions())

    def fold(self, c_expr: str):
        return _try_fold(first_expression(
            f"int main(void){{ return {c_expr}; }}"), self.folder)

    def test_folds_arithmetic(self):
        value = self.fold("2 + 3 * 4")
        assert isinstance(value, IntValue) and value.value == 14

    def test_folds_bitwise_and_shifts(self):
        assert self.fold("(1 << 3) | 5").value == 13
        assert self.fold("0xFF & 0x0F").value == 15
        assert self.fold("256 >> 4").value == 16

    def test_folds_comparisons_and_negation(self):
        assert self.fold("3 < 4").value == 1
        assert self.fold("-(10)").value == -10
        assert self.fold("!7").value == 0

    def test_folds_sizeof_type(self):
        assert self.fold("(int)sizeof(long)").value == 8  # LP64

    def test_does_not_fold_identifiers(self):
        expr = first_expression("int main(void){ int x = 1; return x + 1; }")
        assert _try_fold(expr, self.folder) is None

    def test_constant_overflow_raises_fold_ub(self):
        with pytest.raises(_FoldUB) as excinfo:
            self.fold(f"{INT_MAX} + 1")
        assert excinfo.value.kind is UBKind.SIGNED_OVERFLOW

    def test_constant_division_by_zero_raises_fold_ub(self):
        with pytest.raises(_FoldUB) as excinfo:
            self.fold("1 / 0")
        assert excinfo.value.kind is UBKind.DIVISION_BY_ZERO

    def test_undefined_operand_beside_one_that_does_not_fold_gives_none(self):
        # Neither side stands for the whole expression: each operand
        # compiles on its own and raises at its own place in the order.
        for order in ("left-to-right", "right-to-left"):
            folder = _FoldContext(CheckerOptions(evaluation_order=order))
            for c_expr in (f"({INT_MAX} << 7) + x", f"x + ({INT_MAX} << 7)",
                           f"-(x * ({INT_MAX} + 1))"):
                expr = first_expression(
                    f"int main(void){{ int x = 1; return {c_expr}; }}")
                assert _try_fold(expr, folder) is None, (order, c_expr)

    @pytest.mark.parametrize("order,count", [("left-to-right", 7),
                                             ("right-to-left", 8)])
    def test_undefined_folds_on_both_sides_follow_the_order(self, order, count):
        folder = _FoldContext(CheckerOptions(evaluation_order=order))
        expr = first_expression(
            f"int main(void){{ return ({INT_MAX} << 7) - ({INT_MAX} << 8); }}")
        with pytest.raises(_FoldUB) as excinfo:
            _try_fold(expr, folder)
        assert excinfo.value.message == f"Left shift of {INT_MAX} by {count} overflows int."
        # The walker stops at the undefined shift: '-', then that shift and
        # its two literals; the other operand is never visited.
        assert _fold_error_steps(expr, excinfo.value, folder) == 4

    def test_fold_error_steps_count_the_operands_evaluated_first(self):
        expr = first_expression(
            f"int main(void){{ return (1 + 2) * ({INT_MAX} + 1); }}")
        for order, steps in (("left-to-right", 7), ("right-to-left", 4)):
            folder = _FoldContext(CheckerOptions(evaluation_order=order))
            with pytest.raises(_FoldUB) as excinfo:
                _try_fold(expr, folder)
            assert _fold_error_steps(expr, excinfo.value, folder) == steps, order

    def test_fold_respects_disabled_arithmetic_checks(self):
        relaxed = _FoldContext(CheckerOptions().without(check_arithmetic=False))
        expr = first_expression(f"int main(void){{ return {INT_MAX} + 1; }}")
        value = _try_fold(expr, relaxed)
        assert isinstance(value, IntValue)
        assert value.value == -(INT_MAX + 1)  # wraps instead of raising


class TestFoldedPrograms:
    """End-to-end: folded UB fires identically on both engines.

    The static checker flags most constant-expression UB at translation time
    already; these tests turn it off (``run_static_checks=False``) so that
    the *dynamic* stage — where the fold closures live — must do the
    reporting on its own.
    """

    @pytest.mark.parametrize("expression,kind", [
        (f"{INT_MAX} + 1", UBKind.SIGNED_OVERFLOW),
        ("1 / 0", UBKind.DIVISION_BY_ZERO),
        ("5 % 0", UBKind.DIVISION_BY_ZERO),
        ("1 << 40", UBKind.SHIFT_TOO_FAR),
        (f"(-{INT_MAX} - 1) / (-1)", UBKind.SIGNED_OVERFLOW),
    ])
    def test_reached_constant_ub_is_reported(self, expression, kind):
        source = f"int main(void){{ return {expression}; }}"
        for lowering in (True, False):
            tool = KccTool(CheckerOptions(enable_lowering=lowering),
                           run_static_checks=False)
            report = tool.check(source)
            assert report.outcome.kind is OutcomeKind.UNDEFINED, tool.options
            assert report.outcome.error.kind is kind

    def test_unreached_constant_ub_is_not_reported(self):
        # A constant-expression UB in dead code must stay silent: folding may
        # detect it at compile time but may only report it when reached.
        source = "int main(void){ if (0) { return 1 / 0; } return 7; }"
        for lowering in (True, False):
            tool = KccTool(CheckerOptions(enable_lowering=lowering),
                           run_static_checks=False)
            report = tool.check(source)
            assert report.outcome.kind is OutcomeKind.DEFINED
            assert report.outcome.exit_code == 7

    def test_folded_result_matches_legacy(self):
        source = "int main(void){ return (2 + 3 * 4) - (1 << 2); }"
        fast = FAST.check(source)
        legacy = LEGACY.check(source)
        assert fast.outcome.exit_code == legacy.outcome.exit_code == 10

    def test_folded_ub_line_and_function_match_legacy(self):
        source = (
            "int f(void){ return 1 / 0; }\n"
            "int main(void){ return f(); }\n")
        fast = KccTool(CheckerOptions(), run_static_checks=False).check(source)
        legacy = KccTool(CheckerOptions(enable_lowering=False),
                         run_static_checks=False).check(source)
        assert fast.outcome.error.line == legacy.outcome.error.line
        assert fast.outcome.error.function == legacy.outcome.error.function == "f"
        assert fast.outcome.error.message == legacy.outcome.error.message

    def test_overflow_wraps_when_arithmetic_checks_disabled(self):
        source = f"int main(void){{ return ({INT_MAX} + 1) == (-{INT_MAX} - 1); }}"
        relaxed = CheckerOptions().without(check_arithmetic=False)
        for options in (relaxed, relaxed.without(enable_lowering=False)):
            report = KccTool(options, run_static_checks=False).check(source)
            assert report.outcome.kind is OutcomeKind.DEFINED
            assert report.outcome.exit_code == 1

    def test_search_mode_builds_no_closure_ir(self):
        tool = KccTool(CheckerOptions(), search_evaluation_order=True)
        compiled = tool.compile_unit(
            "int main(void){ int x = 0; return (x = 1) + (x = 2); }")
        report = tool.run_unit(compiled)
        assert report.outcome.kind is OutcomeKind.UNDEFINED
        # The search runs every order on the walker, which consults the
        # scripted strategy at each unsequenced group and emits the
        # footprint events: no folded (or any) closure IR is built.
        assert compiled._lowered == {}
        assert compiled._bytecode == {}
