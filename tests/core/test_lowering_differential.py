"""Differential tests: the lowered fast path must equal the legacy walker.

The lowering pass (:mod:`repro.core.lowering`) replaces the interpreter's
dispatch and pre-derives type facts, but it must never change a verdict: for
every program, the outcome kind *and* the full structured diagnostics must be
identical with lowering on and off.  These tests run the entire ubsuite and
the Juliet-style suite through both engines — this is the contract that lets
``--no-lowering`` be an escape hatch rather than a different tool.
"""

import pytest

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite

FAST = KccTool(CheckerOptions(engine="lowered"))
LEGACY = KccTool(CheckerOptions(enable_lowering=False))


def verdict(report):
    """Outcome kind + structured diagnostics, the equality the tests demand."""
    return (report.outcome.kind.name,
            [diagnostic.to_dict() for diagnostic in report.diagnostics()])


def assert_equivalent(source: str, name: str) -> None:
    fast = FAST.check(source, filename=name)
    legacy = LEGACY.check(source, filename=name)
    assert verdict(fast) == verdict(legacy), (
        f"lowered fast path and legacy walker disagree on {name}:\n"
        f"  fast:   {verdict(fast)}\n"
        f"  legacy: {verdict(legacy)}")


@pytest.fixture(scope="module")
def ubsuite():
    return generate_undefinedness_suite()


@pytest.fixture(scope="module")
def juliet():
    return generate_juliet_suite()


def test_lowering_is_actually_used(ubsuite):
    """Guard against a silent fallback: units must carry a lowered IR."""
    compiled = FAST.compile_unit("int main(void){ return 0; }")
    lowered = compiled.lowered_for(FAST.options)
    assert lowered is not None
    assert "main" in lowered.functions
    # And the ablation really disables it.
    assert LEGACY.options.enable_lowering is False


def test_every_ubsuite_case_is_verdict_equivalent(ubsuite):
    for case in ubsuite.cases:
        assert_equivalent(case.source, case.name)


def test_every_juliet_case_is_verdict_equivalent(juliet):
    for case in juliet.cases:
        assert_equivalent(case.source, case.name)


def test_search_mode_explores_identical_schedules(ubsuite):
    """Evaluation-order search over the lowered form must see the same
    decision points: identical verdicts AND identical explored path counts."""
    fast = KccTool(CheckerOptions(), search_evaluation_order=True)
    legacy = KccTool(CheckerOptions(enable_lowering=False),
                     search_evaluation_order=True)
    cases = [case for case in ubsuite.cases
             if "unsequenced" in case.name or "order" in case.name]
    assert cases, "expected sequencing-sensitive cases in the ubsuite"
    for case in cases:
        rf = fast.check(case.source, filename=case.name)
        rl = legacy.check(case.source, filename=case.name)
        assert verdict(rf) == verdict(rl), case.name
        assert rf.search is not None and rl.search is not None
        assert rf.search.explored == rl.search.explored, case.name
        assert rf.search.exhausted == rl.search.exhausted, case.name


def test_ablation_configurations_are_verdict_equivalent(ubsuite):
    """Lowering honors the check flags: with a family of checks disabled the
    two engines must *still* agree (including on the silently-defined cases)."""
    sample = ubsuite.cases[::7]
    for overrides in ({"check_arithmetic": False}, {"check_memory": False},
                      {"check_sequencing": False}, {"check_uninitialized": False}):
        fast = KccTool(CheckerOptions(engine="lowered").without(**overrides))
        legacy = KccTool(CheckerOptions(enable_lowering=False).without(**overrides))
        for case in sample:
            rf = fast.check(case.source, filename=case.name)
            rl = legacy.check(case.source, filename=case.name)
            assert verdict(rf) == verdict(rl), (case.name, overrides)


def test_stdout_and_exit_codes_match(ubsuite):
    for case in ubsuite.good_cases()[:30]:
        rf = FAST.check(case.source, filename=case.name)
        rl = LEGACY.check(case.source, filename=case.name)
        assert rf.outcome.stdout == rl.outcome.stdout, case.name
        assert rf.outcome.exit_code == rl.outcome.exit_code, case.name


def test_step_accounting_matches_legacy_even_with_folding():
    """Folded constants charge their subtree's node count, so the two
    engines agree on step totals — and hence on max_steps verdicts."""
    source = ("int main(void){ int i, s = 0;"
              " for (i = 0; i < 40; i++) s += 2 + 3 * 4;"
              " return s > 0; }")
    fast = FAST.check(source)
    legacy = LEGACY.check(source)
    assert fast.result is not None and legacy.result is not None
    assert fast.result.steps == legacy.result.steps

    # A step budget the program exceeds must be inconclusive on both engines.
    tight = CheckerOptions(max_steps=100)
    rf = KccTool(tight).check(source)
    rl = KccTool(tight.without(enable_lowering=False)).check(source)
    assert verdict(rf) == verdict(rl)
    assert rf.outcome.kind.name == "INCONCLUSIVE"


def test_compiled_unit_caches_lowered_ir_per_options():
    tool = KccTool(CheckerOptions())
    compiled = tool.compile_unit("int main(void){ return 1 + 2; }")
    first = compiled.lowered_for(tool.options)
    assert compiled.lowered_for(tool.options) is first
    relaxed = CheckerOptions().without(check_arithmetic=False)
    other = compiled.lowered_for(relaxed)
    assert other is not first  # folding honors the flags, so the IR differs
    reversed_order = CheckerOptions(evaluation_order="right-to-left")
    assert compiled.lowered_for(reversed_order) is not first  # operand order
    # One IR per options, and nothing else.
    assert set(compiled._lowered) == {tool.options, relaxed, reversed_order}
