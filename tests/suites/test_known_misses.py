"""kcc's known misses on its own suites, each pinned with its reason.

In default mode (one evaluation order, no search) kcc disagrees with the
hand-written label on exactly the programs below.  The names are listed
here, not imported, so a new miss fails this module and so does a silent
fix: a fix updates this list on purpose.
"""

import pytest

from repro.api import Checker
from repro.cfront.lexer import TokenKind, tokenize
from repro.errors import OutcomeKind, UBKind
from repro.suites import generate_juliet_suite, generate_undefinedness_suite

#: Undefined only under an evaluation order other than the default one.
ORDER_DEPENDENT = (
    "unsequenced-conflict-on-other-order_bad",
    "evaluation-order-dependent-division_bad",
)
#: Undefined behaviors kcc has no check for.
UNCHECKED = (
    "restrict-qualifier-violation_bad",
    "volatile-accessed-through-nonvolatile_bad",
    "internal-and-external-linkage_bad",
    "empty-character-constant-spelling_bad",
)


@pytest.fixture(scope="module")
def cases():
    suites = (generate_undefinedness_suite(), generate_juliet_suite())
    return {case.name: case for suite in suites for case in suite.cases}


@pytest.fixture(scope="module")
def reports(cases):
    return {name: Checker().check(case.source, filename=name)
            for name, case in cases.items()}


def test_default_mode_misses_exactly_the_known_programs(cases, reports):
    misses = {name for name, report in reports.items()
              if report.flagged != cases[name].is_bad}
    assert misses == set(ORDER_DEPENDENT + UNCHECKED)


@pytest.mark.parametrize("name", ORDER_DEPENDENT)
def test_order_dependent_misses_are_found_by_search(cases, reports, name):
    assert reports[name].outcome.kind is OutcomeKind.DEFINED
    searched = Checker(search_evaluation_order=True).check(cases[name].source)
    assert searched.outcome.kind is OutcomeKind.UNDEFINED


@pytest.mark.parametrize("behavior, exit_code", [
    ("restrict-qualifier-violation", 2),
    ("volatile-accessed-through-nonvolatile", 3),
])
def test_qualifier_misuse_is_not_checked_at_run_time(cases, reports, behavior, exit_code):
    # Neither restrict aliasing nor a volatile object read through a
    # non-volatile lvalue has a check: the bad program runs to the end, as
    # its correct counterpart does, and the catalog has no kind for either.
    for variant in ("bad", "good"):
        outcome = reports[f"{behavior}_{variant}"].outcome
        assert (outcome.kind, outcome.exit_code) == (OutcomeKind.DEFINED, exit_code)
    qualifier = behavior.split("-")[0].upper()
    assert not [kind for kind in UBKind if qualifier in kind.name]


def test_linkage_mismatch_is_in_the_catalog_but_never_emitted(reports):
    # UBKind.IDENTIFIER_LINKAGE_MISMATCH exists, but sema never reports it:
    # `extern int flag;` followed by `static int flag = 1;` checks clean.
    assert UBKind.IDENTIFIER_LINKAGE_MISMATCH.section == "6.2.2:7"
    outcome = reports["internal-and-external-linkage_bad"].outcome
    assert (outcome.kind, outcome.exit_code) == (OutcomeKind.DEFINED, 0)
    emitted = {violation.kind for report in reports.values()
               for violation in report.outcome.static_violations}
    assert UBKind.IDENTIFIER_LINKAGE_MISMATCH not in emitted


def test_spelling_miss_is_two_identifiers_past_the_significant_limit(cases, reports):
    # Despite its name, the program has no character constant: it declares
    # two identifiers that agree in their first 76 characters, more than
    # the 63 (internal) or 31 (external) significant initial characters an
    # implementation must honor (C11 5.2.4.1), which is undefined
    # (C11 6.4.2.1:6).  The lexer accepts both names, and kcc keeps them
    # apart and runs the program to exit code 1.
    name = "empty-character-constant-spelling_bad"
    tokens = tokenize(cases[name].source)
    assert not [token for token in tokens if token.kind is TokenKind.CHAR_CONST]
    long_names = sorted({token.text for token in tokens
                         if token.kind is TokenKind.IDENTIFIER and len(token.text) > 63})
    first, second = long_names
    common = len(first) - 1
    assert first[:common] == second[:common] and common > 63
    outcome = reports[name].outcome
    assert (outcome.kind, outcome.exit_code) == (OutcomeKind.DEFINED, 1)
