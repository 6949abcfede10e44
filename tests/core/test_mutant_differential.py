"""A fixed-seed differential of the walker and the bytecode VM over mutants.

Each mutant is a program of the suites, one of the benchmark loop programs
or a generated fuzz case, with one or two token edits: an operator swapped
for another of its group, or an integer literal replaced from a small set.
A mutant is kept when it parses, passes the static checks and has at least
one function that compiles natively.  On each kept mutant the walker and
``engine="compiled"`` must agree on the outcome kind, the diagnostics,
stdout, the exit code and the step count.  ``max_steps`` is small, so a
mutant that loops forever ends as a resource-limit verdict on both.

The corpus is fixed by ``SEED`` and ``MUTANTS``; changing either is a
deliberate corpus change, not noise.
"""

import random
import re

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.fuzz.generator import generate_cases
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite
from tests.core.test_engine_matrix import LOOP_PROGRAMS

SEED = 20261018
MUTANTS = 1500
MAX_STEPS = 20_000

#: Operators that may replace each other.
OPERATOR_GROUPS = (
    ("+", "-", "*", "/", "%"),
    ("<", ">", "<=", ">=", "==", "!="),
    ("&", "|", "^", "<<", ">>"),
    ("&&", "||"),
    ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="),
    ("++", "--"),
)
REPLACEMENTS = {op: group for group in OPERATOR_GROUPS for op in group}

#: Integer literals that land on the edges the checks care about.
LITERALS = ("0", "1", "2", "-1", "3", "7", "8", "31", "32", "255")

#: Skipped text (string and character literals, comments, directives) and
#: the tokens an edit may replace: decimal integer literals and operators,
#: longest first.  ``->`` and ``...`` are matched so that no edit splits them.
TOKENS = re.compile(
    r"""("(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'|//[^\n]*|/\*.*?\*/"""
    r"""|^[ \t]*\#[^\n]*|->|\.\.\.)"""
    r"""|(\b[1-9][0-9]*\b|\b0\b)"""
    r"""|(<<=|>>=|<=|>=|==|!=|&&|\|\||<<|>>|\+\+|--|[-+*/%&|^]=|[-+*/%<>&|^])""",
    re.S | re.M,
)


def _sites(source: str) -> list:
    """``(start, end, replacements)`` of every token an edit may replace."""
    sites = []
    for match in TOKENS.finditer(source):
        if match.group(2) is not None:
            sites.append((match.start(), match.end(), LITERALS))
        elif match.group(3) is not None:
            sites.append((match.start(), match.end(), REPLACEMENTS[match.group(3)]))
    return sites


def _sources() -> list:
    cases = list(generate_undefinedness_suite().cases)
    cases += list(generate_juliet_suite().cases)
    sources = [case.source for case in cases]
    sources += list(LOOP_PROGRAMS.values())
    sources += [case.source for case in generate_cases(SEED, 60, inject="mixed")]
    return sources


def mutants(seed: int, count: int) -> list:
    """``count`` mutants, each with one or two edits, fixed by ``seed``."""
    rng = random.Random(seed)
    sources = [(source, _sites(source)) for source in _sources()]
    result = []
    while len(result) < count:
        source, sites = rng.choice(sources)
        if not sites:
            continue
        edits = rng.sample(sites, min(len(sites), rng.choice((1, 2))))
        mutant = source
        for start, end, choices in sorted(edits, reverse=True):
            old = source[start:end]
            new = rng.choice([choice for choice in choices if choice != old])
            mutant = mutant[:start] + new + mutant[end:]
        result.append(mutant)
    return result


def _facts(report):
    outcome = report.outcome
    return (
        outcome.kind.name,
        [diagnostic.to_dict() for diagnostic in outcome.diagnostics()],
        outcome.stdout,
        outcome.exit_code,
        report.result.steps if report.result is not None else None,
    )


def test_walker_and_vm_agree_on_mutants():
    walker = KccTool(CheckerOptions(engine="walker", max_steps=MAX_STEPS))
    compiled = KccTool(CheckerOptions(engine="compiled", max_steps=MAX_STEPS))
    native = 0
    for index, source in enumerate(mutants(SEED, MUTANTS)):
        unit = walker.compile_unit(source, filename=f"mutant-{index}")
        if unit.parse_error is not None or unit.static_violations:
            continue
        if not unit.compiled_for(compiled.options).functions:
            continue
        native += 1
        expected = _facts(walker.run_unit(unit))
        assert _facts(compiled.run_unit(unit)) == expected, (index, source)
    # Most mutants of these programs compile natively; a collapse would
    # mean the differential compares almost nothing.
    assert native >= MUTANTS // 2, native
