"""Typed integer arithmetic: the compiled engine against the walker.

Each generated ``main`` applies one operator to two variables of flat
integer types initialized from boundary literals and prints the result, so
every conversion, overflow, division and shift rule of the raw plans meets
the walker's generic rules on the values where they differ.  The draw pairs
every binary operator, compound assignment and ``++``/``--`` with every
ordered pair of the twelve flat integer types; a compound assignment or an
increment writes a register or, through a pointer, memory.
"""

from __future__ import annotations

import itertools
import random

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool

TYPES = (
    "_Bool",
    "char",
    "signed char",
    "unsigned char",
    "short",
    "unsigned short",
    "int",
    "unsigned int",
    "long",
    "unsigned long",
    "long long",
    "unsigned long long",
)

BINARY = "+ - * / % << >> & | ^ < > <= >= == !=".split()
COMPOUND = "+= -= *= /= %= <<= >>= &= |= ^=".split()
INCDEC = ("++x", "--x", "x++", "x--")
OPERATORS = BINARY + COMPOUND + list(INCDEC)

LITERALS = (
    "0",
    "1",
    "-1",
    "127",
    "128",
    "255",
    "(-2147483647 - 1)",
    "4294967295u",
    "(-9223372036854775807LL - 1)",
    "9223372036854775807LL",
    "31",
    "32",
    "63",
    "64",
)

SEED = 7
COUNT = 1500


def program(operator: str, left: str, right: str, x: str, y: str, memory: bool) -> str:
    """One ``main``: ``a`` of type ``left``, ``b`` of type ``right``."""
    target = "*p" if memory else "a"
    if operator in BINARY:
        body = f"printf(\"%llu\\n\", (unsigned long long)(a {operator} b));"
    elif operator in COMPOUND:
        body = f"{target} {operator} b;"
    else:
        body = f"b = {operator.replace('x', target)};"
    pointer = f"{left} *p = &a;" if memory else ""
    return f"""#include <stdio.h>
int main(void) {{
    {left} a = {x};
    {right} b = {y};
    {pointer}
    {body}
    printf("%llu %llu\\n", (unsigned long long)a, (unsigned long long)b);
    return 0;
}}
"""


def draw() -> list[tuple]:
    """``COUNT`` programs: operators and type pairs in turn, so each
    operator meets many pairs and each pair many operators; literals and
    the register-or-memory choice at random."""
    rng = random.Random(SEED)
    pairs = list(itertools.product(TYPES, TYPES))
    cases = []
    for index in range(COUNT):
        operator = OPERATORS[index % len(OPERATORS)]
        left, right = pairs[index % len(pairs)]
        x, y = rng.choice(LITERALS), rng.choice(LITERALS)
        memory = operator not in BINARY and rng.random() < 0.5
        cases.append((operator, left, right, x, y, memory))
    return cases


def facts(report):
    outcome = report.outcome
    return (
        outcome.kind.name,
        [diagnostic.to_dict() for diagnostic in outcome.diagnostics()],
        outcome.stdout,
        outcome.exit_code,
    )


def test_the_draw_covers_every_operator_and_type_pair():
    cases = draw()
    assert {case[0] for case in cases} == set(OPERATORS)
    assert {(case[1], case[2]) for case in cases} == set(
        itertools.product(TYPES, TYPES)
    )
    for operator in COMPOUND + list(INCDEC):
        assert {case[5] for case in cases if case[0] == operator} == {False, True}


def test_compiled_arithmetic_matches_the_walker():
    walker = KccTool(CheckerOptions(engine="walker"))
    compiled = KccTool(CheckerOptions(engine="compiled"))
    kinds = set()
    for case in draw():
        source = program(*case)
        unit = compiled.compile_unit(source)
        assert unit.compiled_for(compiled.options).fallbacks == {}, case
        expected = facts(walker.run_unit(unit))
        assert facts(compiled.run_unit(unit)) == expected, (case, expected)
        kinds.add(expected[0])
    assert kinds == {"DEFINED", "UNDEFINED"}
