"""Golden digests of what the front end makes of a fixed corpus.

For each program, preprocessing, tokenizing and parsing it yields two
digests:

* ``free`` (position-free): the token kinds and texts, and the AST printed
  back to C by ``to_c_source``;
* ``positioned``: the full token stream (lines, columns, decoded values)
  and the AST ``repr``.

A stage that fails contributes its error instead: the exception type and
message to ``free``, plus the line and column to ``positioned``.

The corpus is the undefinedness suite (``ub/``), the Juliet suite
(``juliet/``), the first 500 programs of the fixed-seed acceptance campaign
(``fuzz/``), the reducer's regression artifact, and a fixed-seed corpus of
single-edit mutants of the suite programs (``mutant/``).  The digests are
kept in ``data/frontend_golden.json``; after an intended change to the front
end, re-record them with::

    PYTHONPATH=src python -m tests.cfront.frontend_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "frontend_golden.json"
REDUCED_REGRESSION = (
    Path(__file__).resolve().parents[1] / "fuzz" / "data" / "reduced_regression.c"
)

ACCEPTANCE_SEED = 20260729
ACCEPTANCE_SLICE = 500
#: The mutants of this seed include one with the escape ``\9`` (mutant/2831),
#: which octal escapes must reject with a ``CParseError``.
MUTATION_SEED = 5
MUTANT_COUNT = 3000
#: Characters a mutation inserts or substitutes: the C punctuation, the
#: starts of every literal form and escape, and a few letters and digits.
MUTATION_ALPHABET = "\"'\\/*#(){}[];,.+-<>=!&|^%~?:0189xXeEuUlLfF_az \n"


def suite_sources() -> list[str]:
    from repro.suites import generate_juliet_suite, generate_undefinedness_suite

    suites = (generate_undefinedness_suite(), generate_juliet_suite())
    return [case.source for suite in suites for case in suite.cases]


def corpus() -> list[tuple[str, str]]:
    """``(key, source)`` for every program except the mutants."""
    from repro.fuzz.generator import generate_case
    from repro.suites import generate_juliet_suite, generate_undefinedness_suite

    programs = [
        (f"ub/{index}", case.source)
        for index, case in enumerate(generate_undefinedness_suite().cases)
    ]
    programs += [
        (f"juliet/{index}", case.source)
        for index, case in enumerate(generate_juliet_suite().cases)
    ]
    programs += [
        (f"fuzz/{index}", generate_case(ACCEPTANCE_SEED, index, inject="mixed").source)
        for index in range(ACCEPTANCE_SLICE)
    ]
    programs.append(("reduced_regression", REDUCED_REGRESSION.read_text()))
    return programs


def mutants(sources: list[str]) -> list[tuple[str, str]]:
    """Single-character deletions, insertions and substitutions."""
    rng = random.Random(MUTATION_SEED)
    result = []
    for index in range(MUTANT_COUNT):
        source = rng.choice(sources)
        pos = rng.randrange(len(source))
        edit = rng.choice(("delete", "insert", "replace"))
        char = rng.choice(MUTATION_ALPHABET)
        if edit == "delete":
            mutant = source[:pos] + source[pos + 1 :]
        elif edit == "insert":
            mutant = source[:pos] + char + source[pos:]
        else:
            mutant = source[:pos] + char + source[pos + 1 :]
        result.append((f"mutant/{index}", mutant))
    return result


def digests(source: str) -> str:
    """``"<free> <positioned>"`` for one program."""
    from repro.cfront.parser import Parser, preprocess, tokenize
    from repro.cfront.printer import PrinterError, to_c_source

    free = hashlib.sha256()
    positioned = hashlib.sha256()

    def add(free_text: str, positioned_text: str) -> None:
        free.update(free_text.encode("utf-8", "surrogatepass"))
        positioned.update(positioned_text.encode("utf-8", "surrogatepass"))

    def add_error(error: Exception) -> None:
        message = str(error)
        line = getattr(error, "line", None)
        where = f" at line {line}"
        if line is not None and message.endswith(where):
            message = message[: -len(where)]
        column = getattr(error, "column", None)
        kind = type(error).__name__
        add(f"!{kind}: {message}\n", f"!{kind}: {message} @{line}:{column}\n")

    try:
        tokens = tokenize(preprocess(source))
        for token in tokens:
            add(
                f"{token.kind.value} {token.text!r}\n",
                f"{token.kind.value} {token.text!r} {token.line}:{token.column}"
                f" {token.value!r}\n",
            )
        unit = Parser(tokens).parse_translation_unit()
    except Exception as error:  # the digest records every failure
        add_error(error)
        return _pair(free, positioned)
    try:
        printed = to_c_source(unit)
    except PrinterError as error:
        printed = f"!PrinterError: {error}"
    add(printed, repr(unit))
    return _pair(free, positioned)


def _pair(free, positioned) -> str:
    return f"{free.hexdigest()[:8]} {positioned.hexdigest()[:8]}"


def record() -> dict[str, str]:
    programs = corpus()
    programs += mutants(suite_sources())
    return {key: digests(source) for key, source in programs}


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=0) + "\n")
    print(f"wrote {GOLDEN_PATH}")
