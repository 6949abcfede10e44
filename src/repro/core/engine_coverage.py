"""Generate the compiled engine's coverage report (``docs/engine-coverage.md``).

The document is *generated*, never hand-edited: for each corpus it renders
how many function definitions compile to VM bytecode, and why each of the
others runs on the walker (:attr:`repro.core.bytecode.CompiledProgram.fallbacks`).
The corpora are the undefinedness suite, the Juliet-style suite and the
first 300 mixed fuzz cases of seed 1, under the default options.  CI
regenerates the file and fails on any diff, so the committed histogram
always matches the compiler.

Usage::

    python -m repro.core.engine_coverage              # rewrite docs/engine-coverage.md
    python -m repro.core.engine_coverage --check      # exit 1 if it is stale
    python -m repro.core.engine_coverage --stdout     # print to stdout
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool

DEFAULT_PATH = Path("docs/engine-coverage.md")

#: The fuzz sample: ``generate_case(FUZZ_SEED, i, inject="mixed")``, i < FUZZ_COUNT.
FUZZ_SEED = 1
FUZZ_COUNT = 300

_HEADER = """\
# Compiled-engine coverage

<!-- GENERATED FILE — do not edit.  Regenerate with:
         python -m repro.core.engine_coverage
     CI regenerates this document and fails on any diff. -->

Which function definitions the compiled engine runs as VM bytecode
(`repro.core.bytecode`), and why the others run on the walker.  A function
leaves the VM at the first construct outside the native subset, so each
function counts once, under that first reason.  Counts are over the
function definitions of every program in each corpus, compiled with the
default options.
"""


def _corpora() -> dict[str, list[str]]:
    from repro.fuzz.generator import generate_case
    from repro.suites.juliet import generate_juliet_suite
    from repro.suites.ubsuite import generate_undefinedness_suite

    return {
        "undefinedness suite": [c.source for c in generate_undefinedness_suite().cases],
        "Juliet-style suite": [c.source for c in generate_juliet_suite().cases],
        f"fuzz sample (seed {FUZZ_SEED}, {FUZZ_COUNT} mixed cases)": [
            generate_case(FUZZ_SEED, index, inject="mixed").source
            for index in range(FUZZ_COUNT)
        ],
    }


def coverage(sources: list[str]) -> tuple[int, int, Counter]:
    """``(native, total, reasons)`` over the function definitions of
    ``sources``: how many compile natively, how many there are, and how
    many fall back for each reason."""
    tool = KccTool(CheckerOptions())
    native = total = 0
    reasons: Counter = Counter()
    for source in sources:
        unit = tool.compile_unit(source)
        if unit.unit is None:
            continue
        program = unit.compiled_for(tool.options)
        native += len(program.functions)
        total += len(program.functions) + len(program.fallbacks)
        reasons.update(program.fallbacks.values())
    return native, total, reasons


def render() -> str:
    """Render the complete coverage document as markdown."""
    rows = {name: coverage(sources) for name, sources in _corpora().items()}
    lines = [_HEADER, "## Native share", ""]
    lines.append("| corpus | native | functions | share |")
    lines.append("|---|---|---|---|")
    all_native = all_total = 0
    for name, (native, total, _reasons) in rows.items():
        all_native += native
        all_total += total
        lines.append(f"| {name} | {native} | {total} | {100 * native / total:.1f}% |")
    share = 100 * all_native / all_total
    lines.append(f"| all | {all_native} | {all_total} | {share:.1f}% |")
    lines.append("")
    lines.append("## Fallback reasons")
    for name, (_native, _total, reasons) in rows.items():
        lines.append("")
        lines.append(f"### {name}")
        lines.append("")
        lines.append("| functions | reason |")
        lines.append("|---|---|")
        ranked = sorted(reasons.items(), key=lambda item: (-item[1], item[0]))
        for reason, count in ranked:
            text = reason.replace("|", "\\|")
            lines.append(f"| {count} | `{text}` |")
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    from repro.fuzz.coverage_doc import generated_doc_main

    return generated_doc_main(
        argv,
        module="repro.core.engine_coverage",
        description="Generate (or verify) the compiled-engine coverage report.",
        default_path=DEFAULT_PATH,
        render=render,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
