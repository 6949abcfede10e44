"""Golden digests of the checker's verdicts over a fixed corpus.

The verdict contract: every engine change must leave each program's report
and step count exactly as they were.  For each program and each fixed
evaluation order, the program is checked with the default options (the
compiled engine, falling back per function to the walker) and digested as::

    sha256(json.dumps([report.to_dict(), steps], sort_keys=True))

where ``steps`` is the run's step count (``None`` when nothing ran: a parse
failure or a static error).  The corpus is the undefinedness suite
(``ub/``), the Juliet suite (``juliet/``) and the first 300 mixed fuzz cases
of seed 1 (``fuzz/``), each under both evaluation orders.  The digests are
kept in ``data/verdict_golden.json``; after an intended change to a verdict
or a step count, re-record them (the command prints the programs whose
digests moved) with::

    PYTHONPATH=src python -m tests.core.verdict_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "verdict_golden.json"

EVALUATION_ORDERS = ("left-to-right", "right-to-left")
#: The fuzz sample: ``generate_case(FUZZ_SEED, i, inject="mixed")``, i < FUZZ_COUNT.
FUZZ_SEED = 1
FUZZ_COUNT = 300


def corpus() -> list[tuple[str, str]]:
    """``(key, source)`` for every program of the contract."""
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
        (f"fuzz/{index}", generate_case(FUZZ_SEED, index, inject="mixed").source)
        for index in range(FUZZ_COUNT)
    ]
    return programs


def digest(report) -> str:
    steps = report.result.steps if report.result is not None else None
    text = json.dumps([report.to_dict(), steps], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record() -> dict[str, str]:
    """``{"<order>/<key>": digest}`` over the corpus and both orders."""
    from repro.core.config import CheckerOptions
    from repro.core.kcc import KccTool

    tools = [
        (order, KccTool(CheckerOptions(evaluation_order=order)))
        for order in EVALUATION_ORDERS
    ]
    digests = {}
    for key, source in corpus():
        compiled = tools[0][1].compile_unit(source)
        for order, tool in tools:
            digests[f"{order}/{key}"] = digest(tool.run_unit(compiled))
    return digests


def moved(recorded: dict[str, str], golden: dict[str, str]) -> list[str]:
    """The keys whose digest differs, or that only one side has."""
    keys = sorted(set(recorded) | set(golden))
    return [key for key in keys if recorded.get(key) != golden.get(key)]


if __name__ == "__main__":
    digests = record()
    if GOLDEN_PATH.exists():
        changed = moved(digests, json.loads(GOLDEN_PATH.read_text()))
        print(f"{len(changed)} of {len(digests)} digests changed")
        for key in changed:
            print(f"  {key}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
