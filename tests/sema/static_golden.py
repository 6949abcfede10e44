"""Golden record of the static checker's violations over a fixed corpus.

The corpus is the front end's (``tests/cfront/frontend_golden.py``): the
undefinedness and Juliet suites, the first 500 mixed fuzz cases of the
acceptance seed, the reducer's regression artifact and the 3,000
single-edit mutants.  Each program is preprocessed, tokenized and parsed
one stage at a time, as the front-end golden does, and then statically
checked with the default profile.  The record holds, for each program,
its violations in order as ``[kind, message, line, function]``, or
``null`` when the program does not parse (the front-end golden pins
those errors).

The record is kept in ``data/static_golden.json``; after an intended change
to a static check, re-record it (the command prints the programs whose
violations moved) with::

    PYTHONPATH=src python -m tests.sema.static_golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "static_golden.json"


def programs() -> list[tuple[str, str]]:
    """``(key, source)`` for every program of the front-end corpus."""
    from tests.cfront.frontend_golden import corpus, mutants, suite_sources

    return corpus() + mutants(suite_sources())


def violations(source: str) -> Optional[list[list]]:
    """The violations of ``source`` as JSON values, or None if it does not parse."""
    from repro.cfront.parser import Parser, preprocess, tokenize
    from repro.sema.static_checks import check_translation_unit

    try:
        unit = Parser(tokenize(preprocess(source))).parse_translation_unit()
    except Exception:  # the front-end golden records every parse failure
        return None
    return [
        [violation.kind.name, violation.message, violation.line, violation.function]
        for violation in check_translation_unit(unit)
    ]


def record() -> dict[str, Optional[list[list]]]:
    return {key: violations(source) for key, source in programs()}


def moved(recorded: dict, golden: dict) -> list[str]:
    """The keys whose violations differ, or that only one side has."""
    keys = sorted(set(recorded) | set(golden))
    return [key for key in keys if recorded.get(key, "absent") != golden.get(key, "absent")]


def dump(record: dict) -> str:
    """One program per line, in corpus order."""
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    recorded = record()
    if GOLDEN_PATH.exists():
        changed = moved(recorded, json.loads(GOLDEN_PATH.read_text()))
        print(f"{len(changed)} of {len(recorded)} programs changed")
        for key in changed:
            print(f"  {key}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(dump(recorded))
    print(f"wrote {GOLDEN_PATH}")
