"""The static checker against its recorded golden violations.

See ``static_golden.py`` for what the record covers and how to re-record it
after an intended change.
"""

from __future__ import annotations

import json

from repro.cfront import prelude as c_prelude
from repro.cfront.parser import parse_unit
from repro.sema.static_checks import check_translation_unit
from tests.sema.static_golden import GOLDEN_PATH, moved, programs, record

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_front_end_corpus():
    assert list(GOLDEN) == [key for key, _ in programs()]


def test_violations_match_the_golden_record():
    changed = moved(record(), GOLDEN)
    assert not changed, f"{len(changed)} programs moved: {changed[:20]}"


def test_prelude_units_report_the_golden_violations():
    """A unit that starts from a prelude skips the header declarations, yet
    reports what the full path does."""
    c_prelude.clear()
    checked = 0
    for key, source in programs():
        expected = GOLDEN[key]
        if expected is None:
            continue
        unit, prelude = parse_unit(source)
        if prelude is None:
            continue
        found = check_translation_unit(unit, prelude=prelude)
        assert [[v.kind.name, v.message, v.line, v.function] for v in found] == expected, key
        checked += 1
    assert checked > 100
