"""The verdict contract against its recorded golden digests.

See ``verdict_golden.py`` for what the digests cover and how to re-record
them after an intended change.
"""

from __future__ import annotations

import json

from tests.core.verdict_golden import (
    EVALUATION_ORDERS,
    GOLDEN_PATH,
    corpus,
    moved,
    record,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_corpus_under_both_orders():
    assert len(GOLDEN) == len(corpus()) * len(EVALUATION_ORDERS)


def test_verdicts_and_steps_match_golden_digests():
    changed = moved(record(), GOLDEN)
    assert not changed, f"{len(changed)} runs moved: {changed}"
