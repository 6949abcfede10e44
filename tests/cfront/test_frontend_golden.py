"""The front end against its recorded golden digests, and mutant robustness.

See ``frontend_golden.py`` for what the digests cover and how to re-record
them after an intended change.
"""

from __future__ import annotations

import json

import pytest

from repro.core.kcc import KccTool
from repro.errors import CParseError, UnsupportedFeatureError
from tests.cfront.frontend_golden import (
    GOLDEN_PATH,
    MUTANT_COUNT,
    corpus,
    digests,
    mutants,
    suite_sources,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def mutant_corpus():
    return mutants(suite_sources())


def _changed(programs):
    return [key for key, source in programs if digests(source) != GOLDEN[key]]


def test_corpus_matches_golden_digests():
    programs = corpus()
    assert len(programs) + MUTANT_COUNT == len(GOLDEN)
    changed = _changed(programs)
    assert not changed, f"{len(changed)} programs changed, first: {changed[:10]}"


def test_mutants_match_golden_digests(mutant_corpus):
    changed = _changed(mutant_corpus)
    assert not changed, f"{len(changed)} mutants changed, first: {changed[:10]}"


def test_mutants_raise_only_front_end_errors(mutant_corpus):
    tool = KccTool()
    escaped = []
    for key, source in mutant_corpus:
        try:
            tool.compile_unit(source)
        except (CParseError, UnsupportedFeatureError):
            pass
        except Exception as error:  # anything else is a front-end bug
            escaped.append((key, repr(error)))
    assert escaped == []
