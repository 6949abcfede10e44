"""Observed runs over the verdict contract's corpus.

Every program of ``verdict_golden.corpus()`` that reaches the dynamic stage
(the suites and the first 300 mixed fuzz cases of seed 1) runs strict on the
walker and observed, with default options:

* observed by a ``UBVerdictProbe`` of the same options, the run stops where
  the strict run stops, so the two reports are identical, stdout included,
  and the probe matched the report's first diagnostic;
* observed by a probe that never settles, the run continues past every
  gated check to its end, and still ends with the strict run's verdict and
  diagnostics (its stdout may go on past the first check).
"""

from __future__ import annotations

import pytest

from repro.analyzers.base import UBVerdictProbe
from repro.core.config import DEFAULT_OPTIONS
from repro.core.kcc import KccTool
from repro.errors import OutcomeKind
from repro.events import Probe
from tests.core.verdict_golden import corpus

#: The corpus programs that parse and have no static violation.
DYNAMIC_PROGRAMS = 562


class NeverSettles(Probe):
    continue_past_ub = True


@pytest.fixture(scope="module")
def runs():
    """``(key, compiled, strict report)`` per program reaching the run."""
    tool = KccTool(DEFAULT_OPTIONS.without(engine="walker"))
    found = []
    for key, source in corpus():
        compiled = tool.compile_unit(source, filename=key)
        if compiled.parse_error is None and not compiled.static_violations:
            found.append((key, compiled, tool.run_unit(compiled)))
    return tool, found


def test_the_corpus_reaches_the_dynamic_stage(runs):
    _tool, found = runs
    assert len(found) == DYNAMIC_PROGRAMS


def test_a_verdict_probe_observes_exactly_the_strict_report(runs):
    tool, found = runs
    differ = []
    for key, compiled, strict in found:
        probe = UBVerdictProbe("kcc", DEFAULT_OPTIONS)
        observed = tool.run_unit(compiled, probes=[probe])
        first = strict.outcome.error
        matched = (first.kind, first.message) if first is not None else None
        if observed.to_dict() != strict.to_dict() or probe.matched != matched:
            differ.append(key)
    assert not differ, f"{len(differ)} observed reports differ: {differ}"


def test_a_probe_that_never_settles_runs_on_and_keeps_the_strict_verdict(runs):
    tool, found = runs
    differ = []
    continued = 0
    for key, compiled, strict in found:
        observed = tool.run_unit(compiled, probes=[NeverSettles()])
        expected, got = strict.to_dict()["outcome"], observed.to_dict()["outcome"]
        expected.pop("stdout", None)
        got.pop("stdout", None)
        if got != expected:
            differ.append(key)
        elif observed.outcome.stdout != strict.outcome.stdout:
            continued += 1
    assert not differ, f"{len(differ)} observed verdicts differ: {differ}"
    # Some undefined programs print past their first check.
    assert continued > 0
    assert any(strict.outcome.kind is OutcomeKind.UNDEFINED for _k, _c, strict in found)
