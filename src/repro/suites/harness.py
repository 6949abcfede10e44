"""The evaluation harness: run analysis tools over test suites, score them.

This reproduces the methodology of Section 5 of the paper:

* every test is a **separate program** containing at most one undefined
  behavior (so behaviors cannot interact),
* every undefined ("bad") test has a corresponding defined ("good") control
  test, which makes false positives measurable — "without such tests, a tool
  could simply say all programs were undefined and receive full marks",
* Figure 2 groups tests by undefined-behavior class and reports the
  percentage of bad tests each tool catches per class,
* Figure 3 averages *across undefined behaviors* ("no behavior is weighted
  more than another"), split into statically and dynamically detectable
  behaviors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analyzers.base import (
    AnalysisTool,
    SemanticsBasedTool,
    ToolResult,
    run_probe_group,
    sharing_signature,
)
from repro.reporting import format_percent, render_table


@dataclass
class TestCase:
    """One test program."""

    __test__ = False  # not a pytest test class, despite the (paper's) name

    name: str
    source: str
    is_bad: bool
    category: str = ""            # UB class (Figure 2) or behavior id (Figure 3)
    behavior: str = ""            # fine-grained behavior identifier
    stage: str = "dynamic"        # "static" or "dynamic" detectability
    description: str = ""
    expected_kinds: tuple = ()


@dataclass
class TestSuite:
    """A named collection of test cases."""

    __test__ = False  # not a pytest test class, despite the (paper's) name

    name: str
    cases: list[TestCase] = field(default_factory=list)

    def add(self, case: TestCase) -> None:
        self.cases.append(case)

    def categories(self) -> list[str]:
        seen: list[str] = []
        for case in self.cases:
            if case.category not in seen:
                seen.append(case.category)
        return seen

    def behaviors(self) -> list[str]:
        seen: list[str] = []
        for case in self.cases:
            if case.behavior and case.behavior not in seen:
                seen.append(case.behavior)
        return seen

    def bad_cases(self) -> list[TestCase]:
        return [case for case in self.cases if case.is_bad]

    def good_cases(self) -> list[TestCase]:
        return [case for case in self.cases if not case.is_bad]

    def cases_in(self, category: str) -> list[TestCase]:
        return [case for case in self.cases if case.category == category]

    def __len__(self) -> int:
        return len(self.cases)


@dataclass
class CaseRecord:
    """The verdict of one tool on one test case."""

    case: TestCase
    result: ToolResult

    @property
    def correct(self) -> bool:
        if self.case.is_bad:
            return self.result.flagged
        return not self.result.flagged


@dataclass
class SuiteScore:
    """Scores of one tool over one suite."""

    tool: str
    records: list[CaseRecord] = field(default_factory=list)

    # -- aggregate scores -----------------------------------------------------
    #
    # Rates over an empty denominator return ``None`` (rendered as ``—`` in
    # the tables), keeping "there were no such tests" distinguishable from
    # "the tool caught none of them".

    def detection_rate(self, category: Optional[str] = None) -> Optional[float]:
        """Fraction of *bad* tests flagged (the paper's "% passed")."""
        bad = [r for r in self.records
               if r.case.is_bad and (category is None or r.case.category == category)]
        if not bad:
            return None
        return sum(1 for r in bad if r.result.flagged) / len(bad)

    def false_positive_rate(self, category: Optional[str] = None) -> Optional[float]:
        good = [r for r in self.records
                if not r.case.is_bad and (category is None or r.case.category == category)]
        if not good:
            return None
        return sum(1 for r in good if r.result.flagged) / len(good)

    def per_behavior_rate(self, stage: Optional[str] = None) -> Optional[float]:
        """Average detection over behaviors, each behavior weighted equally
        (the Figure 3 metric)."""
        by_behavior: dict[str, list[CaseRecord]] = {}
        for record in self.records:
            if not record.case.is_bad:
                continue
            if stage is not None and record.case.stage != stage:
                continue
            by_behavior.setdefault(record.case.behavior or record.case.name, []).append(record)
        if not by_behavior:
            return None
        rates = []
        for records in by_behavior.values():
            rates.append(sum(1 for r in records if r.result.flagged) / len(records))
        return sum(rates) / len(rates)

    def mean_runtime(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.result.runtime_seconds for r in self.records) / len(self.records)

    def inconclusive_count(self) -> int:
        return sum(1 for r in self.records if r.result.inconclusive)


@dataclass
class ComparisonResult:
    """Scores of several tools over one suite."""

    suite: TestSuite
    scores: list[SuiteScore] = field(default_factory=list)

    def score_for(self, tool_name: str) -> SuiteScore:
        for score in self.scores:
            if score.tool == tool_name:
                return score
        raise KeyError(f"no score recorded for tool {tool_name!r}")

    # -- table rendering --------------------------------------------------------
    def figure2_table(self) -> str:
        """Per-class detection table in the shape of the paper's Figure 2.

        Test counts come from the cases that actually ran (the scores'
        records), not the whole suite, so a subset run — ``bench --smoke``,
        or ``run_suite(cases=...)`` — never pairs a full-suite count with a
        subset rate.
        """
        headers = ["Undefined Behavior", "No. Tests"] + [s.tool for s in self.scores]
        cases_run = [r.case for r in self.scores[0].records] if self.scores else []
        categories: list[str] = []
        for case in cases_run:
            if case.category not in categories:
                categories.append(case.category)
        rows = []
        for category in categories:
            bad_count = sum(1 for c in cases_run if c.category == category and c.is_bad)
            row = [category, bad_count]
            for score in self.scores:
                row.append(format_percent(score.detection_rate(category)))
            rows.append(row)
        total_row = ["all classes", sum(1 for c in cases_run if c.is_bad)]
        for score in self.scores:
            total_row.append(format_percent(score.detection_rate()))
        rows.append(total_row)
        fp_row = ["false positives (good tests)",
                  sum(1 for c in cases_run if not c.is_bad)]
        for score in self.scores:
            fp_row.append(format_percent(score.false_positive_rate()))
        rows.append(fp_row)
        return render_table(headers, rows,
                            title=f"Comparison of analysis tools on {self.suite.name} (% of bad tests flagged)")

    def figure3_table(self) -> str:
        """Static/dynamic per-behavior averages in the shape of Figure 3."""
        headers = ["Tools", "Static (% Passed)", "Dynamic (% Passed)"]
        rows = []
        for score in self.scores:
            rows.append([score.tool,
                         format_percent(score.per_behavior_rate("static")),
                         format_percent(score.per_behavior_rate("dynamic"))])
        return render_table(
            headers, rows,
            title=f"Comparison of analysis tools against {self.suite.name} "
                  "(averaged across behaviors)")

    def runtime_table(self) -> str:
        # Milliseconds: with compiles warmed outside the timed window, the
        # per-test dynamic times are sub-millisecond and a seconds column
        # would round every tool to 0.000.
        headers = ["Tool", "mean ms/test", "inconclusive"]
        rows = [[score.tool, f"{score.mean_runtime() * 1000.0:.3f}",
                 score.inconclusive_count()]
                for score in self.scores]
        return render_table(
            headers, rows,
            title="Mean analysis time per test (dynamic stage; compile cached)")


def analyze_case(tools: Sequence[AnalysisTool], source: str,
                 filename: str) -> list[ToolResult]:
    """All tools' verdicts on one program, sharing executions where possible.

    Semantics-based tools that can share an execution (everything but the
    evaluation-order search) are grouped into one observed run of the
    engine: the probes of :mod:`repro.analyzers.base` filter its event
    stream, so N tool verdicts cost one parse and one execution.  Any
    remaining tools run individually through ``timed_analyze``.
    """
    groups: dict[object, list[SemanticsBasedTool]] = {}
    for tool in tools:
        if isinstance(tool, SemanticsBasedTool) and tool.can_share_execution:
            # Tools share an execution only when they agree on everything
            # outside the check flags (profile, resource limits, ...); a
            # mixed lineup simply runs one execution per signature.
            groups.setdefault(sharing_signature(tool.options), []).append(tool)
    results: dict[int, ToolResult] = {}
    for group in groups.values():
        for tool, result in zip(group,
                                run_probe_group(group, source, filename=filename)):
            results[id(tool)] = result
    for tool in tools:
        if id(tool) not in results:
            results[id(tool)] = tool.timed_analyze(source, filename=filename)
    return [results[id(tool)] for tool in tools]


def _analyze_case_task(tools: Sequence[AnalysisTool],
                       case: tuple[str, str]) -> list[ToolResult]:
    """Pool worker: one case, all tools.  Must stay module-level (picklable).

    ``tools`` is the staged-chunk header: the warm pool pickles the lineup
    once per chunk, so a grid of N cases ships the tool objects ``ceil(N /
    chunksize)`` times instead of N times.
    """
    source, filename = case
    return analyze_case(tools, source, filename)


class EvaluationHarness:
    """Runs tools over suites and produces :class:`ComparisonResult` objects."""

    def __init__(self, tools: Sequence[AnalysisTool]) -> None:
        self.tools = list(tools)

    def run_suite(self, suite: TestSuite, *,
                  cases: Optional[Iterable[TestCase]] = None,
                  jobs: Optional[int] = 1) -> ComparisonResult:
        """Run every tool over every (selected) case.

        With ``jobs > 1`` cases fan out over a process pool; record order —
        and therefore every score and table — is identical to the serial
        path.  Either way, each case costs one shared execution for all the
        probe-backed tools (see :func:`analyze_case`).
        """
        selected = list(cases) if cases is not None else suite.cases
        comparison = ComparisonResult(suite=suite)
        results = self._run_grid(selected, jobs=jobs)
        for index, tool in enumerate(self.tools):
            score = SuiteScore(tool=tool.name)
            for case_index, case in enumerate(selected):
                score.records.append(CaseRecord(
                    case=case, result=results[case_index][index]))
            comparison.scores.append(score)
        return comparison

    def _run_grid(self, selected: Sequence[TestCase], *,
                  jobs: Optional[int]) -> list[list[ToolResult]]:
        from repro.service.pool import run_staged

        cases = [(case.source, case.name) for case in selected]
        return run_staged(_analyze_case_task, self.tools, cases, jobs=jobs)


def run_comparison(suite: TestSuite, tools: Optional[Sequence[AnalysisTool]] = None,
                   *, cases: Optional[Iterable[TestCase]] = None,
                   jobs: Optional[int] = 1) -> ComparisonResult:
    """Convenience wrapper: run the default tools over ``suite``."""
    from repro.analyzers.registry import default_tools

    harness = EvaluationHarness(tools if tools is not None else default_tools())
    return harness.run_suite(suite, cases=cases, jobs=jobs)
