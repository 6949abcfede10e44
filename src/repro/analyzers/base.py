"""Common interface for all analysis tools compared in the evaluation.

The harness (:mod:`repro.suites.harness`) only needs two things from a tool:
its name, and whether it flags a given program as containing undefined
behavior.  Tools also report *what* they found so the per-class tables of
Figure 2 can be broken down, and how long the analysis took (the paper quotes
mean per-test runtimes in Section 5.1.2).

Since the execution-event redesign, the semantics-based tools are **probes**
on the engine rather than separate executions: one observed run of the
dynamic semantics emits the event stream (:mod:`repro.events`) and each
tool's :class:`UBVerdictProbe` decides which fired checks *its* model
reports.  Comparing N tools on a program therefore costs one parse and one
execution — :func:`run_probe_group` is the shared entry point, and
``analyze`` on a single tool is just a group of one.  The seed's
dedicated-execution path survives as :meth:`SemanticsBasedTool.analyze_isolated`
so the equivalence tests can hold probe verdicts to the legacy ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.api.session import SHARED_COMPILE_CACHE, Checker, compile_shared
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.kcc import CompiledUnit, KccTool
from repro.errors import OutcomeKind, UBKind
from repro.events import FAMILIES, Probe, RunEnd, UBEvent


@dataclass
class ToolResult:
    """The verdict of one tool on one program."""

    tool: str
    flagged: bool
    kinds: list[UBKind] = field(default_factory=list)
    detail: str = ""
    inconclusive: bool = False
    #: Time the tool itself attributes to the analysis (the dynamic stage for
    #: semantics-based tools; a shared execution reports the same figure to
    #: every tool it fed).  Zero means "not yet measured" — ``timed_analyze``
    #: then fills it with its own wall-clock measurement.
    runtime_seconds: float = 0.0
    #: Wall-clock time ``timed_analyze`` observed *beyond* a tool-reported
    #: ``runtime_seconds`` (verdict extraction, bookkeeping).
    overhead_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view, mirroring ``CheckReport.to_dict``'s style."""
        return {
            "tool": self.tool,
            "flagged": self.flagged,
            "kinds": [kind.name for kind in self.kinds],
            "detail": self.detail,
            "inconclusive": self.inconclusive,
            "runtime_seconds": self.runtime_seconds,
            "overhead_seconds": self.overhead_seconds,
        }


class AnalysisTool:
    """Base class: an analysis tool that classifies C programs."""

    #: Human-readable tool name used in the reproduced tables.
    name = "tool"
    #: Name of the real tool whose detection model this reimplements.
    models = ""

    def analyze(self, source: str, *, filename: str = "<input>") -> ToolResult:
        """Analyze ``source``; must be overridden."""
        raise NotImplementedError

    def warm_compile(self, source: str, *, filename: str = "<input>") -> None:
        """Populate any compile cache before the timed window (no-op default).

        With a shared compile cache, whichever tool analyzed a case first
        would otherwise be billed for the parse while the rest got free
        cache hits — inverting the reproduced per-tool runtime table.
        Warming the cache outside the clock makes every tool's timing cover
        the same work: its own dynamic analysis.
        """

    def timed_analyze(self, source: str, *, filename: str = "<input>") -> ToolResult:
        """``analyze`` with timing.

        If the tool reported its own ``runtime_seconds`` (a shared probe
        execution does), that breakdown is preserved and the extra
        wall-clock time lands in ``overhead_seconds``; otherwise the whole
        measured time is the runtime.
        """
        self.warm_compile(source, filename=filename)
        start = time.perf_counter()
        result = self.analyze(source, filename=filename)
        measured = time.perf_counter() - start
        if result.runtime_seconds:
            result.overhead_seconds = max(0.0, measured - result.runtime_seconds)
        else:
            result.runtime_seconds = measured
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Verdict probes: a detection model as an event filter
# ---------------------------------------------------------------------------

class UBVerdictProbe(Probe):
    """A tool's detection model as a filter over the engine's UB events.

    The observed execution runs every check and records the ones that fire;
    this probe keeps the first event whose check family its
    :class:`CheckerOptions` profile enables.  Terminal events
    (``family=None`` — checks no profile can disable) always match.  A
    subclass can override :meth:`judge` to re-decide family-enabled events
    with a custom model (the Valgrind probe re-judges memory access checks
    with its stack-slack rules).  The first match is the verdict, so the
    probe is settled from then on.
    """

    continue_past_ub = True

    def __init__(self, tool_name: str, options: CheckerOptions) -> None:
        self.name = tool_name
        self.options = options
        #: First matching event, rewritten by :meth:`judge` if applicable.
        self.matched: Optional[tuple[UBKind, str]] = None
        self.end: Optional[RunEnd] = None

    @property
    def settled(self) -> bool:
        return self.matched is not None

    def on_event(self, event) -> None:
        if self.matched is not None or event.kind != "ub":
            return
        verdict = self.judge(event)
        if verdict is not None:
            self.matched = verdict

    def judge(self, event: UBEvent) -> Optional[tuple[UBKind, str]]:
        """Decide whether this model reports a fired check; None = ignore."""
        if event.family is None:
            return (event.ub_kind, event.message)
        if getattr(self.options, "check_" + event.family, False):
            return (event.ub_kind, event.message)
        return None

    def finish(self, end: RunEnd) -> None:
        self.end = end


# ---------------------------------------------------------------------------
# Shared-execution probe groups
# ---------------------------------------------------------------------------

#: The ``check_*`` flag per check family — derived from the event
#: vocabulary's family list so the two can never diverge.
_CHECK_FLAGS = tuple(f"check_{family}" for family in FAMILIES)


def merge_options(profiles: Sequence[CheckerOptions]) -> CheckerOptions:
    """The union profile a shared execution must run with: every check
    family any participating tool enables is enabled (observed checks fall
    back to the check-disabled semantics when they fire, so enabling more
    families never changes the trajectory — only what gets recorded)."""
    base = profiles[0]
    flags = {flag: any(getattr(options, flag) for options in profiles)
             for flag in _CHECK_FLAGS}
    return base.without(**flags)


def sharing_signature(options: CheckerOptions) -> CheckerOptions:
    """Everything a shared execution inherits from its tools *besides* the
    check flags: implementation profile, resource limits, lowering,
    evaluation order.  Tools may share one execution only when their
    signatures are equal — a tool with a different ``max_steps`` (say)
    genuinely runs a different analysis."""
    return options.without(**dict.fromkeys(_CHECK_FLAGS, False))


#: Checkers backing shared probe executions, one per union options profile;
#: they share the process-wide compile cache, and their ``stats`` expose the
#: one-run-feeds-N-verdicts property (``run_count`` moves once per program).
_PROBE_CHECKERS: dict[CheckerOptions, Checker] = {}
_PROBE_CHECKERS_LOCK = threading.Lock()


def probe_checker_for(options: CheckerOptions) -> Checker:
    with _PROBE_CHECKERS_LOCK:
        checker = _PROBE_CHECKERS.get(options)
        if checker is None:
            checker = Checker(options, run_static_checks=False,
                              cache=SHARED_COMPILE_CACHE)
            _PROBE_CHECKERS[options] = checker
        return checker


def run_probe_group(tools: Sequence["SemanticsBasedTool"], source: str, *,
                    filename: str = "<input>",
                    checker: Optional[Checker] = None) -> list[ToolResult]:
    """Run one observed execution of ``source`` feeding every tool's probe.

    The probes continue past UB, so the execution runs on the walker; it
    stops at the check after which every probe has matched.

    Returns one :class:`ToolResult` per tool, in order.  All results carry
    the same ``runtime_seconds`` — the dynamic stage they shared.
    """
    for tool in tools:
        if not tool.can_share_execution:
            raise ValueError(f"tool {tool.name!r} cannot share an execution "
                             "(evaluation-order search is per-tool)")
    signature = sharing_signature(tools[0].options)
    mismatched = [tool.name for tool in tools[1:]
                  if sharing_signature(tool.options) != signature]
    if mismatched:
        raise ValueError(
            "tools in one probe group must agree on every option outside the "
            f"check_* flags (profile, resource limits, lowering, evaluation "
            f"order); {', '.join(mismatched)} differ{'s' if len(mismatched) == 1 else ''} "
            f"from {tools[0].name} — group by repro.analyzers.base.sharing_signature")
    union = merge_options([tool.options for tool in tools])
    if checker is None:
        checker = probe_checker_for(union)
    compiled = checker.compile(source, filename=filename)
    if not compiled.ok:
        return [tool._parse_failure_result(compiled) for tool in tools]
    probes = [tool.make_probe() for tool in tools]
    start = time.perf_counter()
    try:
        checker.run(compiled, probes=probes)  # the probes carry the verdicts
    except Exception as error:  # resource limits, unsupported constructs
        elapsed = time.perf_counter() - start
        return [ToolResult(tool=tool.name, flagged=False, inconclusive=True,
                           detail=f"{type(error).__name__}: {error}",
                           runtime_seconds=elapsed)
                for tool in tools]
    elapsed = time.perf_counter() - start
    results = []
    for tool, probe in zip(tools, probes):
        result = tool.result_from_probe(probe, compiled)
        result.runtime_seconds = elapsed
        results.append(result)
    return results


class SemanticsBasedTool(AnalysisTool):
    """An analysis tool built on the dynamic semantics with a given profile.

    This is the shared machinery for kcc itself and for the baseline tools
    that are modeled as restricted runtime monitors: each tool supplies the
    :class:`CheckerOptions` describing which classes of undefined behavior its
    real counterpart can observe, whether it performs translation-time checks,
    and (optionally) a custom event filter (:meth:`make_probe`).

    ``analyze`` runs the tool as a probe over an observed execution — a
    group of one, sharing the same machinery the harness uses to feed all
    tools from a single run.  ``analyze_isolated`` is the seed's dedicated
    execution (own engine, own options, custom memory model), kept for the
    probe-vs-legacy equivalence tests and for search mode.
    """

    def __init__(self, options: CheckerOptions, *, run_static_checks: bool,
                 search_evaluation_order: bool = False) -> None:
        self.options = options
        self.run_static_checks = run_static_checks
        self.search_evaluation_order = search_evaluation_order
        self._tool = KccTool(options, run_static_checks=run_static_checks,
                             search_evaluation_order=search_evaluation_order)

    # -- probe interface -----------------------------------------------------
    @property
    def can_share_execution(self) -> bool:
        """Whether this tool's verdict can come from a shared execution."""
        return not self.search_evaluation_order

    def make_probe(self) -> UBVerdictProbe:
        """A fresh one-run verdict probe implementing this tool's model."""
        return UBVerdictProbe(self.name, self.options)

    def result_from_probe(self, probe: UBVerdictProbe,
                          compiled: CompiledUnit) -> ToolResult:
        """Turn a finished probe (plus compile-stage facts) into a verdict."""
        if self.run_static_checks and compiled.static_violations:
            # Mirrors the legacy STATIC_ERROR outcome: translation-time
            # undefinedness flags the program before the dynamic stage.
            violations = compiled.static_violations
            return ToolResult(
                tool=self.name, flagged=True,
                kinds=[v.kind for v in violations],
                detail="static error: " + "; ".join(v.message for v in violations))
        if probe.matched is not None:
            kind, message = probe.matched
            return ToolResult(tool=self.name, flagged=True, kinds=[kind],
                              detail=f"undefined: {kind.name}: {message}")
        end = probe.end
        if end is None or end.status == "inconclusive":
            return ToolResult(tool=self.name, flagged=False, inconclusive=True,
                              detail=(end.detail if end is not None else
                                      "analysis did not finish"))
        return ToolResult(tool=self.name, flagged=False,
                          detail=f"defined (exit code {end.exit_code})")

    def _parse_failure_result(self, compiled: CompiledUnit) -> ToolResult:
        return ToolResult(tool=self.name, flagged=False, inconclusive=True,
                          detail=compiled.parse_error or "parse error")

    # -- compile stage -------------------------------------------------------
    def compile(self, source: str, *, filename: str = "<input>") -> CompiledUnit:
        """Compile through the process-wide shared cache.

        All semantics-based tools with the same implementation profile share
        one parse per program, so comparing N tools over a suite costs one
        compile — not N — per test case.
        """
        return compile_shared(source, filename=filename, options=self.options)

    def warm_compile(self, source: str, *, filename: str = "<input>") -> None:
        # Probed runs and searches run on the walker: the parse is all
        # there is to warm.
        self.compile(source, filename=filename)

    # -- analysis ------------------------------------------------------------
    def analyze(self, source: str, *, filename: str = "<input>") -> ToolResult:
        if not self.can_share_execution:
            return self.analyze_isolated(source, filename=filename)
        return run_probe_group([self], source, filename=filename)[0]

    def analyze_isolated(self, source: str, *, filename: str = "<input>") -> ToolResult:
        """The pre-probe path: a dedicated engine run under this tool's own
        options (and memory model, for subclasses that swap one in)."""
        return self.analyze_compiled(self.compile(source, filename=filename))

    def analyze_compiled(self, compiled: CompiledUnit) -> ToolResult:
        """Analyze an already-compiled unit on a dedicated engine run."""
        report = self._tool.run_unit(compiled)
        outcome = report.outcome
        return ToolResult(
            tool=self.name,
            flagged=outcome.flagged,
            kinds=outcome.ub_kinds,
            detail=outcome.describe(),
            inconclusive=outcome.kind is OutcomeKind.INCONCLUSIVE,
        )


class KccAnalysisTool(SemanticsBasedTool):
    """The paper's own tool: the full semantics-based undefinedness checker."""

    name = "kcc"
    models = "kcc (this paper)"

    def __init__(self, options: Optional[CheckerOptions] = None, *,
                 search_evaluation_order: bool = False) -> None:
        super().__init__(options or DEFAULT_OPTIONS, run_static_checks=True,
                         search_evaluation_order=search_evaluation_order)
