"""Execution-event instrumentation: the semantics engine as an event source.

The paper's central claim is that one executable semantics can subsume many
special-purpose analyzers.  This module is the structural expression of that
claim in our codebase: the dynamic semantics emits a typed stream of
**execution events** — memory traffic, sequence points, lvalue conversions,
arithmetic overflow checks, calls/returns, branches, interleave choices, and
(crucially) *fired undefinedness checks* — and any number of :class:`Probe`
subscribers observe one shared execution.  Runtime-verification systems scale
the same way (cf. detectEr's single event stream with cheap subscription):
one run, many observers, no per-observer interpretation cost.

Three pieces live here:

* the **event vocabulary** (:class:`Event` subclasses) and the
  :class:`Probe` / :class:`ProbeSet` subscriber machinery;
* the **undefinedness funnel** (:func:`report_undefined`): every
  option-gated check in the semantics reports through it.  In normal (strict)
  runs it raises — execution gets stuck exactly as before.  In *observed*
  runs (a :class:`UBRecorder` is active) it records a :class:`UBEvent` and
  returns, and the call site falls through to the same fallback the check's
  ``check_* = False`` ablation uses.  That is what lets one execution serve
  tools with different detection profiles: each probe decides which fired
  checks *its* model would have reported, while the trajectory is the one
  every profile shares.  A verdict, once reached, is final: when every
  probe of the run is :attr:`Probe.settled` after a recorded check, there
  is nothing left to observe, so the funnel raises there exactly as a
  strict run would, and the probes' ``finish`` receives
  ``RunEnd("undefined")`` with that check's error and no further event;
* :class:`TraceRecorderProbe` / :class:`ExecutionTrace`: a probe that turns
  a run into a replayable JSON trace for post-hoc querying.

Checks that are **not** option-gated (calling an undeclared function,
``free()`` of a non-heap pointer, dereferencing an indeterminate pointer...)
are *terminal*: every detection profile reports them, so the run stops there
and the terminal error is delivered to all probes as a final
``family=None`` :class:`UBEvent`.

The walker is the one engine that emits events: a run whose probes
subscribe to any kind (observed runs included) goes to it whatever
``engine`` says, and so does every evaluation-order search.  The lowered
closures and the bytecode VM carry no emission code at all and run only
unobserved checks in one fixed order.

Performance contract: when no probe is attached, no event objects are
constructed — every emission site is guarded by an ``events is not None``
test, and a probe subscribing to no kinds keeps the selected engine (see
``benchmarks/test_bench_interp_speed.py``, which gates the null-probe
overhead at 5% on the arith-loop benchmark).
"""

from __future__ import annotations

import contextvars
import json
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.errors import UBKind, UndefinedBehaviorError

# ---------------------------------------------------------------------------
# Check families
# ---------------------------------------------------------------------------

#: Families of option-gated checks; each maps to a ``check_<family>`` flag on
#: :class:`repro.core.config.CheckerOptions`.  A :class:`UBEvent` whose
#: ``family`` is ``None`` came from an ungated (terminal) check.
FAMILY_ARITHMETIC = "arithmetic"
FAMILY_MEMORY = "memory"
FAMILY_SEQUENCING = "sequencing"
FAMILY_CONST = "const"
FAMILY_PROVENANCE = "pointer_provenance"
FAMILY_UNINITIALIZED = "uninitialized"
FAMILY_EFFECTIVE_TYPES = "effective_types"
FAMILY_FUNCTIONS = "functions"

FAMILIES = (FAMILY_ARITHMETIC, FAMILY_MEMORY, FAMILY_SEQUENCING, FAMILY_CONST,
            FAMILY_PROVENANCE, FAMILY_UNINITIALIZED, FAMILY_EFFECTIVE_TYPES,
            FAMILY_FUNCTIONS)


# ---------------------------------------------------------------------------
# Event vocabulary
# ---------------------------------------------------------------------------

class Event:
    """Base class of all execution events.

    Events are plain slotted objects (not dataclasses) because the observed
    hot path constructs one per memory access; ``to_dict`` renders a
    JSON-ready view and ``key`` a hashable tuple used by the golden-trace
    equality tests.
    """

    __slots__ = ()
    kind = "event"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"event": self.kind}
        for name in self.__slots__:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)  # JSON has no tuples; keep round-trips exact
            data[name] = value if isinstance(value, (int, float, bool, str, list, dict)) \
                else str(value)
        return data

    def key(self) -> tuple:
        """A hashable identity used to compare event streams across engines."""
        return (self.kind,) + tuple(
            str(getattr(self, name)) for name in self.__slots__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"<{type(self).__name__} {fields}>"


class AllocEvent(Event):
    """An object came into existence (``mem[base] = obj(len, bytes)``)."""

    __slots__ = ("base", "size", "storage", "name")
    kind = "alloc"

    def __init__(self, base: int, size: int, storage: str, name: str) -> None:
        self.base = base
        self.size = size
        self.storage = storage
        self.name = name


class FreeEvent(Event):
    """A heap object's lifetime was ended by ``free()``."""

    __slots__ = ("base", "line")
    kind = "free"

    def __init__(self, base: int, line: Optional[int]) -> None:
        self.base = base
        self.line = line


class ReadEvent(Event):
    """Bytes were read through a pointer (the paper's ``readByte``)."""

    __slots__ = ("base", "offset", "size", "line")
    kind = "read"

    def __init__(self, base: Optional[int], offset: int, size: int,
                 line: Optional[int]) -> None:
        self.base = base
        self.offset = offset
        self.size = size
        self.line = line


class WriteEvent(Event):
    """Bytes were written through a pointer (the paper's ``writeByte``)."""

    __slots__ = ("base", "offset", "size", "line")
    kind = "write"

    def __init__(self, base: Optional[int], offset: int, size: int,
                 line: Optional[int]) -> None:
        self.base = base
        self.offset = offset
        self.size = size
        self.line = line


class SequencePointEvent(Event):
    """A sequence point: the ``locsWrittenTo`` cell was emptied (§4.2.1)."""

    __slots__ = ()
    kind = "seq-point"


class LvalueConvertEvent(Event):
    """Lvalue conversion: an lvalue was read for its value (§6.3.2.1:2)."""

    __slots__ = ("ctype", "line")
    kind = "lvalue-convert"

    def __init__(self, ctype: object, line: Optional[int]) -> None:
        self.ctype = ctype
        self.line = line


class ArithCheckEvent(Event):
    """An integer arithmetic result passed through the overflow check
    (§6.5:5) — the integer conversion/overflow side condition of §4.1.1."""

    __slots__ = ("value", "ctype", "line")
    kind = "arith-check"

    def __init__(self, value: int, ctype: object, line: Optional[int]) -> None:
        self.value = value
        self.ctype = ctype
        self.line = line


class CallEvent(Event):
    """A function call (user-defined or builtin) is about to execute."""

    __slots__ = ("function", "line")
    kind = "call"

    def __init__(self, function: str, line: Optional[int]) -> None:
        self.function = function
        self.line = line


class ReturnEvent(Event):
    """A function call completed normally."""

    __slots__ = ("function", "line")
    kind = "return"

    def __init__(self, function: str, line: Optional[int]) -> None:
        self.function = function
        self.line = line


class BranchEvent(Event):
    """A two-way control decision (``if``/loop condition, ``?:``, ``&&``/``||``)."""

    __slots__ = ("taken", "line")
    kind = "branch"

    def __init__(self, taken: bool, line: Optional[int]) -> None:
        self.taken = taken
        self.line = line


class ChoiceEvent(Event):
    """An interleaving point: the strategy ordered unsequenced siblings."""

    __slots__ = ("count", "order", "line")
    kind = "choice"

    def __init__(self, count: int, order: tuple, line: Optional[int]) -> None:
        self.count = count
        self.order = order
        self.line = line


class UBEvent(Event):
    """An undefinedness check fired.

    ``family`` names the ``check_*`` option gating the check, or ``None``
    for a terminal (ungated) check every profile reports.  ``check``
    distinguishes sites inside a family that tools model differently
    (``"access"`` and ``"alignment"`` for the memory model); ``data``
    carries the site facts a custom model needs to re-judge the check
    (storage kind, object size, offset, ...).
    """

    __slots__ = ("ub_kind", "message", "line", "function", "family", "check",
                 "data")
    kind = "ub"

    def __init__(self, ub_kind: UBKind, message: str, line: Optional[int],
                 function: Optional[str], family: Optional[str],
                 check: Optional[str] = None,
                 data: Optional[dict[str, Any]] = None) -> None:
        self.ub_kind = ub_kind
        self.message = message
        self.line = line
        self.function = function
        self.family = family
        self.check = check
        self.data = data

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"event": self.kind, "kind": self.ub_kind.name,
                                "code": self.ub_kind.error_code,
                                "message": self.message}
        for name in ("line", "function", "family", "check", "data"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data


class RunEnd:
    """How the observed execution terminated; passed to ``Probe.finish``."""

    __slots__ = ("status", "exit_code", "detail", "error")

    def __init__(self, status: str, *, exit_code: Optional[int] = None,
                 detail: str = "",
                 error: Optional[UndefinedBehaviorError] = None) -> None:
        #: "defined" | "undefined" (terminal check) | "inconclusive"
        self.status = status
        self.exit_code = exit_code
        self.detail = detail
        self.error = error


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

class Probe:
    """Subscriber protocol for execution events.

    A probe observes one run: override :meth:`on_event`; optionally override
    :meth:`finish` to learn how the run terminated.  Set
    ``continue_past_ub = True`` to request *observed* execution — gated
    undefinedness checks then record a :class:`UBEvent` and continue with
    the check-disabled semantics instead of stopping the run, which is what
    lets several detection profiles share one execution.  Passive probes
    (tracing, profiling, coverage) leave it ``False`` so the engine's
    verdict — and its report — are byte-identical to an unprobed run.

    An observed run stops at the recorded check after which every probe
    is :attr:`settled`, as a strict run stops at its first check: no
    further event is delivered, and :meth:`finish` receives
    ``RunEnd("undefined")`` carrying that check's error.  A probe that
    never settles (the default) keeps the run going to its end.
    """

    name = "probe"
    #: Whether this probe needs execution to continue past gated checks.
    continue_past_ub = False
    #: Whether this probe's verdict is final, so that nothing later in the
    #: run can change it; a subclass that reaches one overrides this.
    settled = False
    #: Event kinds this probe wants (a tuple of ``Event.kind`` strings), or
    #: None for everything.  Subscription is pay-per-use: kinds outside the
    #: set are never delivered to :meth:`on_event`, and a probe subscribing
    #: to *no* kinds (``subscribes = ()``) lets the checker keep the
    #: selected engine — only :meth:`finish` is called.  Any subscription
    #: runs the check on the walker.
    subscribes: Optional[tuple[str, ...]] = None

    def on_event(self, event: Event) -> None:
        """Called for every event, in execution order."""

    def finish(self, end: RunEnd) -> None:
        """Called once when the run terminates."""


class ProbeSet:
    """A fan-out of events to an ordered set of probes.

    The engine holds at most one ProbeSet (``interpreter.events``); emission
    is a plain loop, so the per-event cost is one attribute test when no
    probes are attached and one call per probe otherwise.  A probe that
    raises aborts the run — probes are trusted in-process observers, not
    sandboxed plugins.
    """

    __slots__ = ("probes", "_broadcast", "_by_kind")

    def __init__(self, probes: Sequence[Probe]) -> None:
        self.probes = list(probes)
        # Pre-split the fan-out by subscription so emit() stays a plain
        # loop: probes subscribing to everything, then a kind-keyed map of
        # selective subscribers.
        self._broadcast = [probe for probe in self.probes
                           if getattr(probe, "subscribes", None) is None]
        self._by_kind: dict[str, list[Probe]] = {}
        for probe in self.probes:
            subscribes = getattr(probe, "subscribes", None)
            if subscribes is not None:
                for kind in subscribes:
                    self._by_kind.setdefault(kind, []).append(probe)

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self) -> Iterator[Probe]:
        return iter(self.probes)

    def emit(self, event: Event) -> None:
        for probe in self._broadcast:
            probe.on_event(event)
        selective = self._by_kind.get(event.kind)
        if selective is not None:
            for probe in selective:
                probe.on_event(event)

    def finish(self, end: RunEnd) -> None:
        for probe in self.probes:
            # Probes are duck-typed: anything with on_event qualifies, and
            # finish is optional.
            finish = getattr(probe, "finish", None)
            if finish is not None:
                finish(end)

    @property
    def wants_ub_continuation(self) -> bool:
        return any(getattr(probe, "continue_past_ub", False)
                   for probe in self.probes)

    @property
    def settled(self) -> bool:
        """Whether every probe's verdict is final."""
        return all(getattr(probe, "settled", False) for probe in self.probes)


# ---------------------------------------------------------------------------
# The undefinedness funnel (strict raise vs observed record-and-continue)
# ---------------------------------------------------------------------------

_UB_SINK: contextvars.ContextVar[Optional["UBRecorder"]] = \
    contextvars.ContextVar("repro_ub_sink", default=None)


def report_undefined(error: UndefinedBehaviorError, family: Optional[str], *,
                     check: Optional[str] = None,
                     data: Optional[dict[str, Any]] = None) -> None:
    """Report a fired undefinedness check.

    Strict mode (no active recorder): raises ``error`` — identical to the
    seed semantics.  Observed mode: records a :class:`UBEvent` and returns,
    and the caller **must** fall through to the behavior the corresponding
    ``check_* = False`` ablation exhibits (that fallthrough is what keeps
    the shared trajectory equal to every individual profile's trajectory);
    once the record leaves every probe settled, it raises as strict mode
    does.  Ungated checks pass ``family=None`` and always raise: they are
    terminal for every detection profile.
    """
    sink = _UB_SINK.get()
    if sink is not None and family is not None:
        if not sink.record(error, family, check, data):
            return
    raise error


@contextmanager
def observed_execution(recorder: Optional["UBRecorder"]):
    """Activate ``recorder`` as the UB sink for the dynamic extent of a run."""
    if recorder is None:
        yield
        return
    token = _UB_SINK.set(recorder)
    try:
        yield
    finally:
        _UB_SINK.reset(token)


class UBRecorder:
    """The observed-mode sink: annotates fired checks and feeds the probes.

    ``first_error`` keeps the first recorded error; because a check only
    runs when its ``check_*`` flag is enabled, the first recorded event is
    exactly where a strict run of the same options would have stopped, so
    the engine's own verdict is preserved under observation.  ``stopped``
    turns True when a record leaves every probe settled, which ends the run.
    """

    __slots__ = ("interp", "events", "first_error", "stopped")

    def __init__(self, interp, events: ProbeSet) -> None:
        self.interp = interp
        self.events = events
        self.first_error: Optional[UndefinedBehaviorError] = None
        self.stopped = False

    def record(self, error: UndefinedBehaviorError, family: Optional[str],
               check: Optional[str], data: Optional[dict[str, Any]]) -> bool:
        """Record a fired gated check; return whether the run stops here."""
        interp = self.interp
        if error.function is None:
            error.function = interp.current_function
        if error.line is None:
            error.line = interp.current_line
        if self.first_error is None:
            self.first_error = error
        self.events.emit(UBEvent(error.kind, error.message, error.line,
                                 error.function, family, check, data))
        self.stopped = self.events.settled
        return self.stopped


# ---------------------------------------------------------------------------
# Trace recording (the post-hoc querying workload)
# ---------------------------------------------------------------------------

class ExecutionTrace:
    """A replayable, queryable record of one execution's event stream."""

    def __init__(self, events: Optional[list[dict[str, Any]]] = None, *,
                 end: Optional[dict[str, Any]] = None,
                 filename: str = "<input>") -> None:
        self.events = events if events is not None else []
        self.end = end
        self.filename = filename

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.events)

    # -- querying -----------------------------------------------------------
    def select(self, kind: Optional[str] = None, **fields: Any) -> list[dict[str, Any]]:
        """Events matching a kind and/or exact field values."""
        out = []
        for event in self.events:
            if kind is not None and event.get("event") != kind:
                continue
            if any(event.get(name) != value for name, value in fields.items()):
                continue
            out.append(event)
        return out

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.get("event") == kind)

    def summary(self) -> dict[str, int]:
        """Event counts per kind — the cheapest post-hoc query."""
        counts: dict[str, int] = {}
        for event in self.events:
            name = event.get("event", "?")
            counts[name] = counts.get(name, 0) + 1
        return counts

    def lines_touched(self) -> list[int]:
        """Source lines that produced at least one event, sorted."""
        return sorted({event["line"] for event in self.events
                       if isinstance(event.get("line"), int) and event["line"]})

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"filename": self.filename, "events": self.events}
        if self.end is not None:
            data["end"] = self.end
        return data

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionTrace":
        data = json.loads(text)
        return cls(list(data.get("events", [])), end=data.get("end"),
                   filename=data.get("filename", "<input>"))


class TraceRecorderProbe(Probe):
    """Record every event of a run as a replayable JSON trace.

    Passive by default (``continue_past_ub = False``): the engine's verdict
    is untouched and the trace simply ends where the run ends.  Construct
    with ``continue_past_ub=True`` to trace *through* gated undefinedness
    (the trace then follows the all-checks-disabled trajectory, with every
    fired check recorded as a ``ub`` event).
    """

    name = "trace-recorder"

    def __init__(self, *, filename: str = "<input>",
                 continue_past_ub: bool = False) -> None:
        self.filename = filename
        self.continue_past_ub = continue_past_ub
        self._events: list[dict[str, Any]] = []
        self._end: Optional[dict[str, Any]] = None

    def on_event(self, event: Event) -> None:
        self._events.append(event.to_dict())

    def finish(self, end: RunEnd) -> None:
        self._end = {"status": end.status}
        if end.exit_code is not None:
            self._end["exit_code"] = end.exit_code
        if end.detail:
            self._end["detail"] = end.detail
        if end.error is not None:
            self._end["error"] = {"kind": end.error.kind.name,
                                  "message": end.error.message,
                                  "line": end.error.line}

    @property
    def trace(self) -> ExecutionTrace:
        return ExecutionTrace(self._events, end=self._end, filename=self.filename)


__all__ = [
    "AllocEvent", "ArithCheckEvent", "BranchEvent", "CallEvent", "ChoiceEvent",
    "Event", "ExecutionTrace", "FreeEvent", "LvalueConvertEvent", "Probe",
    "ProbeSet", "ReadEvent", "ReturnEvent", "RunEnd", "SequencePointEvent",
    "TraceRecorderProbe", "UBEvent", "UBRecorder", "WriteEvent",
    "FAMILIES", "FAMILY_ARITHMETIC", "FAMILY_CONST", "FAMILY_EFFECTIVE_TYPES",
    "FAMILY_FUNCTIONS", "FAMILY_MEMORY", "FAMILY_PROVENANCE",
    "FAMILY_SEQUENCING", "FAMILY_UNINITIALIZED",
    "observed_execution", "report_undefined",
]
