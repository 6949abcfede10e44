"""Spans around the public entry points of each layer, recorded from outside.

The traced run replaces each entry point named below with a wrapper that
records a span -- name, start, end, parent span, the verdict it serves --
and a few counts taken from the call's arguments or result.  Spans stay in
memory; the run writes them out at exit only when given an output path.
The program itself is not edited: uninstalling puts every original back,
so the untraced half of a traced run executes exactly the untraced code.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: Phases of a run, in the order a metric looks for spans: the measured
#: traffic first, then the set-up's warm-up, then the layer sweep.
PHASES = ("timed", "setup", "sweep")

CFRONT_SPANS = ("cfront.preprocess", "cfront.lex", "cfront.parse")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    verdict: Optional[int] = None
    phase: str = "setup"
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._originals: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, *, verdict: Optional[int] = None, **attrs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if verdict is None and parent is not None:
            verdict = parent.verdict
        record = Span(next(self._ids), name, time.perf_counter(),
                      parent=parent.id if parent else None, verdict=verdict,
                      phase=self.phase, attrs=attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, owner: Any, attr: str, name: str,
              describe: Optional[Callable] = None,
              before: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record.attrs.update(describe(args, kwargs, result, token))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the entry points of cfront, sema, core, fuzz, api, service."""
        if self._originals:
            return
        from repro.api.session import Checker
        from repro.cfront import parser
        from repro.core import bytecode, kcc, lowering
        from repro.fuzz import generator, oracles
        from repro.service.client import ServiceClient

        self._wrap(parser, "preprocess", "cfront.preprocess")
        self._wrap(parser, "tokenize", "cfront.lex",
                   describe=lambda a, k, r, t: {"tokens": len(r)})
        self._wrap(parser.Parser, "parse_translation_unit", "cfront.parse")
        self._wrap(kcc, "check_translation_unit", "sema.static_checks")
        self._wrap(lowering, "lower_unit", "core.lower")
        self._wrap(bytecode, "compile_unit_bytecode", "core.bytecode",
                   describe=_describe_bytecode)
        self._wrap(kcc.KccTool, "run_unit", "core.run", describe=_describe_run)
        self._wrap(generator, "generate_case", "fuzz.generate")
        self._wrap(oracles, "run_oracles", "fuzz.oracles")
        self._wrap(Checker, "check", "api.check",
                   before=lambda a: (a[0].stats.parse_count,
                                     a[0].stats.cache_hits),
                   describe=_describe_api)
        self._wrap(ServiceClient, "check", "service.check")
        self._wrap(ServiceClient, "ping", "service.ping")
        self._wrap(ServiceClient, "stats", "service.stats")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _describe_bytecode(args, kwargs, result, token) -> dict:
    from repro.cfront import ast as c_ast

    unit = args[0]
    defined = sum(1 for d in unit.declarations
                  if isinstance(d, c_ast.FunctionDef) and d.body is not None)
    native = len(result.functions) if result is not None else 0
    return {"native": native, "functions": defined}


def _describe_run(args, kwargs, result, token) -> dict:
    tool, compiled = args[0], args[1]
    steps = result.result.steps if result.result is not None else None
    return {"engine": tool.options.effective_engine(),
            "probed": bool(kwargs.get("probes")),
            "program": compiled.filename, "steps": steps}


def _describe_api(args, kwargs, result, token) -> dict:
    stats = args[0].stats
    parses, hits = token
    return {"parsed": stats.parse_count - parses,
            "hit": stats.cache_hits - hits}


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1000.0


class LayerView:
    """Selects spans for a metric: timed phase first, then set-up, then sweep.

    ``first_pass`` is the number of verdicts in one pass of the workload's
    inputs.  Count metrics read only the spans of the first traced pass
    (or, failing that, the whole set-up or sweep), a fixed set of inputs,
    so they repeat exactly from run to run.
    """

    def __init__(self, spans: Iterable[Span], first_pass: int) -> None:
        self.spans = list(spans)
        self.first_pass = first_pass
        self._by_id = {span.id: span for span in self.spans}
        self._by_name: dict[str, list[Span]] = {}
        self._children: dict[int, list[Span]] = {}
        for span in self.spans:
            self._by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self._children.setdefault(span.parent, []).append(span)

    def self_seconds(self, span: Span) -> float:
        covered = sum(child.seconds for child in self._children.get(span.id, ()))
        return span.seconds - covered

    def root(self, span: Span) -> Span:
        while span.parent is not None:
            span = self._by_id[span.parent]
        return span

    def pick(self, name: str, where: Callable[[Span], bool] = lambda s: True,
             *, first_pass: bool = False) -> tuple[str, list[Span]]:
        for phase in PHASES:
            chosen = [s for s in self._by_name.get(name, ())
                      if s.phase == phase and where(s)]
            if first_pass and phase == "timed":
                chosen = [s for s in chosen
                          if s.verdict is not None and s.verdict < self.first_pass]
            if chosen:
                return phase, chosen
        raise LookupError(f"no {name} span was recorded")

    def median_ms(self, name: str, where=lambda s: True, *,
                  self_time: bool = False) -> tuple[str, float]:
        phase, chosen = self.pick(name, where)
        measure = self.self_seconds if self_time else (lambda s: s.seconds)
        return phase, _ms(statistics.median(measure(s) for s in chosen))

    def total(self, name: str, attr: str) -> tuple[str, int]:
        phase, chosen = self.pick(name, first_pass=True)
        return phase, sum(s.attrs.get(attr) or 0 for s in chosen)

    def parent_attr(self, span: Span, attr: str):
        parent = self._by_id.get(span.parent)
        return parent.attrs.get(attr) if parent is not None else None


def layer_metrics(spans: Iterable[Span], *, first_pass: int,
                  loop_programs: Iterable[str]) -> tuple[dict, dict]:
    """Every per-layer metric, and the phase each one was measured in."""
    view = LayerView(spans, first_pass)
    values: dict[str, tuple[float, str]] = {}
    phases: dict[str, str] = {}

    def put(name: str, measured: tuple[str, float], unit: str) -> None:
        phases[name], value = measured
        values[name] = (value, unit)

    for span_name in ("cfront.preprocess", "cfront.lex", "cfront.parse",
                      "sema.static_checks", "core.lower", "core.bytecode",
                      "fuzz.generate", "fuzz.oracles", "service.ping"):
        put(span_name + "_ms", view.median_ms(span_name), "ms")

    put("cfront.tokens", view.total("cfront.lex", "tokens"), "count")
    phase, lexes = view.pick("cfront.lex")
    put("cfront.tokens_per_s", (phase, sum(s.attrs["tokens"] for s in lexes)
                                / sum(s.seconds for s in lexes)), "1/s")
    # The front end's share of the time of the checks that ran it (their
    # outermost spans), in the phase its spans came from.
    cfront = [s for s in view.spans if s.name in CFRONT_SPANS and s.phase == phase]
    roots = {view.root(s).id: view.root(s) for s in cfront}
    put("cfront.share", (phase, sum(s.seconds for s in cfront)
                         / sum(r.seconds for r in roots.values())), "ratio")

    phase, native = view.total("core.bytecode", "native")
    _, functions = view.total("core.bytecode", "functions")
    put("core.native_fn_ratio", (phase, native / functions), "ratio")
    put("core.run_ms", view.median_ms("core.run", self_time=True), "ms")
    put("core.steps", view.total("core.run", "steps"), "count")

    for program in loop_programs:
        mine = (lambda p: lambda s: s.attrs.get("program") == p)(program)
        phase, run_ms = view.median_ms("core.run", mine, self_time=True)
        steps = view.pick("core.run", mine)[1][0].attrs["steps"]
        put(f"core.run_ms.{program}", (phase, run_ms), "ms")
        put(f"core.steps_per_s.{program}", (phase, steps / (run_ms / 1000.0)), "1/s")

    for leg in ("walker", "lowered_probed", "vm"):
        on_leg = (lambda g: lambda s: view.parent_attr(s, "leg") == g)(leg)
        put(f"core.{leg}_run_ms", view.median_ms("core.run", on_leg, self_time=True),
            "ms")

    # Round trip and in-process check of the same programs, paired by name.
    put("service.inprocess_check_ms", view.median_ms("service.inprocess"), "ms")
    phase, round_trips = view.pick(
        "service.check", lambda s: view.parent_attr(s, "program") is not None)
    _, in_process = view.pick("service.inprocess")
    both: dict[str, tuple[list, list]] = {}
    for span in round_trips:
        both.setdefault(view.parent_attr(span, "program"), ([], []))[0].append(span)
    for span in in_process:
        both.setdefault(span.attrs["program"], ([], []))[1].append(span)
    put("service.overhead_ms", (phase, _ms(statistics.median(
        statistics.median(s.seconds for s in trips)
        - statistics.median(s.seconds for s in checks)
        for trips, checks in both.values()))), "ms")

    put("api.parse_count", view.total("api.check", "parsed"), "count")
    put("api.cache_hits", view.total("api.check", "hit"), "count")
    return values, phases
