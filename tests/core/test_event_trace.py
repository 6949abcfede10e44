"""Execution-event stream: the walker tells the story of every probed run.

The walker is the one engine that emits events.  A tool configured for the
lowered closures sends every run with a trace recorder attached to the
walker, so for every program of the undefinedness suite it yields the
walker's event sequence and builds no closure IR; a separate test pins
that unprobed runs still execute the one folded closure IR.
"""

import pytest

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.events import ExecutionTrace, TraceRecorderProbe
from repro.suites.ubsuite import generate_undefinedness_suite

SUITE = generate_undefinedness_suite()


def trace_of(source: str, name: str, *, lowering: bool,
             continue_past_ub: bool = False):
    tool = KccTool(CheckerOptions(enable_lowering=lowering, engine="lowered"),
                   run_static_checks=False)
    compiled = tool.compile_unit(source, filename=name)
    if not compiled.ok:
        return None, None
    probe = TraceRecorderProbe(filename=name, continue_past_ub=continue_past_ub)
    report = tool.run_unit(compiled, probes=[probe])
    # Whatever the engine, the probed run went to the walker.
    assert compiled._lowered == {} and compiled._bytecode == {}
    return probe.trace, report


@pytest.mark.parametrize("case", SUITE.cases, ids=lambda c: c.name)
def test_golden_trace_walker_vs_lowered(case):
    lowered_trace, lowered_report = trace_of(case.source, case.name, lowering=True)
    walker_trace, walker_report = trace_of(case.source, case.name, lowering=False)
    if lowered_trace is None:
        assert walker_trace is None
        return
    assert lowered_report.outcome.describe() == walker_report.outcome.describe()
    assert lowered_trace.events == walker_trace.events, (
        f"{case.name}: engines disagree at event "
        f"{next(i for i, (a, b) in enumerate(zip(lowered_trace.events, walker_trace.events)) if a != b) if lowered_trace.events != walker_trace.events and len(lowered_trace.events) == len(walker_trace.events) else 'length'}")


@pytest.mark.parametrize("case", SUITE.cases[:20], ids=lambda c: c.name)
def test_golden_trace_in_observed_mode(case):
    # An observed run (continuation past gated checks) goes to the walker
    # too, with its observed-mode fallbacks.
    lowered_trace, _ = trace_of(case.source, case.name, lowering=True,
                                continue_past_ub=True)
    walker_trace, _ = trace_of(case.source, case.name, lowering=False,
                               continue_past_ub=True)
    if lowered_trace is None:
        assert walker_trace is None
        return
    assert lowered_trace.events == walker_trace.events


def test_unprobed_lowered_ir_is_the_plain_fast_path():
    # An unprobed run builds the one closure IR of its options, folded:
    # ``1 + 2`` lowers to a single constant closure.  A probed run adds no
    # second variant; it runs on the walker.
    tool = KccTool(CheckerOptions(engine="lowered"))
    compiled = tool.compile_unit("int main(void){ return 1 + 2; }")
    assert tool.run_unit(compiled).outcome.exit_code == 3
    assert list(compiled._lowered) == [tool.options]
    lowered = compiled._lowered[tool.options]
    probe = TraceRecorderProbe()
    assert tool.run_unit(compiled, probes=[probe]).outcome.exit_code == 3
    assert compiled._lowered == {tool.options: lowered}
    assert compiled._bytecode == {}
    # The walker steps through both operands; the folded closure does not.
    assert probe.trace.count("arith-check") == 1


def test_passive_probe_leaves_the_report_identical():
    source = "int main(void){ int d = 0; return 5 / d; }"
    tool = KccTool(CheckerOptions(), run_static_checks=False)
    bare = tool.run_unit(tool.compile_unit(source))
    probe = TraceRecorderProbe()
    probed = tool.run_unit(tool.compile_unit(source), probes=[probe])
    assert bare.outcome.describe() == probed.outcome.describe()
    assert bare.outcome.error.line == probed.outcome.error.line
    # The trace ends where the run ends: at the division.
    assert probe.trace.end["status"] == "undefined"
    assert probe.trace.end["error"]["kind"] == "DIVISION_BY_ZERO"


def test_trace_vocabulary_and_queries():
    source = (
        "int add(int a, int b){ return a + b; }\n"
        "int main(void){ int i, s = 0;\n"
        "  for (i = 0; i < 3; i++) { if (i > 1) s += add(s, i); }\n"
        "  return s; }\n")
    tool = KccTool(CheckerOptions())
    probe = TraceRecorderProbe(filename="trace.c")
    tool.run_unit(tool.compile_unit(source, filename="trace.c"), probes=[probe])
    trace = probe.trace
    summary = trace.summary()
    # Every family of the vocabulary shows up in this tiny program...
    for kind in ("alloc", "read", "write", "seq-point", "lvalue-convert",
                 "arith-check", "call", "return", "branch", "choice"):
        assert summary.get(kind, 0) > 0, (kind, summary)
    # ... and the queries slice it.
    assert trace.count("call") == trace.count("return")
    calls = trace.select("call", function="add")
    assert len(calls) == 1  # i in {2}
    assert trace.select("branch", taken=False)  # each loop's exit test
    assert 3 in trace.lines_touched()


def test_trace_json_round_trip(tmp_path):
    source = "int main(void){ int x = 1; return x + 1; }"
    tool = KccTool(CheckerOptions())
    probe = TraceRecorderProbe(filename="rt.c")
    tool.run_unit(tool.compile_unit(source, filename="rt.c"), probes=[probe])
    trace = probe.trace
    path = tmp_path / "trace.json"
    path.write_text(trace.to_json(indent=2), encoding="utf-8")
    reloaded = ExecutionTrace.from_json(path.read_text(encoding="utf-8"))
    assert reloaded.events == trace.events
    assert reloaded.end == trace.end
    assert reloaded.filename == "rt.c"
    assert reloaded.summary() == trace.summary()
