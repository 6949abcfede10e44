"""Which engine runs what: observation and search go to the walker.

The walker (``core/eval_expr.py`` + ``core/eval_stmt.py``) is the reference
semantics and the one engine that emits execution events and consults a
scripted evaluation order.  Whatever ``engine`` says, a run whose probes
subscribe to events (observed, continue-past-UB runs included) and every
evaluation-order search run on it and build neither the closure IR nor the
bytecode.  A probe that subscribes to no kinds keeps the selected engine.
Under ``engine="compiled"`` the functions the VM cannot compile run on the
walker too, so only ``engine="lowered"`` builds the closure IR.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import Checker
from repro.core import interpreter as interpreter_module
from repro.core.config import ENGINES, CheckerOptions
from repro.core.interpreter import Interpreter
from repro.core.kcc import (
    KccTool,
    run_search_shard,
    search_root_expansion,
)
from repro.events import Probe, TraceRecorderProbe
from repro.kframework.engine import checkpoint_supported
from repro.kframework.search import SearchOptions
from repro.kframework.strategy import RightToLeftStrategy, ScriptedStrategy

LOOP_WITH_CALLS = """
#include <stdio.h>
int add(int a, int b) { return a + b; }
int main(void) {
    int total = 0;
    for (int i = 0; i < 4; i++)
        total = add(total, i * 3);
    if (total > 10) printf("%d\\n", total);
    return total & 7;
}
"""

#: Two gated checks: an observed run records both and continues.
TWO_GATED_CHECKS = """
int main(void){
    int d = 0;
    int a = 5 / d;
    int x = 2147483647;
    int b = (x + 1) < x;
    return a + b;
}
"""

SET_DENOM = """
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
"""

CALLS = """
int a = 0;
int f(int v){ a = a * 3 + v; return v; }
int main(void){ int x = f(1) + f(2) + f(3); return a == 0 ? x : 1; }
"""


#: ``g`` takes an address, so it leaves the VM; ``f`` and ``main`` stay.
WITH_FALLBACK = """
int f(int *p) { return *p + 1; }
int g(void) { double d = 41; int x = d; return f(&x); }
int main(void) { return g() == 42 ? 0 : 1; }
"""


class UBRecorder(Probe):
    """Continues past gated checks and records every event it is sent."""

    continue_past_ub = True

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event.to_dict())


class Finisher(Probe):
    """Subscribes to no kinds: it only learns how the run ended."""

    subscribes = ()

    def __init__(self):
        self.events = []
        self.end = None

    def on_event(self, event):
        self.events.append(event)

    def finish(self, end):
        self.end = end.status


def _probed(engine, source, probe):
    tool = KccTool(CheckerOptions(engine=engine), run_static_checks=False)
    compiled = tool.compile_unit(source)
    return tool.run_unit(compiled, probes=[probe]), compiled


def _events(probe):
    if isinstance(probe, TraceRecorderProbe):
        return probe.trace.events
    return probe.events


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "make_probe, source",
    [
        (TraceRecorderProbe, LOOP_WITH_CALLS),
        (TraceRecorderProbe, TWO_GATED_CHECKS),
        (UBRecorder, LOOP_WITH_CALLS),
        (UBRecorder, TWO_GATED_CHECKS),
    ],
    ids=["trace-defined", "trace-undefined", "observed-defined", "observed-ub"],
)
def test_subscribing_probes_run_on_the_walker(engine, make_probe, source):
    probe, reference = make_probe(), make_probe()
    report, compiled = _probed(engine, source, probe)
    walker_report, _ = _probed("walker", source, reference)
    assert _events(probe), "the probe must have seen the run"
    assert _events(probe) == _events(reference)
    assert report.to_dict() == walker_report.to_dict()
    assert report.outcome.stdout == walker_report.outcome.stdout
    # Neither faster engine was even built for this unit.
    assert compiled._lowered == {}
    assert compiled._bytecode == {}


def test_observed_run_records_both_gated_checks_on_every_engine():
    for engine in ENGINES:
        probe = UBRecorder()
        report, _ = _probed(engine, TWO_GATED_CHECKS, probe)
        assert report.outcome.error.kind.name == "DIVISION_BY_ZERO"
        seen = [e["kind"] for e in probe.events if e["event"] == "ub"]
        assert seen == ["DIVISION_BY_ZERO", "SIGNED_OVERFLOW"]


def test_zero_subscription_probe_still_runs_the_vm(monkeypatch):
    native_calls = []
    run_native = interpreter_module.run_native

    def counting(interp, program, fn):
        native_calls.append(fn)
        return run_native(interp, program, fn)

    monkeypatch.setattr(interpreter_module, "run_native", counting)
    probe = Finisher()
    report, compiled = _probed("compiled", LOOP_WITH_CALLS, probe)
    assert native_calls, "the bytecode VM must have run the functions"
    assert CheckerOptions() in compiled._bytecode
    assert probe.events == [] and probe.end == "defined"
    assert report.outcome.exit_code == 18 & 7


def test_compiled_run_falls_back_to_the_walker_without_closures(monkeypatch):
    walked, native = [], []
    exec_compound = Interpreter.exec_compound
    run_native = interpreter_module.run_native

    def walking(self, block, *, new_scope=True):
        if not new_scope:  # a function body
            walked.append(self.current_function)
        return exec_compound(self, block, new_scope=new_scope)

    def counting(interp, program, fn):
        native.append(fn.name)
        return run_native(interp, program, fn)

    monkeypatch.setattr(Interpreter, "exec_compound", walking)
    monkeypatch.setattr(interpreter_module, "run_native", counting)
    tool = KccTool(CheckerOptions())
    compiled = tool.compile_unit(WITH_FALLBACK)
    assert tool.run_unit(compiled).outcome.exit_code == 0
    assert set(compiled.compiled_for(tool.options).fallbacks) == {"g"}
    assert walked == ["g"]
    assert native == ["main", "f"]
    assert compiled._lowered == {}

    # engine="lowered" still builds (and runs) the closure IR.
    lowered = KccTool(CheckerOptions(engine="lowered"))
    assert lowered.run_unit(compiled).outcome.exit_code == 0
    assert list(compiled._lowered) == [lowered.options]


def test_compiled_runs_never_load_the_closure_module():
    """Only ``CompiledUnit.lowered_for`` imports ``repro.core.lowering``;
    the engines and the symbolic evaluator share their helpers through
    ``repro.core.plans``."""
    script = textwrap.dedent(f"""
        import sys
        from repro import Checker
        report = Checker().check({WITH_FALLBACK!r})
        assert report.outcome.exit_code == 0, report.render()
        import repro.core.bytecode, repro.core.vm, repro.symbolic
        print("repro.core.lowering" in sys.modules)
    """)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: Today's counts of a default (pruned) search with ``stop_at_first=False``:
#: (verdict, explored, merged_paths, pruned_orders, runs_from_main).
SEARCH_COUNTS = {
    ("fork", 1): {
        "set_denom": ("undefined", 2, 0, 4, 1),
        "calls": ("defined", 4, 33, 48, 1),
    },
    ("fork", 3): {
        "set_denom": ("undefined", 4, 0, 3, 4),
        "calls": ("defined", 8, 49, 65, 13),
    },
    ("replay", 1): {
        "set_denom": ("undefined", 2, 0, 4, 2),
        "calls": ("defined", 4, 33, 48, 37),
    },
    ("replay", 3): {
        "set_denom": ("undefined", 4, 0, 3, 4),
        "calls": ("defined", 8, 49, 65, 57),
    },
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("checkpoint, jobs", sorted(SEARCH_COUNTS))
def test_search_runs_on_the_walker_under_every_engine(engine, checkpoint, jobs):
    if checkpoint == "fork" and not checkpoint_supported():
        pytest.skip("fork checkpoints unsupported on this platform")
    options = CheckerOptions(engine=engine)
    checker = Checker(options)
    for name, source in (("set_denom", SET_DENOM), ("calls", CALLS)):
        compiled = KccTool(options).compile_unit(source)
        report = checker.search(compiled, checkpoint=checkpoint, jobs=jobs,
                                stop_at_first=False)
        summary = report.search
        assert (report.outcome.kind.value, summary.explored,
                summary.merged_paths, summary.pruned_orders,
                summary.runs_from_main) == SEARCH_COUNTS[checkpoint, jobs][name]
        # Shards in pool workers are held to the same rule by Interpreter,
        # which refuses closures or bytecode with a scripted strategy.
        assert compiled._lowered == {}
        assert compiled._bytecode == {}


@pytest.mark.parametrize("engine", ENGINES)
def test_campaign_search_units_run_on_the_walker(engine):
    from repro.api.session import compile_shared

    options = CheckerOptions(engine=engine)
    # A source no other test compiles, so the shared cache entry is fresh.
    source = f"/* routing {engine} */\n{SET_DENOM}"
    root, siblings = search_root_expansion(source, options=options)
    assert root == (0, 0, 0) and siblings == [(1,), (0, 1), (0, 0, 1)]
    header = (source, "<input>", options, None, "",
              SearchOptions(checkpoint="replay", stop_at_first=False))
    shard = run_search_shard(header, siblings)
    assert shard.any_undefined
    compiled = compile_shared(source, options=options)
    assert compiled._lowered == {}
    assert compiled._bytecode == {}


def test_interpreter_refuses_closures_or_bytecode_with_a_foreign_order():
    tool = KccTool(CheckerOptions())
    compiled = tool.compile_unit(SET_DENOM)
    lowered = compiled.lowered_for(tool.options)
    bytecode = compiled.compiled_for(tool.options)
    for strategy in (ScriptedStrategy(), RightToLeftStrategy()):
        with pytest.raises(ValueError, match="walker"):
            Interpreter(compiled.unit, tool.options, strategy=strategy,
                        lowered=lowered)
        with pytest.raises(ValueError, match="walker"):
            Interpreter(compiled.unit, tool.options, strategy=strategy,
                        compiled=bytecode)
        # The walker takes any order.
        Interpreter(compiled.unit, tool.options, strategy=strategy)
