"""The instrumentation surface of the public API: Checker.run(probes=...),
check_many(probe_factory=...), and writing custom probes."""

from repro.api import Checker
from repro.core.config import CheckerOptions
from repro.errors import OutcomeKind
from repro.events import (
    BranchEvent,
    Probe,
    TraceRecorderProbe,
    UBEvent,
)

LOOP = """
int main(void){
    int i, s = 0;
    for (i = 0; i < 10; i++) { if (i % 2) s += i; }
    return s;
}
"""

DIVZERO = "int main(void){ int d = 0; return 5 / d; }"


class BranchCounter(Probe):
    """The docs' ~30-line custom probe, in test form."""

    name = "branch-counter"

    def __init__(self):
        self.taken = 0
        self.not_taken = 0

    def on_event(self, event):
        if isinstance(event, BranchEvent):
            if event.taken:
                self.taken += 1
            else:
                self.not_taken += 1


class TestCheckerRunProbes:
    def test_one_run_many_probes(self):
        checker = Checker()
        compiled = checker.compile(LOOP)
        counter = BranchCounter()
        recorder = TraceRecorderProbe()
        before = checker.stats.snapshot()["run_count"]
        report = checker.run(compiled, probes=[counter, recorder])
        assert checker.stats.snapshot()["run_count"] == before + 1
        assert report.outcome.kind is OutcomeKind.DEFINED
        # 10 loop-condition tests + 1 exit + 10 if decisions
        assert counter.taken + counter.not_taken == 21
        assert counter.taken == 15
        assert recorder.trace.count("branch") == 21

    def test_probes_do_not_change_the_verdict(self):
        checker = Checker()
        bare = checker.run(checker.compile(DIVZERO))
        probed = checker.run(checker.compile(DIVZERO), probes=[BranchCounter()])
        assert bare.outcome.describe() == probed.outcome.describe()

    def test_observed_mode_continues_past_gated_checks(self):
        class UBCollector(Probe):
            continue_past_ub = True

            def __init__(self):
                self.seen = []

            def on_event(self, event):
                if isinstance(event, UBEvent):
                    self.seen.append(event.ub_kind.name)

        source = """
        int main(void){
            int d = 0;
            int a = 5 / d;            /* gated: arithmetic */
            int x = 2147483647;
            int b = (x + 1) < x;      /* gated: arithmetic */
            return a + b;
        }
        """
        checker = Checker(run_static_checks=False)
        collector = UBCollector()
        report = checker.run(checker.compile(source), probes=[collector])
        # The engine still reports the *first* check its options would stop
        # at, but the observed run reached both sites.
        assert report.outcome.kind is OutcomeKind.UNDEFINED
        assert report.outcome.error.kind.name == "DIVISION_BY_ZERO"
        assert collector.seen == ["DIVISION_BY_ZERO", "SIGNED_OVERFLOW"]

    def test_probed_runs_go_to_the_walker(self):
        default = Checker()
        walker = Checker(CheckerOptions(enable_lowering=False))
        a, b = TraceRecorderProbe(), TraceRecorderProbe()
        compiled = default.compile(LOOP)
        default.run(compiled, probes=[a])
        walker.run(walker.compile(LOOP), probes=[b])
        # The default (compiled-engine) checker ran the probed check on the
        # walker: the same events, and neither faster engine was built.
        assert a.trace.events == b.trace.events
        assert compiled._lowered == {} and compiled._bytecode == {}


class TestBatchProbes:
    def test_check_many_probe_factory(self):
        checker = Checker()
        recorders = {}

        def factory(filename):
            recorders[filename] = TraceRecorderProbe(filename=filename)
            return [recorders[filename]]

        reports = checker.check_many(
            [("a.c", LOOP), ("b.c", DIVZERO)], probe_factory=factory)
        assert [r.outcome.kind for r in reports] == [
            OutcomeKind.DEFINED, OutcomeKind.UNDEFINED]
        assert set(recorders) == {"a.c", "b.c"}
        assert recorders["a.c"].trace.end["status"] == "defined"
        assert recorders["b.c"].trace.end["status"] == "undefined"

    def test_probes_are_finished_even_without_a_dynamic_stage(self):
        # Parse failures and static errors return before the run: no events,
        # but finish() still tells the probe how the analysis ended.
        checker = Checker()
        static_probe = TraceRecorderProbe()
        report = checker.run(checker.compile("int main(void){ return 1/0; }"),
                             probes=[static_probe])
        assert report.outcome.kind is OutcomeKind.STATIC_ERROR
        assert static_probe.trace.end["status"] == "undefined"
        assert len(static_probe.trace) == 0
        parse_probe = TraceRecorderProbe()
        report = checker.run(checker.compile("int main(void){ return ;"),
                             probes=[parse_probe])
        assert report.outcome.kind is OutcomeKind.INCONCLUSIVE
        assert parse_probe.trace.end["status"] == "inconclusive"

    def test_probe_factory_forces_serial_but_keeps_order(self):
        checker = Checker()
        seen = []

        def factory(filename):
            seen.append(filename)
            return [TraceRecorderProbe(filename=filename)]

        reports = checker.check_many(
            [("x.c", LOOP), ("y.c", LOOP), ("z.c", DIVZERO)],
            jobs=4, probe_factory=factory)
        assert seen == ["x.c", "y.c", "z.c"]
        assert len(reports) == 3
