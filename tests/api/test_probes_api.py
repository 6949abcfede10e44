"""The instrumentation surface of the public API: Checker.run(probes=...),
check_many(probe_factory=...), and writing custom probes."""

from repro.analyzers.base import UBVerdictProbe
from repro.analyzers.valgrind_like import VALGRIND_OPTIONS, ValgrindProbe
from repro.api import Checker
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.kcc import KccTool
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


#: Two gated checks with output before, between and after them.
TWO_CHECKS = """
#include <stdio.h>
int main(void){
    int d = 0;
    printf("before\\n");
    int a = 5 / d;            /* gated: arithmetic */
    printf("between\\n");
    int x = 2147483647;
    int b = (x + 1) < x;      /* gated: arithmetic */
    printf("after\\n");
    return a + b;
}
"""


class UBCollector(Probe):
    """Records every ``ub`` event and how the run ended; never settles."""

    continue_past_ub = True

    def __init__(self):
        self.seen = []
        self.end = None

    def on_event(self, event):
        if isinstance(event, UBEvent):
            self.seen.append((event.ub_kind.name, event.family))

    def finish(self, end):
        self.end = end


class SettlesOnFirstUB(UBCollector):
    @property
    def settled(self):
        return bool(self.seen)


def _observe(source, probes, options=DEFAULT_OPTIONS):
    tool = KccTool(options.without(engine="walker"))
    compiled = tool.compile_unit(source)
    return tool.run_unit(compiled), tool.run_unit(compiled, probes=probes)


class TestSettledProbes:
    """An observed run stops at the check after which every probe's
    verdict is final, exactly where a strict run stops."""

    def test_probes_are_unsettled_by_default_and_a_verdict_probe_settles_on_its_match(self):
        assert Probe.settled is False and TraceRecorderProbe().settled is False
        probe = UBVerdictProbe("kcc", DEFAULT_OPTIONS)
        assert not probe.settled
        _observe(TWO_CHECKS, [probe])
        assert probe.matched[0].name == "DIVISION_BY_ZERO" and probe.settled

    def test_the_run_stops_once_every_probe_is_settled(self):
        strict, observed = _observe(TWO_CHECKS, [UBVerdictProbe("kcc", DEFAULT_OPTIONS)])
        assert observed.to_dict() == strict.to_dict()
        assert observed.outcome.stdout == "before\n"

    def test_settled_probes_get_no_second_event_and_an_undefined_end(self):
        probe = SettlesOnFirstUB()
        _strict, observed = _observe(TWO_CHECKS, [probe])
        assert probe.seen == [("DIVISION_BY_ZERO", "arithmetic")]
        assert probe.end.status == "undefined"
        assert probe.end.error.kind.name == "DIVISION_BY_ZERO"
        assert observed.outcome.error.kind.name == "DIVISION_BY_ZERO"

    def test_one_unsettled_probe_keeps_the_run_going(self):
        verdict, collector = UBVerdictProbe("kcc", DEFAULT_OPTIONS), UBCollector()
        strict, observed = _observe(TWO_CHECKS, [verdict, collector])
        assert collector.seen == [("DIVISION_BY_ZERO", "arithmetic"),
                                  ("SIGNED_OVERFLOW", "arithmetic")]
        assert collector.end.status == "defined"
        assert verdict.matched[0].name == "DIVISION_BY_ZERO"
        assert observed.outcome.error.kind.name == "DIVISION_BY_ZERO"
        assert observed.outcome.stdout == "before\nbetween\nafter\n"
        assert strict.outcome.stdout == "before\n"

    def test_a_valgrind_probe_that_ignores_the_first_check_keeps_the_run_going(self):
        source = """
        #include <stdio.h>
        #include <stdlib.h>
        int main(void){
            int x = 2147483647;
            x = x + 1;                 /* kcc reports it; valgrind does not */
            printf("between\\n");
            int *p = malloc(sizeof(int));
            p[1] = 0;                  /* valgrind reports it */
            printf("after\\n");
            return 0;
        }
        """
        kcc = UBVerdictProbe("kcc", DEFAULT_OPTIONS)
        valgrind = ValgrindProbe("valgrind", VALGRIND_OPTIONS)
        _strict, observed = _observe(source, [kcc, valgrind])
        assert kcc.matched[0].name == "SIGNED_OVERFLOW"
        assert valgrind.matched[0].name == "BUFFER_OVERFLOW"
        assert valgrind.end.status == "undefined"
        assert observed.outcome.error.kind.name == "SIGNED_OVERFLOW"
        assert observed.outcome.stdout == "between\n"

    def test_the_outcome_is_the_first_recorded_check_not_a_later_terminal_one(self):
        # A probe that never settles lets the run reach the ungated bad
        # free; the outcome still reports the check a strict run stops at,
        # while the probes see the terminal error.
        source = """
        #include <stdlib.h>
        int main(void){
            int x = 2147483647;
            x = x + 1;
            int y = 0;
            free(&y);
            return 0;
        }
        """
        collector = UBCollector()
        strict, observed = _observe(source, [collector])
        assert strict.outcome.error.kind.name == "SIGNED_OVERFLOW"
        assert observed.outcome.error.kind.name == "SIGNED_OVERFLOW"
        assert observed.to_dict() == strict.to_dict()
        assert collector.seen == [("SIGNED_OVERFLOW", "arithmetic"), ("BAD_FREE", None)]
        assert collector.end.status == "undefined"
        assert collector.end.error.kind.name == "BAD_FREE"


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
