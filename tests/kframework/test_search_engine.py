"""The evaluation-order search engine: checkpoints, dedup, budgets, shards.

These tests drive the engine through the public ``Checker.search`` API so
they cover the whole stack: the walker every order runs on, the engine
strategy, footprint pruning, state dedup, fork checkpoints with the replay
fallback, honest budget semantics, and parallel frontier sharding.
"""

import errno
import os
import pathlib
import signal

import pytest

from repro import Checker, CheckerOptions, OutcomeKind, SearchBudget, UBKind
from repro.kframework import engine
from repro.kframework.engine import checkpoint_supported
from repro.kframework.search import (
    STOP_EXHAUSTED,
    STOP_FIRST_UNDEFINED,
    STOP_MAX_PATHS,
    STOP_MAX_STATES,
    STOP_WALL_CLOCK,
)
from repro.suites.ubsuite import generate_undefinedness_suite

SET_DENOM = """
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
"""

ORDER_DEPENDENT_CONFLICT = """
int main(void){ int i = 1; return i + (i = 2); }
"""

#: Eight sequential two-way decisions over disjoint objects: 256 orders,
#: every sibling provably equivalent to the default order.
COMMUTING_CHAIN = """
int u1, u2, u3, u4, u5, u6, u7, u8;
int u9, u10, u11, u12, u13, u14, u15, u16;
int main(void) {
    int r = 0;
    r += (u1++) + (u2++);
    r += (u3++) + (u4++);
    r += (u5++) + (u6++);
    r += (u7++) + (u8++);
    r += (u9++) + (u10++);
    r += (u11++) + (u12++);
    r += (u13++) + (u14++);
    r += (u15++) + (u16++);
    return r;
}
"""

#: Same shape, but sibling orders converge only *after* each statement:
#: with pruning disabled, deduplication has to do the merging.
CONVERGING_CHAIN = """
int v1, v2, v3, v4, v5, v6, v7, v8;
int main(void) {
    int r = 0;
    r += (v1++) + (v2++);
    r += (v3++) + (v4++);
    r += (v5++) + (v6++);
    r += (v7++) + (v8++);
    return r;
}
"""


def verdict(report):
    return (report.outcome.kind, tuple(report.outcome.ub_kinds))


class TestEngineVerdicts:
    @pytest.mark.parametrize("checkpoint", ["auto", "replay"])
    def test_order_dependent_division_found(self, checkpoint):
        report = Checker().search(SET_DENOM, checkpoint=checkpoint)
        assert report.outcome.kind is OutcomeKind.UNDEFINED
        assert UBKind.DIVISION_BY_ZERO in report.outcome.ub_kinds
        assert report.search is not None and report.search.explored >= 2

    @pytest.mark.parametrize("checkpoint", ["auto", "replay"])
    def test_unsequenced_conflict_found(self, checkpoint):
        report = Checker().search(ORDER_DEPENDENT_CONFLICT, checkpoint=checkpoint)
        assert UBKind.UNSEQUENCED_SIDE_EFFECT in report.outcome.ub_kinds

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_frontiers_agree_on_verdicts(self, strategy):
        checker = Checker()
        for source in (SET_DENOM, ORDER_DEPENDENT_CONFLICT, COMMUTING_CHAIN):
            report = checker.search(source, strategy=strategy, seed=7)
            baseline = checker.search(source)
            assert verdict(report) == verdict(baseline), (strategy, source)

    def test_defined_program_exhausts_cleanly(self):
        report = Checker().search(COMMUTING_CHAIN)
        assert report.outcome.kind is OutcomeKind.DEFINED
        summary = report.search
        assert summary.exhausted and summary.stop_reason == STOP_EXHAUSTED
        assert summary.coverage() == 1.0

    def test_walker_engine_agrees(self):
        # Search runs on the walker whatever the engine setting: the default
        # checker reaches the walker checker's verdicts and builds neither
        # the closure IR nor the bytecode for the unit it searches.
        default = Checker()
        walker = Checker(CheckerOptions(enable_lowering=False))
        for source in (SET_DENOM, ORDER_DEPENDENT_CONFLICT, CONVERGING_CHAIN):
            compiled = default.compile(source)
            assert verdict(walker.search(source)) == verdict(default.search(compiled))
            assert compiled._lowered == {} and compiled._bytecode == {}


class TestCheckpointing:
    @pytest.mark.skipif(not checkpoint_supported(), reason="no os.fork")
    def test_siblings_resume_instead_of_rerunning(self):
        report = Checker().search(COMMUTING_CHAIN, prune_commuting=False)
        summary = report.search
        # One run from main; every other explored order resumed from a
        # forked checkpoint at its divergence point.
        assert summary.full_executions == 1
        assert summary.partial_replays == 0
        assert summary.resumed_executions == summary.explored - 1
        assert summary.explored + summary.merged_paths > 8

    @pytest.mark.skipif(not checkpoint_supported(), reason="no os.fork")
    def test_fork_and_replay_verdicts_match(self):
        checker = Checker()
        for source in (SET_DENOM, CONVERGING_CHAIN, ORDER_DEPENDENT_CONFLICT):
            forked = checker.search(source, checkpoint="fork")
            replayed = checker.search(source, checkpoint="replay")
            assert verdict(forked) == verdict(replayed)

    @pytest.mark.skipif(not checkpoint_supported(), reason="no os.fork")
    def test_fork_mode_rejects_non_dfs_frontiers(self):
        # Checkpoints resume LIFO (depth-first by construction); silently
        # ignoring a requested BFS/random frontier would be dishonest.
        with pytest.raises(ValueError):
            Checker().search(SET_DENOM, checkpoint="fork", strategy="bfs")
        report = Checker().search(SET_DENOM, checkpoint="replay", strategy="bfs")
        assert report.outcome.kind is OutcomeKind.UNDEFINED

    def test_fork_mode_rejected_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            "repro.kframework.engine.checkpoint_supported", lambda: False
        )
        with pytest.raises(ValueError):
            Checker().search(SET_DENOM, checkpoint="fork")

    def test_auto_falls_back_to_replay_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            "repro.kframework.engine.checkpoint_supported", lambda: False
        )
        report = Checker().search(SET_DENOM)
        assert report.outcome.kind is OutcomeKind.UNDEFINED
        assert report.search.resumed_executions == 0

    @pytest.mark.skipif(not checkpoint_supported(), reason="no os.fork")
    @pytest.mark.parametrize("every", [1, 2])
    def test_fork_at_its_process_limit_falls_back_to_replay(self, monkeypatch, every):
        # A host at its process limit: every fork, or every second one,
        # fails with EAGAIN.  Each failed alternative is replayed instead,
        # so the verdict and the path counts are replay's, and the pipe
        # ends made for the failed fork are closed, not leaked.
        real_fork = os.fork
        calls = 0

        def fork():
            nonlocal calls
            calls += 1
            if calls % every == 0:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        def expire(signum, frame):
            raise TimeoutError("search with a failing fork did not finish")

        checker = Checker()
        fds = set(os.listdir("/proc/self/fd"))
        children = _children()
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            for source in (SET_DENOM, CONVERGING_CHAIN, ORDER_DEPENDENT_CONFLICT):
                replayed = checker.search(source, checkpoint="replay")
                monkeypatch.setattr(engine.os, "fork", fork)
                forked = checker.search(source, checkpoint="fork")
                monkeypatch.setattr(engine.os, "fork", real_fork)
                assert verdict(forked) == verdict(replayed), source
                assert path_counts(forked) == path_counts(replayed), source
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert calls >= 6  # every search reached the checkpoint code
        assert set(os.listdir("/proc/self/fd")) <= fds
        assert _children() <= children


def path_counts(report):
    summary = report.search.to_dict()
    return tuple(summary[key] for key in PATH_COUNTS)


#: What a search explored, as opposed to how it ran the orders (forked
#: checkpoints resume where replay runs from main).
PATH_COUNTS = (
    "explored",
    "undefined_paths",
    "merged_paths",
    "pruned_orders",
    "skipped_alternatives",
    "stop_reason",
)


def _children() -> set:
    """The pids of this process's live children."""
    children = set()
    for task in pathlib.Path("/proc/self/task").iterdir():
        children.update((task / "children").read_text().split())
    return children


class TestDedupAndPruning:
    def test_commuting_orders_are_pruned(self):
        report = Checker().search(COMMUTING_CHAIN, checkpoint="replay")
        summary = report.search
        assert summary.pruned_orders >= 8
        assert summary.explored == 1  # every sibling proved equivalent
        assert summary.exhausted

    def test_dedup_merges_converging_interleavings(self):
        checker = Checker()
        deduped = checker.search(
            CONVERGING_CHAIN, checkpoint="replay", prune_commuting=False
        ).search
        naive = checker.search(
            CONVERGING_CHAIN,
            checkpoint="replay",
            prune_commuting=False,
            dedup_states=False,
        ).search
        assert deduped.merged_paths > 0
        assert deduped.runs_from_main < naive.runs_from_main
        assert naive.explored == 16  # 2^4 distinct scripts, none merged

    def test_conflicting_footprints_are_not_pruned(self):
        report = Checker().search(ORDER_DEPENDENT_CONFLICT, checkpoint="replay")
        assert report.outcome.kind is OutcomeKind.UNDEFINED


class TestBudgets:
    def test_max_paths_reports_honest_stop(self):
        report = Checker().search(
            CONVERGING_CHAIN,
            budget=SearchBudget(max_paths=3),
            prune_commuting=False,
            dedup_states=False,
            checkpoint="replay",
        )
        summary = report.search
        assert summary.explored == 3
        assert summary.stop_reason == STOP_MAX_PATHS
        assert not summary.exhausted
        assert summary.skipped_alternatives > 0
        assert summary.coverage() < 1.0

    def test_max_paths_never_blocks_an_exhaustive_search(self):
        report = Checker().search(
            CONVERGING_CHAIN,
            budget=SearchBudget(max_paths=64),
            prune_commuting=False,
            dedup_states=False,
            checkpoint="replay",
        )
        assert report.search.explored == 16
        assert report.search.exhausted

    def test_stop_at_first_on_the_last_order_is_still_exhaustive(self):
        report = Checker().search(ORDER_DEPENDENT_CONFLICT, checkpoint="replay")
        summary = report.search
        assert summary.any_undefined
        assert summary.stop_reason == STOP_EXHAUSTED and summary.exhausted
        assert summary.skipped_alternatives == 0

    def test_stop_at_first_with_pending_work_is_not_exhaustive(self):
        report = Checker().search(
            ORDER_DEPENDENT_CONFLICT, checkpoint="replay", prune_commuting=False
        )
        summary = report.search
        assert summary.any_undefined
        assert summary.stop_reason == STOP_FIRST_UNDEFINED
        assert not summary.exhausted
        assert summary.skipped_alternatives == 1

    def test_max_states_bounds_the_dedup_table(self):
        report = Checker().search(
            CONVERGING_CHAIN,
            budget=SearchBudget(max_states=2),
            prune_commuting=False,
            checkpoint="replay",
        )
        summary = report.search
        assert summary.stop_reason == STOP_MAX_STATES
        assert summary.states_seen <= 2

    @pytest.mark.skipif(not checkpoint_supported(), reason="no os.fork")
    def test_skip_accounting_matches_across_checkpoint_modes(self):
        # A mid-run stop must not double-count walked-past siblings in
        # replay mode (once at the decision, again in the drained frontier).
        budget = SearchBudget(max_states=1)
        forked = Checker().search(
            CONVERGING_CHAIN, budget=budget, checkpoint="fork"
        ).search
        replayed = Checker().search(
            CONVERGING_CHAIN, budget=budget, checkpoint="replay"
        ).search
        assert forked.stop_reason == STOP_MAX_STATES
        assert replayed.stop_reason == STOP_MAX_STATES
        assert forked.skipped_alternatives == replayed.skipped_alternatives
        assert forked.coverage() == replayed.coverage()

    def test_parallel_search_honors_max_paths(self):
        report = Checker().search(
            CONVERGING_CHAIN,
            budget=SearchBudget(max_paths=4),
            prune_commuting=False,
            dedup_states=False,
            stop_at_first=False,
            jobs=4,
        )
        assert report.search.explored <= 4
        assert report.search.stop_reason == STOP_MAX_PATHS

    def test_wall_clock_budget_stops_the_search(self):
        report = Checker().search(
            CONVERGING_CHAIN,
            budget=SearchBudget(max_seconds=0.0),
            checkpoint="replay",
        )
        assert report.search.stop_reason == STOP_WALL_CLOCK
        assert not report.search.exhausted

    def test_budget_parse(self):
        budget = SearchBudget.parse("paths=256,states=10000,seconds=5")
        assert budget == SearchBudget(max_paths=256, max_states=10000, max_seconds=5.0)
        assert SearchBudget.parse("paths=none").max_paths is None
        with pytest.raises(ValueError):
            SearchBudget.parse("fuel=9")


class TestParallelSharding:
    def test_parallel_matches_serial_on_search_cases(self):
        suite = generate_undefinedness_suite()
        cases = suite.search_cases()
        assert cases, "the ubsuite lost its sequencing group"
        checker = Checker()
        for case in cases:
            serial = checker.search(case.source, filename=case.name)
            parallel = checker.search(case.source, filename=case.name, jobs=4)
            assert verdict(parallel) == verdict(serial), case.name
            assert parallel.search.any_undefined == serial.search.any_undefined

    def test_parallel_path_cap_never_drops_an_undefined_path(self):
        # An undefined order discovered by a late shard must survive the
        # merged max_paths truncation: the cap bounds how many path
        # outcomes are retained, never the verdict (§2.5.2 — undefined if
        # *any* order is undefined).
        source = """
int d = 0;
int setDenom(int v){ d = v; return v; }
int main(void){
    int x = (setDenom(0) + setDenom(2)) + (1/d == 0);
    return x != 0;
}
"""
        report = Checker().search(
            source,
            budget=SearchBudget(max_paths=4),
            prune_commuting=False,
            dedup_states=False,
            stop_at_first=False,
            jobs=4,
        )
        assert report.outcome.kind is OutcomeKind.UNDEFINED
        assert report.search.any_undefined
        assert report.search.explored <= 4

    def test_fork_mode_defined_report_keeps_an_execution_result(self):
        # Sibling orders run in forked children, whose ExecutionResults
        # never reach the parent; the report must still carry the result
        # of a defined order executed in this process (the root qualifies).
        if not checkpoint_supported():
            pytest.skip("fork checkpoints unsupported on this platform")
        source = """
int a = 0;
int f(int v){ a += v; return v; }
int main(void){ int x = f(1) + f(2); return x != 3; }
"""
        report = Checker().search(source, checkpoint="fork")
        assert report.outcome.kind is OutcomeKind.DEFINED
        assert report.search.resumed_executions > 0
        assert report.result is not None

    def test_parallel_covers_the_same_tree(self):
        checker = Checker()
        serial = checker.search(
            CONVERGING_CHAIN, prune_commuting=False, dedup_states=False
        ).search
        parallel = checker.search(
            CONVERGING_CHAIN, prune_commuting=False, dedup_states=False, jobs=3
        ).search
        assert {p.script for p in parallel.paths} == {p.script for p in serial.paths}

