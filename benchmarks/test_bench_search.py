"""E5 — evaluation-order search (paper Sections 2.5.2 and 4.5).

Whether a program is undefined can depend on the (unspecified) evaluation
order; the paper's ``setDenom`` example is compiled without error by GCC and
to a division by zero by CompCert, and both are allowed.  A checker therefore
has to search evaluation orders.

Two tables come out of this module:

* ``evaluation_order_search.txt`` — the qualitative table: undefinedness
  reachable only under some orders is found, defined programs stay defined.
* ``search_speed.{txt,json}`` — the engine-vs-seed comparison on
  deep-interleaving programs: the seed-style DFS re-executes the whole
  program from ``main`` once per explored order, while the engine resumes
  sibling orders from forked checkpoints, merges converging interleavings,
  and prunes commuting groups.  The gate below requires the engine to reach
  the identical verdict set with at least 5x fewer runs from ``main`` on a
  program with >= 200 explorable orders; ``benchmarks/compare_results.py``
  holds future changes to these ratios (the CI regression gate).
"""

import json
import time

from repro import (
    Checker,
    CheckerOptions,
    OutcomeKind,
    SearchBudget,
    UBKind,
    check_program,
)
from repro.kframework.engine import checkpoint_supported
from repro.reporting import render_table

from benchmarks.conftest import publish, record

SET_DENOM = """
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
"""

ORDER_DEPENDENT_CONFLICT = """
int main(void){ int i = 1; return i + (i = 2); }
"""

ORDER_INDEPENDENT_UB = """
int main(void){ int x = 0; return (x = 1) + (x = 2); }
"""

DEFINED_WITH_MANY_SUBEXPRESSIONS = """
static int square(int x) { return x * x; }
int main(void) {
    int a = 1, b = 2, c = 3, d = 4;
    return square(a) + square(b) + square(c) + square(d) + (a + b) * (c + d);
}
"""

PROGRAMS = [
    ("setDenom (paper §2.5.2)", SET_DENOM, True),
    ("i + (i = 2)", ORDER_DEPENDENT_CONFLICT, True),
    ("(x=1) + (x=2)", ORDER_INDEPENDENT_UB, True),
    ("defined program", DEFINED_WITH_MANY_SUBEXPRESSIONS, False),
]


def _chain(variables: list[str]) -> str:
    decls = "int " + ", ".join(variables) + ";"
    body = "\n".join(f"    r += ({variables[i]}++) + ({variables[i + 1]}++);"
                     for i in range(0, len(variables), 2))
    return f"{decls}\nint main(void) {{\n    int r = 0;\n{body}\n    return r;\n}}\n"


#: Eight sequential two-way interleaving decisions: 2^8 = 256 explorable
#: orders, all converging (disjoint objects).  This is the acceptance
#: program: >= 200 orders, identical verdict set, >= 5x fewer full runs.
DEEP_COMMUTING = _chain([f"u{i}" for i in range(16)])

#: Six decisions whose siblings only converge *after* each statement; run
#: with the commutativity filter off, this isolates what dedup alone saves.
DEEP_CONVERGING = _chain([f"v{i}" for i in range(12)])

#: Seven commuting statements hiding an order-dependent division by zero in
#: the eighth; the final statement contributes further decisions of its own
#: (the call-argument group and the assignment inside setDenom), for about
#: a thousand explorable orders in total.
DEEP_HIDDEN_UB = """
int w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13;
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) {
    int r = 0;
    r += (w0++) + (w1++);
    r += (w2++) + (w3++);
    r += (w4++) + (w5++);
    r += (w6++) + (w7++);
    r += (w8++) + (w9++);
    r += (w10++) + (w11++);
    r += (w12++) + (w13++);
    r += (10/d) + setDenom(0);
    return r;
}
"""

BIG_BUDGET = SearchBudget(max_paths=4096)


def _verdict_set(report) -> set:
    out = set()
    for path in report.search.paths:
        outcome = path.payload
        out.add((path.undefined,
                 tuple(outcome.ub_kinds) if outcome.flagged else ()))
    return out


def _measure(checker: Checker, source: str, **kwargs):
    start = time.perf_counter()
    report = checker.search(source, budget=BIG_BUDGET, stop_at_first=False,
                            **kwargs)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _engine_columns(source: str, name: str) -> dict:
    checker = Checker()
    legacy_report, legacy_time = _measure(
        checker, source, checkpoint="replay", dedup_states=False,
        prune_commuting=False)
    legacy = legacy_report.search
    engine_report, engine_time = _measure(checker, source)
    engine = engine_report.search
    assert legacy.exhausted and engine.exhausted, name
    # Identical verdict *set*: dedup/pruning may record fewer paths, but
    # every verdict reachable under some order must survive.
    assert _verdict_set(engine_report) == _verdict_set(legacy_report), name
    assert engine.any_undefined == legacy.any_undefined, name
    orders_covered = engine.explored + engine.merged_paths + engine.pruned_orders
    return {
        "orders": legacy.explored,
        "legacy_runs_from_main": legacy.runs_from_main,
        "legacy_seconds": round(legacy_time, 4),
        "legacy_paths_per_sec": round(legacy.explored / max(legacy_time, 1e-9), 1),
        "engine_runs_from_main": engine.runs_from_main,
        "engine_resumed": engine.resumed_executions,
        "engine_explored": engine.explored,
        "engine_merged": engine.merged_paths,
        "engine_pruned": engine.pruned_orders,
        "engine_seconds": round(engine_time, 4),
        "engine_orders_per_sec": round(orders_covered / max(engine_time, 1e-9), 1),
        "engine_mode": "checkpoint-fork" if checkpoint_supported() else "replay",
        "reduction_factor": round(
            legacy.runs_from_main / max(engine.runs_from_main, 1), 2),
        "wall_clock_speedup": round(legacy_time / max(engine_time, 1e-9), 2),
    }


def test_search_finds_order_dependent_undefinedness(capsys, benchmark):
    def survey():
        collected = []
        for label, source, expect_undefined in PROGRAMS:
            single = check_program(source)
            searched = check_program(source, search_evaluation_order=True)
            explored = searched.search.explored if searched.search else 1
            collected.append((label, single, searched, explored, expect_undefined))
        return collected

    results = benchmark.pedantic(survey, rounds=1, iterations=1)
    rows = []
    for label, single, searched, explored, expect_undefined in results:
        rows.append([label,
                     "undefined" if single.outcome.flagged else "defined",
                     "undefined" if searched.outcome.flagged else "defined",
                     explored,
                     searched.search.stop_reason,
                     f"{searched.search.coverage():.0%}"])
        assert searched.outcome.flagged == expect_undefined, label
    table = render_table(
        ["program", "single order", "order search", "orders explored",
         "stop reason", "coverage"], rows,
        title="Evaluation-order search (undefinedness reachable on some orders)")
    publish("evaluation_order_search.txt", table, capsys)

    # Single-order execution misses the order-dependent cases...
    assert not check_program(SET_DENOM).outcome.flagged
    assert not check_program(ORDER_DEPENDENT_CONFLICT).outcome.flagged
    # ...and the search attributes the right kind of undefinedness to each.
    assert UBKind.DIVISION_BY_ZERO in check_program(
        SET_DENOM, search_evaluation_order=True).outcome.ub_kinds
    assert UBKind.UNSEQUENCED_SIDE_EFFECT in check_program(
        ORDER_DEPENDENT_CONFLICT, search_evaluation_order=True).outcome.ub_kinds
    # Defined programs stay defined even after exploring every order.
    assert check_program(DEFINED_WITH_MANY_SUBEXPRESSIONS,
                         search_evaluation_order=True).outcome.kind is OutcomeKind.DEFINED


def test_search_engine_speed(capsys, benchmark):
    def survey():
        return {
            "deep-commuting-256": _engine_columns(DEEP_COMMUTING,
                                                  "deep-commuting-256"),
            "deep-converging-64": _engine_columns(DEEP_CONVERGING,
                                                  "deep-converging-64"),
            "deep-hidden-ub": _engine_columns(DEEP_HIDDEN_UB, "deep-hidden-ub"),
        }

    results = benchmark.pedantic(survey, rounds=1, iterations=1)
    rows = []
    for name, data in results.items():
        rows.append([name, data["orders"],
                     data["legacy_runs_from_main"],
                     data["engine_runs_from_main"],
                     data["engine_resumed"],
                     data["engine_merged"],
                     data["engine_pruned"],
                     f"{data['reduction_factor']}x",
                     f"{data['wall_clock_speedup']}x"])
    table = render_table(
        ["program", "orders", "seed runs", "engine runs", "resumed", "merged",
         "pruned", "fewer runs", "wall clock"],
        rows,
        title="Search engine vs seed DFS (runs from main; engine resumes "
              "siblings from checkpoints)")
    publish("search_speed.txt", table, capsys)
    record("search_speed.json", json.dumps(results, indent=2) + "\n", capsys)

    # Acceptance gate: on a >= 200-order program the engine reaches the
    # identical verdict set with >= 5x fewer full executions than the seed.
    deep = results["deep-commuting-256"]
    assert deep["orders"] >= 200
    assert deep["legacy_runs_from_main"] >= \
        5 * deep["engine_runs_from_main"], deep


def test_dedup_alone_cuts_full_runs():
    """With the commutativity filter off, dedup still merges interleavings."""
    checker = Checker()
    naive = checker.search(DEEP_CONVERGING, checkpoint="replay",
                           dedup_states=False, prune_commuting=False,
                           budget=BIG_BUDGET, stop_at_first=False).search
    deduped = checker.search(DEEP_CONVERGING, checkpoint="replay",
                             prune_commuting=False,
                             budget=BIG_BUDGET, stop_at_first=False).search
    assert deduped.merged_paths > 0
    assert deduped.runs_from_main < naive.runs_from_main
    assert naive.any_undefined == deduped.any_undefined


def test_walker_engine_matches_lowered_engine_counts():
    """Search runs on the walker under every engine setting: a checker set
    to the lowered closures explores the walker's decision tree and builds
    no closure IR."""
    walker = Checker(CheckerOptions(enable_lowering=False))
    lowered = Checker(CheckerOptions(engine="lowered"))
    for source in (SET_DENOM, DEEP_CONVERGING):
        compiled = lowered.compile(source)
        a = walker.search(source, budget=BIG_BUDGET, stop_at_first=False).search
        b = lowered.search(compiled, budget=BIG_BUDGET, stop_at_first=False).search
        assert a.explored == b.explored
        assert a.merged_paths == b.merged_paths
        assert a.pruned_orders == b.pruned_orders
        assert compiled._lowered == {} and compiled._bytecode == {}


def test_bench_search_cost(benchmark):
    """pytest-benchmark target: exhaustive order search on the setDenom example."""

    def search():
        return check_program(SET_DENOM, search_evaluation_order=True)

    report = benchmark(search)
    assert report.outcome.flagged


def test_bench_single_order_cost(benchmark):
    """Baseline for the search benchmark: a single left-to-right execution."""

    def run_once():
        return check_program(SET_DENOM)

    report = benchmark(run_once)
    assert report.outcome.kind is OutcomeKind.DEFINED


def test_search_respects_path_budget():
    options = CheckerOptions(max_search_paths=3)
    report = check_program(DEFINED_WITH_MANY_SUBEXPRESSIONS, options,
                           search_evaluation_order=True)
    assert report.search is not None
    assert report.search.explored <= 3
