"""E10 — symbolic proving throughput: one proof vs the concrete programs it covers.

The abstract interval engine's value proposition is quantification: a single
``prove_source`` call over an input range renders a verdict for *every*
concretization, where the dynamic engines need one full run per input value.
This benchmark makes that trade measurable.  For each program it measures

* the wall-clock cost of the range proof (median of repeated runs), and
* the steady-state throughput of the concrete checker on the same program
  (runs/second, compile warmed outside the clock),

and reports ``coverage_ratio``: how many times more concrete-checker work
the proof replaces than it costs —

    coverage_ratio = covered_inputs / (prove_seconds * concrete_runs_per_sec)

i.e. (inputs covered by the proof) / (inputs the concrete checker could have
visited in the time the proof took).  The gate requires >= 100x on the
arithmetic/overflow family, where ranges are wide and proofs are cheap; the
observed values sit orders of magnitude above that (a 2^20-value range
proves in a few milliseconds).  Results go to
``benchmarks/results/symbolic_speed.txt`` (table) and ``symbolic_speed.json``
(machine-readable; ``coverage_ratio`` is reported as an informational row by
``compare_results.py`` — absolute throughput varies with the host, and the
ratio's magnitude is dominated by the chosen range widths, so it documents
rather than gates regressions).
"""

import json
import statistics
import time

import pytest

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.reporting import render_table
from repro.symbolic import PROVED_DEFINED, PROVED_UNDEFINED, prove_unit

from benchmarks.conftest import publish, record

#: name -> (source, inputs, expected verdict, gated family?).
PROGRAMS = {
    "arith-range": (
        "int main(void) {\n"
        "  int x = 0;\n"
        "  int y = x * 2 + 7;\n"
        "  int z = y / 3;\n"
        "  return z >= 0;\n"
        "}\n",
        {"x": (0, 1 << 20)},
        PROVED_DEFINED,
        True,
    ),
    "overflow-range": (
        "int main(void) {\n"
        "  int x = 2000000000;\n"
        "  int y = x + x;\n"
        "  return y > 0;\n"
        "}\n",
        {"x": (2_000_000_000, 2_147_483_647)},
        PROVED_UNDEFINED,
        True,
    ),
    "guarded-divide-range": (
        "int main(void) {\n"
        "  int x = 5;\n"
        "  if (x != 0) { return 1000 / x > 0; }\n"
        "  return 0;\n"
        "}\n",
        {"x": (0, 1 << 16)},
        PROVED_DEFINED,
        True,
    ),
    "loop-range": (
        "int main(void) {\n"
        "  int x = 1;\n"
        "  int s = 0;\n"
        "  int i;\n"
        "  for (i = 0; i < 20; i = i + 1) { s = s + x; }\n"
        "  return s >= 0;\n"
        "}\n",
        {"x": (0, 65535)},
        PROVED_DEFINED,
        False,  # loop unrolling makes this the expensive proof; report only
    ),
}

#: The acceptance floor on the gated (arithmetic/overflow) programs: one
#: proof must replace at least 100x the concrete work it costs.
MIN_COVERAGE_RATIO = 100.0

PROVE_REPEATS = 5
CONCRETE_WINDOW_SECONDS = 0.3


@pytest.fixture(scope="module")
def symbolic_results():
    options = CheckerOptions()
    tool = KccTool(options)
    results = {}
    for name, (source, inputs, expected, gated) in PROGRAMS.items():
        compiled = tool.compile_unit(source, filename=name)
        assert compiled.ok, name

        durations = []
        for _ in range(PROVE_REPEATS):
            start = time.perf_counter()
            report = prove_unit(compiled, options=options, inputs=inputs)
            durations.append(time.perf_counter() - start)
        assert report.verdict == expected, f"{name}: {report.render()}"
        prove_seconds = statistics.median(durations)

        tool.run_unit(compiled)  # warm the dynamic stage
        runs = 0
        start = time.perf_counter()
        while time.perf_counter() - start < CONCRETE_WINDOW_SECONDS:
            tool.run_unit(compiled)
            runs += 1
        concrete_runs_per_sec = runs / (time.perf_counter() - start)

        concrete_equivalent = prove_seconds * concrete_runs_per_sec
        results[name] = {
            "verdict": report.verdict,
            "covered_inputs": report.covered_inputs,
            "prove_seconds": prove_seconds,
            "concrete_runs_per_sec": concrete_runs_per_sec,
            "coverage_ratio": (
                report.covered_inputs / concrete_equivalent
                if concrete_equivalent > 0
                else float("inf")
            ),
            "gated": gated,
        }
    return results


def test_symbolic_speed_tables(symbolic_results, capsys):
    rows = []
    for name, entry in symbolic_results.items():
        rows.append(
            [
                name,
                entry["verdict"],
                f"{entry['covered_inputs']:,}",
                f"{entry['prove_seconds'] * 1000:.1f} ms",
                f"{entry['concrete_runs_per_sec']:.0f}",
                f"{entry['coverage_ratio']:,.0f}x",
                "yes" if entry["gated"] else "no",
            ]
        )
    table = render_table(
        [
            "program",
            "verdict",
            "inputs covered",
            "proof cost",
            "concrete runs/sec",
            "coverage ratio",
            "gated",
        ],
        rows,
        title="E10: one range proof vs equivalent concrete-checker work",
    )
    publish("symbolic_speed.txt", table, capsys)
    payload = {
        name: {key: value for key, value in entry.items()}
        for name, entry in symbolic_results.items()
    }
    record("symbolic_speed.json", json.dumps(payload, indent=2) + "\n", capsys)


def test_coverage_ratio_floor(symbolic_results):
    for name, entry in symbolic_results.items():
        if not entry["gated"]:
            continue
        assert entry["coverage_ratio"] >= MIN_COVERAGE_RATIO, (
            f"{name}: coverage ratio {entry['coverage_ratio']:.1f} below "
            f"{MIN_COVERAGE_RATIO}"
        )


def test_proofs_quantify_over_wide_ranges(symbolic_results):
    """The point of the exercise: ranges far too wide to enumerate."""
    assert symbolic_results["arith-range"]["covered_inputs"] > 1_000_000
