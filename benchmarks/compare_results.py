"""Benchmark regression gate: compare fresh results against baselines.

Compares the machine-independent *ratio* metrics of the committed
``benchmarks/results/*.json`` baselines against a freshly generated set:

* ``interp_speed.json`` — per-program ``speedup`` (lowered closures vs
  legacy walker) and ``compiled_speedup`` (register-bytecode VM vs lowered
  closures; a function outside the bytecode's native subset runs on the
  walker, so a program made of such functions reads below 1.0);
* ``search_speed.json`` — per-program ``reduction_factor`` (seed DFS runs
  from ``main`` vs the search engine's);
* ``fuzz_speed.json`` / ``pool_speed.json`` — ``parallel_speedup`` of the
  warm worker pool at ``jobs=N``.  Unlike the pure ratio metrics above,
  these are only meaningful when the host actually has ``N`` CPUs, so each
  entry records ``host_cpus`` and ``jobs``: on an undersized host the gate
  prints a SKIP with the reason and the row stays informational.  On a
  big-enough host an absolute floor (>= 3.0 at jobs=4) applies on top of
  the usual regression check.

Absolute throughput numbers (runs/sec) vary with the host and are reported
but never gated; a ratio regressing by more than ``--max-regression``
(default 15%) fails the gate.  Usage::

    python benchmarks/compare_results.py \\
        --baseline /tmp/baseline-results --fresh benchmarks/results

Exit status: 0 when every gated metric holds (or has no baseline yet),
1 on a regression, 2 on unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: file name -> ratio metrics gated within each top-level program entry.
GATED_METRICS = {
    "interp_speed.json": ("speedup", "compiled_speedup"),
    "search_speed.json": ("reduction_factor",),
    "fuzz_speed.json": ("parallel_speedup",),
    "pool_speed.json": ("parallel_speedup",),
}

#: metric -> absolute floor, applied in addition to the regression check.
#: ``parallel_speedup`` entries also carry ``host_cpus``/``jobs`` and are
#: skipped (with a printed reason) when the host has fewer CPUs than jobs:
#: a 4-worker pool on a 1-CPU runner cannot beat serial, and gating that
#: ratio would only measure runner topology.
ABSOLUTE_FLOORS = {
    "parallel_speedup": 3.0,
}

#: file name -> ratio metrics *reported* but never gated.  ``warm_speedup``
#: (warm batch vs cold spawn-paying batch) is always > 1 but its magnitude
#: tracks import cost, not checker performance, so it stays informational.
#: ``coverage_ratio`` (concrete-checker work one range proof replaces, see
#: ``test_bench_symbolic``) is dominated by the chosen range widths, so it
#: documents the trend; its >= 100x floor is gated inside the benchmark.
INFORMATIONAL_METRICS = {
    "pool_speed.json": ("warm_speedup",),
    "symbolic_speed.json": ("coverage_ratio",),
}


def parallelism_skip_reason(entry: dict) -> str | None:
    """Why ``entry``'s parallelism ratio cannot be gated (``None`` if it can)."""
    host_cpus = entry.get("host_cpus")
    jobs = entry.get("jobs")
    if not isinstance(host_cpus, int) or not isinstance(jobs, int):
        return "entry lacks host_cpus/jobs fields"
    if host_cpus < jobs:
        return f"host_cpus={host_cpus} < jobs={jobs}; ratio not meaningful"
    return None


def load(path: pathlib.Path) -> dict | None:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"compare_results: cannot read {path}: {error}", file=sys.stderr)
        raise SystemExit(2)


def compare_file(
    name: str,
    baseline: dict | None,
    fresh: dict | None,
    max_regression: float,
) -> list[str]:
    failures: list[str] = []
    if fresh is None:
        failures.append(f"{name}: fresh results missing (benchmark did not run)")
        return failures
    if baseline is None:
        print(f"{name}: no committed baseline yet; only absolute floors apply")
        baseline = {}
    for program in sorted(set(baseline) - set(fresh)):
        # A silently vanished program would disable its gate while CI
        # stays green; renames must update the committed baseline too.
        failures.append(f"{name}: baseline program {program!r} missing from fresh run")
    for program, fresh_entry in sorted(fresh.items()):
        base_entry = baseline.get(program)
        if not isinstance(base_entry, dict):
            base_entry = {}
        if not isinstance(fresh_entry, dict):
            continue
        for metric in GATED_METRICS[name]:
            base_value = base_entry.get(metric)
            fresh_value = fresh_entry.get(metric)
            has_base = isinstance(base_value, (int, float))
            if not has_base and metric not in ABSOLUTE_FLOORS:
                continue
            if not isinstance(fresh_value, (int, float)):
                if has_base:
                    failures.append(f"{name}: {program}.{metric} missing in fresh run")
                continue
            if metric in ABSOLUTE_FLOORS:
                reason = parallelism_skip_reason(fresh_entry)
                if reason is not None:
                    print(
                        f"SKIP {name}: {program}.{metric} "
                        f"fresh={fresh_value:.3f} ({reason}; "
                        f"informational on this host)"
                    )
                    continue
            floor = None
            if has_base:
                if parallelism_skip_reason(base_entry) is None \
                        or metric not in ABSOLUTE_FLOORS:
                    floor = base_value * (1.0 - max_regression)
                else:
                    print(
                        f"NOTE {name}: {program}.{metric} baseline recorded "
                        f"on an undersized host; only the absolute floor "
                        f"applies"
                    )
            if metric in ABSOLUTE_FLOORS:
                absolute = ABSOLUTE_FLOORS[metric]
                floor = absolute if floor is None else max(floor, absolute)
            if floor is None:
                continue
            base_text = f"baseline={base_value:.3f} " if has_base else ""
            status = "OK " if fresh_value >= floor else "REG"
            print(
                f"{status} {name}: {program}.{metric} "
                f"{base_text}fresh={fresh_value:.3f} floor={floor:.3f}"
            )
            if fresh_value < floor:
                failures.append(
                    f"{name}: {program}.{metric} = {fresh_value:.3f} "
                    f"below floor {floor:.3f}"
                )
    return failures


def report_informational(
    name: str,
    baseline: dict | None,
    fresh: dict | None,
) -> None:
    """Print (never gate) the informational ratio rows."""
    if fresh is None:
        print(f"INFO {name}: no fresh results (benchmark did not run)")
        return
    for program, fresh_entry in sorted(fresh.items()):
        if not isinstance(fresh_entry, dict):
            continue
        base_entry = (baseline or {}).get(program)
        for metric in INFORMATIONAL_METRICS[name]:
            fresh_value = fresh_entry.get(metric)
            if not isinstance(fresh_value, (int, float)):
                continue
            base_value = (base_entry or {}).get(metric)
            base_text = (
                f"baseline={base_value:.3f} "
                if isinstance(base_value, (int, float)) else ""
            )
            print(
                f"INFO {name}: {program}.{metric} "
                f"{base_text}fresh={fresh_value:.3f} (informational, not gated)"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        required=True,
        type=pathlib.Path,
        help="directory with the committed baseline result JSONs",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        type=pathlib.Path,
        help="directory with freshly generated result JSONs",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="largest tolerated relative drop of a gated ratio (default 0.15)",
    )
    arguments = parser.parse_args(argv)
    failures: list[str] = []
    for name in GATED_METRICS:
        failures += compare_file(
            name,
            load(arguments.baseline / name),
            load(arguments.fresh / name),
            arguments.max_regression,
        )
    for name in INFORMATIONAL_METRICS:
        report_informational(
            name,
            load(arguments.baseline / name),
            load(arguments.fresh / name),
        )
    if failures:
        print("\nBenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nBenchmark regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
