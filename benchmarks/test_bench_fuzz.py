"""E6 — differential fuzzing throughput and the 2,000-program campaign.

Two results come out of this module:

* the **acceptance campaign**: a fixed-seed run of 2,000 generated programs
  (mixed well-defined and one-defect-injected) must complete with **zero**
  differential-oracle mismatches, report ground-truth detection for every
  injected check family, and produce a byte-identical verdict stream under
  ``jobs=4`` — the generated-workload analogue of the hand-written suites'
  guarantees;
* ``fuzz_speed.{txt,json}`` — generation+oracle throughput (programs/sec),
  serial vs ``jobs=N``.  The ``parallel_speedup`` ratio is **gated** by
  ``benchmarks/compare_results.py`` (absolute floor 3.0 at ``jobs=4``),
  but only on hosts with at least ``jobs`` CPUs; each entry records
  ``host_cpus`` and ``effective_parallelism`` so undersized runners skip
  the gate with the reason in the log instead of failing on topology.
"""

import json
import os
import time

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.generator import injection_families
from repro.reporting import render_table

from benchmarks.conftest import publish, record

#: The acceptance-campaign shape: fixed seed, >= 2000 mixed programs.
ACCEPTANCE_SEED = 20260729
ACCEPTANCE_COUNT = 2000

#: The throughput measurement uses a smaller slice (wall-clock, not verdict,
#: is what varies with count).
SPEED_COUNT = 400
SPEED_JOBS = 4


def _normalized(result) -> str:
    data = result.to_dict()
    data["config"]["jobs"] = 0
    data.pop("timing")
    return json.dumps(data, sort_keys=True)


def test_fuzz_acceptance_campaign(capsys):
    config = CampaignConfig(seed=ACCEPTANCE_SEED, count=ACCEPTANCE_COUNT,
                            inject="mixed", jobs=SPEED_JOBS)
    result = run_campaign(config)
    assert result.ok, (
        f"{len(result.mismatches)} oracle mismatch(es); first: "
        f"{result.mismatches[0].to_dict() if result.mismatches else None}")
    table = result.family_table()
    # Every injectable family occurs and upholds its ground truth.
    for family in injection_families():
        assert family in table, f"family {family} never drawn in {ACCEPTANCE_COUNT} cases"
        row = table[family]
        assert row["correct"] == row["cases"], (family, row)
    assert table["clean"]["correct"] == table["clean"]["cases"]

    # Verdict identity: a serial slice of the same campaign must agree
    # byte-for-byte with the pooled run's slice.
    slice_config = CampaignConfig(seed=ACCEPTANCE_SEED, count=200, inject="mixed")
    serial = run_campaign(slice_config)
    pooled = run_campaign(CampaignConfig(seed=ACCEPTANCE_SEED, count=200,
                                         inject="mixed", jobs=SPEED_JOBS))
    assert _normalized(serial) == _normalized(pooled)

    rows = [[family, row["cases"], row["correct"]]
            for family, row in sorted(table.items())]
    publish("fuzz_acceptance.txt",
            render_table(["family", "cases", "ground truth upheld"], rows,
                         title=f"Fuzz acceptance campaign: seed={ACCEPTANCE_SEED} "
                               f"count={ACCEPTANCE_COUNT} (0 mismatches)"),
            capsys)


def test_fuzz_throughput(capsys):
    serial_config = CampaignConfig(seed=ACCEPTANCE_SEED, count=SPEED_COUNT,
                                   inject="mixed")
    start = time.perf_counter()
    serial = run_campaign(serial_config)
    serial_elapsed = time.perf_counter() - start
    assert serial.ok

    parallel_config = CampaignConfig(seed=ACCEPTANCE_SEED, count=SPEED_COUNT,
                                     inject="mixed", jobs=SPEED_JOBS)
    start = time.perf_counter()
    parallel = run_campaign(parallel_config)
    parallel_elapsed = time.perf_counter() - start
    assert parallel.ok
    assert _normalized(serial) == _normalized(parallel)

    serial_rate = SPEED_COUNT / serial_elapsed
    parallel_rate = SPEED_COUNT / parallel_elapsed
    speedup = parallel_rate / serial_rate if serial_rate else 0.0
    host_cpus = os.cpu_count() or 1
    effective = min(SPEED_JOBS, host_cpus)
    results = {
        "campaign": {
            "count": SPEED_COUNT,
            "jobs": SPEED_JOBS,
            "serial_programs_per_sec": round(serial_rate, 2),
            "parallel_programs_per_sec": round(parallel_rate, 2),
            "parallel_speedup": round(speedup, 3),
            "host_cpus": host_cpus,
            "effective_parallelism": effective,
        },
    }
    table = render_table(
        ["configuration", "programs/sec"],
        [["serial", f"{serial_rate:.1f}"],
         [f"jobs={SPEED_JOBS}", f"{parallel_rate:.1f}"],
         ["speedup", f"{speedup:.2f}x"],
         ["effective parallelism", f"{effective}/{SPEED_JOBS} "
          f"(host_cpus={host_cpus})"]],
        title=f"Fuzz campaign throughput ({SPEED_COUNT} programs, "
              "generation + full oracle stack)")
    publish("fuzz_speed.txt", table, capsys)
    record("fuzz_speed.json", json.dumps(results, indent=2) + "\n", capsys)
    # Local sanity only: pooled fan-out must not be pathologically slower
    # than serial.  The real >= 3.0 floor is enforced by compare_results.py
    # on hosts with >= SPEED_JOBS CPUs.
    assert speedup > 0.5
