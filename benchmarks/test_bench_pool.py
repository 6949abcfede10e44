"""E7 — warm-pool throughput: cold vs warm batches, serial vs pooled.

The service refactor's claim is twofold and ``pool_speed.{txt,json}``
records both halves:

* **warm beats cold** — the first pooled batch after a shutdown pays worker
  spawn; every later batch runs on live workers.  ``warm_speedup`` (warm
  rate / cold rate) is tracked informationally by ``compare_results.py``:
  on fork-based hosts spawn is nearly free so the ratio hovers around 1,
  while spawn-method hosts (no fork) re-import the whole package per cold
  pool and show the real tax;
* **pooled beats serial** — ``parallel_speedup`` (steady-state pooled rate /
  serial rate) is a *gated* metric with an absolute floor of 3.0 at
  ``jobs=4``, enforced only on hosts with at least ``jobs`` CPUs (on
  smaller hosts the ratio is physically meaningless and the gate records a
  SKIP with the reason instead).

Each timed batch uses a distinct program set, so the shared compile cache
never donates parses across measurements: the serial reference, the cold
pooled batch, and the warm pooled batch all compile their programs from
scratch.  Verdicts are asserted byte-identical between the serial and
pooled paths before any rate is reported.
"""

import json
import os
import time

from repro.api.batch import check_many
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.reporting import render_table
from repro.service.pool import shutdown_pool

from benchmarks.conftest import publish, record

BATCH_JOBS = 4
CHECK_COUNT = 120
FUZZ_COUNT = 60
FUZZ_SEED = 20260729


def _programs(count: int, tag: str) -> list[tuple[str, str]]:
    return [
        (f"{tag}_{index}.c",
         "int main(void) {\n"
         f"  int acc = {index};\n"
         "  for (int i = 0; i < 160; ++i) { acc += (acc + i) % 7; }\n"
         "  return acc % 2;\n"
         "}\n")
        for index in range(count)
    ]


def _normalized_campaign(result) -> str:
    data = result.to_dict()
    data["config"]["jobs"] = 0
    data.pop("timing")
    return json.dumps(data, sort_keys=True)


def test_pool_throughput(capsys):
    host_cpus = os.cpu_count() or 1
    effective = min(BATCH_JOBS, host_cpus)

    # Serial reference on set A.
    set_a = _programs(CHECK_COUNT, "ser")
    start = time.perf_counter()
    serial_reports = check_many(set_a, jobs=1)
    serial_elapsed = time.perf_counter() - start

    # Cold pooled batch on set B: the pool is torn down first, so this
    # batch pays worker spawn + cold imports (the old per-batch tax).
    shutdown_pool(wait=True)
    set_b = _programs(CHECK_COUNT, "cold")
    start = time.perf_counter()
    check_many(set_b, jobs=BATCH_JOBS)
    cold_elapsed = time.perf_counter() - start

    # Warm pooled batches on sets C and D: same pool, already spawned.
    # Two runs, best-of, to keep scheduler noise out of the ratio.
    warm_elapsed = float("inf")
    for tag in ("warm1", "warm2"):
        warm_set = _programs(CHECK_COUNT, tag)
        start = time.perf_counter()
        check_many(warm_set, jobs=BATCH_JOBS)
        warm_elapsed = min(warm_elapsed, time.perf_counter() - start)

    # Verdict identity (untimed): the pooled path must classify set A
    # exactly as the serial path did.
    pooled_reports = check_many(set_a, jobs=BATCH_JOBS)
    assert [r.to_dict() for r in pooled_reports] == \
        [r.to_dict() for r in serial_reports]

    serial_rate = CHECK_COUNT / serial_elapsed
    cold_rate = CHECK_COUNT / cold_elapsed
    warm_rate = CHECK_COUNT / warm_elapsed
    check_speedup = warm_rate / serial_rate
    warm_speedup = warm_rate / cold_rate

    # Fuzz slice: generation + oracle stack, serial vs the (warm) pool.
    start = time.perf_counter()
    fuzz_serial = run_campaign(CampaignConfig(seed=FUZZ_SEED, count=FUZZ_COUNT,
                                              inject="mixed"))
    fuzz_serial_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    fuzz_pooled = run_campaign(CampaignConfig(seed=FUZZ_SEED, count=FUZZ_COUNT,
                                              inject="mixed", jobs=BATCH_JOBS))
    fuzz_pooled_elapsed = time.perf_counter() - start
    assert _normalized_campaign(fuzz_serial) == _normalized_campaign(fuzz_pooled)
    fuzz_serial_rate = FUZZ_COUNT / fuzz_serial_elapsed
    fuzz_pooled_rate = FUZZ_COUNT / fuzz_pooled_elapsed
    fuzz_speedup = fuzz_pooled_rate / fuzz_serial_rate

    results = {
        "check_many": {
            "count": CHECK_COUNT,
            "jobs": BATCH_JOBS,
            "host_cpus": host_cpus,
            "effective_parallelism": effective,
            "serial_programs_per_sec": round(serial_rate, 2),
            "cold_programs_per_sec": round(cold_rate, 2),
            "warm_programs_per_sec": round(warm_rate, 2),
            "parallel_speedup": round(check_speedup, 3),
            "warm_speedup": round(warm_speedup, 3),
        },
        "fuzz_slice": {
            "count": FUZZ_COUNT,
            "jobs": BATCH_JOBS,
            "host_cpus": host_cpus,
            "effective_parallelism": effective,
            "serial_programs_per_sec": round(fuzz_serial_rate, 2),
            "parallel_programs_per_sec": round(fuzz_pooled_rate, 2),
            "parallel_speedup": round(fuzz_speedup, 3),
        },
    }
    table = render_table(
        ["configuration", "programs/sec", "speedup"],
        [["check serial", f"{serial_rate:.1f}", "1.00x"],
         [f"check jobs={BATCH_JOBS} (cold pool)", f"{cold_rate:.1f}",
          f"{cold_rate / serial_rate:.2f}x"],
         [f"check jobs={BATCH_JOBS} (warm pool)", f"{warm_rate:.1f}",
          f"{check_speedup:.2f}x"],
         ["fuzz serial", f"{fuzz_serial_rate:.1f}", "1.00x"],
         [f"fuzz jobs={BATCH_JOBS} (warm pool)", f"{fuzz_pooled_rate:.1f}",
          f"{fuzz_speedup:.2f}x"],
         ["warm vs cold batch", "—", f"{warm_speedup:.2f}x"]],
        title=f"Warm-pool throughput ({CHECK_COUNT} checks / {FUZZ_COUNT} fuzz "
              f"cases; host_cpus={host_cpus}, "
              f"effective parallelism {effective}/{BATCH_JOBS})")
    publish("pool_speed.txt", table, capsys)
    record("pool_speed.json", json.dumps(results, indent=2) + "\n", capsys)

    # A warm batch never re-pays spawn, so it cannot be meaningfully slower
    # than the cold one.  On fork hosts the spawn tax is tiny, so allow
    # scheduler noise around 1.0 rather than asserting a strict win.
    assert warm_speedup > 0.8, (cold_elapsed, warm_elapsed)
    # Local sanity floor; the real >= 3.0 gate runs in compare_results.py
    # on hosts with >= BATCH_JOBS CPUs.
    assert check_speedup > 0.5 and fuzz_speedup > 0.5
