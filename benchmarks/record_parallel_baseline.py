"""Record the committed >=4-CPU parallel baseline — on a real >=4-CPU host.

The ``parallel_speedup`` ratios of ``pool_speed.json`` / ``fuzz_speed.json``
are only meaningful when the host genuinely has as many CPUs as the
benchmark uses workers (``jobs=4``).  The development seed for this repo was
recorded on a 1-CPU container, so its committed results self-SKIP the
floor-3.0 gate; this script produces the committed artifact that turns the
SKIP into a real gate.  Usage, on a machine with at least 4 CPUs::

    python benchmarks/record_parallel_baseline.py

It re-runs the pool and fuzz-throughput benchmarks, verifies every recorded
entry really measured ``host_cpus >= jobs`` (a 1-CPU run aborts — this
script refuses to fabricate a baseline the gate would then trust), and
writes ``benchmarks/results/parallel_baseline/{pool,fuzz}_speed.json`` plus
a provenance stamp.  Commit that directory; the CI ``bench-parallel`` job
prefers it as the comparison baseline, so the >=3.0 floor and the 15%%
regression check both run against honest numbers.

Exit status: 0 on success, 2 when the host is too small or the fresh
results are unusable.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
BASELINE_DIR = RESULTS / "parallel_baseline"
FILES = ("pool_speed.json", "fuzz_speed.json")
MIN_CPUS = 4


def fail(message: str) -> "SystemExit":
    print(f"record_parallel_baseline: {message}", file=sys.stderr)
    return SystemExit(2)


def main() -> int:
    cpus = os.cpu_count() or 1
    if cpus < MIN_CPUS:
        raise fail(
            f"host has {cpus} CPU(s); a parallel baseline recorded here "
            f"would be meaningless and the gate would enforce it as truth. "
            f"Run this on a machine with >= {MIN_CPUS} CPUs "
            "(the CI bench-parallel runner qualifies)."
        )

    repo = RESULTS.parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    print(f"recording parallel baseline on {cpus} CPUs ...")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "benchmarks/test_bench_pool.py",
            "benchmarks/test_bench_fuzz.py::test_fuzz_throughput",
            "--record-results",
        ],
        cwd=repo,
        env=env,
    )
    if completed.returncode != 0:
        raise fail("benchmark run failed; nothing recorded")

    entries = {}
    for name in FILES:
        path = RESULTS / name
        if not path.exists():
            raise fail(f"{path} missing after the benchmark run")
        data = json.loads(path.read_text(encoding="utf-8"))
        for program, entry in data.items():
            host_cpus = entry.get("host_cpus")
            jobs = entry.get("jobs")
            if "parallel_speedup" not in entry:
                continue
            if not isinstance(host_cpus, int) or host_cpus < (jobs or MIN_CPUS):
                raise fail(
                    f"{name}:{program} records host_cpus={host_cpus} < "
                    f"jobs={jobs}; refusing to commit an undersized "
                    "measurement as the baseline"
                )
        entries[name] = data

    BASELINE_DIR.mkdir(exist_ok=True)
    for name in FILES:
        shutil.copyfile(RESULTS / name, BASELINE_DIR / name)
    now = datetime.datetime.now(datetime.timezone.utc)
    stamp = {
        "recorded_utc": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host_cpus": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "files": list(FILES),
    }
    (BASELINE_DIR / "provenance.json").write_text(
        json.dumps(stamp, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"baseline written to {BASELINE_DIR}; commit it so the "
        "bench-parallel gate runs for real"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
