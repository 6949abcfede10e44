"""Quick self-test of the benchmark; run ``python3 perfbench/selftest.py``.

It runs a one-second version of each workload and checks three things:

* every metric BENCHMARK.json names is reported, with its unit, and no other;
* the count metrics repeat exactly across two traced runs of one seed;
* a deliberately flipped reference raises ``failed_share`` and fails the run.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs HERE on the path)

SEED = 3
COUNT_METRICS = ("cfront.tokens", "core.steps", "core.native_fn_ratio",
                 "api.parse_count", "api.cache_hits")


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{completed.returncode}:\n{completed.stdout[-3000:]}"
                             f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


def check_reported(workload: str, result: dict, units: dict) -> None:
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{workload}: reported {got}, declared {units}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{workload}: {result}")


def check_flipped_reference() -> None:
    from workloads import LoopsWarm, SuiteCold

    run_dir = ROOT / ".perfbench-run" / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        for workload_class, flip in ((SuiteCold, _flip_suite_label),
                                     (LoopsWarm, _flip_exit_code)):
            shares = []
            for flipped in (False, True):
                workload = workload_class(SEED, ROOT, run_dir)
                if flipped:
                    flip(workload)
                try:
                    phase = run.drive(workload, count=workload.pass_size)
                finally:
                    workload.close()
                accounting = run.verdict_accounting(workload, run.Phase(), [phase])
                shares.append((accounting["failed_share"], accounting["failed"]))
            (clean_share, clean_failed), (flip_share, flip_failed) = shares
            if not (flip_share > clean_share and clean_failed == 0 and flip_failed > 0):
                raise AssertionError(f"{workload_class.name}: flipped reference gave "
                                     f"{shares}")
            print(f"selftest: {workload_class.name} failed_share "
                  f"{clean_share:.4f} -> {flip_share:.4f} with one flipped reference")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _flip_suite_label(workload) -> None:
    case = next(case for case in workload.cases if not case.is_bad)
    case.is_bad = True


def _flip_exit_code(workload) -> None:
    workload.expected_exit["arith-loop"] ^= 1


def main() -> int:
    run.import_checker()
    end_to_end, per_layer = declared()
    for workload in ("suite-cold", "loops-warm", "fuzz-oracles", "serve-warm"):
        check_reported(workload, run_workload(workload, 0), end_to_end)
        first, second = run_workload(workload, 1), run_workload(workload, 1)
        check_reported(workload, first, per_layer)
        for name in COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                raise AssertionError(f"{workload}: {name} read {a} then {b}")
        print(f"selftest: {workload} reports every metric; counts repeat exactly")
    check_flipped_reference()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
