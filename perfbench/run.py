"""The checker's benchmark: one workload per process, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out results/

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is the separate traced run: it wraps the public entry points
of each layer (see ``tracing.py``) and reports the per-layer metrics.  Every
run checks each verdict against a reference that does not come from kcc
(see ``workloads.py``) and exits 1 when one fails.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Nothing is written unless ``--out DIR`` is given.

``setup_s`` is the median over this process's own set-up and those of two
fresh processes (``--setup-only``), each counted from the script's first
line, so that it includes importing the checker, as a user's first check
does.  The fresh processes run after the timed phase, once this process's
workload (on ``serve-warm``, its server) is stopped.
"""

from __future__ import annotations

import time

#: Set-up time is counted from here: the script's first line.
STARTED = time.perf_counter()

import argparse
import bisect
import dataclasses
import datetime
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tokenize
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Set-ups in a run: this process's own plus fresh ones; ``setup_s`` is
#: their median.
SETUP_RUNS = 3
#: Generated cases replayed leg by leg in the layer sweep.
SWEEP_CASES = 8
#: Suite programs sent through the service in the layer sweep, and how
#: many times each is sent and checked in process.
SWEEP_REQUESTS = 24
SWEEP_ROUNDS = 3
#: Other tenants of the host slow every thread that runs here, by up to
#: 2.3x and for tens of seconds at a time, so a raw run-to-run spread is
#: 25-50% however long the run.  The client therefore times fixed pieces of
#: work between verdicts (``CALIBRATION``), and every reported time is
#: scaled to a host on which each piece takes its reference time: time /
#: host factor, the geometric mean over the pieces of (the piece's median
#: time / reference), over the run or, for a timed verdict, over the
#: calibrations nearest to it.  Raw figures are printed and written alongside.
CALIBRATION_EVERY_S = 0.1
SETUP_CALIBRATIONS = 20
#: The host's load changes within a run too, in phases of seconds, so each
#: verdict of a timed phase is scaled by the factor of the calibrations
#: nearest to it in time: this many, about 1.5 s of them.
LOCAL_CALIBRATIONS = 15
#: Source that the tokenizing and compiling pieces read: fixed here, so
#: that no edit to the repository changes the calibration.
CALIBRATION_SOURCE = """
import collections

def histogram(words, width=40):
    counts = collections.Counter(word.lower().strip('.,;') for word in words)
    top = counts.most_common(10)
    scale = width / max((n for _, n in top), default=1)
    return [f"{word:>12} {'#' * int(n * scale)} {n}" for word, n in top]

class Interval:
    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError((lo, hi))
        self.lo, self.hi = lo, hi

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        ends = [self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi]
        return Interval(min(ends), max(ends))

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"
"""
#: Metric names and units, as BENCHMARK.json declares them.
END_TO_END_UNITS = {
    "setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms", "verdict_p99_ms": "ms",
    "warm_run_geomean_ms": "ms", "peak_rss_mb": "MB",
}


class CheckoutError(Exception):
    """The checker's sources are not where the benchmark expects them."""


def import_checker() -> None:
    """Put the checkout's own ``src`` first on the path, and nothing else."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise CheckoutError(f"no checker sources at {package.parent}; run the "
                            "benchmark from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package:
        raise CheckoutError(f"imported repro from {repro.__file__}, "
                            f"not from {package.parent}")


def stamp(arguments) -> dict:
    sha = ""
    if (ROOT / ".git").exists():  # never the sha of an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def _arithmetic() -> None:
    total = 0
    for i in range(5_000):
        total += i * i


def _allocating() -> None:
    table = {str(i): [i, (i, i)] for i in range(1_500)}
    sorted(table, reverse=True)


def _tokenizing() -> None:
    for _ in tokenize.generate_tokens(io.StringIO(CALIBRATION_SOURCE).readline):
        pass


def _compiling() -> None:
    compile(CALIBRATION_SOURCE, "<calibration>", "exec")


#: The pieces of work and their times on the reference host.  No one piece
#: tracked the host's slowdown of every workload: a plain arithmetic loop
#: missed most of it on loops-warm (run-to-run spread of 10-s blocks 12%,
#: against 6% for these four together), where the checker's larger working
#: set suffers more than the loop from the other tenants.
CALIBRATION = (
    (_arithmetic, 0.00025),
    (_allocating, 0.00046),
    (_tokenizing, 0.00051),
    (_compiling, 0.00028),
)


def calibration_seconds() -> tuple[float, ...]:
    """The time of each piece of ``CALIBRATION``, run once."""
    times = []
    for work, _ in CALIBRATION:
        began = time.perf_counter()
        work()
        times.append(time.perf_counter() - began)
    return tuple(times)


def host_factor(calibrations: list[tuple[float, ...]]) -> float:
    """How much slower than the reference host this run ran."""
    return math.exp(statistics.fmean(
        math.log(statistics.median(times[k] for times in calibrations) / reference)
        for k, (_, reference) in enumerate(CALIBRATION)))


def scale(value: float, unit: str, factor: float) -> float:
    """A time or rate measured on this host, as on the reference host."""
    if unit in ("s", "ms"):
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


class Phase:
    """The verdicts of one closed-loop phase and how long it took."""

    def __init__(self) -> None:
        #: (index, seconds, mismatched input or None, error or None)
        self.samples: list[tuple[int, float, object, object]] = []
        #: When each verdict began, in step with ``samples``.
        self.began: list[float] = []
        self.elapsed = 0.0
        #: Calibration times, taken between verdicts while idle, and when
        #: each calibration ended.
        self.calibrations: list[tuple[float, ...]] = []
        self.calibrated_at: list[float] = []

    def latencies(self) -> list[float]:
        return [seconds for _, seconds, _, _ in self.samples]

    def misses(self) -> list[str]:
        return [miss for _, _, miss, _ in self.samples if miss is not None]

    def errors(self) -> list[str]:
        return [error for _, _, _, error in self.samples if error is not None]

    def local_factors(self) -> list[float]:
        """Each verdict's host factor, from the calibrations nearest to it.

        One factor for the whole run would scale the verdicts of a light
        phase and of a heavy one alike, and a percentile of their times
        would then fall wherever the two phases' times meet.
        """
        count = len(self.calibrations)
        by_window: dict[int, float] = {}
        factors = []
        for began in self.began:
            nearest = bisect.bisect(self.calibrated_at, began)
            low = max(0, min(nearest - LOCAL_CALIBRATIONS // 2,
                             count - LOCAL_CALIBRATIONS))
            if low not in by_window:
                by_window[low] = host_factor(
                    self.calibrations[low:low + LOCAL_CALIBRATIONS])
            factors.append(by_window[low])
        return factors


def drive(workload, *, tracer=None, seconds: float = 0.0,
          count: int = 0) -> Phase:
    """Run verdicts 0, 1, 2, ... in a closed loop, one client.

    Stops after ``count`` verdicts or, with ``seconds``, at the first pass
    boundary after that much time (and never before one pass), so every
    timed phase checks whole passes of the inputs.  The calibration
    runs only once the workload reports itself idle, and its time is not
    counted in the phase's elapsed time.
    """
    size = workload.pass_size
    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    calibrated = -math.inf
    index = 0
    while not (index >= count if count else (
            index and index % size == 0
            and time.perf_counter() - start - paused >= seconds)):
        if time.perf_counter() - calibrated >= CALIBRATION_EVERY_S:
            pause = time.perf_counter()
            workload.quiesce()
            phase.calibrations.append(calibration_seconds())
            calibrated = time.perf_counter()
            phase.calibrated_at.append(calibrated)
            paused += calibrated - pause
        miss = error = None
        began = time.perf_counter()
        try:
            if tracer is None:
                miss = workload.verdict(index)
            else:
                with tracer.span("verdict", verdict=index):
                    miss = workload.verdict(index)
        except Exception:  # a failed verdict is counted, not fatal
            error = traceback.format_exc(limit=4)
        phase.samples.append((index, time.perf_counter() - began, miss, error))
        phase.began.append(began)
        index += 1
    phase.elapsed = time.perf_counter() - start - paused
    return phase


def set_up(name: str, seed: int, run_dir: Path, tracer=None):
    """Build the workload's inputs and run its warm-up."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, ROOT, run_dir)
    try:
        warmup = drive(workload, tracer=tracer, count=workload.warmup_size())
    except BaseException:
        workload.close()
        raise
    return workload, warmup


def setup_factor(warmup: Phase) -> float:
    """The host factor of a set-up: its warm-up's calibrations and more.

    A warm-up of a few slow verdicts calibrates only a few times, so the
    calibration is repeated right after the set-up, outside its time.
    """
    more = [calibration_seconds() for _ in range(SETUP_CALIBRATIONS)]
    return host_factor(warmup.calibrations + more)


def fresh_setups(arguments, count: int) -> list[tuple[float, float]]:
    """(seconds, host factor) of ``count`` fresh set-up processes."""
    times = []
    for _ in range(count):
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             arguments.workload, "--seed", str(arguments.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            output, _ = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.terminate()  # lets the child stop the server it started
            output, _ = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        reply = output.split()
        if child.returncode != 0 or len(reply) != 3 or reply[0] != "ready":
            raise RuntimeError(f"set-up process failed (exit {child.returncode}): "
                               f"{output[-500:]!r}")
        times.append((float(reply[1]), float(reply[2])))
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(workload, phase: Phase, latencies: list[float],
                    elapsed: float) -> dict:
    """The timed phase's metrics, from its verdicts' times and its length."""
    by_program: dict[str, list[float]] = {}
    for (index, _, _, _), seconds in zip(phase.samples, latencies):
        by_program.setdefault(workload.program(index), []).append(seconds)
    medians = [statistics.median(values) for values in by_program.values()]
    return {
        "verdicts_per_s": len(latencies) / elapsed,
        "verdict_p50_ms": statistics.median(latencies) * 1000.0,
        "verdict_p90_ms": _quantile(latencies, 90) * 1000.0,
        "verdict_p99_ms": _quantile(latencies, 99) * 1000.0,
        "warm_run_geomean_ms": math.exp(statistics.fmean(
            math.log(m) for m in medians)) * 1000.0,
    }


def end_to_end(workload, phase: Phase, setups: list[tuple[float, float]],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The metrics scaled to the reference host, and as measured.

    Each verdict is scaled by its local host factor.  ``setups`` holds
    (seconds, host factor) per set-up: each is scaled by the factor its
    own process measured.
    """
    latencies = phase.latencies()
    scaled_latencies = [seconds / factor for seconds, factor
                        in zip(latencies, phase.local_factors())]
    # The gaps between verdicts are scaled like the verdicts around them.
    scaled_elapsed = phase.elapsed * sum(scaled_latencies) / sum(latencies)
    raw = {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        **latency_metrics(workload, phase, latencies, phase.elapsed),
        "peak_rss_mb": peak_rss_mb,
    }
    scaled = {
        "setup_s": statistics.median(seconds / f for seconds, f in setups),
        **latency_metrics(workload, phase, scaled_latencies, scaled_elapsed),
        "peak_rss_mb": peak_rss_mb,
    }
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in scaled.items()},
            {"metrics_as_measured": raw, "host_factor": host_factor(phase.calibrations),
             "setups_s_and_factor": setups})


def layer_sweep(workload, tracer) -> None:
    """Load each layer the workload's own traffic does not, briefly.

    The three oracle legs are replayed here, one engine per ``KccTool``,
    on every workload; the loop programs and the service are visited only
    when the workload does not already time them.
    """
    from repro.api import Checker
    from repro.core.config import CheckerOptions
    from repro.core.kcc import KccTool
    from repro.events import TraceRecorderProbe
    from repro.fuzz import generator, oracles
    from repro.service.client import ServiceClient

    from programs import LOOP_PROGRAMS
    from workloads import LoopsWarm, Server, ServeWarm, suite_cases

    tracer.phase = "sweep"
    legs = {
        "walker": (KccTool(CheckerOptions(enable_lowering=False)), True),
        "lowered_probed": (KccTool(CheckerOptions(engine="lowered")), True),
        "vm": (KccTool(CheckerOptions(engine="compiled")), False),
    }
    for index in range(SWEEP_CASES):
        case = generator.generate_case(workload.seed, index, inject="mixed")
        with tracer.span("verdict", verdict=index):
            oracles.run_oracles(case)
        for leg, (tool, probed) in legs.items():
            compiled = tool.compile_unit(case.source, filename=case.name)
            probes = [TraceRecorderProbe(filename=case.name)] if probed else None
            with tracer.span("core.replay", leg=leg):
                tool.run_unit(compiled, probes=probes)

    if not isinstance(workload, LoopsWarm):
        checker = Checker()
        for name, source in LOOP_PROGRAMS.items():
            with tracer.span("verdict"):
                checker.check(source, filename=name)

    server = workload.server if isinstance(workload, ServeWarm) else None
    own_server = server is None
    if own_server:
        server = Server(ROOT, workload.run_dir, jobs=1)
    try:
        cases = suite_cases()[:SWEEP_REQUESTS]
        checker = Checker()
        with ServiceClient(server.endpoint, request_timeout=60.0) as client:
            for case in cases:  # warm the worker and the in-process cache
                client.check([(case.name, case.source)])
                checker.check(case.source, filename=case.name)
            # The same request both ways, so that service.overhead_ms pairs
            # a round trip with an in-process check of the same program.
            for _ in range(SWEEP_ROUNDS):
                for case in cases:
                    client.ping()
                    with tracer.span("service.request", program=case.name):
                        client.check([(case.name, case.source)])
                    with tracer.span("service.inprocess", program=case.name):
                        checker.check(case.source, filename=case.name)
            client.stats()
    finally:
        if own_server:
            server.stop()


def times_by_index(phase: Phase, scaled: bool) -> dict[int, float]:
    """Each verdict's time, as measured or scaled by its local factor."""
    factors = phase.local_factors() if scaled else [1.0] * len(phase.samples)
    return {index: seconds / factor
            for (index, seconds, _, _), factor in zip(phase.samples, factors)}


def traced_run(arguments, run_dir: Path):
    """Untraced half, then traced half over the same inputs, then the sweep."""
    from programs import LOOP_PROGRAMS
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    workload, warmup = set_up(arguments.workload, arguments.seed, run_dir, tracer)
    try:
        tracer.uninstall()
        half = arguments.seconds / 2.0
        plain = drive(workload, seconds=half)
        tracer.install()
        tracer.phase = "timed"
        traced = drive(workload, tracer=tracer, seconds=half)
        layer_sweep(workload, tracer)
    finally:
        tracer.uninstall()
        workload.close()
    raw, sources = layer_metrics(tracer.spans, first_pass=workload.pass_size,
                                 loop_programs=LOOP_PROGRAMS)
    factor = host_factor(warmup.calibrations + plain.calibrations
                         + traced.calibrations)
    values = {name: (scale(value, unit, factor), unit)
              for name, (value, unit) in raw.items()}
    # Both halves check the same inputs in the same order: pair them by
    # index, each verdict scaled by its own local host factor, since the
    # host's load may change between the halves.
    for metrics, scaled in ((raw, False), (values, True)):
        untraced = times_by_index(plain, scaled)
        with_spans = times_by_index(traced, scaled)
        overhead = statistics.median(seconds - untraced[index]
                                     for index, seconds in with_spans.items()
                                     if index in untraced)
        metrics["trace.overhead_ms"] = (overhead * 1000.0, "ms")
    sources["trace.overhead_ms"] = "timed"
    # Reported as is, so a comparison sees when the factor itself moved.
    raw["host.factor"] = values["host.factor"] = (factor, "ratio")
    sources["host.factor"] = "every phase"
    extra = {"metrics_as_measured": {name: value for name, (value, _) in raw.items()},
             "host_factor": factor, "measured_in_phase": sources}
    return workload, [warmup, plain, traced], values, extra, tracer.spans


def untraced_run(arguments, run_dir: Path):
    """Set up, the timed phase, then the fresh set-ups once all is stopped."""
    workload, warmup = set_up(arguments.workload, arguments.seed, run_dir)
    ready = time.perf_counter() - STARTED
    setups = [(ready, setup_factor(warmup))]
    try:
        timed = drive(workload, seconds=arguments.seconds)
        peak_rss_mb = workload.peak_rss_mb()  # while the server is up
    finally:
        workload.close()
    setups += fresh_setups(arguments, SETUP_RUNS - 1)
    values, extra = end_to_end(workload, timed, setups, peak_rss_mb)
    return workload, [warmup, timed], values, extra


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def verdict_accounting(workload, warmup: Phase, timed: list[Phase]) -> dict:
    """failed_share over the timed verdicts; correctness over every verdict."""
    attempted = sum(len(phase.samples) for phase in timed)
    misses = [miss for phase in timed for miss in phase.misses()]
    errors = [error for phase in timed for error in phase.errors()]
    every_miss = set(misses) | set(warmup.misses())
    unexpected = sorted(every_miss - workload.expected_misses)
    failed = (sum(1 for miss in misses + warmup.misses()
                  if miss not in workload.expected_misses)
              + len(errors) + len(warmup.errors()))
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": (len(misses) + len(errors)) / attempted,
        "failed_share_base": f"{len(misses)} verdicts differing from the reference "
                             f"+ {len(errors)} exceptions, of {attempted} timed "
                             "verdicts",
        "known_misses_seen": sorted(every_miss & workload.expected_misses),
        "known_misses_fixed": sorted(workload.expected_misses - every_miss),
        "unexpected_misses": unexpected,
        "errors": (errors + warmup.errors())[:3],
    }


def run_one(arguments) -> int:
    run_dir = ROOT / ".perfbench-run" / str(os.getpid())
    run_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir)
    try:
        import_checker()
        if arguments.setup_only:
            workload, warmup = set_up(arguments.workload, arguments.seed, run_dir)
            ready = time.perf_counter() - STARTED
            print("ready", ready, setup_factor(warmup), flush=True)
            workload.close()
            return 0
        if arguments.trace:
            workload, phases, values, extra, spans = traced_run(arguments, run_dir)
        else:
            workload, phases, values, extra = untraced_run(arguments, run_dir)
            spans = []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    accounting = verdict_accounting(workload, phases[0], phases[1:])
    correct = accounting["failed"] == 0
    info = stamp(arguments)
    print("# " + " ".join(f"{key}={value}" for key, value in info.items()))
    print(f"# host factor {extra['host_factor']:.4g}: the calibration ran that many "
          "times slower than on the reference host; times are divided by it")
    as_measured = extra["metrics_as_measured"]
    for name, (value, unit) in values.items():
        print(f"{arguments.workload} {name} = {value:.6g} {unit} "
              f"(as measured {as_measured[name]:.6g})")
    print(f"{arguments.workload} failed_share = {accounting['failed_share']:.6g} "
          f"ratio ({accounting['failed_share_base']})")
    if accounting["known_misses_seen"]:
        print(f"{arguments.workload} known misses: "
              + ", ".join(accounting["known_misses_seen"]))
    if accounting["known_misses_fixed"]:
        print(f"{arguments.workload} known misses now agreeing with the label: "
              + ", ".join(accounting["known_misses_fixed"]))
    if not correct:
        print(f"{arguments.workload} FAILED: unexpected mismatches "
              f"{accounting['unexpected_misses']}, errors {accounting['errors']}")
    result = {
        "correct": correct,
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    if arguments.out is not None:
        write_output(arguments, info, result, accounting, extra, spans)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def write_output(arguments, info, result, accounting, extra, spans) -> None:
    arguments.out.mkdir(parents=True, exist_ok=True)
    stem = f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}"
    document = {"stamp": info, **result, "accounting": accounting, **extra}
    (arguments.out / f"{stem}.json").write_text(json.dumps(document, indent=2) + "\n")
    if spans:
        with open(arguments.out / f"{stem}.spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def run_all(arguments) -> int:
    """Every workload, each in its own process; non-zero if any one fails."""
    from workloads import WORKLOADS

    worst = 0
    summary = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
                   "--trace", str(arguments.trace)]
        if arguments.out is not None:
            command += ["--out", str(arguments.out)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, child.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except ValueError:
            summary[name] = None  # the workload crashed; its exit code says so
            worst = max(worst, 1)
    print(json.dumps({"correct": worst == 0, "workloads": summary}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite-cold", "loops-warm", "fuzz-oracles",
                                 "serve-warm", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="write the stamped result (and spans) here")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready <seconds> <host factor>' "
                             "and exit; setup_s takes the median of this "
                             "run's set-up and of such processes")
    arguments = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a started server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if arguments.out is not None:
        arguments.out = arguments.out.resolve()
    if arguments.workload == "all":
        return run_all(arguments)
    try:
        return run_one(arguments)
    except CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
