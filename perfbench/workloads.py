"""The four workloads: inputs, one verdict, and the reference it must meet.

Every workload is a closed loop: a client sends its next request only when
the previous verdict is back.  Inputs are a pure function of the seed and
come in passes of ``pass_size`` verdicts; verdict ``i`` checks the same
input for a given seed, so the two halves of a traced run, or two runs of
one seed, see the same programs in the same order.

``verdict`` returns None when the result meets the reference, or the name
of the input whose result does not.  No reference comes from kcc itself:
suite labels are hand-written, loop exit codes are worked out by hand,
fuzz cases carry the generator's own simulated result, and the service is
held to an in-process checker.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional

from programs import KNOWN_SUITE_MISSES, LOOP_EXIT_CODES, LOOP_PROGRAMS


def suite_cases() -> list:
    """The 150 ubsuite and 128 Juliet programs with their ``is_bad`` labels."""
    from repro.suites import generate_juliet_suite, generate_undefinedness_suite

    return (list(generate_undefinedness_suite().cases)
            + list(generate_juliet_suite().cases))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    #: Passes of the warm-up that ends the set-up (see ``warmup_size``).
    warmup_passes = 1
    #: Disagreements with the reference that are known and pinned by name.
    expected_misses: frozenset = frozenset()

    def __init__(self, seed: int, root: Path, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.pass_size = 1

    def warmup_size(self) -> int:
        """Verdicts of the warm-up that ends the set-up."""
        return self.warmup_passes * self.pass_size

    def program(self, index: int) -> str:
        raise NotImplementedError

    def verdict(self, index: int) -> Optional[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def quiesce(self) -> None:
        """Return once nothing of the system under test is still running.

        In process this holds between verdicts already.
        """

    def close(self) -> None:
        pass


class _SuitePasses(Workload):
    """The suite programs, shuffled anew for each pass."""

    def __init__(self, seed: int, root: Path, run_dir: Path) -> None:
        super().__init__(seed, root, run_dir)
        self.cases = suite_cases()
        self.pass_size = len(self.cases)
        self._orders: dict[int, list[int]] = {}

    def case(self, index: int):
        pass_no, position = divmod(index, self.pass_size)
        order = self._orders.get(pass_no)
        if order is None:
            order = list(range(self.pass_size))
            random.Random(f"{self.seed}:{pass_no}").shuffle(order)
            self._orders[pass_no] = order
        return self.cases[order[position]]

    def program(self, index: int) -> str:
        return self.case(index).name


class SuiteCold(_SuitePasses):
    """Each program checked by a fresh ``Checker``: ``kcc-check check``."""

    name = "suite-cold"
    expected_misses = KNOWN_SUITE_MISSES

    def verdict(self, index: int) -> Optional[str]:
        from repro.api import Checker

        case = self.case(index)
        report = Checker().check(case.source, filename=case.name)
        return None if report.flagged == case.is_bad else case.name


#: Checks of each loops-warm program in one pass, fastest program first.
#: The programs' check times are far apart (about 36, 46, 98 and 540 ms), so
#: a latency percentile that falls where one program's checks end and the
#: next one's begin jumps between them from run to run: with one check of
#: each, p50 sat between arith-loop and call-chain and p99 near the slowest
#: of pointer-walk's checks, and both spread 22-40% over ten runs.  These
#: shares (18%, 64%, 16%, 2%) put p50 in the middle of arith-loop's checks,
#: p90 in the middle of call-chain's and p99 in the middle of
#: pointer-walk's.
LOOP_SCHEDULE = {"array-sweep": 9, "arith-loop": 32, "call-chain": 8,
                 "pointer-walk": 1}


class LoopsWarm(Workload):
    """Four interpreter-bound programs re-checked through one ``Checker``.

    A pass checks them in the mix of ``LOOP_SCHEDULE``; it opens with each
    program once, in an order set by the seed, and goes on in a shuffled
    order.  The warm-up is those first checks: it compiles each program
    once, so every timed check is a compile-cache hit and the dynamic stage
    is all that runs.
    """

    name = "loops-warm"

    def __init__(self, seed: int, root: Path, run_dir: Path) -> None:
        from repro.api import Checker

        super().__init__(seed, root, run_dir)
        names = list(LOOP_PROGRAMS)
        first = names[seed % len(names):] + names[:seed % len(names)]
        rest = [name for name, checks in LOOP_SCHEDULE.items()
                for _ in range(checks - 1)]
        random.Random(seed).shuffle(rest)
        self.order = first + rest
        self.pass_size = len(self.order)
        self.expected_exit = dict(LOOP_EXIT_CODES)
        self.checker = Checker()

    def warmup_size(self) -> int:
        return len(LOOP_PROGRAMS)

    def program(self, index: int) -> str:
        return self.order[index % self.pass_size]

    def verdict(self, index: int) -> Optional[str]:
        from repro.errors import OutcomeKind

        name = self.program(index)
        outcome = self.checker.check(LOOP_PROGRAMS[name], filename=name).outcome
        if outcome.kind is OutcomeKind.DEFINED and \
                outcome.exit_code == self.expected_exit[name]:
            return None
        return name


class FuzzOracles(Workload):
    """``generate_case`` then ``run_oracles``: the ``kcc-check fuzz`` stack."""

    name = "fuzz-oracles"

    def __init__(self, seed: int, root: Path, run_dir: Path) -> None:
        super().__init__(seed, root, run_dir)
        #: Cases per pass: the fixed sample the count metrics read.
        self.pass_size = 16

    def program(self, index: int) -> str:
        return f"case-{index}"

    def verdict(self, index: int) -> Optional[str]:
        from repro.fuzz import generator, oracles

        case = generator.generate_case(self.seed, index, inject="mixed")
        report = oracles.run_oracles(case)
        return None if meets_ground_truth(case, report) else case.name


def meets_ground_truth(case, report) -> bool:
    """The oracle stack found no mismatch and the verdict fits the label.

    A clean case must be defined (the ground-truth oracle holds its stdout
    and exit code to the generator's simulation); a planted defect must be
    flagged as one of its template's kinds.
    """
    if not report.ok:
        return False
    if not case.is_bad:
        return report.verdict == "defined"
    if report.verdict not in ("undefined", "static-error"):
        return False
    expected = {kind.name for kind in case.expected_kinds}
    return not expected or report.detected_kind in expected


class Server:
    """``python -m repro serve`` on a unix socket in the run directory."""

    def __init__(self, root: Path, run_dir: Path, *, jobs: int) -> None:
        # Relative to the checkout root, the working directory of this
        # process and of the server, to stay under the socket path limit.
        self.socket = os.path.relpath(run_dir / f"serve-{id(self)}.sock", root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(run_dir))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=root, start_new_session=True)
        try:
            line = self.process.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"serve did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.endpoint = f"unix:{self.socket}"

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and its pool workers, summed."""
        total_kb = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pending.extend(int(child) for child in
                                   (task / "children").read_text().split())
            except FileNotFoundError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, and leave nothing of the group behind."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        self.process.stdout.close()


class ServeWarm(_SuitePasses):
    """Suite programs, one per request, from one client of a warm server.

    One client, not two: with two, the client, the server and two pool
    workers share the host's 2 CPUs, and the p99 latency spread from run to
    run was 50% (one client: 7%), set by the host's other tenants.  The
    client, the server and its workers are pinned to one CPU, so that no
    hop of a request waits for an idle CPU to wake: unpinned, throughput
    was bimodal from run to run (about 500 or 1,000 requests/s).
    """

    name = "serve-warm"
    #: A request lands on whichever pool worker takes it; after 4 passes a
    #: worker has missed a given program with probability 1/16.
    warmup_passes = 4

    def __init__(self, seed: int, root: Path, run_dir: Path) -> None:
        from repro.api import Checker
        from repro.service.client import ServiceClient

        super().__init__(seed, root, run_dir)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited
        self.reference = {case.name: Checker().check(
            case.source, filename=case.name).to_dict() for case in self.cases}
        self.server = Server(root, run_dir, jobs=2)
        try:
            self.client = ServiceClient(self.server.endpoint, request_timeout=60.0)
        except BaseException:
            self.server.stop()
            raise

    def verdict(self, index: int) -> Optional[str]:
        case = self.case(index)
        got = self.client.check([(case.name, case.source)])
        return None if got == [self.reference[case.name]] else case.name

    def quiesce(self) -> None:
        """A stats round trip: the server has finished with the last reply."""
        for _ in range(100):
            stats = self.client.stats()
            if stats["jobs_active"] == 0 and \
                    stats["jobs_started"] == stats["jobs_completed"]:
                return
        raise RuntimeError(f"the service never went idle: {stats}")

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb() + self.server.peak_rss_mb()

    def close(self) -> None:
        self.client.close()
        self.server.stop()


WORKLOADS = {cls.name: cls for cls in (SuiteCold, LoopsWarm, FuzzOracles, ServeWarm)}
