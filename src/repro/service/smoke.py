"""End-to-end smoke drive of ``kcc-check serve`` (the CI ``serve-smoke`` job).

Starts a real server subprocess on a unix socket, drives a mixed workload —
concurrent check batches from eight clients, a fuzz campaign, an
evaluation-order search, a mid-job cancellation — asserts every verdict is
identical to a direct in-process :class:`repro.api.Checker` and every job's
frames arrive in protocol order (``accepted`` first, ``done`` last, one
``progress`` per chunk after the reports it counts), then sends SIGTERM and
verifies the drain: exit code 0 and an empty process group (no orphaned
warm-pool workers).

Run it as ``python -m repro.service.smoke``; exits non-zero on any failure.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

from repro.service.client import JobCancelled, ServiceClient
from repro.service.server import CHECK_CHUNK, FUZZ_CHUNK

CLIENTS = 8

#: The check workload: defined and undefined programs, plus a static error.
PROGRAMS = [
    "int main(void) { return 0; }",
    "int main(void) { int x = 0; return 1 / x; }",
    "int main(void) { int i = 0; return i++ + i++; }",
    "int main(void) { int *p = 0; return *p; }",
    "int main(void) { int a[2] = {1, 2}; return a[0] + a[1]; }",
    'int main(void) { return "x" + 1 == 0; }',
]

SEARCH_PROGRAM = "int main(void) { int i = 0; return (i = 1) + (i = 2); }"


def _spawn_server(socket_path: pathlib.Path) -> subprocess.Popen:
    src_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p],
    )
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--socket",
        str(socket_path),
        "--jobs",
        "2",
    ]
    # Its own session: the server and its pool workers form one process
    # group, so "no orphans" is one killpg probe at the end.
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )


def _wait_for_socket(
    socket_path: pathlib.Path,
    process: subprocess.Popen,
    timeout: float = 120.0,
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output = process.stdout.read() if process.stdout else ""
            raise RuntimeError(f"server exited before binding:\n{output}")
        if socket_path.exists():
            return
        time.sleep(0.05)
    raise RuntimeError("server did not bind its socket in time")


class _RecordingClient(ServiceClient):
    """A client that keeps every frame it reads, for the frame-order check."""

    def __init__(self, endpoint: str) -> None:
        self.frames: list[dict] = []
        super().__init__(endpoint)

    def _read_frame(self) -> dict:
        frame = super()._read_frame()
        self.frames.append(frame)
        return frame

    def order_failures(self, job: str, chunk: int, total: int) -> list[str]:
        """How ``job``'s frames break the protocol order, if they do."""
        frames = [frame for frame in self.frames if frame.get("job") == job]
        events = [frame["event"] for frame in frames]
        failures = []
        if not events or events[0] != "accepted" or events.count("accepted") != 1:
            failures.append(f"{job}: accepted is not the one first frame: {events}")
        if not events or events[-1] != "done" or events.count("done") != 1:
            failures.append(f"{job}: done is not the one last frame: {events}")
        progress = [frame["done"] for frame in frames if frame["event"] == "progress"]
        chunks = [min(chunk * number, total) for number in range(1, len(progress) + 1)]
        if progress != chunks:
            failures.append(f"{job}: progress {progress}, not one per chunk {chunks}")
        if frames and frames[-1].get("status") == "ok" and progress[-1:] != [total]:
            failures.append(f"{job}: finished without progress {total}/{total}")
        reports = 0
        for frame in frames:
            if frame["event"] == "report":
                if frame["index"] != reports:
                    failures.append(f"{job}: report {frame['index']} out of order")
                reports += 1
            elif frame["event"] == "progress" and "report" in events:
                if frame["done"] != reports:
                    failures.append(
                        f"{job}: progress {frame['done']} after {reports} reports"
                    )
        return failures


def _client_workload(
    endpoint: str,
    worker: int,
    expected: list[dict],
    failures: list[str],
) -> None:
    try:
        with _RecordingClient(endpoint) as client:
            job = client.next_job_id()
            if worker == CLIENTS - 1:
                report = client.search(SEARCH_PROGRAM, budget="paths=16", job=job)
                if report["outcome"]["kind"] != "undefined":
                    failures.append(f"worker {worker}: search missed the UB")
                failures.extend(client.order_failures(job, 1, 1))
            elif worker == CLIENTS - 2:
                result = client.fuzz(seed=3, count=8, inject="mixed", job=job)
                if result["cases"] != 8:
                    failures.append(f"worker {worker}: fuzz ran {result['cases']}/8")
                failures.extend(client.order_failures(job, FUZZ_CHUNK, 8))
            else:
                reports = client.check(PROGRAMS, job=job)
                if reports != expected:
                    failures.append(f"worker {worker}: verdicts differ from serial")
                failures.extend(client.order_failures(job, CHECK_CHUNK, len(PROGRAMS)))
    except Exception as error:
        failures.append(f"worker {worker}: {type(error).__name__}: {error}")


def _cancellation_exercise(endpoint: str, failures: list[str]) -> None:
    try:
        with _RecordingClient(endpoint) as client:
            job = client.next_job_id()

            def on_event(frame: dict) -> None:
                if frame.get("event") == "progress":
                    client.cancel(job)

            try:
                client.check(PROGRAMS * 10, job=job, on_event=on_event)
            except JobCancelled as cancelled:
                if len(cancelled.partial) >= len(PROGRAMS) * 10:
                    failures.append("cancel: job ran to completion anyway")
            else:
                failures.append("cancel: job was never cancelled")
            failures.extend(client.order_failures(job, CHECK_CHUNK, len(PROGRAMS) * 10))
    except Exception as error:
        failures.append(f"cancel: {type(error).__name__}: {error}")


def main(argv: Optional[list[str]] = None) -> int:
    from repro.api.session import Checker

    failures: list[str] = []
    expected = [report.to_dict() for report in Checker().check_many(PROGRAMS)]
    with tempfile.TemporaryDirectory(prefix="kcc-serve-smoke-") as tempdir:
        socket_path = pathlib.Path(tempdir) / "serve.sock"
        process = _spawn_server(socket_path)
        try:
            _wait_for_socket(socket_path, process)
            endpoint = f"unix:{socket_path}"
            threads = [
                threading.Thread(
                    target=_client_workload,
                    args=(endpoint, worker, expected, failures),
                )
                for worker in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            _cancellation_exercise(endpoint, failures)
            with ServiceClient(endpoint) as client:
                client.ping()
                stats = client.stats()
                if stats["jobs_completed"] < CLIENTS:
                    failures.append(f"stats: only {stats['jobs_completed']} jobs done")
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=120.0)
            if process.returncode != 0:
                failures.append(f"server exited {process.returncode} on SIGTERM")
            # The server was its process group's leader; after a clean drain
            # nothing in the group may survive.
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                pass
            else:
                failures.append("orphaned processes survived the drain")
        finally:
            if process.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=30.0)
    if failures:
        for failure in failures:
            print(f"serve-smoke FAIL: {failure}")
        return 1
    print(
        f"serve-smoke OK: {CLIENTS} concurrent clients, verdicts identical "
        "to serial, frames in order, cancel honored, drained with no orphans",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
