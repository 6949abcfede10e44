"""Fault injection for the warm pool's pipe protocol and the service on it.

Each test is bounded by an alarm, and every join or wait has a timeout.
Tasks that kill their own worker are module-level functions, so a forked
worker finds them by name; tests that depend on module state shut the pool
down first, so the workers they use are forked after that state is set.
"""

import asyncio
import json
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.api.batch as batch_module
import repro.campaign.scheduler as scheduler_module
import repro.service.server as server_module
from repro.api.batch import check_many, check_pair, iter_check_many
from repro.api.session import Checker
from repro.campaign.journal import load_journal
from repro.campaign.scheduler import ScheduleConfig, run_campaign_spec
from repro.campaign.workunit import CampaignSpec, execute_unit
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.pool import (
    WorkerLost,
    get_pool,
    pool_stats,
    run_staged,
    shutdown_pool,
)
from repro.service.server import (
    STALL_GRACE_SECONDS,
    check_pair_json,
    serve_in_background,
)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the warm pool forks its workers"
)

#: The alarm every test here runs under.
TEST_SECONDS = 120

PROGRAMS = [
    "int main(void) { return 0; }",
    "int main(void) { int x = 0; return 1 / x; }",
    "int main(void) { int i = 0; return i++ + i++; }",
    "int main(void) { int *p = 0; return *p; }",
    "int main(void) { int a[2] = {1, 2}; return a[1]; }",
]

#: A program whose check kills the worker running it (see _kill_check_pair
#: and _kill_check_pair_json).
KILL_PROGRAM = "int main(void) { return 0; } /* KILL */"

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_unit_marker = None  # set per test; read by _kill_unit_once in the workers


def _tag(header, item):
    return f"{header}:{item}"


def _slow_tag(header, item):
    time.sleep(0.2)
    return f"{header}:{item}"


def _kill_on(header, item):
    if item == header:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def _kill_check_pair(header, pair):
    if "KILL" in pair[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return check_pair(header, pair)


def _kill_check_pair_json(header, pair):
    if "KILL" in pair[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return check_pair_json(header, pair)


def _slow_check_pair(header, pair):
    time.sleep(0.05)
    return check_pair(header, pair)


def _kill_unit_once(header, unit):
    marker = pathlib.Path(_unit_marker)
    if unit["index"] == 1 and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_unit(header, unit)


@pytest.fixture(autouse=True)
def bounded():
    def expire(signum, frame):
        raise TimeoutError(f"test exceeded {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def serial_reports():
    return [report.to_dict() for report in check_many(PROGRAMS, jobs=1)]


def _dicts(reports):
    return [report.to_dict() for report in reports]


def _all_idle():
    stats = pool_stats()
    return stats["idle"] == stats["workers"] > 0


# -- (a) a killed worker through run_staged ---------------------------------


def test_killed_worker_raises_worker_lost_and_is_replaced(serial_reports):
    shutdown_pool()
    items = [str(index) for index in range(12)]
    with pytest.raises(WorkerLost) as lost:
        run_staged(_kill_on, "5", items, jobs=2, chunksize=2)
    assert lost.value.pid > 0
    assert lost.value.exitcode == -signal.SIGKILL
    assert f"pool worker {lost.value.pid}" in str(lost.value)
    stats = pool_stats()
    assert stats["replaced"] == 1 and stats["workers"] == 2 and _all_idle()
    assert _dicts(check_many(PROGRAMS, jobs=2)) == serial_reports
    assert run_staged(_tag, "ok", items, jobs=2) == [f"ok:{item}" for item in items]


def test_worker_that_died_idle_costs_no_chunk():
    shutdown_pool()
    pool = get_pool(2)
    victim = pool._idle[-1].process  # the top of the stack: the next one used
    victim.kill()
    victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL
    items = [str(index) for index in range(6)]
    assert run_staged(_tag, "h", items, jobs=2) == [f"h:{item}" for item in items]
    assert pool_stats()["replaced"] == 1 and _all_idle()


# -- (b) the same kill in iter_check_many and in a jobs=2 campaign -----------


def test_killed_worker_inside_iter_check_many(monkeypatch, serial_reports):
    shutdown_pool()
    monkeypatch.setattr(batch_module, "check_pair", _kill_check_pair)
    sources = PROGRAMS * 2 + [KILL_PROGRAM] + PROGRAMS
    seen = []
    with pytest.raises(WorkerLost):
        for report in iter_check_many(sources, jobs=2):
            seen.append(report.to_dict())
    assert len(seen) < len(sources)
    assert pool_stats()["replaced"] == 1
    assert _dicts(iter_check_many(PROGRAMS, jobs=2)) == serial_reports
    assert _all_idle()


def test_killed_worker_inside_a_pooled_campaign_is_retried(tmp_path, monkeypatch):
    spec = CampaignSpec(seed=23, count=8, unit_size=2, inject="rotate")
    inline = run_campaign_spec(spec, tmp_path / "inline.jsonl")
    shutdown_pool()
    monkeypatch.setattr(sys.modules[__name__], "_unit_marker", str(tmp_path / "hit"))
    monkeypatch.setattr(scheduler_module, "execute_unit", _kill_unit_once)
    journal = tmp_path / "pooled.jsonl"
    pooled = run_campaign_spec(
        spec, journal, ScheduleConfig(jobs=2, retries=2, backoff_base=0.0)
    )
    assert (tmp_path / "hit").exists()
    assert pooled.to_dict() == inline.to_dict()
    assert pooled.to_dict()["result_digest"] == inline.to_dict()["result_digest"]
    state, _ = load_journal(journal)
    errors = [error for errors in state.failures.values() for error in errors]
    assert len(errors) == 1 and errors[0].startswith("WorkerLost: pool worker")
    assert pool_stats()["replaced"] == 1


# -- (c) the same kill through serve ------------------------------------------


def _raw_connection(endpoint):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(endpoint[len("unix:") :])
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["event"] == "hello"
    return sock, reader, hello


def _send(sock, frame):
    sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))


def _frames_until_done(reader, job):
    frames = []
    while True:
        frame = json.loads(reader.readline())
        if frame.get("job") == job:
            frames.append(frame)
            if frame["event"] == "done":
                return frames


def test_killed_worker_fails_one_serve_job(monkeypatch, serial_reports):
    shutdown_pool()
    monkeypatch.setattr(server_module, "check_pair_json", _kill_check_pair_json)
    with serve_in_background(jobs=2) as endpoint:
        sock, reader, hello = _raw_connection(endpoint)
        assert "replaced" in hello["pool"]
        try:
            _send(sock, {"op": "check", "id": "doomed", "sources": [KILL_PROGRAM]})
            frames = _frames_until_done(reader, "doomed")
            errors = [frame for frame in frames if frame["event"] == "error"]
            assert len(errors) == 1
            assert errors[0]["code"] == protocol.ERROR_INTERNAL
            assert errors[0]["message"].startswith("WorkerLost: pool worker")
            assert frames[-1]["status"] == protocol.STATUS_ERROR
            _send(sock, {"op": "check", "id": "next", "sources": PROGRAMS})
            frames = _frames_until_done(reader, "next")
            reports = [f["report"] for f in frames if f["event"] == "report"]
            assert reports == serial_reports
            assert frames[-1]["status"] == protocol.STATUS_OK
            _send(sock, {"op": "stats"})
            stats = json.loads(reader.readline())
            assert stats["event"] == "stats" and stats["pool"]["replaced"] == 1
        finally:
            sock.close()


# -- (d) SIGKILL the serve process -------------------------------------------


def _serve_process(socket_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(socket_path)]
        + ["--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line
    return process


def _children(pid):
    children = []
    for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
        children.extend(int(child) for child in (task / "children").read_text().split())
    return children


def _gone(pid):
    try:
        fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except FileNotFoundError:
        return True
    return fields.split()[0] in ("Z", "X")  # exited, not yet reaped


def _stop(process):
    """Leave nothing of the server's process group behind."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)
    process.stdout.close()


@pytest.mark.skipif(not pathlib.Path("/proc/self/task").exists(), reason="needs /proc")
def test_workers_exit_when_serve_is_killed(tmp_path, serial_reports):
    process = _serve_process(tmp_path / "serve.sock")
    try:
        with ServiceClient(f"unix:{tmp_path / 'serve.sock'}") as client:
            assert client.check(PROGRAMS) == serial_reports
        workers = _children(process.pid)
        assert len(workers) == 2
        process.kill()
        process.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while not all(_gone(pid) for pid in workers):
            assert time.monotonic() < deadline, "workers outlived serve by 10 s"
            time.sleep(0.05)
    finally:
        _stop(process)


# -- (e) no caller reads another caller's reply --------------------------------


def test_abandoned_iter_check_many_leaves_no_stale_reply(monkeypatch, serial_reports):
    get_pool(2)
    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "check_pair", _slow_check_pair)
        reports = iter_check_many(PROGRAMS * 6, jobs=2)
        first = next(reports)
        reports.close()
    assert first.to_dict() == serial_reports[0]
    assert _all_idle()
    assert _dicts(check_many(PROGRAMS, jobs=2)) == serial_reports
    assert _dicts(iter_check_many(PROGRAMS, jobs=2)) == serial_reports


def test_cancelled_server_chunk_leaves_no_stale_reply():
    shutdown_pool()
    pool = get_pool(1)  # one worker: every chunk below runs on it

    async def scenario():
        loop = asyncio.get_running_loop()
        # Cancelled while its chunk runs on the worker.
        running = asyncio.create_task(pool.run_chunk(loop, _slow_tag, "old", ["a"]))
        await asyncio.sleep(0.05)
        running.cancel()
        # Cancelled while it waits in the queue for the busy worker.
        holder = asyncio.create_task(pool.run_chunk(loop, _slow_tag, "held", ["b"]))
        await asyncio.sleep(0)
        queued = asyncio.create_task(pool.run_chunk(loop, _tag, "queued", ["c"]))
        await asyncio.sleep(0.05)
        queued.cancel()
        for task in (running, queued):
            with pytest.raises(asyncio.CancelledError):
                await asyncio.wait_for(task, 30)
        assert await asyncio.wait_for(holder, 30) == ["held:b"]
        return await asyncio.wait_for(pool.run_chunk(loop, _tag, "new", ["d"]), 30)

    assert asyncio.run(scenario()) == ["new:d"]
    assert pool.run_staged(_tag, "next", ["e", "f"]) == ["next:e", "next:f"]
    assert pool.stats()["idle"] == pool.stats()["workers"] == 1


# -- (f) threads and an event loop on one pool -------------------------------


def test_threads_and_a_loop_share_one_pool_under_stress():
    shutdown_pool()
    pool = get_pool(3)
    failures = []
    deadline = time.monotonic() + 3.0

    def batches(thread):
        rng = random.Random(thread)
        try:
            while time.monotonic() < deadline:
                items = [f"{thread}.{i}" for i in range(rng.randint(2, 12))]
                header = f"t{thread}"
                got = run_staged(_tag, header, items, jobs=3, chunksize=2)
                if got != [_tag(header, item) for item in items]:
                    failures.append((header, items, got))
        except Exception as error:
            failures.append(error)

    async def chunks():
        loop = asyncio.get_running_loop()
        rng = random.Random(99)
        count = 0
        while time.monotonic() < deadline:
            tasks = []
            for _ in range(3):
                count += 1
                item = str(count)
                task = asyncio.create_task(pool.run_chunk(loop, _tag, "loop", [item]))
                tasks.append((task, item))
            await asyncio.sleep(rng.choice([0, 0, 0.0005]))
            victim = rng.choice(tasks)[0]
            victim.cancel()
            for task, item in tasks:
                try:
                    got = await asyncio.wait_for(task, 30)
                except asyncio.CancelledError:
                    if task is not victim:
                        raise
                    continue
                if got != [_tag("loop", item)]:
                    failures.append(("loop", item, got))
        # A cancelled chunk's reply is read by this loop's reader, so keep
        # the loop running until the threads' last batches release theirs.
        settle = time.monotonic() + 30.0
        while pool.stats()["idle"] < 3 and time.monotonic() < settle:
            await asyncio.sleep(0.01)

    threads = [threading.Thread(target=batches, args=(n,)) for n in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        asyncio.run(chunks())
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert pool.stats()["idle"] == pool.stats()["workers"] == 3
    assert pool.stats()["replaced"] == 0


# -- the frame limit -------------------------------------------------------------


def _large_program(statements):
    body = "  x = x + 1;\n" * statements
    return f"int main(void) {{\n  int x = 0;\n{body}  return x - {statements};\n}}\n"


def test_a_78_kb_program_gets_the_in_process_report():
    source = _large_program(6000)
    assert len(source) > 78_000
    expected = Checker().check(source, filename="big.c").to_dict()
    assert expected["outcome"]["kind"] == "defined"
    with serve_in_background(jobs=2) as endpoint:
        with ServiceClient(endpoint, max_retries=0, request_timeout=60) as client:
            assert client.check([("big.c", source)]) == [expected]


def test_a_line_past_the_frame_limit_gets_a_protocol_error(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    with serve_in_background(jobs=1) as endpoint:
        sock, reader, _ = _raw_connection(endpoint)
        try:
            request = {"op": "check", "id": "big", "sources": [_large_program(400)]}
            _send(sock, request)
            _send(sock, {"op": "ping"})
            errors = []
            while True:
                frame = json.loads(reader.readline())
                if frame["event"] == "pong":
                    break
                errors.append(frame)
            assert errors and all(frame["event"] == "error" for frame in errors)
            assert all(frame["code"] == protocol.ERROR_PROTOCOL for frame in errors)
            assert "4096-byte limit" in errors[0]["message"]
        finally:
            sock.close()


# -- a drain with a client that stopped reading -------------------------------


def test_sigterm_drain_aborts_a_client_that_stopped_reading(tmp_path):
    socket_path = tmp_path / "serve.sock"
    endpoint = f"unix:{socket_path}"
    process = _serve_process(socket_path)
    stalled = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        stalled.connect(str(socket_path))
        for job in range(4):
            request = {"op": "check", "id": f"s{job}", "sources": [PROGRAMS[0]] * 1000}
            _send(stalled, request)
        with ServiceClient(endpoint, request_timeout=60) as watcher:
            deadline = time.monotonic() + 60
            while watcher.stats()["jobs_active"] < 4:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        time.sleep(1.0)  # let the stalled jobs fill their socket buffers
        sources = [f"int main(void) {{ return {index} % 7; }}" for index in range(300)]
        stopped = []

        def stop_on_progress(frame):
            if frame["event"] == "progress" and not stopped:
                stopped.append(time.monotonic())
                process.send_signal(signal.SIGTERM)

        with ServiceClient(endpoint, request_timeout=60, max_retries=0) as client:
            reports = client.check(sources, on_event=stop_on_progress)
        assert stopped
        assert len(reports) == len(sources)
        assert [report["outcome"]["exit_code"] for report in reports] == [
            index % 7 for index in range(len(sources))
        ]
        process.wait(timeout=STALL_GRACE_SECONDS + 10)
        assert process.returncode == 0
        assert "drained" in process.stdout.read()
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)  # the workers were reaped
    finally:
        stalled.close()
        _stop(process)


def test_a_consumer_may_run_a_pooled_batch_per_streamed_report(serial_reports):
    get_pool(2)
    seen = []
    for report in iter_check_many(PROGRAMS * 3, jobs=2):
        seen.append(report.to_dict())
        assert _dicts(check_many(PROGRAMS, jobs=2)) == serial_reports
    assert seen == _dicts(check_many(PROGRAMS * 3, jobs=1))
    assert _all_idle()
