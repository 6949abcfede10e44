"""An event loop's watch on a worker's pipe, and what a chunk leaves behind.

A loop watches a worker's pipe from the first chunk it sends that worker
and drops the watch only when something else wakes it or the pipe closes.
A worker sweeps for zombies only while it may have children, and a chunk
ends with the recursion limit it found.  Each test runs under an alarm, so
a hang fails.
"""

import asyncio
import functools
import os
import pathlib
import signal
import sys
import threading
import time

import pytest

import repro.service.server as server_module
from repro.api.batch import check_header, check_many, check_pair
from repro.api.session import Checker
from repro.core.config import DEFAULT_OPTIONS
from repro.errors import OutcomeKind
from repro.service.client import ServiceClient, ServiceError
from repro.service.pool import get_pool, shutdown_pool
from repro.service.server import check_pair_json, serve_in_background

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the warm pool forks its workers"
)

#: The alarm every test here runs under.
TEST_SECONDS = 120

PROGRAMS = [
    "int main(void) { return 0; }",
    "int main(void) { int x = 0; return 1 / x; }",
    "int main(void) { int *p = 0; return *p; }",
]

#: A program whose check kills the worker running it (_kill_check_pair_json).
KILL_PROGRAM = "int main(void) { return 0; } /* KILL */"

#: Reads ``d`` and calls a function that writes it, unsequenced: the search
#: forks a checkpoint to run the other order.
SET_DENOM = """
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
"""

DEEP_PARENTHESES = "int main(void){ return " + "(" * 12000 + "0" + ")" * 12000 + "; }"


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


def _tag(header, item):
    return f"{header}:{item}"


def _kill_check_pair_json(header, pair):
    if "KILL" in pair[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return check_pair_json(header, pair)


def _count_waitpid(header, item):
    """In the worker: count ``os.waitpid`` calls from now on; the count so far."""
    if not hasattr(os.waitpid, "calls"):
        real = os.waitpid

        def counting(*args):
            counting.calls += 1
            return real(*args)

        counting.calls = 0
        os.waitpid = counting
    return os.waitpid.calls


def _fork_search(header, source):
    return Checker().search(source, checkpoint="fork").outcome.kind.value


def _leave_a_zombie(header, item):
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    return pid


def _children(pid):
    children = []
    for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
        children.extend(int(child) for child in (task / "children").read_text().split())
    return children


# -- (a) one watch per worker for a run of chunks from one loop -------------


def test_a_loop_adds_one_reader_per_worker_and_removes_none():
    shutdown_pool()
    pool = get_pool(2)

    async def chunks():
        loop = asyncio.get_running_loop()
        added, removed = [], []
        add, remove = loop.add_reader, loop.remove_reader

        def counting_add(fd, *args):
            added.append(fd)
            return add(fd, *args)

        def counting_remove(fd):
            removed.append(fd)
            return remove(fd)

        loop.add_reader, loop.remove_reader = counting_add, counting_remove
        results = [await pool.run_chunk(loop, _tag, "h", [str(i)]) for i in range(20)]
        return results, added, removed

    results, added, removed = asyncio.run(chunks())
    assert results == [[f"h:{i}"] for i in range(20)]
    assert 1 <= len(added) == len(set(added)) <= 2
    assert removed == []
    assert pool.stats()["idle"] == pool.stats()["workers"] == 2


# -- (b) a loop and blocking callers take turns on one worker ---------------


def test_loop_chunks_and_blocking_batches_take_turns_on_one_worker():
    shutdown_pool()
    pool = get_pool(1)
    items = [str(i) for i in range(4)]

    async def turns():
        loop = asyncio.get_running_loop()
        got = []
        for turn in range(10):
            got.append(await pool.run_chunk(loop, _tag, f"loop{turn}", [str(turn)]))
            batch = functools.partial(
                pool.run_staged, _tag, f"batch{turn}", items, chunksize=1
            )
            if turn % 2:  # from this loop's own thread, blocking it
                got.append(batch())
            else:  # from another thread while the loop runs
                got.append(await loop.run_in_executor(None, batch))
        return got

    expected = []
    for turn in range(10):
        expected.append([_tag(f"loop{turn}", str(turn))])
        expected.append([_tag(f"batch{turn}", item) for item in items])
    assert asyncio.run(turns()) == expected
    assert pool.stats()["idle"] == pool.stats()["workers"] == 1


def test_two_loops_on_two_threads_take_turns_on_one_worker():
    shutdown_pool()
    pool = get_pool(1)

    async def chunks(name):
        loop = asyncio.get_running_loop()
        return [await pool.run_chunk(loop, _tag, name, [str(i)]) for i in range(20)]

    results = {}

    def run(name):
        results[name] = asyncio.run(chunks(name))

    # Daemon threads, so that a loop that hangs fails the test instead of
    # keeping the test process alive.
    threads = [threading.Thread(target=run, args=(name,), daemon=True) for name in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TEST_SECONDS / 4)
    assert results == {name: [[f"{name}:{i}"] for i in range(20)] for name in "ab"}
    assert pool.stats()["idle"] == pool.stats()["workers"] == 1


# -- (c) serve keeps answering when a worker's pipe closes under its loop ---


def test_serve_answers_after_a_replaced_worker_and_after_a_new_pool(monkeypatch):
    serial = [report.to_dict() for report in check_many(PROGRAMS, jobs=1)]
    shutdown_pool()
    monkeypatch.setattr(server_module, "check_pair_json", _kill_check_pair_json)

    def answers(endpoint, client):
        assert client.check(PROGRAMS) == serial
        with ServiceClient(endpoint, request_timeout=60.0) as fresh:
            assert fresh.check(PROGRAMS) == serial

    with serve_in_background(jobs=2) as endpoint:
        with ServiceClient(endpoint, request_timeout=60.0) as client:
            answers(endpoint, client)
            with pytest.raises(ServiceError, match="^WorkerLost: pool worker"):
                client.check([KILL_PROGRAM])
            answers(endpoint, client)
            assert client.stats()["pool"]["replaced"] == 1
            # The serve loop watches the old pool's pipes; the new pool's
            # pipes and the next client's socket may reuse their numbers.
            shutdown_pool()
            get_pool(2)
            answers(endpoint, client)
            assert client.stats()["pool"]["replaced"] == 0


# -- (d) a worker sweeps for zombies only while it may have children --------


@pytest.mark.skipif(not pathlib.Path("/proc/self/task").exists(), reason="needs /proc")
def test_a_worker_sweeps_only_after_it_forks_and_leaves_no_zombie():
    shutdown_pool()
    pool = get_pool(1)
    pid = pool._workers[0].process.pid
    assert pool.run_staged(_count_waitpid, None, ["install"]) == [0]
    for _ in range(5):
        pool.run_staged(_tag, "h", ["x"])
    assert pool.run_staged(_count_waitpid, None, ["read"]) == [0]

    assert pool.run_staged(_fork_search, None, [SET_DENOM]) == ["undefined"]
    assert _children(pid) == []
    swept = pool.run_staged(_count_waitpid, None, ["read"])[0]
    assert swept > 0  # the search's forks, and the sweep after them

    (zombie,) = pool.run_staged(_leave_a_zombie, None, ["fork"])
    deadline = time.monotonic() + 30.0
    while _children(pid):
        assert time.monotonic() < deadline, f"{zombie} still a child of {pid}"
        time.sleep(0.01)
        pool.run_staged(_tag, "h", ["x"])
    calls = pool.run_staged(_count_waitpid, None, ["read"])[0]
    pool.run_staged(_tag, "h", ["x"])
    assert pool.run_staged(_count_waitpid, None, ["read"]) == [calls]


# -- one caller's max_call_depth does not move another's verdict ------------


def test_a_deep_call_limit_does_not_outlive_its_chunk():
    shutdown_pool()
    # The worker starts from the limit of a process that ran no check.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        pool = get_pool(1)
    finally:
        sys.setrecursionlimit(limit)
    header = check_header(DEFAULT_OPTIONS, False, True, None)
    deep_header = check_header(
        DEFAULT_OPTIONS.without(max_call_depth=2000), False, True, None
    )

    def kind(source):
        (report,) = pool.run_staged(check_pair, header, [("deep.c", source)])
        return report.outcome.kind

    assert kind(DEEP_PARENTHESES) is OutcomeKind.INCONCLUSIVE
    pool.run_staged(check_pair, deep_header, [("ok.c", PROGRAMS[0])])
    # Another text of the same program, so that the compile cache does not
    # answer with the first check's translation.
    assert kind(DEEP_PARENTHESES + "\n") is OutcomeKind.INCONCLUSIVE
