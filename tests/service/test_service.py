"""The checking service end to end: identity, concurrency, cancel, errors.

One background server (module fixture) serves every test; each test talks
to it with fresh client connections, exactly as concurrent users would.
"""

import json
import socket
import threading

import pytest

from repro.api.session import Checker
from repro.core.config import CheckerOptions
from repro.cfront import ctypes as ct
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.service.client import JobCancelled, ServiceClient, ServiceError
from repro.service.server import serve_in_background

PROGRAMS = [
    "int main(void) { return 0; }",
    "int main(void) { int x = 0; return 1 / x; }",
    "int main(void) { int i = 0; return i++ + i++; }",
    "int main(void) { int *p = 0; return *p; }",
    "int main(void) { int a[2] = {1, 2}; return a[1]; }",
]


@pytest.fixture(scope="module")
def endpoint():
    with serve_in_background(jobs=2) as running:
        yield running


@pytest.fixture(scope="module")
def expected_reports():
    return [report.to_dict() for report in Checker().check_many(PROGRAMS)]


def _raw_connection(endpoint):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(endpoint[len("unix:") :])
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["event"] == "hello"
    return sock, reader


def test_check_job_identical_to_direct_checker(endpoint, expected_reports):
    with ServiceClient(endpoint) as client:
        events = []
        reports = client.check(PROGRAMS, on_event=lambda f: events.append(f))
    assert reports == expected_reports
    assert events[0]["event"] == "accepted"
    assert events[0]["total"] == len(PROGRAMS)
    assert events[-1]["event"] == "progress"
    assert events[-1]["done"] == len(PROGRAMS)


def test_check_job_honors_options_profile(endpoint):
    source = "int main(void) { return sizeof(long) == 8; }"
    options = CheckerOptions(profile=ct.PROFILES["ilp32"])
    direct = Checker(options).check_many([source])[0].to_dict()
    with ServiceClient(endpoint) as client:
        via_service = client.check([source], options=options)[0]
    assert via_service == direct
    assert via_service != Checker().check_many([source])[0].to_dict()


def test_eight_concurrent_clients_get_identical_verdicts(endpoint, expected_reports):
    results: dict[int, object] = {}

    def drive(worker: int) -> None:
        try:
            with ServiceClient(endpoint) as client:
                results[worker] = client.check(PROGRAMS)
        except Exception as error:  # surfaced through the assertion below
            results[worker] = error

    threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert sorted(results) == list(range(8))
    for worker in range(8):
        assert results[worker] == expected_reports, f"client {worker} diverged"


def test_fuzz_job_matches_direct_campaign(endpoint):
    direct = run_campaign(CampaignConfig(seed=11, count=10, inject="mixed"))
    direct_dict = direct.to_dict()
    direct_dict.pop("timing")
    with ServiceClient(endpoint) as client:
        via_service = client.fuzz(seed=11, count=10, inject="mixed")
    via_service.pop("timing")
    assert via_service == direct_dict


def test_search_job_finds_order_dependent_ub(endpoint):
    source = "int main(void) { int i = 0; return (i = 1) + (i = 2); }"
    with ServiceClient(endpoint) as client:
        report = client.search(source, budget="paths=16")
    assert report["outcome"]["kind"] == "undefined"
    assert report["search"] is not None


def test_mid_job_cancellation_stops_between_chunks(endpoint):
    with ServiceClient(endpoint) as client:
        job = client.next_job_id()

        def on_event(frame):
            if frame.get("event") == "progress":
                client.cancel(job)

        with pytest.raises(JobCancelled) as caught:
            client.check(PROGRAMS * 12, job=job, on_event=on_event)
        assert len(caught.value.partial) < len(PROGRAMS) * 12
        # The connection survives a cancelled job.
        assert client.check([PROGRAMS[0]])[0]["outcome"]["kind"] == "defined"


def test_one_program_check_is_one_write(endpoint, expected_reports):
    # accepted rides on the job's first write and the chunk's frames on
    # done's: a one-chunk job reaches the client in one recv.
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    try:
        sock.connect(endpoint[len("unix:") :])
        hello = b""
        while not hello.endswith(b"\n"):
            hello += sock.recv(65536)
        assert json.loads(hello)["event"] == "hello"
        for index, source in enumerate(PROGRAMS):
            job = f"one-{index}"
            request = {"op": "check", "id": job,
                       "sources": [[f"<input:{index}>", source]]}
            sock.sendall((json.dumps(request) + "\n").encode())
            data = sock.recv(1 << 20)
            assert data.endswith(b"\n"), data
            frames = [json.loads(line) for line in data.splitlines()]
            assert [frame["event"] for frame in frames] == [
                "accepted", "report", "progress", "done",
            ]
            assert all(frame["job"] == job for frame in frames)
            assert frames[1]["index"] == 0
            assert frames[1]["report"] == expected_reports[index]
            assert (frames[2]["done"], frames[2]["total"]) == (1, 1)
            assert frames[3]["status"] == "ok"
    finally:
        sock.close()


def test_multi_chunk_check_frame_order(endpoint, expected_reports):
    sources = (PROGRAMS * 3)[:12]
    sock, reader = _raw_connection(endpoint)
    try:
        sock.sendall((json.dumps({"op": "check", "id": "twelve",
                                  "sources": sources}) + "\n").encode())
        frames = []
        while not frames or frames[-1]["event"] != "done":
            frames.append(json.loads(reader.readline()))
    finally:
        sock.close()
    events = [frame["event"] for frame in frames]
    assert events[0] == "accepted" and frames[0]["total"] == 12
    assert events[-1] == "done" and frames[-1]["status"] == "ok"
    assert events.count("accepted") == events.count("done") == 1
    # One progress per chunk of four, each after the reports it counts.
    progress = [frame["done"] for frame in frames if frame["event"] == "progress"]
    assert progress == [4, 8, 12]
    reported = 0
    for frame in frames[1:-1]:
        if frame["event"] == "report":
            assert frame["index"] == reported
            expected = expected_reports[reported % len(PROGRAMS)]
            assert frame["report"] == dict(expected, filename=f"<input:{reported}>")
            reported += 1
        else:
            assert frame == {"event": "progress", "job": "twelve",
                             "done": reported, "total": 12}
    assert reported == 12


def test_malformed_requests_get_error_frames(endpoint):
    sock, reader = _raw_connection(endpoint)
    try:
        probes = [
            (b"not json\n", "protocol", None),
            (b'{"op": "frobnicate"}\n', "bad-request", None),
            (b'{"op": "check", "id": "j1", "sources": []}\n', "bad-request", "j1"),
            (
                b'{"op": "check", "id": "j2", "sources": ["int main(void){}"], '
                b'"options": {"profile": "pdp11"}}\n',
                "bad-request",
                "j2",
            ),
            (b'{"op": "cancel", "id": "ghost"}\n', "bad-request", "ghost"),
        ]
        for line, code, job in probes:
            sock.sendall(line)
            frame = json.loads(reader.readline())
            assert frame["event"] == "error"
            assert frame["code"] == code
            assert frame.get("job") == job
        # Five bad frames later, the connection still serves good requests.
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["event"] == "pong"
    finally:
        sock.close()


def test_unknown_evaluation_order_is_a_bad_request(endpoint):
    # Rejected when the options are built, so the job never starts.
    sock, reader = _raw_connection(endpoint)
    try:
        for job, order in (("o1", "bogus"), ("o2", "search")):
            request = {
                "op": "check",
                "id": job,
                "sources": [PROGRAMS[0]],
                "options": {"evaluation_order": order},
            }
            sock.sendall((json.dumps(request) + "\n").encode())
            frame = json.loads(reader.readline())
            assert frame["event"] == "error"
            assert frame["code"] == "bad-request"
            assert frame.get("job") == job
            assert "unknown evaluation order" in frame["message"]
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["event"] == "pong"
    finally:
        sock.close()


def test_engine_option_is_accepted_by_serve(endpoint, expected_reports):
    # A raw frame that names ``engine`` is a job, not a bad request.
    sock, reader = _raw_connection(endpoint)
    try:
        request = {
            "op": "check",
            "id": "w1",
            "sources": PROGRAMS,
            "options": {"engine": "walker"},
        }
        sock.sendall((json.dumps(request) + "\n").encode())
        reports = {}
        while True:
            frame = json.loads(reader.readline())
            assert frame["event"] != "error", frame
            if frame["event"] == "report":
                reports[frame["index"]] = frame["report"]
            if frame["event"] == "done":
                assert frame["status"] == "ok"
                break
        assert [reports[i] for i in range(len(PROGRAMS))] == expected_reports
    finally:
        sock.close()


def test_duplicate_job_id_is_rejected(endpoint):
    sock, reader = _raw_connection(endpoint)
    try:
        request = {"op": "check", "id": "dup", "sources": [PROGRAMS[0]] * 30}
        sock.sendall((json.dumps(request) + "\n").encode())
        sock.sendall((json.dumps(request) + "\n").encode())
        saw_duplicate_error = False
        while True:
            frame = json.loads(reader.readline())
            if frame["event"] == "error" and "already active" in frame["message"]:
                saw_duplicate_error = True
            if frame["event"] == "done":
                break
        assert saw_duplicate_error
    finally:
        sock.close()


def test_stats_and_ping(endpoint):
    with ServiceClient(endpoint) as client:
        assert client.ping() is True
        stats = client.stats()
    assert stats["connections"] >= 1
    assert stats["jobs_completed"] >= 1
    assert "workers" in stats["pool"]


def test_internal_job_failure_keeps_connection_alive(endpoint):
    # max_steps=0 is structurally valid but the engine rejects it at run
    # time — whatever the failure mode, the job must end in a clean frame
    # and leave the connection usable.
    with ServiceClient(endpoint) as client:
        options = CheckerOptions(max_steps=1)
        reports = client.check([PROGRAMS[0]], options=options)
        assert reports[0]["outcome"]["kind"] in ("inconclusive", "defined")
        assert client.check([PROGRAMS[0]])[0]["outcome"]["kind"] == "defined"


def test_client_rejects_bad_endpoint():
    with pytest.raises(ServiceError, match="bad endpoint"):
        ServiceClient("no-port-here")
    with pytest.raises(ServiceError, match="cannot connect"):
        ServiceClient("unix:/nonexistent/path.sock")


def test_failed_unix_connect_closes_its_socket(monkeypatch):
    made = []
    real_socket = socket.socket

    def tracked(*args, **kwargs):
        sock = real_socket(*args, **kwargs)
        made.append(sock)
        return sock

    monkeypatch.setattr(socket, "socket", tracked)
    for _ in range(3):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient("unix:/nonexistent/path.sock")
    assert len(made) == 3
    assert [sock.fileno() for sock in made] == [-1, -1, -1]
