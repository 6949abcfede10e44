"""Blocking client for the ``kcc-check serve`` checking service.

:class:`ServiceClient` connects to an endpoint string — ``unix:/path`` or
``tcp:host:port``, exactly what ``kcc-check serve`` prints and
:func:`repro.service.serve_in_background` yields — and exposes the job
kinds as ordinary method calls that block until the job's terminal
``done`` frame::

    with ServiceClient(endpoint) as client:
        reports = client.check(["int main(void){return 0;}"])
        campaign = client.fuzz(seed=7, count=40)

Payloads are the service's JSON dicts (the same ``to_dict()`` shapes the
CLI prints); the client never rehydrates report objects.  ``on_event``
callbacks observe ``accepted``/``progress``/``campaign-progress`` frames
as they stream.

Transport robustness: every job the service runs is deterministic and
idempotent (per-item seed derivation — re-running a job cannot produce a
different answer), so a **dropped connection** is recoverable by policy,
not a hard error.  A job method that loses its connection mid-stream
closes the dead socket, reconnects with capped exponential backoff
(``min(cap, base * 2**(attempt-1))``), and re-issues the request from
scratch, up to ``max_retries`` times; only then does
:class:`ServiceConnectionError` propagate.  A **per-request timeout**
(``request_timeout``) bounds how long any single frame read may block —
expiry raises :class:`ServiceTimeout` and is *not* retried, because a
slow job is not a broken one (retrying would double the work and hang
just the same).  Protocol-level errors (the service answered; the answer
is an ``error`` frame) are never retried either.

Sends are lock-protected, so :meth:`cancel` may be called from another
thread while a job call is blocked in its receive loop — the driving call
then raises :class:`JobCancelled` carrying whatever reports arrived before
the job stopped.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from typing import Any, Callable, Iterable, Optional

from repro.core.config import CheckerOptions
from repro.service import protocol


class ServiceError(Exception):
    """The service reported an error, or the connection failed."""

    def __init__(self, message: str, *, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class ServiceConnectionError(ServiceError):
    """The transport failed (connect, send, or mid-stream EOF).

    Job methods retry this with capped exponential backoff before letting
    it propagate; deterministic jobs make whole-job re-issue safe.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, code="connection")


class ServiceTimeout(ServiceError):
    """A frame read exceeded ``request_timeout``.  Never retried."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="timeout")


class JobCancelled(ServiceError):
    """A job ended with ``status="cancelled"``; partial results attached."""

    def __init__(self, message: str, *, partial: list) -> None:
        super().__init__(message, code=protocol.STATUS_CANCELLED)
        self.partial = partial


def _connect(endpoint: str, timeout: Optional[float]) -> socket.socket:
    try:
        if endpoint.startswith("unix:"):
            if not hasattr(socket, "AF_UNIX"):
                raise ServiceError("unix-socket endpoints need AF_UNIX support")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(endpoint[len("unix:") :])
            except BaseException:
                sock.close()
                raise
            return sock
        if endpoint.startswith("tcp:"):
            endpoint = endpoint[len("tcp:") :]
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ServiceError(
                f"bad endpoint {endpoint!r}; expected unix:PATH or HOST:PORT",
            )
        return socket.create_connection((host, int(port)), timeout=timeout)
    except OSError as error:
        raise ServiceConnectionError(
            f"cannot connect to {endpoint!r}: {error}"
        ) from None


class ServiceClient:
    """A blocking NDJSON client; one in-flight job call per instance.

    The receive loop is single-threaded by design: drive one job at a time
    per client, and open more clients for concurrency (the service
    multiplexes all of them over one warm pool).  The only method safe to
    call concurrently with a running job is :meth:`cancel`.

    ``timeout`` bounds the initial TCP/unix connect; ``request_timeout``
    bounds each subsequent frame read (``None``: wait forever).
    ``max_retries`` whole-job reconnect attempts are made on transport
    failure before :class:`ServiceConnectionError` propagates; set
    ``max_retries=0`` to restore fail-fast behavior.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: Optional[float] = 300.0,
        request_timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        self.endpoint = endpoint
        self.connect_timeout = timeout
        self.request_timeout = request_timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Transport reconnects performed so far (tests and telemetry).
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._send_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.hello: dict[str, Any] = {}
        self._ensure_connected()

    # -- plumbing -----------------------------------------------------------

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        sock = _connect(self.endpoint, self.connect_timeout)
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        self.hello = self._read_frame()
        if self.hello.get("event") != "hello":
            raise ServiceError(f"expected hello frame, got {self.hello!r}")

    def close(self) -> None:
        file, sock = self._file, self._sock
        self._file = self._sock = None
        try:
            if file is not None:
                file.close()
        finally:
            if sock is not None:
                sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, frame: dict[str, Any]) -> None:
        with self._send_lock:
            if self._sock is None:
                raise ServiceConnectionError("client is not connected")
            try:
                self._sock.sendall(protocol.encode_frame(frame))
            except socket.timeout:
                raise ServiceTimeout(
                    f"send timed out after {self.request_timeout}s"
                ) from None
            except OSError as error:
                raise ServiceConnectionError(f"send failed: {error}") from None

    def _read_frame(self) -> dict[str, Any]:
        if self._file is None:
            raise ServiceConnectionError("client is not connected")
        try:
            line = self._file.readline()
        except socket.timeout:
            raise ServiceTimeout(
                f"no frame within {self.request_timeout}s"
            ) from None
        except OSError as error:
            raise ServiceConnectionError(f"receive failed: {error}") from None
        if not line:
            raise ServiceConnectionError("connection closed by the service")
        return json.loads(line)

    def next_job_id(self) -> str:
        return f"job-{next(self._ids)}"

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))

    def _run_job(
        self,
        request: dict[str, Any],
        *,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> tuple[list[dict[str, Any]], Optional[dict[str, Any]]]:
        """Issue a job request; reconnect and re-issue on transport failure.

        The whole job restarts on each retry — the service keeps no state
        for a vanished connection, and deterministic jobs return the same
        bytes on every run, so re-issue is indistinguishable from a slow
        first attempt (minus the wasted work).
        """
        job_id = request["id"]
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                self._send(request)
                return self._drive(job_id, on_event=on_event)
            except ServiceConnectionError:
                self.close()
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                self.reconnects += 1
                time.sleep(self._backoff(attempt))

    # -- the job receive loop ----------------------------------------------

    def _drive(
        self,
        job_id: str,
        *,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> tuple[list[dict[str, Any]], Optional[dict[str, Any]]]:
        """Read frames until ``job_id`` terminates; return (reports, result).

        Frames addressed to other jobs — e.g. a stale ``done`` left over
        from a cancelled call, or an ``error`` for a bad ``cancel`` — are
        skipped: this loop owns the connection only for its own job.
        """
        reports: dict[int, dict[str, Any]] = {}
        result: Optional[dict[str, Any]] = None
        while True:
            frame = self._read_frame()
            if frame.get("job") != job_id:
                continue
            event = frame.get("event")
            if on_event is not None and event in (
                "accepted",
                "progress",
                "campaign-progress",
            ):
                on_event(frame)
            if event == "report":
                reports[frame["index"]] = frame["report"]
            elif event == "result":
                result = frame["result"]
            elif event == "error":
                raise ServiceError(frame.get("message", "?"), code=frame.get("code"))
            elif event == "done":
                ordered = [reports[index] for index in sorted(reports)]
                status = frame.get("status")
                if status == protocol.STATUS_OK:
                    return ordered, result
                if status == protocol.STATUS_CANCELLED:
                    raise JobCancelled(
                        f"job {job_id} cancelled after {len(ordered)} report(s)",
                        partial=ordered,
                    )
                raise ServiceError(f"job {job_id} failed", code=status)

    # -- job kinds ----------------------------------------------------------

    def check(
        self,
        sources: Iterable[Any],
        *,
        options: Optional[CheckerOptions] = None,
        search: bool = False,
        budget: Optional[str] = None,
        job: Optional[str] = None,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> list[dict[str, Any]]:
        """Check a batch; returns one report dict per input, in order."""
        job_id = job if job is not None else self.next_job_id()
        request = protocol.check_request(
            job_id,
            sources,
            options=options,
            search=search,
            budget=budget,
        )
        reports, _ = self._run_job(request, on_event=on_event)
        return reports

    def fuzz(
        self,
        *,
        seed: int = 0,
        count: int = 100,
        inject: Optional[str] = "mixed",
        options: Optional[CheckerOptions] = None,
        job: Optional[str] = None,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Run a fuzz campaign; returns the campaign result dict."""
        job_id = job if job is not None else self.next_job_id()
        request = protocol.fuzz_request(
            job_id,
            seed=seed,
            count=count,
            inject=inject,
            options=options,
        )
        _, result = self._run_job(request, on_event=on_event)
        if result is None:
            raise ServiceError(f"fuzz job {job_id} returned no result")
        return result

    def search(
        self,
        source: str,
        *,
        filename: str = "<input>",
        strategy: str = "dfs",
        seed: int = 0,
        budget: Optional[str] = None,
        options: Optional[CheckerOptions] = None,
        job: Optional[str] = None,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Search one program's evaluation orders; returns its report dict."""
        job_id = job if job is not None else self.next_job_id()
        request = protocol.search_request(
            job_id,
            source,
            filename=filename,
            strategy=strategy,
            seed=seed,
            budget=budget,
            options=options,
        )
        reports, _ = self._run_job(request, on_event=on_event)
        if not reports:
            raise ServiceError(f"search job {job_id} returned no report")
        return reports[0]

    def run_unit(
        self,
        spec: dict[str, Any],
        unit: dict[str, Any],
        *,
        options: Optional[CheckerOptions] = None,
        job: Optional[str] = None,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Execute one campaign work unit remotely; returns its result dict.

        This is the primitive a distributed campaign scheduler dispatches:
        the unit's result is content-addressed and placement-independent,
        so the caller can journal it exactly as if it ran locally.
        """
        job_id = job if job is not None else self.next_job_id()
        request = protocol.unit_request(job_id, spec, unit, options=options)
        _, result = self._run_job(request, on_event=on_event)
        if result is None:
            raise ServiceError(f"unit job {job_id} returned no result")
        return result

    def campaign(
        self,
        spec: dict[str, Any],
        *,
        options: Optional[CheckerOptions] = None,
        job: Optional[str] = None,
        on_event: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Run a whole campaign on the service; returns the canonical
        aggregate.  ``on_event`` sees one ``campaign-progress`` snapshot
        per completed unit — the live results plane."""
        job_id = job if job is not None else self.next_job_id()
        request = protocol.campaign_request(job_id, spec, options=options)
        _, result = self._run_job(request, on_event=on_event)
        if result is None:
            raise ServiceError(f"campaign job {job_id} returned no result")
        return result

    # -- control ops --------------------------------------------------------

    def cancel(self, job: str) -> None:
        """Ask the service to stop ``job`` at its next chunk boundary."""
        self._send({"op": "cancel", "id": job})

    def ping(self) -> bool:
        self._ensure_connected()
        self._send({"op": "ping"})
        while True:
            if self._read_frame().get("event") == "pong":
                return True

    def stats(self) -> dict[str, Any]:
        self._ensure_connected()
        self._send({"op": "stats"})
        while True:
            frame = self._read_frame()
            if frame.get("event") == "stats":
                return frame


__all__ = [
    "JobCancelled",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeout",
]
