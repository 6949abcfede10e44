"""``kcc-check serve``: the long-lived asyncio checking service.

:class:`CheckService` listens on a unix socket or a TCP port, speaks the
newline-delimited JSON protocol of :mod:`repro.service.protocol`, and runs
every job over the process-wide warm worker pool of
:mod:`repro.service.pool`.  The event loop never executes a program itself:
jobs are cut into small chunks and each chunk runs on a pool worker (or, on
hosts that cannot spawn processes, a thread), so the loop stays free to
accept connections, interleave frames from any number of concurrent jobs,
and act on ``cancel`` requests between chunks.

Job semantics match the one-shot CLI exactly — a ``check`` job streams the
same ``to_dict()`` reports ``kcc-check check --format json`` prints, a
``fuzz`` job returns the same campaign result, and both inherit the pooled
paths' byte-identical-to-serial guarantee (randomness is derived per case,
never per worker).

Shutdown is a drain, not an abort: on ``request_stop()`` (the CLI wires
SIGTERM and SIGINT to it) the listener closes, in-flight jobs run to their
terminal ``done`` frame, clients get an EOF, and the warm pool is shut down
with ``wait=True`` so no worker process outlives the service.  The one
exception is a client that has stopped reading: once a connection's writes
have been blocked for :data:`STALL_GRACE_SECONDS`, the drain aborts it,
which ends its jobs, so such a client cannot hold the service up forever.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

import repro
from repro.api.batch import check_header, check_pair
from repro.service import protocol
from repro.service.pool import get_pool, pool_stats, shutdown_pool

#: Programs per check chunk / cases per fuzz chunk: the granularity of
#: progress frames and of cancellation.
CHECK_CHUNK = 4
FUZZ_CHUNK = 8

#: How long a draining service lets a connection's writes stay blocked (its
#: client has stopped reading) before it aborts the connection.
STALL_GRACE_SECONDS = 5.0


class _Job:
    """One in-flight job on one connection."""

    def __init__(self, job_id: str, op: str, total: int) -> None:
        self.id = job_id
        self.op = op
        self.total = total
        self.cancelled = False
        self.task: Optional[asyncio.Task] = None


class _Connection:
    """Per-client state: a write lock and the live job registry."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.jobs: dict[str, _Job] = {}
        self._write_lock = asyncio.Lock()
        self._blocked_since: Optional[float] = None

    async def send(self, *frames: dict[str, Any]) -> None:
        # Concurrent job tasks share one stream; the lock keeps each frame
        # on its own line.  Frames sent together go out in one write.
        async with self._write_lock:
            self.writer.write(b"".join(map(protocol.encode_frame, frames)))
            self._blocked_since = time.monotonic()
            try:
                await self.writer.drain()
            finally:
                self._blocked_since = None

    def blocked_for(self, now: float) -> float:
        """Seconds the current write has waited for the client to read."""
        if self._blocked_since is None:
            return 0.0
        return now - self._blocked_since


def _chunk_spans(total: int, size: int) -> Iterator[tuple[int, int]]:
    for start in range(0, total, size):
        yield start, min(start + size, total)


class CheckService:
    """The asyncio front end over the warm worker pool.

    One of ``socket_path`` (a unix socket) or ``host``/``port`` (TCP) picks
    the listener; with neither given the service binds ``127.0.0.1`` on an
    ephemeral port.  ``jobs`` sizes the warm pool (``None`` — one worker
    per CPU).
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        jobs: Optional[int] = None,
    ) -> None:
        if socket_path is None and host is None:
            host = "127.0.0.1"
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.jobs = jobs
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._jobs_started = 0
        self._jobs_completed = 0
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The connect string clients pass to :class:`ServiceClient`."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener (and learn the ephemeral port, if any)."""
        self._stop = asyncio.Event()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.socket_path,
                limit=protocol.MAX_FRAME_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=protocol.MAX_FRAME_BYTES,
            )
            self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Begin a graceful drain (signal-handler and thread safe)."""
        if self._stop is not None:
            self._stop.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop`, then drain and shut down."""
        if self._server is None:
            await self.start()
        assert self._stop is not None
        await self._stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight jobs, reap the worker pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self._finish_jobs()
        for connection in list(self._connections):
            connection.writer.close()
            with contextlib.suppress(Exception):
                await connection.writer.wait_closed()
        if self._server is not None:
            # Only now: on newer Pythons this also waits for every
            # connection to close.
            await self._server.wait_closed()
        # The pool workers are our children; wait for them so the service
        # never leaves zombies behind (the serve-smoke CI job asserts this).
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: shutdown_pool(wait=True))

    async def _finish_jobs(self) -> None:
        """Wait for every job; abort connections whose client stopped reading.

        A job blocked writing to a client that never reads would never end.
        A connection whose current write has waited
        :data:`STALL_GRACE_SECONDS` is aborted: its blocked write returns,
        its next one fails, and its jobs end.  A slow client that still
        reads keeps its jobs.
        """
        while self._tasks:
            await asyncio.wait(set(self._tasks), timeout=STALL_GRACE_SECONDS / 5)
            now = time.monotonic()
            for connection in list(self._connections):
                if connection.blocked_for(now) >= STALL_GRACE_SECONDS:
                    connection.writer.transport.abort()

    def stats(self) -> dict[str, Any]:
        active = sum(len(connection.jobs) for connection in self._connections)
        return {
            "event": "stats",
            "connections": len(self._connections),
            "jobs_active": active,
            "jobs_started": self._jobs_started,
            "jobs_completed": self._jobs_completed,
            "pool": pool_stats(),
        }

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        connection = _Connection(reader, writer)
        self._connections.add(connection)
        try:
            await connection.send(
                protocol.hello_frame(version=repro.__version__, pool=pool_stats()),
            )
            while not self._draining:
                try:
                    line = await reader.readline()
                except ValueError:  # a line longer than MAX_FRAME_BYTES
                    error = protocol.frame_too_long()
                    await connection.send(
                        protocol.error_frame(str(error), code=error.code),
                    )
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(connection, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # A vanished client abandons its jobs: flag them cancelled so
            # their loops stop scheduling chunks at the next boundary.
            for job in connection.jobs.values():
                job.cancelled = True
            self._connections.discard(connection)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(self, connection: _Connection, line: bytes) -> None:
        job_id: Optional[str] = None
        try:
            frame = protocol.decode_frame(line)
            raw_id = frame.get("id")
            job_id = raw_id if isinstance(raw_id, str) else None
            request = protocol.validate_request(frame)
        except protocol.ProtocolError as error:
            await connection.send(
                protocol.error_frame(str(error), code=error.code, job=job_id),
            )
            return
        await self._dispatch(connection, request)

    async def _dispatch(
        self,
        connection: _Connection,
        request: dict[str, Any],
    ) -> None:
        op = request["op"]
        if op == "ping":
            await connection.send({"event": "pong"})
            return
        if op == "stats":
            await connection.send(self.stats())
            return
        if op == "cancel":
            job = connection.jobs.get(request["id"])
            if job is None:
                await connection.send(
                    protocol.error_frame(
                        f"unknown job {request['id']!r}",
                        job=request["id"],
                    ),
                )
                return
            job.cancelled = True
            return
        job_id = request["id"]
        if job_id in connection.jobs:
            await connection.send(
                protocol.error_frame(f"job id {job_id!r} already active", job=job_id),
            )
            return
        total = self._job_total(request)
        job = _Job(job_id, op, total)
        connection.jobs[job_id] = job
        self._jobs_started += 1
        job.task = asyncio.create_task(self._run_job(connection, job, request))
        self._tasks.add(job.task)
        job.task.add_done_callback(self._tasks.discard)

    @staticmethod
    def _job_total(request: dict[str, Any]) -> int:
        if request["op"] == "check":
            return len(request["sources"])
        if request["op"] == "fuzz":
            return request["count"]
        if request["op"] == "campaign":
            from repro.campaign.workunit import CampaignSpec

            return CampaignSpec.from_dict(request["spec"]).units_estimate()
        return 1

    # -- job execution ------------------------------------------------------

    async def _run_job(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        start = time.perf_counter()
        status = protocol.STATUS_OK
        try:
            await connection.send(protocol.accepted_frame(job.id, job.op, job.total))
            if job.op == "check":
                await self._job_check(connection, job, request)
            elif job.op == "fuzz":
                await self._job_fuzz(connection, job, request)
            elif job.op == "unit":
                await self._job_unit(connection, job, request)
            elif job.op == "campaign":
                await self._job_campaign(connection, job, request)
            else:
                await self._job_search(connection, job, request)
            if job.cancelled:
                status = protocol.STATUS_CANCELLED
        except asyncio.CancelledError:
            status = protocol.STATUS_CANCELLED
        except Exception as error:  # the job failed; the connection survives
            status = protocol.STATUS_ERROR
            with contextlib.suppress(Exception):
                await connection.send(
                    protocol.error_frame(
                        f"{type(error).__name__}: {error}",
                        code=protocol.ERROR_INTERNAL,
                        job=job.id,
                    ),
                )
        finally:
            connection.jobs.pop(job.id, None)
            self._jobs_completed += 1
            with contextlib.suppress(Exception):
                await connection.send(
                    protocol.done_frame(
                        job.id,
                        status,
                        elapsed_seconds=time.perf_counter() - start,
                    ),
                )

    async def _run_chunk(self, fn, header: Any, items: Sequence[Any]) -> list:
        """One chunk on a warm worker; a thread when forking is impossible."""
        loop = asyncio.get_running_loop()
        pool = get_pool(self.jobs)
        if pool is not None:
            return await pool.run_chunk(loop, fn, header, items)
        return await loop.run_in_executor(
            None,
            lambda: [fn(header, item) for item in items],
        )

    async def _job_check(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        from repro.kframework.search import SearchOptions

        search_options = None
        if request["search"] and request["budget"] is not None:
            search_options = SearchOptions(budget=request["budget"])
        header = check_header(
            request["options"],
            request["search"],
            True,
            search_options,
        )
        pairs = request["sources"]
        for start, stop in _chunk_spans(len(pairs), CHECK_CHUNK):
            if job.cancelled:
                return
            reports = await self._run_chunk(check_pair, header, pairs[start:stop])
            await connection.send(
                *(
                    protocol.report_frame(job.id, start + offset, report.to_dict())
                    for offset, report in enumerate(reports)
                ),
                protocol.progress_frame(job.id, stop, len(pairs)),
            )

    async def _job_fuzz(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        from repro.fuzz.campaign import (
            CampaignConfig,
            examine_case,
            finalize_campaign,
            worker_config,
        )

        started = time.perf_counter()
        config = CampaignConfig(
            seed=request["seed"],
            count=request["count"],
            inject=request["inject"],
        )
        header = (worker_config(config), request["options"])
        records = []
        for start, stop in _chunk_spans(config.count, FUZZ_CHUNK):
            if job.cancelled:
                return
            records.extend(
                await self._run_chunk(examine_case, header, range(start, stop)),
            )
            await connection.send(protocol.progress_frame(job.id, stop, config.count))
        result = finalize_campaign(
            config,
            records,
            options=request["options"],
            elapsed_seconds=time.perf_counter() - started,
        )
        await connection.send(protocol.result_frame(job.id, result.to_dict()))

    async def _job_unit(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        """Execute one campaign work unit — the remote scheduler's primitive."""
        from repro.campaign.workunit import execute_unit

        if job.cancelled:
            return
        header = (request["spec"], request.get("options_dict"))
        results = await self._run_chunk(execute_unit, header, [request["unit"]])
        await connection.send(
            protocol.result_frame(job.id, results[0]),
            protocol.progress_frame(job.id, 1, 1),
        )

    async def _job_campaign(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        """Partition and run a whole campaign, streaming aggregate snapshots.

        Unit results fold into a :class:`CampaignAggregate` as they land;
        every completed unit emits a ``campaign-progress`` frame — the
        live results plane — and cancellation takes effect at the next
        unit boundary.  No journal is written server-side: journaled,
        resumable campaigns are the *client* scheduler's job (it dispatches
        ``unit`` ops); this op is the convenience form for one-shot runs.
        """
        from repro.campaign.aggregate import CampaignAggregate
        from repro.campaign.workunit import (
            CampaignSpec,
            campaign_units,
            execute_unit,
        )

        spec = CampaignSpec.from_dict(request["spec"])
        loop = asyncio.get_running_loop()
        # Partitioning a search campaign runs the root program; keep the
        # event loop free while it does.
        units = await loop.run_in_executor(None, lambda: campaign_units(spec))
        header = (request["spec"], request.get("options_dict"))
        aggregate = CampaignAggregate(spec.digest(), len(units))
        for unit in units:
            if job.cancelled:
                return
            results = await self._run_chunk(execute_unit, header, [unit.to_dict()])
            aggregate.add_unit(results[0])
            await connection.send(
                protocol.campaign_progress_frame(job.id, aggregate.snapshot()),
                protocol.progress_frame(job.id, aggregate.units_done, len(units)),
            )
        await connection.send(protocol.result_frame(job.id, aggregate.to_dict()))

    async def _job_search(
        self,
        connection: _Connection,
        job: _Job,
        request: dict[str, Any],
    ) -> None:
        # A search is one engine invocation; it cannot be chunked, so a
        # cancel lands either before it starts or at its natural end.
        if job.cancelled:
            return
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(None, lambda: _search_blocking(request))
        await connection.send(
            protocol.report_frame(job.id, 0, report.to_dict()),
            protocol.progress_frame(job.id, 1, 1),
        )


def _search_blocking(request: dict[str, Any]):
    """Run one full evaluation-order search (executor thread)."""
    from repro.api.session import compile_shared, tool_for
    from repro.kframework.search import SearchBudget, SearchOptions

    options = request["options"]
    budget = request["budget"]
    if budget is None:
        budget = SearchBudget(max_paths=options.max_search_paths)
    search_options = SearchOptions(
        strategy=request["strategy"],
        budget=budget,
        seed=request["seed"],
    )
    tool = tool_for(
        options,
        search_evaluation_order=True,
        search_options=search_options,
    )
    compiled = compile_shared(
        request["source"],
        filename=request["filename"],
        options=options,
    )
    return tool.run_unit(compiled)


# ---------------------------------------------------------------------------
# In-process background serving (docs examples, tests)
# ---------------------------------------------------------------------------

_BACKGROUND_COUNTER = itertools.count(1)


@contextlib.contextmanager
def serve_in_background(
    *,
    jobs: Optional[int] = None,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: int = 0,
):
    """Run a :class:`CheckService` on a daemon thread; yield its endpoint.

    With no listener specified, the service binds a unix socket in a fresh
    temporary directory (removed on exit).  The context manager returns
    once the service is accepting connections, and on exit requests a
    graceful drain and joins the thread — in-flight jobs finish, the warm
    pool is reaped.
    """
    tempdir: Optional[tempfile.TemporaryDirectory] = None
    if socket_path is None and host is None:
        tempdir = tempfile.TemporaryDirectory(prefix="kcc-serve-")
        socket_path = str(Path(tempdir.name) / f"svc-{next(_BACKGROUND_COUNTER)}.sock")
    started = threading.Event()
    holder: dict[str, Any] = {}

    async def main_async() -> None:
        service = CheckService(
            socket_path=socket_path,
            host=host,
            port=port,
            jobs=jobs,
        )
        try:
            await service.start()
        except Exception as error:
            holder["error"] = error
            started.set()
            return
        holder["service"] = service
        holder["loop"] = asyncio.get_running_loop()
        holder["endpoint"] = service.endpoint
        started.set()
        await service.serve_forever()

    thread = threading.Thread(
        target=lambda: asyncio.run(main_async()),
        name="kcc-serve",
        daemon=True,
    )
    thread.start()
    try:
        if not started.wait(timeout=60.0):
            raise RuntimeError("checking service failed to start in time")
        if "error" in holder:
            raise holder["error"]
        yield holder["endpoint"]
    finally:
        if "service" in holder:
            holder["loop"].call_soon_threadsafe(holder["service"].request_stop)
            thread.join(timeout=60.0)
        if tempdir is not None:
            tempdir.cleanup()


__all__ = [
    "CHECK_CHUNK",
    "FUZZ_CHUNK",
    "STALL_GRACE_SECONDS",
    "CheckService",
    "serve_in_background",
]
