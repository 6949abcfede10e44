"""The process-wide warm worker pool (Layer 1 of :mod:`repro.service`).

A fresh process pool per batch would pay a full worker start, cold imports
in every worker, and per-item pickled tasks — on small batches the overhead
exceeds the work.  This module keeps a **persistent** pool instead, and
talks to each worker directly:

* **One duplex pipe per worker.**  :class:`WarmPool` forks its workers
  itself and keeps the parent's end of one :func:`multiprocessing.Pipe` per
  worker.  A chunk is one message each way: the parent sends the pickled
  ``(fn, header, items)``, the worker runs :func:`_run_chunk` and sends
  back one pickled ``(ok, value)`` reply.  Nothing relays a chunk
  in between.  Blocking callers (:func:`run_staged` — fuzz campaigns, the
  harness, search shards — ``check_many``/``iter_check_many`` and the
  campaign scheduler) wait with :func:`multiprocessing.connection.wait` on
  the pipes they have in flight (:class:`InFlight`), keeping every worker
  busy and still returning results in input order.

* **An event loop watches a worker's pipe once.**  The ``serve`` event
  loop reads a reply with a reader on the worker's pipe
  (:meth:`WarmPool.run_chunk`).  It adds that reader with the first chunk
  it sends the worker and leaves it in place, so a run of chunks costs no
  selector calls.  The reader reads only a reply its own loop is owed;
  anything else that wakes it (an idle worker's EOF, a blocking caller's
  reply, another loop's) makes it drop its watch unread, until the loop
  sends that worker a chunk again.  Only the loop that holds a watch
  removes it, always before the pipe closes: a selector's stale key for a
  closed fd number would make a later ``add_reader`` of that number (a
  replacement worker's pipe, a client socket) a silent no-op.

* **Small chunk messages.**  A chunk carries its own items and nothing
  else of the batch, so each item crosses a pipe once.  ``fn`` pickles by
  name, and a header's :class:`~repro.core.config.CheckerOptions` by its
  field values, with a registered profile by its name, which the worker
  resolves to its own profile object.  A task whose result the caller only
  encodes (the ``serve`` check job's
  :func:`repro.service.server.check_pair_json`) returns the encoded bytes,
  which pickle as they are.

* **A LIFO stack of idle workers.**  Idle workers sit on a stack behind one
  lock, and callers that find none idle queue in FIFO order.  Last in,
  first out means that with a single client one worker takes every request
  and the others stay idle, so their pages stay untouched (lower peak RSS
  than round-robin, with no latency difference).

* **Fork, not spawn or forkserver.**  A forked worker starts from the
  parent's imports and shares its pages until it writes them; a
  forkserver adds a whole interpreter process (measured on ``serve-warm``,
  peak RSS rose from 120 to 164 MB).  Workers fork only when the pool is
  created, when it grows (in place, never shrinking), and when a dead
  worker is replaced.  Each worker then pre-imports the heavy ``repro``
  modules (:func:`_warm_worker`) and keeps the process-shared compile cache
  and per-configuration tool cache across chunks.

The invariants the pipe protocol keeps:

* **No stale replies.**  A worker goes back on the idle stack only after
  its reply has been read.  A caller that stops waiting — an abandoned
  ``iter_check_many``, a cancelled server task, an error in another chunk
  — starts no new chunk and reads and discards the replies still in
  flight, so no caller ever reads another caller's reply.
* **A dead worker costs one chunk, not the pool.**  EOF on a worker's pipe
  means it died: that chunk's caller gets :class:`WorkerLost` (pid and exit
  code), and the pool forks a replacement and counts it (``replaced`` in
  :func:`pool_stats`).
* **Errors keep their type.**  A task's exception is raised in the caller
  with its type and message, and the worker's formatted traceback as
  ``__cause__``.  An exception or result that cannot be pickled arrives as
  a :class:`RuntimeError` carrying its repr; the worker lives on.
* **EOF reaches every worker.**  Each worker closes the parent ends of the
  other workers' pipes that it inherited at fork, so a pool shutdown — or
  the death of the parent — reaches every worker as EOF at once, and
  workers exit on EOF.

The ``jobs=N``-equals-serial byte-identity guarantee is untouched: chunking
only changes *where* an item runs, and every seeded subsystem derives its
randomness per item (:mod:`repro.seeding`), never per worker.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import traceback
import warnings
from multiprocessing.connection import wait as wait_for_replies
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_CHUNKSIZE",
    "InFlight",
    "WarmPool",
    "WorkerLost",
    "get_pool",
    "pool_stats",
    "resolve_jobs",
    "run_staged",
    "shutdown_pool",
]

#: How many items one chunk task carries by default; larger chunks amortize
#: pickling and per-chunk round trips, smaller chunks stream results sooner.
DEFAULT_CHUNKSIZE = 8

#: How long reaping a worker whose pipe hit EOF may take before it is killed.
_REAP_SECONDS = 5.0

#: Longest repr an unpicklable error or result contributes to its message.
_REPR_LIMIT = 2000

#: Where the platform cannot fork, the pool cannot start and callers run
#: serially (see :func:`get_pool`).
_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` means one worker per CPU; values are clamped to >= 1."""
    if jobs is None:
        return os.cpu_count() or 1
    return max(1, int(jobs))


class WorkerLost(RuntimeError):
    """A pool worker died (EOF on its pipe) while it held the caller's chunk."""

    def __init__(self, pid: Optional[int], exitcode: Optional[int]) -> None:
        super().__init__(
            f"pool worker {pid} died (exit code {exitcode}) while running a chunk"
        )
        self.pid = pid
        self.exitcode = exitcode

    def __reduce__(self):
        return (type(self), (self.pid, self.exitcode))


class _RemoteTraceback(Exception):
    """The worker's formatted traceback, chained as a task error's cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _clip(value: Any) -> str:
    text = repr(value)
    if len(text) > _REPR_LIMIT:
        return text[:_REPR_LIMIT] + "..."
    return text


def _running_loop():
    """The event loop running on this thread, or ``None``."""
    from asyncio import _get_running_loop  # loaded by whoever runs a loop

    return _get_running_loop()


def _unpack(reply: bytes) -> Any:
    """The result a worker's reply carries, or its task's error raised here."""
    ok, value = pickle.loads(reply)
    if ok:
        return value
    error, text = value
    error.__cause__ = _RemoteTraceback(text)
    raise error


# ---------------------------------------------------------------------------
# Worker side: warm-up and chunk execution
# ---------------------------------------------------------------------------


def _warm_worker() -> None:  # pragma: no cover - runs in the worker process
    """Pre-import the modules every task would pull in.

    A cold worker used to pay these imports inside its first task; paying
    them at start keeps task latency flat from the first chunk on.  A
    ``serve`` parent already holds the checker's modules before it forks:
    ``server.py`` imports ``repro.api.batch``, which brings in
    ``repro.api.session``, ``repro.core.kcc``, ``repro.core.interpreter``
    and ``repro.kframework.engine``, so in its workers those imports are
    no-ops.  Only the fuzz modules are left for a ``serve`` worker to load
    here; a pool started by a process without them loads them all.
    """
    import repro.api.session  # noqa: F401  (SHARED_COMPILE_CACHE lives here)
    import repro.core.interpreter  # noqa: F401
    import repro.core.kcc  # noqa: F401
    import repro.fuzz.generator  # noqa: F401
    import repro.fuzz.oracles  # noqa: F401
    import repro.kframework.engine  # noqa: F401


#: Whether this worker may have children to reap: set by each fork it makes
#: (an at-fork hook, :func:`_worker_main`), cleared by a sweep that finds none.
_may_have_children = False


def _note_fork() -> None:  # pragma: no cover - runs in the worker process
    global _may_have_children
    _may_have_children = True


def _reap_after_task() -> None:
    """Reap the exited children a task left behind; live ones are left alone.

    Search tasks fork prefix checkpoints (:mod:`repro.kframework.engine`)
    and wait for each, but a task that dies between ``fork`` and
    ``waitpid`` (a crashing oracle) leaves a zombie, and warm workers live
    as long as the pool.  A worker sweeps only while it may have children:
    from its first fork until a sweep finds none, so a worker that never
    forks makes no ``waitpid`` call.
    """
    global _may_have_children
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except OSError:  # ChildProcessError: no child left
            _may_have_children = False
            return
        if pid == 0:  # only live children left
            return


def _run_chunk(fn: Callable[[Any, Any], Any], header: Any, items: list) -> list:
    """A chunk task: ``fn(header, item)`` over the chunk's own items.

    A check raises the process's recursion limit to cover its
    ``max_call_depth`` (:mod:`repro.core.interpreter`), and the front end
    runs under whatever limit the process has.  So a chunk ends with the
    limit it found, and one caller's ``max_call_depth`` cannot decide how
    deep a later caller's program may nest in a warm worker.
    """
    limit = sys.getrecursionlimit()
    try:
        return [fn(header, item) for item in items]
    finally:
        if sys.getrecursionlimit() != limit:
            sys.setrecursionlimit(limit)
        if _may_have_children:
            _reap_after_task()


def _error_reply(error: BaseException) -> bytes:
    text = "".join(traceback.format_exception(error))
    try:
        reply = _dumps((False, (error, text)))
        pickle.loads(reply)  # the parent must be able to rebuild it
    except Exception:
        reply = _dumps((False, (RuntimeError(_clip(error)), text)))
    return reply


def _answer(request: bytes) -> bytes:
    """Run one pickled chunk; returns the pickled ``(ok, value)`` reply."""
    try:
        result = _run_chunk(*pickle.loads(request))
    except BaseException as error:  # the caller raises it
        return _error_reply(error)
    try:
        return _dumps((True, result))
    except Exception as error:
        return _error_reply(
            RuntimeError(f"chunk result cannot be pickled ({error}): {_clip(result)}")
        )


def _worker_main(conn, inherited) -> None:  # pragma: no cover - worker process
    """A worker's life: one chunk in, one reply out, until EOF."""
    global _pool, _lock, _may_have_children
    for other in inherited:
        other.close()
    # The parent's pool and its lock came along with the fork; a task that
    # starts a pool of its own must not touch them.
    _pool, _lock = None, threading.RLock()
    _may_have_children = False
    os.register_at_fork(after_in_parent=_note_fork)
    # A parent running an asyncio loop had its signals routed to the loop's
    # wakeup pipe.  The parent ends a worker's life by EOF, so a worker
    # ignores the terminal's ^C and dies on a plain SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _warm_worker()
    while True:
        try:
            request = conn.recv_bytes()
            conn.send_bytes(_answer(request))
        except (EOFError, OSError):
            return


# ---------------------------------------------------------------------------
# The pool object
# ---------------------------------------------------------------------------


class _Worker:
    __slots__ = ("process", "conn", "fd", "reply", "loops", "sender")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.fd = conn.fileno()
        #: The future of the event-loop chunk whose reply is owed.
        self.reply = None
        #: The event loops whose selectors watch this pipe.
        self.loops: set = set()
        #: The loop that sent the last chunk; ``None`` for a blocking caller.
        self.sender = None


class _ThreadWaiter:
    """A blocked thread waiting in the FIFO for an idle worker."""

    def __init__(self) -> None:
        self.worker: Optional[_Worker] = None
        self._woken = threading.Event()

    def wake(self, worker: Optional[_Worker]) -> bool:
        self.worker = worker
        self._woken.set()
        return True

    def wait(self) -> _Worker:
        self._woken.wait()
        if self.worker is None:
            raise RuntimeError("the warm pool was shut down")
        return self.worker


class _LoopWaiter:
    """An event-loop task waiting in the FIFO for an idle worker."""

    def __init__(self, pool: "WarmPool", loop) -> None:
        self.pool = pool
        self.loop = loop
        self.future = loop.create_future()

    def wake(self, worker: Optional[_Worker]) -> bool:
        if self.future.done():  # the task was cancelled
            return False
        try:
            self.loop.call_soon_threadsafe(self._deliver, worker)
        except RuntimeError:  # the loop is closed
            return False
        return True

    def _deliver(self, worker: Optional[_Worker]) -> None:
        if self.future.done():
            if worker is not None:
                self.pool._release(worker)
        elif worker is None:
            self.future.set_exception(RuntimeError("the warm pool was shut down"))
        else:
            self.future.set_result(worker)

    async def wait(self) -> _Worker:
        try:
            return await self.future
        except BaseException:
            # Cancelled after a worker was delivered: hand it back.
            future = self.future
            if future.done() and not future.cancelled() and not future.exception():
                self.pool._release(future.result())
            raise


class WarmPool:
    """A persistent pool of forked warm workers, one duplex pipe each."""

    def __init__(self, workers: int) -> None:
        self.batches_run = 0
        #: Workers forked to replace one that died.
        self.replaced = 0
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []  # a stack: the last one back goes next
        self._waiters: collections.deque = collections.deque()
        self._closed = False
        try:
            self.grow(workers)
        except BaseException:
            self.shutdown(wait=True)
            raise

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return not self._closed

    # -- workers --------------------------------------------------------------
    def grow(self, workers: int) -> None:
        """Fork workers until there are at least ``workers`` (never shrinks)."""
        with self._lock:
            while len(self._workers) < max(1, int(workers)):
                self._hand_off_locked(self._fork_locked())

    def _fork_locked(self) -> _Worker:
        if _CONTEXT is None:
            raise OSError("this platform cannot fork worker processes")
        parent_end, child_end = _CONTEXT.Pipe()
        inherited = [worker.conn for worker in self._workers] + [parent_end]
        process = _CONTEXT.Process(
            target=_worker_main,
            args=(child_end, inherited),
            name="repro-pool-worker",
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        worker = _Worker(process, parent_end)
        self._workers.append(worker)
        return worker

    def _hand_off_locked(self, worker: _Worker) -> None:
        while self._waiters:
            if self._waiters.popleft().wake(worker):
                return
        self._idle.append(worker)

    def _check_open_locked(self) -> None:
        if self._closed:
            raise RuntimeError("the warm pool was shut down")
        if not self._workers:
            raise RuntimeError("the warm pool has no workers left")

    def _try_acquire(self) -> Optional[_Worker]:
        with self._lock:
            self._check_open_locked()
            return self._idle.pop() if self._idle else None

    def _acquire(self) -> _Worker:
        """An idle worker, waiting in the FIFO until one is released."""
        with self._lock:
            self._check_open_locked()
            if self._idle:
                return self._idle.pop()
            waiter = _ThreadWaiter()
            self._waiters.append(waiter)
        try:
            return waiter.wait()
        except BaseException:
            with self._lock:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                    raise
            if waiter.worker is not None:
                self._release(waiter.worker)
            raise

    def _release(self, worker: _Worker) -> None:
        """Back on the stack (or to the first waiter); its reply was read."""
        with self._lock:
            if not self._closed:
                self._hand_off_locked(worker)
                return
        self._close(worker)  # shutting down: EOF ends the worker

    def _close(self, worker: _Worker) -> None:
        """Close a worker's pipe once no event loop's selector watches it.

        A selector keeps a key per fd number, so closing a watched pipe
        would leave a stale key that turns a later ``add_reader`` of the
        same number (a replacement worker's pipe, a client socket) into a
        silent no-op.  Each loop drops its own watch: here, or, for a loop
        running on another thread, in a call handed to that loop, which
        then closes the pipe (so that loop must keep running until then).
        """
        while True:
            with self._lock:
                if not worker.loops:
                    break
                loop = worker.loops.pop()
            if loop.is_closed():  # its selector went with it
                continue
            if loop.is_running() and _running_loop() is not loop:
                with contextlib.suppress(RuntimeError):  # closed meanwhile
                    loop.call_soon_threadsafe(self._unwatch_and_close, loop, worker)
                    return
                continue
            loop.remove_reader(worker.fd)
        worker.conn.close()

    def _unwatch_and_close(self, loop, worker: _Worker) -> None:
        loop.remove_reader(worker.fd)
        self._close(worker)

    async def _acquire_async(self, loop) -> _Worker:
        """:meth:`_acquire` for an event-loop task."""
        with self._lock:
            self._check_open_locked()
            if self._idle:
                return self._idle.pop()
            waiter = _LoopWaiter(self, loop)
            self._waiters.append(waiter)
        return await waiter.wait()

    def _send(self, worker: _Worker, request: bytes) -> Optional[WorkerLost]:
        """Send one chunk; a worker that had died while idle is replaced.

        A failed send means the worker never received the whole chunk, so
        the chunk never ran and the caller may send it to another worker.
        """
        try:
            worker.conn.send_bytes(request)
        except OSError:
            return self._lost(worker)
        return None

    def _receive(self, worker: _Worker) -> bytes:
        """Read a worker's reply and release it; EOF raises :class:`WorkerLost`."""
        try:
            reply = worker.conn.recv_bytes()
        except (EOFError, OSError):
            raise self._lost(worker) from None
        self._release(worker)
        return reply

    def _lost(self, worker: _Worker) -> WorkerLost:
        """Reap a worker whose pipe hit EOF and fork its replacement."""
        self._close(worker)
        process = worker.process
        process.join(_REAP_SECONDS)
        if process.exitcode is None:
            process.kill()
            process.join(_REAP_SECONDS)
        error = WorkerLost(process.pid, process.exitcode)
        with self._lock:
            self._workers.remove(worker)
            if not self._closed:
                with contextlib.suppress(OSError):
                    self._hand_off_locked(self._fork_locked())
                    self.replaced += 1
        return error

    # -- submission -----------------------------------------------------------
    async def run_chunk(
        self,
        loop,
        fn: Callable[[Any, Any], Any],
        header: Any,
        items: Sequence[Any],
    ) -> list:
        """One chunk from an event loop: the reply is read by ``loop``'s reader.

        ``loop`` watches a worker's pipe from the first chunk it sends that
        worker on, so a run of chunks from one loop adds one reader per
        worker and removes none.  A cancelled caller leaves its reply to
        the reader, which reads and discards it and releases the worker
        when it lands, so ``loop`` must keep running until then.
        """
        request = _dumps((fn, header, list(items)))
        reply = loop.create_future()
        for _ in range(2):
            worker = await self._acquire_async(loop)
            worker.reply = reply
            lost = self._send(worker, request)
            if lost is None:
                break
        else:
            raise lost
        if worker.sender is not loop:
            self._watch(loop, worker)
        return _unpack(await reply)

    def _watch(self, loop, worker: _Worker) -> None:
        with self._lock:
            if loop not in worker.loops:
                closed = {other for other in worker.loops if other.is_closed()}
                worker.loops -= closed
                worker.loops.add(loop)
        # Also replaces a wakeup this loop may still hold for the reply of
        # the worker's previous caller, which has read it by now.
        loop.add_reader(worker.fd, self._read_reply, loop, worker)
        worker.sender = loop

    def _read_reply(self, loop, worker: _Worker) -> None:
        """``loop``'s reader: the reply its chunk is owed, or stop watching.

        Anything else that wakes it (an idle worker's EOF, the reply of a
        blocking caller or of another loop's chunk) is not this loop's to
        read, so the loop drops its watch until it sends the worker a chunk
        again.
        """
        reply = worker.reply
        if reply is None or reply.get_loop() is not loop:
            loop.remove_reader(worker.fd)
            with self._lock:
                worker.loops.discard(loop)
            if worker.sender is loop:
                worker.sender = None
            return
        worker.reply = None
        try:
            data = self._receive(worker)
        except WorkerLost as error:
            if not reply.done():
                reply.set_exception(error)
            return
        if not reply.done():
            reply.set_result(data)

    def iter_staged(
        self,
        fn: Callable[[Any, Any], Any],
        header: Any,
        items: Sequence[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> Iterator[list]:
        """``fn(header, item)`` over ``items``: each chunk's results, in order.

        Each chunk message carries ``header`` and that chunk's own items.
        Every idle worker is kept busy; an error in any chunk stops new
        chunks from starting and is raised once the others are discarded.
        While the consumer holds a result, the worker that produced it is
        idle, so a consumer may run another pooled batch meanwhile.
        """
        items = list(items)
        size = self._effective_chunksize(len(items), chunksize)
        chunks = [items[start : start + size] for start in range(0, len(items), size)]
        with self._lock:
            self.batches_run += 1
        results: dict[int, Any] = {}
        started = 0
        with InFlight(self) as flight:
            for index in range(len(chunks)):
                while index not in results:
                    while started < len(chunks) and flight.start(
                        fn, header, chunks[started], tag=started
                    ):
                        started += 1
                    for tag, error, result in flight.collect():
                        if error is not None:
                            raise error
                        results[tag] = result
                yield results.pop(index)

    def run_staged(
        self,
        fn: Callable[[Any, Any], Any],
        header: Any,
        items: Sequence[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> list:
        """Every result of :meth:`iter_staged`, in input order."""
        chunks = self.iter_staged(fn, header, items, chunksize=chunksize)
        return [result for chunk in chunks for result in chunk]

    def _effective_chunksize(self, total: int, chunksize: Optional[int]) -> int:
        if chunksize is not None:
            return max(1, int(chunksize))
        if total <= self.workers:
            return 1
        # Aim for a few chunks per worker so stragglers rebalance, while
        # keeping chunks big enough to amortize the round-trip.
        per_worker = max(1, total // (self.workers * 4))
        return min(DEFAULT_CHUNKSIZE, per_worker)

    # -- lifecycle ------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "idle": len(self._idle),
                "alive": not self._closed,
                "batches_run": self.batches_run,
                "replaced": self.replaced,
            }

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop taking chunks and let every worker exit on EOF.

        Idle workers' pipes close at once.  With ``wait`` a busy worker's
        pipe closes when its caller has read the reply, and every worker is
        joined; without it (interpreter exit, when no caller is left to
        read) every pipe closes now and nothing is joined.
        """
        with self._lock:
            self._closed = True
            workers = list(self._workers)
            idle, self._idle = self._idle, []
            waiters = list(self._waiters)
            self._waiters.clear()
        for waiter in waiters:
            waiter.wake(None)
        for worker in idle if wait else workers:
            self._close(worker)
        if wait:
            for worker in workers:
                worker.process.join()


class InFlight:
    """One caller's chunks on pool workers, read back as they finish.

    :meth:`start` sends a chunk to an idle worker.  It waits for one only
    while this caller has nothing in flight, so two callers never wait on
    each other while each holds workers; otherwise it returns ``False`` and
    the caller collects first.  :meth:`collect` waits for at least one
    reply.  Leaving the ``with`` block reads and discards every reply still
    in flight, so no worker returns to the pool with an unread reply.
    """

    def __init__(self, pool: WarmPool) -> None:
        self._pool = pool
        self._owned: dict[Any, tuple[_Worker, Any]] = {}  # conn -> (worker, tag)

    def __len__(self) -> int:
        return len(self._owned)

    def __enter__(self) -> "InFlight":
        return self

    def __exit__(self, *exc_info) -> None:
        self.discard()

    def start(
        self,
        fn: Callable[[Any, Any], Any],
        header: Any,
        items: list,
        *,
        tag: Any = None,
    ) -> bool:
        """Send one chunk; ``False`` when no worker is idle (collect first).

        The chunk is pickled once a worker is held, so a chunk that has to
        wait for one is pickled once, however often it is offered.
        """
        request = None
        for _ in range(2):
            if self._owned:
                worker = self._pool._try_acquire()
                if worker is None:
                    return False
            else:
                worker = self._pool._acquire()
            if request is None:
                try:
                    request = _dumps((fn, header, items))
                except BaseException:
                    self._pool._release(worker)
                    raise
            worker.sender = None
            lost = self._pool._send(worker, request)
            if lost is None:
                self._owned[worker.conn] = (worker, tag)
                return True
        raise lost

    def collect(self) -> list[tuple[Any, Optional[Exception], Any]]:
        """Wait for finished chunks: one ``(tag, error, result)`` for each."""
        done: list[tuple[Any, Optional[Exception], Any]] = []
        for conn in wait_for_replies(list(self._owned)):
            worker, tag = self._owned.pop(conn)
            try:
                done.append((tag, None, _unpack(self._pool._receive(worker))))
            except Exception as error:
                done.append((tag, error, None))
        return done

    def discard(self) -> None:
        """Read and drop every reply still in flight."""
        while self._owned:
            for conn in wait_for_replies(list(self._owned)):
                worker, _ = self._owned.pop(conn)
                with contextlib.suppress(WorkerLost):
                    self._pool._receive(worker)


# ---------------------------------------------------------------------------
# The process-wide singleton
# ---------------------------------------------------------------------------

_lock = threading.RLock()
_pool: Optional[WarmPool] = None
_spawn_failed = False


def get_pool(jobs: Optional[int] = None) -> Optional[WarmPool]:
    """The process-wide warm pool with at least ``jobs`` workers.

    Returns ``None`` where the host forbids subprocesses — the failed-fork
    verdict is cached, so only the first call pays the discovery (and emits
    the one observable "running serially" warning).
    """
    global _pool, _spawn_failed
    want = resolve_jobs(jobs)
    with _lock:
        if _spawn_failed:
            return None
        try:
            if _pool is None:
                _pool = WarmPool(want)
            elif _pool.workers < want:
                _pool.grow(want)
        except OSError:
            # A pool that could not grow keeps its workers until
            # shutdown_pool(); callers run serially from now on.
            _spawn_failed = True
            # The degradation must be observable: a caller who asked for
            # jobs=N should not attribute a serial run's wall time to the
            # tool.  Warned once per process by the cached verdict above.
            warnings.warn(
                "cannot start worker processes; running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return _pool


def shutdown_pool(*, wait: bool = True) -> None:
    """Shut the process-wide pool down (tests, service drain, interpreter exit)."""
    global _pool
    with _lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=wait)


def pool_stats() -> dict[str, Any]:
    """Introspection for ``kcc-check serve`` hello/stats frames and tests."""
    with _lock:
        if _pool is None:
            stats = {
                "workers": 0,
                "idle": 0,
                "alive": False,
                "batches_run": 0,
                "replaced": 0,
            }
        else:
            stats = _pool.stats()
        stats["spawn_failed"] = _spawn_failed
        return stats


atexit.register(shutdown_pool, wait=False)


# ---------------------------------------------------------------------------
# The call-site entry point
# ---------------------------------------------------------------------------


def run_staged(
    fn: Callable[[Any, Any], Any],
    header: Any,
    items: Sequence,
    *,
    jobs: Optional[int],
    chunksize: Optional[int] = None,
) -> list:
    """Map ``fn(header, item)`` over ``items`` on the warm pool, in order.

    The serial fallback (``jobs=1``, single item, or no subprocess support)
    applies ``fn`` in the calling process — verdicts are identical either
    way; only transport changes.
    """
    worker_count = resolve_jobs(jobs)
    if worker_count <= 1 or len(items) <= 1:
        return [fn(header, item) for item in items]
    pool = get_pool(min(worker_count, len(items)))
    if pool is None:  # pragma: no cover - sandboxed hosts
        return [fn(header, item) for item in items]
    return pool.run_staged(fn, header, items, chunksize=chunksize)
