"""The process-wide warm worker pool (Layer 1 of :mod:`repro.service`).

A fresh :class:`~concurrent.futures.ProcessPoolExecutor` per batch would pay
a full worker spawn, a probe round-trip, cold imports in every worker, and
per-item pickled tasks — on small batches the overhead exceeds the work.
This module keeps a **persistent** pool instead:

* **One pool per process, spawned lazily and kept warm.**  ``get_pool(jobs)``
  returns a process-wide singleton whose workers outlive any single batch;
  growing the worker count replaces the pool once, shrinking never does.
  The "can this host spawn processes at all?" probe verdict is cached, so a
  sandboxed host pays the failed-spawn discovery exactly once and every
  later call falls back to serial immediately.

* **Warm workers.**  Each worker pre-imports the heavy ``repro`` modules in
  its initializer and holds the process-shared compile cache
  (:data:`repro.api.session.SHARED_COMPILE_CACHE`) plus a per-configuration
  tool cache across tasks, so repeated batches re-use parses instead of
  re-warming from scratch.

* **Staged, chunked submission.**  Work ships as chunk tasks (``fn``, a
  ``header`` and a slice of items in one future) rather than per-item
  futures, amortizing pickling and future bookkeeping; results preserve
  input order.  :func:`run_staged` pickles the ``header`` once per chunk,
  so batch callers do not ship their configuration ``len(items)`` times.

* **File-backed corpus handoff.**  When a staged item list pickles past
  :data:`STAGE_THRESHOLD_BYTES`, it is written to a spool file once and
  workers receive ``(path, digest, span)`` references; each worker loads
  and caches the payload by digest, so a large corpus crosses the process
  boundary once per worker instead of once per chunk.

The ``jobs=N``-equals-serial byte-identity guarantee is untouched: chunking
only changes *where* an item runs, and every seeded subsystem derives its
randomness per item (:mod:`repro.seeding`), never per worker.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import tempfile
import threading
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "DEFAULT_CHUNKSIZE",
    "STAGE_THRESHOLD_BYTES",
    "WarmPool",
    "get_pool",
    "pool_stats",
    "resolve_jobs",
    "run_staged",
    "shutdown_pool",
]

#: How many items one chunk task carries by default; larger chunks amortize
#: pickling and per-future overhead, smaller chunks stream results sooner.
DEFAULT_CHUNKSIZE = 8

#: Staged item lists whose pickled size exceeds this are handed to workers
#: by file reference (see module docstring) instead of inline in each chunk.
STAGE_THRESHOLD_BYTES = 256 * 1024

#: Worker-side payload cache: at most this many staged corpora stay loaded.
_PAYLOAD_CACHE_ENTRIES = 4


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` means one worker per CPU; values are clamped to >= 1."""
    if jobs is None:
        return os.cpu_count() or 1
    return max(1, int(jobs))


# ---------------------------------------------------------------------------
# Worker side: warm-up, chunk execution, staged-payload cache
# ---------------------------------------------------------------------------


def _warm_worker() -> None:  # pragma: no cover - runs in the worker process
    """Pool initializer: pre-import the modules every task would pull in.

    A cold worker used to pay these imports inside its first task; paying
    them at spawn keeps task latency flat from the first submission on.
    """
    import repro.api.session  # noqa: F401  (SHARED_COMPILE_CACHE lives here)
    import repro.core.interpreter  # noqa: F401
    import repro.core.kcc  # noqa: F401
    import repro.fuzz.generator  # noqa: F401
    import repro.fuzz.oracles  # noqa: F401
    import repro.kframework.engine  # noqa: F401


def _probe() -> bool:  # pragma: no cover - runs in the worker process
    return True


_payload_cache: dict[str, Any] = {}


def _load_payload(ref: tuple[str, str]) -> Any:
    """Load (and cache) a file-staged payload in this worker process."""
    path, digest = ref
    cached = _payload_cache.get(digest)
    if cached is not None:
        return cached
    with open(path, "rb") as handle:
        data = handle.read()
    actual = hashlib.sha256(data).hexdigest()
    if actual != digest:
        raise RuntimeError(
            f"staged payload {path} digest mismatch: "
            f"expected {digest[:12]}..., read {actual[:12]}..."
        )
    payload = pickle.loads(data)
    while len(_payload_cache) >= _PAYLOAD_CACHE_ENTRIES:
        _payload_cache.pop(next(iter(_payload_cache)))
    _payload_cache[digest] = payload
    return payload


def _reap_after_task() -> None:
    """Reap any stray forked children a task left behind.

    Search tasks fork prefix checkpoints (:mod:`repro.kframework.engine`);
    in a short-lived pool a leaked child died with its worker, but warm
    workers live for the process lifetime, so each chunk sweeps zombies
    before returning.
    """
    try:
        from repro.kframework.engine import reap_stray_children
    except ImportError:  # pragma: no cover - partial installs
        return
    reap_stray_children()


def _run_staged_chunk(
    fn: Callable[[Any, Any], Any],
    header: Any,
    payload: Any,
    span: Optional[tuple[int, int]],
) -> list:
    """Staged chunk task: ``fn(header, item)`` over an inline or staged span."""
    if span is not None:
        items = _load_payload(payload)[span[0] : span[1]]
    else:
        items = payload
    try:
        return [fn(header, item) for item in items]
    finally:
        _reap_after_task()


# ---------------------------------------------------------------------------
# The pool object and the process-wide singleton
# ---------------------------------------------------------------------------


class WarmPool:
    """A persistent process pool with warm workers and chunked submission."""

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self.batches_run = 0
        self._lock = threading.Lock()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_warm_worker
        )
        # ProcessPoolExecutor spawns lazily; force one worker up now so a
        # host that cannot spawn fails here, where get_pool() can fall back.
        self._executor.submit(_probe).result()

    # -- submission -----------------------------------------------------------
    def submit_staged_chunk(
        self,
        fn: Callable[[Any, Any], Any],
        header: Any,
        payload: Any,
        span: Optional[tuple[int, int]] = None,
    ) -> Future:
        """Submit one staged chunk (``fn(header, item)`` per item)."""
        return self._executor.submit(_run_staged_chunk, fn, header, payload, span)

    def run_staged(
        self,
        fn: Callable[[Any, Any], Any],
        header: Any,
        items: Sequence[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> list:
        """Map ``fn(header, item)`` over ``items`` in order.

        ``header`` is pickled once per chunk; when the item list itself is
        large it is staged to a spool file and shipped by reference.
        """
        items = list(items)
        size = self._effective_chunksize(len(items), chunksize)
        spans = [
            (start, min(start + size, len(items)))
            for start in range(0, len(items), size)
        ]
        staged_path: Optional[str] = None
        try:
            payload_blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
            if len(payload_blob) >= STAGE_THRESHOLD_BYTES and len(spans) > 1:
                staged_path, digest = _stage_blob(payload_blob)
                ref = (staged_path, digest)
                futures = [
                    self.submit_staged_chunk(fn, header, ref, span)
                    for span in spans
                ]
            else:
                futures = [
                    self.submit_staged_chunk(fn, header, items[lo:hi], None)
                    for lo, hi in spans
                ]
            return self._collect(futures)
        finally:
            if staged_path is not None:
                try:
                    os.unlink(staged_path)
                except OSError:  # pragma: no cover - already gone
                    pass

    def _collect(self, futures: Sequence[Future]) -> list:
        try:
            results = []
            for future in futures:
                results.extend(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        with self._lock:
            self.batches_run += 1
        return results

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
    @property
    def alive(self) -> bool:
        broken = getattr(self._executor, "_broken", False)
        shutdown = getattr(self._executor, "_shutdown_thread", False)
        return not broken and not shutdown

    def stats(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "alive": self.alive,
            "batches_run": self.batches_run,
        }

    def shutdown(self, *, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)


def _stage_blob(blob: bytes) -> tuple[str, str]:
    """Write a pickled payload to a spool file; returns (path, digest)."""
    digest = hashlib.sha256(blob).hexdigest()
    fd, path = tempfile.mkstemp(prefix="repro-pool-", suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
    except BaseException:  # pragma: no cover - disk full etc.
        os.unlink(path)
        raise
    return path, digest


_lock = threading.RLock()
_pool: Optional[WarmPool] = None
_spawn_failed = False


def get_pool(jobs: Optional[int] = None) -> Optional[WarmPool]:
    """The process-wide warm pool with at least ``jobs`` workers.

    Returns ``None`` where the host forbids subprocesses — the failed-spawn
    verdict is cached, so only the first call pays the discovery (and emits
    the one observable "running serially" warning).
    """
    global _pool, _spawn_failed
    want = resolve_jobs(jobs)
    with _lock:
        if _spawn_failed:
            return None
        if _pool is not None and _pool.alive and _pool.workers >= want:
            return _pool
        # Grow (or replace a broken pool): never shrink a healthy one.
        target = max(want, _pool.workers if _pool is not None else 1)
        old, _pool = _pool, None
        if old is not None:
            old.shutdown(wait=False)
        try:
            _pool = WarmPool(target)
        except (OSError, PermissionError, BrokenExecutor):
            _spawn_failed = True
            # The degradation must be observable: a caller who asked for
            # jobs=N should not attribute a serial run's wall time to the
            # tool.  Warned once per process by the cached verdict above.
            warnings.warn(
                "cannot spawn worker processes; running serially",
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
    """Introspection for ``kcc-check serve`` stats frames and tests."""
    with _lock:
        if _pool is None:
            return {
                "workers": 0,
                "alive": False,
                "batches_run": 0,
                "spawn_failed": _spawn_failed,
            }
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
    """Map ``fn(header, item)`` over ``items``, staging large item lists.

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
