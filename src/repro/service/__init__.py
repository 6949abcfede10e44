"""repro.service — the warm worker pool and the long-lived checking service.

Two layers:

* :mod:`repro.service.pool` — the process-wide **warm worker pool** every
  parallel call site routes through (``check_many(jobs=N)``, fuzz
  campaigns, harness grids, search root-shards).  Long-lived forked
  workers pre-import the engine, keep the shared compile cache across
  batches, take work as chunked tasks over one duplex pipe each, and
  receive large corpora by file-backed reference.

* :mod:`repro.service.server` / :mod:`repro.service.client` /
  :mod:`repro.service.protocol` — the **checking service**: ``kcc-check
  serve`` accepts check/fuzz/search jobs as newline-delimited JSON over a
  socket, multiplexes concurrent clients over the warm pool, streams
  per-job progress events, and drains gracefully on SIGTERM.
  :class:`ServiceClient` is the blocking, scriptable counterpart.

The heavy submodules load lazily: importing :mod:`repro.service` (which the
pool's call sites do implicitly) must not drag in asyncio server machinery,
and the server imports those very call sites back.
"""

from __future__ import annotations

from repro.service.pool import (
    WarmPool,
    WorkerLost,
    get_pool,
    pool_stats,
    run_staged,
    shutdown_pool,
)

__all__ = [
    "CheckService",
    "JobCancelled",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeout",
    "WarmPool",
    "WorkerLost",
    "get_pool",
    "pool_stats",
    "run_staged",
    "serve_in_background",
    "shutdown_pool",
]

_LAZY = {
    "CheckService": "repro.service.server",
    "serve_in_background": "repro.service.server",
    "JobCancelled": "repro.service.client",
    "ServiceClient": "repro.service.client",
    "ServiceConnectionError": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceTimeout": "repro.service.client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
