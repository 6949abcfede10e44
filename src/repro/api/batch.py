"""Batch checking: fan a list of programs out over the warm worker pool.

``check_many`` / ``iter_check_many`` take plain source strings or
``(filename, source)`` pairs, run each through the same staged pipeline the
serial API uses, and hand verdicts back **in input order**.  With ``jobs=1``
(the default) everything runs in the calling process through the session's
compile cache; with ``jobs>1`` the work fans out over the process-wide warm
pool (:mod:`repro.service.pool`): long-lived workers that pre-import the
engine, keep the shared compile cache across batches, and receive work as
chunked tasks.  A chunk carries its own programs and the per-batch
configuration, pickled once per chunk, not once per program, and its
options by field values.  ``check_many`` is ``iter_check_many`` collected
into a list, so a pooled batch takes one path either way.

Reports that cross a process boundary are identical to serial reports except
that the parsed AST (``CheckReport.unit``) is dropped — shipping a full
translation unit per program would dominate the IPC cost, and batch callers
classify outcomes, they do not re-run units.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.kcc import CheckReport, KccTool
from repro.service.pool import get_pool, resolve_jobs

SourceSpec = Union[str, Tuple[str, str]]

#: How many programs each pool chunk carries; larger chunks amortize pickling.
DEFAULT_CHUNKSIZE = 4

__all__ = [
    "DEFAULT_CHUNKSIZE",
    "check_many",
    "iter_check_many",
    "resolve_jobs",
]


def _normalize(sources: Iterable[SourceSpec]) -> list[tuple[str, str]]:
    """Normalize inputs to (filename, source) pairs."""
    if isinstance(sources, str):
        # The natural migration mistake from check_program(source): a bare
        # string would iterate character-by-character into garbage reports.
        raise TypeError("check_many expects a sequence of programs; "
                        "wrap a single source in a list")
    normalized = []
    for index, spec in enumerate(sources):
        if isinstance(spec, str):
            normalized.append((f"<input:{index}>", spec))
        else:
            filename, source = spec
            normalized.append((filename, source))
    return normalized


def _strip_for_ipc(report: CheckReport) -> CheckReport:
    """Drop the AST before pickling a report back to the parent process."""
    return CheckReport(outcome=report.outcome, result=report.result,
                       search=report.search, unit=None, filename=report.filename)


def check_header(options: CheckerOptions, search_evaluation_order: bool,
                 run_static_checks: bool, search_options) -> tuple:
    """The per-batch configuration a check chunk ships once, not per item."""
    return (options, search_evaluation_order, run_static_checks,
            search_options)


def check_pair(header: tuple, pair: tuple[str, str]) -> CheckReport:
    """Pool worker: check one (filename, source) pair.

    Module-level (picklable); routes the compile through the worker's
    process-wide shared cache, so a warm worker re-parses a program it has
    seen before in *any* earlier batch exactly never.
    """
    from repro.api.session import compile_shared

    options, search_evaluation_order, run_static_checks, search_options = header
    filename, source = pair
    tool = KccTool(options,
                   search_evaluation_order=search_evaluation_order,
                   run_static_checks=run_static_checks,
                   search_options=search_options)
    compiled = compile_shared(source, filename=filename, options=options)
    return _strip_for_ipc(tool.run_unit(compiled))


def iter_check_many(sources: Iterable[SourceSpec], *,
                    options: CheckerOptions = DEFAULT_OPTIONS,
                    search_evaluation_order: bool = False,
                    run_static_checks: bool = True,
                    jobs: Optional[int] = 1,
                    checker=None,
                    probe_factory=None,
                    search_options=None) -> Iterator[CheckReport]:
    """Yield one :class:`CheckReport` per input, in input order.

    The parallel path streams: a verdict is yielded as soon as it (and all
    verdicts before it) are ready, so a consumer can start reporting while
    the pool is still working through the tail of the batch.

    ``probe_factory(filename) -> [Probe, ...]`` attaches fresh execution
    probes (:mod:`repro.events`) to each program's run.  Probes are
    in-process observers — the caller holds the references its factory
    created — so a batch with probes always runs serially in the calling
    process, whatever ``jobs`` says.
    """
    pairs = _normalize(sources)
    worker_count = resolve_jobs(jobs)
    if probe_factory is not None or worker_count <= 1 or len(pairs) <= 1:
        yield from _iter_serial(pairs, options=options,
                                search_evaluation_order=search_evaluation_order,
                                run_static_checks=run_static_checks,
                                checker=checker, probe_factory=probe_factory,
                                search_options=search_options)
        return
    pool = get_pool(min(worker_count, len(pairs)))
    if pool is None:  # pragma: no cover - sandboxed hosts
        yield from _iter_serial(pairs, options=options,
                                search_evaluation_order=search_evaluation_order,
                                run_static_checks=run_static_checks,
                                checker=checker,
                                search_options=search_options)
        return
    header = check_header(options, search_evaluation_order,
                          run_static_checks, search_options)
    # An abandoned iterator (e.g. the consumer's `| head -1` closing the
    # pipe) starts no further chunks and discards the replies in flight;
    # the pool itself stays warm for the next batch.
    chunks = pool.iter_staged(check_pair, header, pairs,
                              chunksize=DEFAULT_CHUNKSIZE)
    with contextlib.closing(chunks) as results:
        for reports in results:
            for report in reports:
                if checker is not None:
                    # The workers ran the programs, but the session owns the
                    # batch: keep run_count independent of the jobs value.
                    checker.stats.bump("run_count")
                yield report


def _iter_serial(pairs: Sequence[tuple[str, str]], *, options: CheckerOptions,
                 search_evaluation_order: bool, run_static_checks: bool,
                 checker=None, probe_factory=None,
                 search_options=None) -> Iterator[CheckReport]:
    tool = KccTool(options, search_evaluation_order=search_evaluation_order,
                   run_static_checks=run_static_checks,
                   search_options=search_options)
    if checker is not None and checker.options == options:
        # Borrow the session's compile cache, but honor the explicit flags —
        # the checker's own search/static configuration may differ, and the
        # serial path must classify exactly like the worker-pool path.
        for filename, source in pairs:
            checker.stats.bump("run_count")
            probes = probe_factory(filename) if probe_factory is not None else None
            yield tool.run_unit(checker.compile(source, filename=filename),
                                probes=probes)
        return
    for filename, source in pairs:
        probes = probe_factory(filename) if probe_factory is not None else None
        yield tool.run_unit(tool.compile_unit(source, filename=filename),
                            probes=probes)


def check_many(sources: Sequence[SourceSpec], *,
               options: CheckerOptions = DEFAULT_OPTIONS,
               search_evaluation_order: bool = False,
               run_static_checks: bool = True,
               jobs: Optional[int] = 1,
               checker=None,
               probe_factory=None,
               search_options=None) -> list[CheckReport]:
    """Check a batch of programs; the list is ordered like the input."""
    return list(iter_check_many(
        sources, options=options,
        search_evaluation_order=search_evaluation_order,
        run_static_checks=run_static_checks, jobs=jobs, checker=checker,
        probe_factory=probe_factory, search_options=search_options))
