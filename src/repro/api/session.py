"""The staged session API: reusable compiles, cached by content + profile.

The seed exposed kcc only as one-shot ``check_program(source)`` calls, so
every analyzer re-parsed every program from scratch.  This module stages the
work the way the paper's own workflow is staged (Section 3.2: compile once,
then run/search many times over one translation unit):

* :meth:`Checker.compile` parses + statically checks a program into a
  :class:`~repro.core.kcc.CompiledUnit`, memoized by content hash and
  implementation profile; the unit also carries the register bytecode
  (:mod:`repro.core.bytecode`) the dynamic stage executes (the closure-tree
  IR of :mod:`repro.core.lowering` under ``engine="lowered"``),
  materialized lazily per checker configuration;
* :meth:`Checker.run` executes a compiled unit — any number of times, with
  different stdin/argv or evaluation-order search, without re-parsing;
* :meth:`Checker.check` is the one-shot composition of the two;
* :meth:`Checker.check_many` fans a batch out over a process pool
  (see :mod:`repro.api.batch`).

A module-level cache (:func:`compile_shared`) lets independent tools — the
semantics-based baselines of the evaluation, for instance — share one parse
per (program, profile) pair.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.cfront.ctypes import ImplementationProfile
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.kcc import CheckReport, CompiledUnit, KccTool, content_hash
from repro.kframework.search import SearchBudget, SearchOptions


@dataclass
class CheckerStats:
    """Counters a session keeps about its own work.

    ``parse_count`` only moves when a program is actually parsed, so tests
    (and profiling) can observe that re-running a compiled unit — or
    re-compiling an already-cached source — skips the parse stage.

    The counters cover work done *in this process through this checker*: a
    ``check_many(jobs>1)`` batch fans out to worker processes that parse and
    run independently of the session cache, so only ``run_count`` (one per
    verdict the session hands back) moves for the pooled path.
    """

    parse_count: int = 0
    cache_hits: int = 0
    run_count: int = 0

    def __post_init__(self) -> None:
        # += on an attribute is a read-modify-write; a service checker is
        # shared across threads, so increments go through a lock.
        self._lock = threading.Lock()

    def bump(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"parse_count": self.parse_count, "cache_hits": self.cache_hits,
                    "run_count": self.run_count}


class CompileCache:
    """A bounded LRU of compiled units keyed by (content hash, profile).

    Compilation is single-flight: concurrent misses on the same key wait for
    the first caller's compile instead of each parsing the program, so the
    one-parse-per-(program, profile) invariant holds under threads too.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, CompiledUnit] = OrderedDict()
        self._inflight: dict[tuple, threading.Event] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get_or_compile(self, source: str, *, filename: str,
                       profile: ImplementationProfile,
                       compile_fn: Callable[[], CompiledUnit],
                       stats: Optional[CheckerStats] = None) -> CompiledUnit:
        key = (content_hash(source), profile)  # profile is frozen → hashable
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                else:
                    gate = self._inflight.get(key)
                    if gate is None:
                        gate = self._inflight[key] = threading.Event()
                        break       # this caller compiles
            if cached is not None:
                if stats is not None:
                    stats.bump("cache_hits")
                if cached.filename != filename:
                    # Same content under a different name: share the parse,
                    # but label reports with the caller's filename.
                    return dataclasses.replace(cached, filename=filename)
                return cached
            gate.wait()             # another caller is compiling this key
        try:
            compiled = compile_fn()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            gate.set()              # waiters retry (and may become the owner)
            raise
        if stats is not None:
            stats.bump("parse_count")
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self._inflight.pop(key, None)
        gate.set()
        return compiled


#: Process-wide cache shared by all tools that opt in (the semantics-based
#: baselines do): one parse per (program, profile) pair, no matter how many
#: tools analyze the program.
SHARED_COMPILE_CACHE = CompileCache()


def compile_shared(source: str, *, filename: str = "<input>",
                   options: CheckerOptions = DEFAULT_OPTIONS,
                   stats: Optional[CheckerStats] = None) -> CompiledUnit:
    """Compile through the process-wide shared cache."""
    tool = KccTool(options)
    return SHARED_COMPILE_CACHE.get_or_compile(
        source, filename=filename, profile=options.profile,
        compile_fn=lambda: tool.compile_unit(source, filename=filename),
        stats=stats)


class Checker:
    """Facade over the staged pipeline, with a per-session compile cache.

    A checker is cheap to construct and safe to keep for the lifetime of a
    service: compiled units accumulate in its LRU cache, so checking the same
    program again (or running one unit under many configurations) costs only
    the dynamic stage.
    """

    def __init__(self, options: CheckerOptions = DEFAULT_OPTIONS, *,
                 search_evaluation_order: bool = False,
                 run_static_checks: bool = True,
                 cache: Optional[CompileCache] = None,
                 cache_size: int = 1024) -> None:
        self.options = options
        self.search_evaluation_order = search_evaluation_order
        self.run_static_checks = run_static_checks
        self.cache = cache if cache is not None else CompileCache(cache_size)
        self.stats = CheckerStats()
        self._tool = KccTool(options, search_evaluation_order=search_evaluation_order,
                             run_static_checks=run_static_checks)

    # -- stage 1 ------------------------------------------------------------
    def compile(self, source: str, *, filename: str = "<input>") -> CompiledUnit:
        """Parse + statically check ``source``; memoized by content + profile."""
        return self.cache.get_or_compile(
            source, filename=filename, profile=self.options.profile,
            compile_fn=lambda: self._tool.compile_unit(source, filename=filename),
            stats=self.stats)

    # -- stage 2 ------------------------------------------------------------
    def run(self, compiled: CompiledUnit, *, argv: Optional[list[str]] = None,
            stdin: str = "",
            search_evaluation_order: Optional[bool] = None,
            probes: Optional[Sequence] = None) -> CheckReport:
        """Execute a compiled unit; never re-parses.

        ``probes`` subscribes :class:`repro.events.Probe` instances to the
        run's execution-event stream (see ``docs/api.md`` "Instrumentation
        & probes").  One run feeds every probe — ``stats.run_count`` moves
        by exactly one however many probes are attached.
        """
        if search_evaluation_order is None or \
                search_evaluation_order == self.search_evaluation_order:
            tool = self._tool
        else:
            tool = KccTool(self.options, search_evaluation_order=search_evaluation_order,
                           run_static_checks=self.run_static_checks)
        report = tool.run_unit(compiled, argv=argv, stdin=stdin, probes=probes)
        self.stats.bump("run_count")  # counted only when a run actually happened
        return report

    # -- evaluation-order search ---------------------------------------------
    def search(self, source: str | CompiledUnit, *, filename: str = "<input>",
               argv: Optional[list[str]] = None, stdin: str = "",
               strategy: str = "dfs", budget: Optional[SearchBudget] = None,
               jobs: int = 1, seed: int = 0, dedup_states: bool = True,
               prune_commuting: bool = True, checkpoint: str = "auto",
               stop_at_first: bool = True,
               merge_symbolic: bool = False) -> CheckReport:
        """Explore the evaluation orders of one program (§2.5.2).

        The search runs on :class:`repro.kframework.engine.SearchEngine`:
        sibling orders resume from forked prefix checkpoints where the
        platform allows it (``checkpoint="auto"``), converging interleavings
        are merged by machine-state hash, and orders whose operand
        footprints commute are skipped.  ``strategy`` picks the frontier
        (``dfs``/``bfs``/``random`` + ``seed``), ``budget`` bounds the
        exploration (default: ``max_paths`` from the checker options), and
        ``jobs > 1`` shards the root frontier across a process pool.  The
        report's ``search`` field carries the stop reason and coverage.

        ``merge_symbolic=True`` adds the interval absorption layer on top
        of exact-state dedup: paths arriving at the same control point whose
        live memories differ only in a few cells are folded into one family
        once the family has shown uniform outcomes (counted in the result's
        ``merged_symbolic``; see ``docs/architecture.md``, "Symbolic
        engine").  Verdicts are unchanged — only the path count drops.
        """
        if isinstance(source, CompiledUnit):
            compiled = source
        else:
            compiled = self.compile(source, filename=filename)
        if budget is None:
            budget = SearchBudget(max_paths=self.options.max_search_paths)
        search_options = SearchOptions(
            strategy=strategy, budget=budget, seed=seed, jobs=jobs,
            dedup_states=dedup_states, prune_commuting=prune_commuting,
            checkpoint=checkpoint, stop_at_first=stop_at_first,
            merge_symbolic=merge_symbolic)
        report = self._tool.search_unit(compiled, argv=argv, stdin=stdin,
                                        search=search_options)
        self.stats.bump("run_count")
        return report

    # -- symbolic proving -----------------------------------------------------
    def prove(self, source: str | CompiledUnit, *,
              inputs: Optional[dict[str, tuple[int, int]]] = None,
              filename: str = "<input>"):
        """Range-prove a program with the abstract interval engine (§2.5).

        Compiles (cached) and runs :func:`repro.symbolic.prove_unit` over
        the lowered unit.  ``inputs`` maps ``int`` variable names declared
        in ``main`` to closed ``(lo, hi)`` ranges; the proof then quantifies
        over every concretization.  Returns a
        :class:`repro.symbolic.ProveReport` whose verdict is one of
        ``PROVED_DEFINED`` (every run of every input is defined),
        ``PROVED_UNDEFINED`` (a specific :class:`~repro.errors.UBKind` is
        reached on every input, with a witness interval), or
        ``INCONCLUSIVE`` (the abstract domain cannot decide — never a lie).
        """
        from repro.symbolic.prove import prove_unit

        if isinstance(source, CompiledUnit):
            compiled = source
        else:
            compiled = self.compile(source, filename=filename)
        report = prove_unit(compiled, options=self.options, inputs=inputs)
        self.stats.bump("run_count")
        return report

    # -- fuzzing --------------------------------------------------------------
    def fuzz(self, *, seed: int = 0, count: int = 100,
             inject: Optional[str] = "mixed", jobs: int = 1,
             corpus_dir: Optional[str] = None,
             reduce_failures: bool = False,
             generator=None, oracles=None):
        """Run a differential fuzzing campaign under this checker's options.

        Generates ``count`` ground-truth-labeled programs from ``seed``
        (clean, or with one planted defect per ``inject``), pushes each
        through the oracle stack of :mod:`repro.fuzz.oracles`, and returns
        a :class:`repro.fuzz.CampaignResult`.  ``jobs=N`` shards the case
        indices over the process pool with byte-identical results; corpus
        and reduction behave as on ``kcc-check fuzz``.
        """
        from repro.fuzz.campaign import CampaignConfig, run_campaign
        from repro.fuzz.generator import GeneratorConfig
        from repro.fuzz.oracles import OracleConfig

        config = CampaignConfig(
            seed=seed, count=count, inject=inject, jobs=jobs,
            generator=generator if generator is not None else GeneratorConfig(),
            oracles=oracles if oracles is not None else OracleConfig(),
            corpus_dir=corpus_dir, reduce_failures=reduce_failures)
        return run_campaign(config, options=self.options)

    # -- compositions --------------------------------------------------------
    def check(self, source: str, *, filename: str = "<input>",
              argv: Optional[list[str]] = None, stdin: str = "") -> CheckReport:
        """Compile (cached) and run ``source`` in one call."""
        return self.run(self.compile(source, filename=filename),
                        argv=argv, stdin=stdin)

    def check_many(self, sources: Sequence[str | tuple[str, str]], *,
                   jobs: Optional[int] = 1,
                   probe_factory=None) -> list[CheckReport]:
        """Check a batch of programs, fanning out over ``jobs`` processes.

        ``sources`` may be plain source strings or ``(filename, source)``
        pairs.  Verdicts come back in input order and are identical to the
        serial path; see :mod:`repro.api.batch`.  ``probe_factory(filename)``
        attaches fresh probes per program (forces the serial path — probes
        are in-process observers).
        """
        from repro.api.batch import check_many

        return check_many(sources, options=self.options,
                          search_evaluation_order=self.search_evaluation_order,
                          run_static_checks=self.run_static_checks,
                          jobs=jobs, checker=self, probe_factory=probe_factory,
                          search_options=self._tool.search_options)

    def iter_check_many(self, sources: Iterable[str | tuple[str, str]], *,
                        jobs: Optional[int] = 1):
        """Like :meth:`check_many`, but stream reports as they are ready (in order)."""
        from repro.api.batch import iter_check_many

        return iter_check_many(sources, options=self.options,
                               search_evaluation_order=self.search_evaluation_order,
                               run_static_checks=self.run_static_checks,
                               jobs=jobs, checker=self)
