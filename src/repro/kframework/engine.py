"""The evaluation-order search engine: checkpoints, dedup, commutativity.

The seed driver re-executed the whole program from ``main`` for every
explored evaluation order.  This engine is built like an explicit-state
model checker instead:

* **Prefix checkpoints** (``checkpoint="fork"``, the default where the
  platform has ``os.fork``): at each interleaving decision the engine forks
  one paused process per sibling alternative.  A checkpoint is a genuine
  copy-on-write snapshot of the whole abstract machine — memory, environment,
  output, and the strategy cursor — so a sibling order *resumes from the
  decision point* instead of re-running from ``main``.  Sleeping siblings
  are woken (or cancelled) in LIFO order, which makes the exploration a
  deterministic depth-first search with exactly one process running at a
  time.  On platforms without ``fork`` the engine transparently falls back
  to scripted replay (``checkpoint="replay"``): sibling orders re-execute a
  decision prefix from ``main``, exactly like the seed, but still benefit
  from deduplication and pruning.

* **State deduplication**: at every decision point the machine state
  (memory store, locals, control site, output, input cursor) is hashed.  A
  path arriving at a state already seen at the same choice site (and the
  same control progress) merges with the earlier interleaving — its suffix
  has been (or will be) explored once — and is cut immediately.

* **Commutativity filter**: while a group of unsequenced operands
  evaluates, the engine segments the run's execution-event stream (the
  ``read``/``write`` payloads of :mod:`repro.events`) into per-operand
  footprints.  If the footprints are pairwise non-conflicting and the group
  performed no allocation, I/O, or nested interleaving, every sibling order
  provably reaches the same state: the siblings are cancelled and counted
  as covered-by-equivalence.

Every bound lives in a :class:`~repro.kframework.search.SearchBudget`, and
the result reports *why* the search stopped (``stop_reason``) and what
fraction of the discovered alternatives was covered (``coverage``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import time
from typing import Any, Optional

from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.events import Event, Probe, ProbeSet
from repro.kframework.search import (
    STOP_FIRST_UNDEFINED,
    STOP_MAX_PATHS,
    STOP_MAX_STATES,
    STOP_WALL_CLOCK,
    PathOutcome,
    SearchOptions,
    SearchResult,
    make_frontier,
)
from repro.kframework.strategy import (
    EvaluationStrategy,
    nth_permutation,
    permutation_count,
)


class PathMerged(Exception):
    """Internal: this run's state merged with an explored interleaving.

    ``symbolic`` distinguishes an exact-state merge (the dedup table) from
    an interval absorption (the symbolic merge layer, see
    :class:`_MergeFamily`); they are counted separately in the result.
    """

    def __init__(self, decision_index: int, *, symbolic: bool = False) -> None:
        self.decision_index = decision_index
        self.symbolic = symbolic
        kind = "interval-absorbed" if symbolic else "state merged"
        super().__init__(f"{kind} at decision {decision_index}")


def checkpoint_supported() -> bool:
    """Whether this platform can fork prefix checkpoints."""
    return hasattr(os, "fork")


def resolve_checkpoint(options: SearchOptions) -> bool:
    """Validate a checkpoint configuration; True means fork mode.

    Raises ``ValueError`` on conflicts (fork without :func:`os.fork`,
    fork with a non-DFS frontier, unknown mode).  Public so callers that
    dispatch work elsewhere — the CLI's usage errors, the parallel
    driver's pool workers — can fail fast with the same message the
    engine constructor would raise.
    """
    if options.checkpoint == "replay":
        return False
    if options.checkpoint == "fork":
        if not checkpoint_supported():
            raise ValueError(
                "checkpoint='fork' requires os.fork; use 'replay' or 'auto'"
            )
        if options.strategy != "dfs":
            # Checkpoints are resumed LIFO, which is depth-first by
            # construction; honoring a BFS/random frontier requires
            # scripted replay.
            raise ValueError(
                f"checkpoint='fork' explores depth-first and cannot honor "
                f"strategy={options.strategy!r}; use strategy='dfs' or "
                f"checkpoint='replay'"
            )
        return True
    if options.checkpoint != "auto":
        raise ValueError(
            f"unknown checkpoint mode {options.checkpoint!r}; "
            f"expected auto, fork, or replay"
        )
    # Checkpoint exploration is inherently depth-first: sleeping siblings
    # are resumed in LIFO order.
    return checkpoint_supported() and options.strategy == "dfs"


def shard_scripts(scripts: list, shards: int) -> list[list]:
    """Partition sibling scripts into round-robin shards (deterministic).

    Round-robin (``scripts[i::shards]``) rather than contiguous slices:
    sibling scripts adjacent in expansion order tend to share subtree
    shape and cost, so striding balances shard work.  The partition is a
    pure function of ``(scripts, shards)`` — the parallel search driver
    and the campaign work-unit partitioner both rely on that to produce
    identical shards for the same program on every machine.
    """
    shards = max(1, int(shards))
    return [scripts[i::shards] for i in range(shards) if scripts[i::shards]]


# ---------------------------------------------------------------------------
# State fingerprinting
# ---------------------------------------------------------------------------


def _byte_token(byte: Any) -> Any:
    kind = type(byte).__name__
    if kind == "ConcreteByte":
        return byte.value
    if kind == "UnknownByte":
        # Indeterminate bytes are semantically interchangeable; their
        # freshness counter must not keep equal states apart.
        return "u"
    if kind == "PointerByte":
        pointer = byte.pointer
        return (
            "p",
            pointer.base,
            pointer.offset,
            pointer.function,
            str(pointer.type),
            byte.index,
            byte.size,
        )
    if kind == "FloatByte":
        return ("f", byte.value, byte.kind, byte.index, byte.size)
    return repr(byte)


def state_fingerprint(interp: Any) -> bytes:
    """A 128-bit digest of the abstract machine state.

    Covers everything the continuation of a run can observe: the memory
    store (object liveness, bytes, effective types), the const and
    sequencing cells, the environment (frame stack, scopes, bindings), the
    program output, the stdin cursor, and the PRNG state.  The step counter
    is included as a control-progress proxy: the interpreter has no
    explicit program counter, and two runs at the same choice site with the
    same data state can still differ in how much of the program remains
    (``f(); f();``).  Interleavings that do the same work in a different
    order execute the same nodes, so their step counts agree exactly where
    merging is wanted.
    """
    memory = interp.memory
    tokens: list[Any] = [
        interp._steps,
        memory._next_base,
        memory.heap_allocations,
        interp._stdin_pos,
        interp._rand_state,
        interp.stdout,
    ]
    for base, obj in memory.objects.items():
        tokens.append(
            (base, obj.size, obj.kind.value, obj.alive, obj.freed, obj.is_const)
        )
        data = obj.data
        if type(data).__name__ == "SparseBytes":
            # A sparse store is fully determined by its default byte plus the
            # overlay; tokenizing per byte would be O(object size) — for the
            # multi-exabyte objects SparseBytes exists for, that never
            # terminates.  Overlay writes that equal the default are dropped
            # so explicitly-written-default and never-written states merge.
            default_token = _byte_token(data.default)
            tokens.append(
                (
                    "sparse",
                    data.size,
                    default_token,
                    tuple(
                        sorted(
                            (offset, token)
                            for offset, byte in data.overlay.items()
                            if (token := _byte_token(byte)) != default_token
                        )
                    ),
                )
            )
        else:
            tokens.append(tuple(_byte_token(b) for b in data))
        if obj.effective_types:
            tokens.append(
                tuple(
                    sorted(
                        (offset, str(ctype))
                        for offset, ctype in obj.effective_types.items()
                    )
                )
            )
    tokens.append(tuple(sorted(memory.not_writable)))
    tokens.append(tuple(sorted(memory.locs_written)))
    for frame in interp.frames:
        tokens.append((frame.function_name, frame.call_line))
        for scope in frame.scopes:
            tokens.append(
                tuple(sorted((name, b.base) for name, b in scope.bindings.items()))
            )
            tokens.append(tuple(scope.owned_bases))
    tokens.append(
        tuple(
            sorted(
                (key, value.base, value.offset)
                for key, value in interp.pointer_registry.items()
            )
        )
    )
    tokens.append(
        tuple(sorted((key, b.base) for key, b in interp._static_locals.items()))
    )
    return hashlib.blake2b(repr(tokens).encode("utf-8"), digest_size=16).digest()


#: Maximum number of integer memory cells over which two interleaving states
#: may differ and still be absorbed into one symbolic merge family.
SYMBOLIC_MERGE_CELLS = 8


def _coarse_state(interp: Any) -> tuple[bytes, dict]:
    """The state split for symbolic merging: (structural digest, int cells).

    The digest covers everything :func:`state_fingerprint` covers *except*
    the values of concrete bytes in live objects; those are returned
    separately as ``{(base, offset): value}`` so arrivals whose states
    differ only in a few integer cells can be compared cell-wise and
    joined into intervals.  Byte positions themselves stay in the digest
    (as a shape marker), so two states only share a coarse key when the
    same cells hold concrete data.
    """
    memory = interp.memory
    cells: dict[tuple[int, int], int] = {}
    tokens: list[Any] = [
        interp._steps,
        memory._next_base,
        memory.heap_allocations,
        interp._stdin_pos,
        interp._rand_state,
        interp.stdout,
    ]
    for base, obj in memory.objects.items():
        tokens.append(
            (base, obj.size, obj.kind.value, obj.alive, obj.freed, obj.is_const)
        )
        data = obj.data
        if type(data).__name__ == "SparseBytes":
            # Sparse (huge) objects are never absorption targets; their
            # exact token stream keeps them in the structural digest.
            default_token = _byte_token(data.default)
            tokens.append(
                (
                    "sparse",
                    data.size,
                    default_token,
                    tuple(
                        sorted(
                            (offset, token)
                            for offset, byte in data.overlay.items()
                            if (token := _byte_token(byte)) != default_token
                        )
                    ),
                )
            )
        elif not (obj.alive and not obj.freed):
            # A dead object's bytes cannot influence the continuation (any
            # access is flagged from the liveness flags, not the data), but
            # different interleavings leave different stale values behind.
            # Keeping them out of both the digest and the cells stops dead
            # frames from forever splitting otherwise-equal coarse states.
            tokens.append(("dead", len(data)))
        else:
            shape: list[Any] = []
            for offset, byte in enumerate(data):
                if type(byte).__name__ == "ConcreteByte":
                    shape.append("c")
                    cells[(base, offset)] = byte.value
                else:
                    shape.append(_byte_token(byte))
            tokens.append(tuple(shape))
        if obj.effective_types:
            tokens.append(
                tuple(
                    sorted(
                        (offset, str(ctype))
                        for offset, ctype in obj.effective_types.items()
                    )
                )
            )
    tokens.append(tuple(sorted(memory.not_writable)))
    tokens.append(tuple(sorted(memory.locs_written)))
    for frame in interp.frames:
        tokens.append((frame.function_name, frame.call_line))
        for scope in frame.scopes:
            tokens.append(
                tuple(sorted((name, b.base) for name, b in scope.bindings.items()))
            )
            tokens.append(tuple(scope.owned_bases))
    tokens.append(
        tuple(
            sorted(
                (key, value.base, value.offset)
                for key, value in interp.pointer_registry.items()
            )
        )
    )
    tokens.append(
        tuple(sorted((key, b.base) for key, b in interp._static_locals.items()))
    )
    digest = hashlib.blake2b(repr(tokens).encode("utf-8"), digest_size=16).digest()
    return digest, cells


class _MergeFamily:
    """Explored arrivals at one coarse state, joined cell-wise to intervals.

    An arriving path may be *absorbed* (cut, counted ``merged_symbolic``)
    when the family has at least two completed member runs with a uniform
    verdict, members disagree on at most :data:`SYMBOLIC_MERGE_CELLS`
    cells, and the arrival's value at every cell lies inside the family's
    joined interval — i.e. the arrival is covered by the interval
    generalization of suffixes already explored.  Anything that breaks the
    premise (differing cell sets, mixed member verdicts, too many
    differing cells) poisons the family permanently: poisoned families
    never absorb, so the layer degrades to plain exact dedup.
    """

    __slots__ = ("cells", "diff", "completed", "outcomes", "poisoned")

    def __init__(self, cells: dict) -> None:
        self.cells = {cell: (value, value) for cell, value in cells.items()}
        self.diff: set = set()
        self.completed = 0
        self.outcomes: set = set()
        self.poisoned = False

    def can_absorb(self, cells: dict) -> bool:
        if self.poisoned or self.completed < 2 or len(self.outcomes) != 1:
            return False
        if cells.keys() != self.cells.keys():
            return False
        if len(self.diff) > SYMBOLIC_MERGE_CELLS:
            return False
        for cell, value in cells.items():
            lo, hi = self.cells[cell]
            if not lo <= value <= hi:
                return False
        return True

    def join(self, cells: dict) -> None:
        if cells.keys() != self.cells.keys():
            self.poisoned = True
            return
        for cell, value in cells.items():
            lo, hi = self.cells[cell]
            if value < lo or value > hi:
                self.cells[cell] = (min(lo, value), max(hi, value))
                self.diff.add(cell)
        if len(self.diff) > SYMBOLIC_MERGE_CELLS:
            self.poisoned = True

    def complete(self, undefined: bool) -> None:
        self.completed += 1
        self.outcomes.add(undefined)
        if len(self.outcomes) > 1:
            self.poisoned = True


# ---------------------------------------------------------------------------
# The engine-driven strategy and the footprint tracker
# ---------------------------------------------------------------------------


class EngineStrategy(EvaluationStrategy):
    """Consults the search engine at every interleaving decision."""

    name = "engine"

    def __init__(self, engine: "SearchEngine", script: tuple[int, ...]) -> None:
        self.engine = engine
        self.script = script
        self.decisions: list[int] = []
        self.observed_arity: list[int] = []
        self.interp: Any = None

    def reset(self) -> None:
        self.decisions = []
        self.observed_arity = []

    def order(self, count: int, site: object = None):
        alternatives = permutation_count(count)
        index = len(self.observed_arity)
        self.observed_arity.append(alternatives)
        choice = self.engine.on_choice(self, index, alternatives, site)
        self.decisions.append(choice)
        return nth_permutation(count, choice)

    def note_operand(self, site: object, position: int) -> None:
        self.engine.on_operand(site, position)

    def note_group_end(self, site: object) -> None:
        self.engine.on_group_end(site)


class _Group:
    """One open unsequenced group: per-operand footprints plus checkpoints."""

    __slots__ = (
        "site",
        "index",
        "choice",
        "tracked",
        "tainted",
        "current",
        "reads",
        "writes",
        "sleepers",
    )

    def __init__(self, site: object, index: int, choice: int, tracked: bool) -> None:
        self.site = site
        self.index = index
        self.choice = choice
        self.tracked = tracked
        self.tainted = False
        self.current: Optional[int] = None
        self.reads: dict[int, set] = {}
        self.writes: dict[int, set] = {}
        self.sleepers: list[_Sleeper] = []


class _FootprintProbe(Probe):
    """Segments read/write events into per-operand footprints."""

    name = "search-footprints"

    def __init__(self, engine: "SearchEngine") -> None:
        self.engine = engine

    def on_event(self, event: Event) -> None:
        groups = self.engine._groups
        if not groups:
            return
        kind = event.kind
        if kind == "read" or kind == "write":
            base = event.base
            start = event.offset
            # Built lazily: during scripted-replay prefixes every group is
            # untracked, and this runs for every memory event the search
            # executes.
            cells = None
            for group in groups:
                if not group.tracked:
                    continue
                operand = group.current
                if operand is None:
                    group.tainted = True
                    continue
                if cells is None:
                    cells = {(base, start + i) for i in range(event.size)}
                target = group.writes if kind == "write" else group.reads
                bucket = target.get(operand)
                if bucket is None:
                    target[operand] = set(cells)
                else:
                    bucket |= cells
        elif kind in ("alloc", "free", "ub"):
            for group in groups:
                group.tainted = True
        elif kind == "call" and event.function in BUILTIN_FUNCTIONS:
            # Builtin calls can touch state the event stream does not carry
            # (program output, the allocator, the PRNG, stdin).
            for group in groups:
                group.tainted = True


class _Sleeper:
    """A forked sibling order, parked at its decision point.

    ``log_mark`` is the length of the engine's visited-state log at fork
    time: the child inherited everything before it, so a wake only ships
    the log tail discovered since.
    """

    __slots__ = ("pid", "alt", "ctrl_w", "res_r", "log_mark")

    def __init__(
        self, pid: int, alt: int, ctrl_w: int, res_r: int, log_mark: int
    ) -> None:
        self.pid = pid
        self.alt = alt
        self.ctrl_w = ctrl_w
        self.res_r = res_r
        self.log_mark = log_mark


_GO = b"G"
_CANCEL = b"X"

#: Checkpoints forked per decision; alternatives beyond the cap fall back to
#: scripted replay through the frontier (a correctness-neutral overflow).
FORK_CAP = 16


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, size: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < size:
        chunk = os.read(fd, size - len(chunks))
        if not chunk:
            raise EOFError("search checkpoint pipe closed early")
        chunks += chunk
    return bytes(chunks)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SearchEngine:
    """Explores evaluation orders of one compiled program.

    ``host`` supplies the execution machinery: ``new_interpreter(strategy)``
    builds a fresh interpreter for one run, and ``run(interp)`` executes it
    and classifies the result as a :class:`PathOutcome` (see
    ``repro.core.kcc._SearchHost``).  Everything else — frontier, budget,
    dedup table, checkpoints — lives here.
    """

    def __init__(
        self,
        host: Any,
        options: SearchOptions,
        *,
        initial_scripts: Optional[list[tuple[int, ...]]] = None,
    ) -> None:
        self.host = host
        self.options = options
        self.budget = options.budget
        self.result = SearchResult()
        self.frontier = make_frontier(options.strategy, options.seed)
        self._initial = [tuple(s) for s in (initial_scripts or [()])]
        self.use_fork = resolve_checkpoint(options)
        self.visited: set = set()
        self._visited_log: list = []
        # Symbolic merge families (replay mode only; see _MergeFamily).
        self._families: dict = {}
        self._sym_arrivals: list = []
        self._paths_count = 0
        self._stop = False
        self._stop_reason: Optional[str] = None
        self._deadline: Optional[float] = None
        self._probe = _FootprintProbe(self) if options.prune_commuting else None
        self._child_mode = False
        self._res_w: Optional[int] = None
        # Per-run state.
        self._groups: list[_Group] = []
        self._closed_groups: list[_Group] = []
        self._prune: dict[int, bool] = {}
        self._overflow: list[tuple[int, int]] = []
        self._cut_index: Optional[int] = None
        self._resumed_run = False

    # -- driver loop --------------------------------------------------------

    def run(self) -> SearchResult:
        if self.budget.max_seconds is not None:
            self._deadline = time.monotonic() + self.budget.max_seconds
        for script in self._initial:
            self.frontier.push(script)
        while True:
            if self._stop:
                break
            if self._deadline is not None and time.monotonic() > self._deadline:
                self._request_stop(STOP_WALL_CLOCK)
                break
            script = self.frontier.pop()
            if script is None:
                break
            if self._paths_budget_spent():
                self.result.skipped_alternatives += 1
                self._request_stop(STOP_MAX_PATHS)
                break
            try:
                self._execute_script(script)
            except BaseException as exc:
                if self._child_mode:
                    self._ship_failure(exc)
                raise
            if self._child_mode:
                self._ship_bundle()
        self._finalize()
        return self.result

    def _paths_budget_spent(self) -> bool:
        limit = self.budget.max_paths
        return limit is not None and self._paths_count >= max(1, limit)

    def _request_stop(self, reason: str) -> None:
        self._stop = True
        if self._stop_reason is None:
            self._stop_reason = reason

    def _finalize(self) -> None:
        self.result.states_seen = len(self.visited)
        if not self._stop:
            return
        self.result.skipped_alternatives += len(self.frontier)
        reason = self._stop_reason or STOP_FIRST_UNDEFINED
        if reason == STOP_FIRST_UNDEFINED and self.result.skipped_alternatives == 0:
            # The short-circuit landed on the very last pending order: the
            # search was, in fact, exhaustive.
            return
        self.result.stop_reason = reason

    # -- one execution ------------------------------------------------------

    def _execute_script(self, script: tuple[int, ...]) -> None:
        strategy = EngineStrategy(self, script)
        interp = self.host.new_interpreter(strategy)
        strategy.interp = interp
        if self._probe is not None:
            interp.attach_probes(ProbeSet([self._probe]))
        self._groups = []
        self._closed_groups = []
        self._prune = {}
        self._overflow = []
        self._cut_index = None
        self._resumed_run = False
        self._sym_arrivals = []
        merged = False
        outcome: Optional[PathOutcome] = None
        crashed = True
        try:
            try:
                outcome = self.host.run(interp)
            except PathMerged as cut:
                merged = True
                self._cut_index = cut.decision_index
                if cut.symbolic:
                    self.result.merged_symbolic += 1
                else:
                    self.result.merged_paths += 1
                if not self._resumed_run:
                    self.result.partial_replays += 1
            if not merged and outcome is not None:
                outcome.script = tuple(strategy.decisions)
                outcome.resumed = self._resumed_run
                self._record_path(outcome)
                for family in self._sym_arrivals:
                    family.complete(outcome.undefined)
            crashed = False
        finally:
            # This run's path is recorded (or merged); now explore the
            # checkpoints it parked, deepest decision first — classic DFS.
            self._resolve_run_sleepers(cancel_all=crashed)
        self._enqueue_expansions(strategy, script)

    def _record_path(self, outcome: PathOutcome) -> None:
        if self._paths_budget_spent():
            self.result.skipped_alternatives += 1
            self._request_stop(STOP_MAX_PATHS)
            return
        self.result.paths.append(outcome)
        self._paths_count += 1
        if outcome.resumed:
            self.result.resumed_executions += 1
        else:
            self.result.full_executions += 1
        if outcome.undefined and self.options.stop_at_first:
            self._request_stop(STOP_FIRST_UNDEFINED)

    def _enqueue_expansions(
        self, strategy: EngineStrategy, script: tuple[int, ...]
    ) -> None:
        arity = strategy.observed_arity
        end = self._cut_index if self._cut_index is not None else len(arity)
        decisions = strategy.decisions
        if self.use_fork:
            # Siblings were explored through checkpoints; only overflow
            # alternatives (fork cap, fork failure) go through the frontier.
            # They still honor the commutativity verdict — a group proven
            # commuting prunes its overflow siblings exactly like its
            # cancelled sleepers, instead of re-running them from main.
            for index, choice in self._overflow:
                if index >= end:
                    continue
                if self._prune.get(index):
                    self.result.pruned_orders += 1
                    continue
                self.frontier.push(tuple(decisions[:index]) + (choice,))
            return
        for index in range(len(script), end):
            count = arity[index]
            if count <= 1:
                continue
            if self._prune.get(index):
                self.result.pruned_orders += count - 1
                continue
            prefix = tuple(decisions[:index])
            for choice in range(1, count):
                self.frontier.push(prefix + (choice,))

    # -- decision-point callbacks -------------------------------------------

    def on_choice(
        self, strategy: EngineStrategy, index: int, alternatives: int, site: object
    ) -> int:
        script = strategy.script
        if index < len(script):
            # Forced prefix of a scripted replay: these decisions' siblings
            # belong to the run that discovered them.
            choice = min(script[index], alternatives - 1)
            self._push_group(site, index, choice, tracked=False)
            return choice
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._request_stop(STOP_WALL_CLOCK)
        if self.options.dedup_states and strategy.interp is not None:
            # The key carries the open-group progress (which sibling order
            # each enclosing group chose and which operand is running): two
            # arrivals at the same site and state still differ when one has
            # more of an enclosing group left to evaluate.
            progress = tuple((id(g.site), g.choice, g.current) for g in self._groups)
            key = (id(site), progress, state_fingerprint(strategy.interp))
            if key in self.visited:
                raise PathMerged(index)
            if (
                self.budget.max_states is not None
                and len(self.visited) >= self.budget.max_states
            ):
                self._request_stop(STOP_MAX_STATES)
            else:
                self.visited.add(key)
                if self.use_fork:
                    # The log exists to ship dedup-table deltas between
                    # forked checkpoints; replay mode never reads it.
                    self._visited_log.append(key)
            if self.options.merge_symbolic and not self.use_fork:
                # Exact dedup missed; try the interval absorption layer.
                # Fork mode is excluded: a cut would have to cancel a live
                # process tree whose siblings assume their parent ran.
                self._symbolic_arrival(site, progress, index, strategy.interp)
        if self._stop:
            if self.use_fork:
                # No checkpoints are forked past a stop, so these siblings
                # are lost here; in replay mode they still reach the
                # frontier through the run's expansions and are counted
                # once when the drained frontier is tallied.
                self.result.skipped_alternatives += alternatives - 1
            self._push_group(site, index, 0, tracked=False)
            return 0
        resumed: Optional[int] = None
        sleepers: list[_Sleeper] = []
        if self.use_fork:
            resumed, sleepers = self._fork_siblings(index, alternatives)
        choice = resumed if resumed is not None else 0
        group = self._push_group(site, index, choice, tracked=True)
        group.sleepers = sleepers
        return choice

    def _symbolic_arrival(
        self, site: object, progress: tuple, index: int, interp: Any
    ) -> None:
        digest, cells = _coarse_state(interp)
        key = (id(site), progress, digest)
        family = self._families.get(key)
        if family is None:
            self._families[key] = family = _MergeFamily(cells)
            self._sym_arrivals.append(family)
            return
        if family.can_absorb(cells):
            raise PathMerged(index, symbolic=True)
        family.join(cells)
        self._sym_arrivals.append(family)

    def _push_group(
        self, site: object, index: int, choice: int, *, tracked: bool
    ) -> _Group:
        for open_group in self._groups:
            # A nested interleaving point: the enclosing groups' orders no
            # longer provably commute.
            open_group.tainted = True
        group = _Group(site, index, choice, tracked)
        self._groups.append(group)
        return group

    def on_operand(self, site: object, position: int) -> None:
        groups = self._groups
        if groups and groups[-1].site is site:
            groups[-1].current = position

    def on_group_end(self, site: object) -> None:
        groups = self._groups
        if not groups or groups[-1].site is not site:
            return
        group = groups.pop()
        if not group.tracked:
            return
        # The prune verdict is known here, but parked siblings are resumed
        # only after the current path finishes (depth-first, parent first).
        self._prune[group.index] = self._group_prunable(group)
        if group.sleepers:
            self._closed_groups.append(group)

    def _group_prunable(self, group: _Group) -> bool:
        if self._probe is None or group.tainted:
            return False
        operands = sorted(set(group.reads) | set(group.writes))
        empty: frozenset = frozenset()
        for position, left in enumerate(operands):
            left_writes = group.writes.get(left, empty)
            left_reads = group.reads.get(left, empty)
            for right in operands[position + 1 :]:
                right_writes = group.writes.get(right, empty)
                right_reads = group.reads.get(right, empty)
                if left_writes & (right_writes | right_reads):
                    return False
                if right_writes & left_reads:
                    return False
        return True

    # -- checkpoint (fork) machinery ----------------------------------------

    def _fork_siblings(
        self, index: int, alternatives: int
    ) -> tuple[Optional[int], list[_Sleeper]]:
        sleepers: list[_Sleeper] = []
        for alt in range(1, alternatives):
            if len(sleepers) >= FORK_CAP:
                self._overflow.append((index, alt))
                continue
            opened: list[int] = []
            try:
                ctrl_r, ctrl_w = os.pipe()
                opened += [ctrl_r, ctrl_w]
                res_r, res_w = os.pipe()
                opened += [res_r, res_w]
                pid = os.fork()
            except OSError:
                # A host at its fd/process limit (EMFILE, EAGAIN): fall
                # back to scripted replay for this alternative, but close
                # whatever pipe ends were already created — leaking them
                # here would only march the process toward EMFILE faster.
                for fd in opened:
                    os.close(fd)
                self._overflow.append((index, alt))
                continue
            if pid == 0:
                os.close(ctrl_w)
                os.close(res_r)
                woken = self._become_sleeper(ctrl_r, res_w, sleepers)
                if not woken:  # pragma: no cover - cancelled in _become_sleeper
                    os._exit(0)
                return alt, []
            os.close(ctrl_r)
            os.close(res_w)
            sleepers.append(_Sleeper(pid, alt, ctrl_w, res_r, len(self._visited_log)))
        return None, sleepers

    def _become_sleeper(
        self, ctrl_r: int, res_w: int, pending_local: list[_Sleeper]
    ) -> bool:
        # The inherited checkpoint fds belong to the parent's pending
        # siblings; holding copies open would keep their result pipes from
        # ever reaching EOF.
        for group in self._groups + self._closed_groups:
            for sleeper in group.sleepers:
                os.close(sleeper.ctrl_w)
                os.close(sleeper.res_r)
            group.sleepers = []
        for sleeper in pending_local:
            os.close(sleeper.ctrl_w)
            os.close(sleeper.res_r)
        try:
            header = _read_exact(ctrl_r, 1)
            if header != _GO:
                os._exit(0)
            # A truncated wake message (the parent was interrupted between
            # its writes, or died) must also end this process: letting the
            # EOFError unwind would release a forked copy of the whole
            # program into the caller's code.
            size = struct.unpack("!Q", _read_exact(ctrl_r, 8))[0]
            message = pickle.loads(_read_exact(ctrl_r, size))
        except EOFError:
            os._exit(0)
        os.close(ctrl_r)
        self._child_mode = True
        self._resumed_run = True
        self._res_w = res_w
        # The fork inherited the parent's dedup table as of fork time; the
        # wake message carries only the states discovered since.
        self.visited.update(message["visited_new"])
        self._visited_log = []
        self._paths_count = message["paths_count"]
        self._stop = message["stop"]
        self._stop_reason = message["stop_reason"]
        # From here on this process accumulates *deltas*: its result and
        # frontier ship back to the parent when its subtree is done.
        self.result = SearchResult()
        self.frontier = make_frontier("dfs")
        self._overflow = []
        return True

    def _resolve_sleepers(self, sleepers: list[_Sleeper], *, pruned: bool) -> None:
        for position, sleeper in enumerate(sleepers):
            if pruned:
                self._cancel_sleeper(sleeper)
                self.result.pruned_orders += 1
            elif self._stop or self._paths_budget_spent():
                if self._paths_budget_spent():
                    self._request_stop(STOP_MAX_PATHS)
                self._cancel_sleeper(sleeper)
                self.result.skipped_alternatives += 1
            elif self._deadline is not None and time.monotonic() > self._deadline:
                self._request_stop(STOP_WALL_CLOCK)
                self._cancel_sleeper(sleeper)
                self.result.skipped_alternatives += 1
            else:
                try:
                    self._wake_sleeper(sleeper)
                except BaseException:
                    # A dead or failing child must not leak its parked
                    # siblings (blocked processes + open fds) on the way up.
                    for leftover in sleepers[position + 1 :]:
                        self._cancel_sleeper(leftover)
                    raise

    def _resolve_run_sleepers(self, *, cancel_all: bool) -> None:
        # Checkpoints parked during this run: groups that closed normally
        # (with a prune verdict) plus groups the run unwound past (an
        # undefined operation inside the group, exit(), a merge cut — no
        # verdict, so never pruned).  Resolve deepest decision first.
        pending = self._closed_groups + self._groups
        self._closed_groups = []
        self._groups = []
        pending.sort(key=lambda group: group.index)
        ordered = list(reversed(pending))
        for position, group in enumerate(ordered):
            if not group.sleepers:
                continue
            if cancel_all:
                for sleeper in group.sleepers:
                    self._cancel_sleeper(sleeper)
                    self.result.skipped_alternatives += 1
            else:
                pruned = bool(self._prune.get(group.index))
                try:
                    self._resolve_sleepers(group.sleepers, pruned=pruned)
                except BaseException:
                    for leftover_group in ordered[position + 1 :]:
                        for sleeper in leftover_group.sleepers:
                            self._cancel_sleeper(sleeper)
                        leftover_group.sleepers = []
                    raise
            group.sleepers = []

    def _wake_sleeper(self, sleeper: _Sleeper) -> None:
        mark = sleeper.log_mark
        message = pickle.dumps(
            {
                "visited_new": self._visited_log[mark:],
                "paths_count": self._paths_count,
                "stop": self._stop,
                "stop_reason": self._stop_reason,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            _write_all(sleeper.ctrl_w, _GO + struct.pack("!Q", len(message)))
            _write_all(sleeper.ctrl_w, message)
        except BaseException:
            # The parked child died while sleeping (killed externally):
            # reap it and close both pipe ends so the failure does not
            # leak an fd and a zombie on its way up.
            os.close(sleeper.ctrl_w)
            os.close(sleeper.res_r)
            os.waitpid(sleeper.pid, 0)
            raise
        os.close(sleeper.ctrl_w)
        chunks = bytearray()
        while True:
            chunk = os.read(sleeper.res_r, 65536)
            if not chunk:
                break
            chunks += chunk
        os.close(sleeper.res_r)
        os.waitpid(sleeper.pid, 0)
        if not chunks:
            raise RuntimeError("evaluation-order checkpoint died without a result")
        bundle = pickle.loads(bytes(chunks))
        error = bundle.get("error")
        if error is not None:
            if isinstance(error, BaseException):
                raise error
            raise RuntimeError(f"evaluation-order checkpoint failed: {error}")
        self._merge_bundle(bundle)

    def _merge_bundle(self, bundle: dict) -> None:
        child: SearchResult = bundle["result"]
        self.result.absorb(child)
        self._paths_count += len(child.paths)
        for key in bundle["visited_new"]:
            if key not in self.visited:
                self.visited.add(key)
                self._visited_log.append(key)
        for script in bundle["scripts"]:
            self.frontier.push(script)
        if bundle["stop"]:
            self._request_stop(bundle["stop_reason"] or STOP_FIRST_UNDEFINED)
        elif any(p.undefined for p in child.paths) and self.options.stop_at_first:
            self._request_stop(STOP_FIRST_UNDEFINED)

    def _cancel_sleeper(self, sleeper: _Sleeper) -> None:
        try:
            os.write(sleeper.ctrl_w, _CANCEL)
        except OSError:  # pragma: no cover - the child died first
            pass
        os.close(sleeper.ctrl_w)
        os.close(sleeper.res_r)
        os.waitpid(sleeper.pid, 0)

    def _drain_frontier(self) -> list[tuple[int, ...]]:
        scripts = []
        while True:
            script = self.frontier.pop()
            if script is None:
                return scripts
            scripts.append(script)

    def _ship_bundle(self) -> None:
        bundle = {
            "result": self.result,
            "visited_new": self._visited_log,
            "scripts": self._drain_frontier(),
            "stop": self._stop,
            "stop_reason": self._stop_reason,
        }
        self._ship(bundle)
        os._exit(0)

    def _ship_failure(self, exc: BaseException) -> None:
        try:
            payload: Any = exc
            pickle.dumps(payload)
        except Exception:
            payload = repr(exc)
        try:
            self._ship({"error": payload})
        finally:
            os._exit(1)

    def _ship(self, bundle: dict) -> None:
        assert self._res_w is not None
        try:
            _write_all(self._res_w, pickle.dumps(bundle, pickle.HIGHEST_PROTOCOL))
        finally:
            os.close(self._res_w)
