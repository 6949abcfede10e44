"""Bounded search over evaluation orders: budgets, frontiers, results.

Section 2.5.2 of the paper observes that a tool seeking to identify all
undefined behaviors "must search all possible evaluation strategies", because
an implementation may pick any order for unsequenced subexpressions (the
``setDenom`` example is defined under left-to-right evaluation but divides by
zero under right-to-left).

This module holds the *vocabulary* of that search: the budget that bounds it
(:class:`SearchBudget`), the knobs that configure it (:class:`SearchOptions`),
the frontier disciplines that order it (:class:`DepthFirstFrontier`,
:class:`BreadthFirstFrontier`, :class:`RandomFrontier`), and the result type
that reports — honestly — how it ended (:class:`SearchResult`, whose
``stop_reason`` says *why* exploration stopped and whose ``coverage`` says
what fraction of the discovered interleaving space was covered).

The engine that executes the search lives in
:mod:`repro.kframework.engine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.seeding import derive_rng

#: ``SearchResult.stop_reason`` values.  ``exhausted`` is the only one that
#: means every discovered alternative was explored (or proven equivalent to
#: an explored one); everything else names the resource or short-circuit
#: that ended the search early.
STOP_EXHAUSTED = "exhausted"
STOP_FIRST_UNDEFINED = "first-undefined"
STOP_MAX_PATHS = "max-paths"
STOP_MAX_STATES = "max-states"
STOP_WALL_CLOCK = "wall-clock"


@dataclass(frozen=True)
class SearchBudget:
    """Explicit bounds on an evaluation-order search.

    ``max_paths`` bounds recorded path outcomes, ``max_states`` bounds the
    deduplication table (distinct machine states seen at choice points), and
    ``max_seconds`` bounds wall-clock time.  ``None`` means unbounded.  The
    engine reports which bound fired through ``SearchResult.stop_reason``
    instead of silently truncating.
    """

    max_paths: Optional[int] = 64
    max_states: Optional[int] = None
    max_seconds: Optional[float] = None

    @classmethod
    def parse(cls, text: str) -> "SearchBudget":
        """Parse a ``paths=256,states=10000,seconds=5`` CLI budget spec."""
        values: dict[str, Optional[float]] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad budget component {part!r}; expected key=value with "
                    f"keys paths, states, seconds"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in ("paths", "states", "seconds"):
                raise ValueError(f"unknown budget key {key!r}")
            if raw in ("none", "inf"):
                values[key] = None
                continue
            try:
                value = float(raw) if key == "seconds" else int(raw)
            except ValueError:
                expected = "a number" if key == "seconds" else "an integer"
                raise ValueError(
                    f"bad budget value {key}={raw!r}; expected {expected} or none"
                ) from None
            values[key] = value
        paths = values.get("paths", 64)
        states = values.get("states")
        seconds = values.get("seconds")
        return cls(
            max_paths=None if paths is None else int(paths),
            max_states=None if states is None else int(states),
            max_seconds=seconds,
        )


@dataclass(frozen=True)
class SearchOptions:
    """Configuration of one evaluation-order search.

    ``strategy`` picks the frontier discipline (``dfs``, ``bfs``, or
    ``random`` with ``seed``).  ``checkpoint`` picks the execution mechanism:
    ``fork`` resumes sibling orders from a process checkpoint taken at the
    decision point (POSIX only), ``replay`` re-executes scripted prefixes
    from ``main``, and ``auto`` (the default) forks where the platform
    allows it and the frontier is depth-first.  ``dedup_states`` merges
    interleavings that reach an identical machine state at the same choice
    site; ``prune_commuting`` skips sibling orders whose operand read/write
    footprints are disjoint (observed through the execution-event stream).
    ``merge_symbolic`` goes one step further where exact dedup saturates:
    an arrival whose state matches an explored interleaving family
    everywhere except a few integer memory cells — with its values at
    those cells inside the family's joined intervals — is absorbed
    (replay mode only; counted as ``merged_symbolic`` and pinned
    verdict-identical against no-merge by the test suite).
    """

    strategy: str = "dfs"
    budget: SearchBudget = field(default_factory=SearchBudget)
    seed: int = 0
    jobs: int = 1
    dedup_states: bool = True
    prune_commuting: bool = True
    checkpoint: str = "auto"
    stop_at_first: bool = True
    merge_symbolic: bool = False


@dataclass
class PathOutcome:
    """The result of one explored evaluation order."""

    script: tuple[int, ...]
    undefined: bool
    description: str = ""
    payload: object = None
    resumed: bool = False


@dataclass
class SearchResult:
    """Aggregate result of the evaluation-order search.

    ``stop_reason`` says why exploration ended (see the ``STOP_*``
    constants); ``exhausted`` is derived from it.  The execution counters
    separate *full* executions (a run from ``main`` to termination) from
    *partial replays* (runs cut early because their state merged with an
    already-explored interleaving) and *resumed* executions (sibling orders
    continued from a checkpoint instead of re-running from ``main``).
    """

    paths: list[PathOutcome] = field(default_factory=list)
    stop_reason: str = STOP_EXHAUSTED
    full_executions: int = 0
    partial_replays: int = 0
    resumed_executions: int = 0
    merged_paths: int = 0
    merged_symbolic: int = 0
    pruned_orders: int = 0
    skipped_alternatives: int = 0
    states_seen: int = 0

    @property
    def exhausted(self) -> bool:
        return self.stop_reason == STOP_EXHAUSTED

    @property
    def explored(self) -> int:
        return len(self.paths)

    @property
    def runs_from_main(self) -> int:
        """How many times the program was (re)started from ``main``."""
        return self.full_executions + self.partial_replays

    @property
    def undefined_paths(self) -> list[PathOutcome]:
        return [p for p in self.paths if p.undefined]

    @property
    def any_undefined(self) -> bool:
        return any(p.undefined for p in self.paths)

    @property
    def first_undefined(self) -> Optional[PathOutcome]:
        for path in self.paths:
            if path.undefined:
                return path
        return None

    def absorb(self, child: "SearchResult") -> None:
        """Fold another result's paths and execution counters into this one.

        Shared by the checkpoint machinery (forked children ship result
        deltas back to the parent) and the parallel driver (shards return
        whole results).  ``stop_reason`` and ``states_seen`` are *not*
        merged here — each caller has its own semantics for them.
        """
        self.paths.extend(child.paths)
        self.full_executions += child.full_executions
        self.partial_replays += child.partial_replays
        self.resumed_executions += child.resumed_executions
        self.merged_paths += child.merged_paths
        self.merged_symbolic += child.merged_symbolic
        self.pruned_orders += child.pruned_orders
        self.skipped_alternatives += child.skipped_alternatives

    def coverage(self) -> float:
        """Covered fraction of the *discovered* interleaving alternatives.

        Explored paths, merged interleavings, and orders proven equivalent
        by the commutativity filter all count as covered; alternatives that
        were skipped (budget, short-circuit) count against coverage.  Each
        skipped alternative counts once even though it roots a subtree, so
        this is an upper bound under early stops — but it is exactly 1.0
        only when nothing was skipped.
        """
        covered = (
            len(self.paths)
            + self.merged_paths
            + self.merged_symbolic
            + self.pruned_orders
        )
        known = covered + self.skipped_alternatives
        if known <= 0:
            return 1.0
        return covered / known

    def to_dict(self) -> dict:
        return {
            "explored": self.explored,
            "exhausted": self.exhausted,
            "stop_reason": self.stop_reason,
            "undefined_paths": len(self.undefined_paths),
            "full_executions": self.full_executions,
            "partial_replays": self.partial_replays,
            "resumed_executions": self.resumed_executions,
            "merged_paths": self.merged_paths,
            "merged_symbolic": self.merged_symbolic,
            "pruned_orders": self.pruned_orders,
            "skipped_alternatives": self.skipped_alternatives,
            "states_seen": self.states_seen,
            "coverage": self.coverage(),
        }


# ---------------------------------------------------------------------------
# Frontiers
# ---------------------------------------------------------------------------


class Frontier:
    """Holds the scripts (decision prefixes) still to be explored."""

    name = "abstract"

    def __init__(self) -> None:
        self._seen: set[tuple[int, ...]] = set()

    def push(self, script: tuple[int, ...]) -> bool:
        if script in self._seen:
            return False
        self._seen.add(script)
        self._push(script)
        return True

    def _push(self, script: tuple[int, ...]) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[tuple[int, ...]]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class DepthFirstFrontier(Frontier):
    """LIFO exploration: dives into one interleaving's variations first."""

    name = "dfs"

    def __init__(self) -> None:
        super().__init__()
        self._stack: list[tuple[int, ...]] = []

    def _push(self, script: tuple[int, ...]) -> None:
        self._stack.append(script)

    def pop(self) -> Optional[tuple[int, ...]]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class BreadthFirstFrontier(Frontier):
    """FIFO exploration: covers shallow divergences before deep ones."""

    name = "bfs"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[tuple[int, ...]] = deque()

    def _push(self, script: tuple[int, ...]) -> None:
        self._queue.append(script)

    def pop(self) -> Optional[tuple[int, ...]]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class RandomFrontier(Frontier):
    """Seeded random sampling of pending scripts (reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        # Derived through the shared helper (repro.seeding) so `search --seed`
        # and `fuzz --seed` expand one master seed the same documented way.
        self._rng = derive_rng(seed, "search", "frontier")
        self._items: list[tuple[int, ...]] = []

    def _push(self, script: tuple[int, ...]) -> None:
        self._items.append(script)

    def pop(self) -> Optional[tuple[int, ...]]:
        if not self._items:
            return None
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


FRONTIERS = ("dfs", "bfs", "random")


def make_frontier(name: str, seed: int = 0) -> Frontier:
    if name == "dfs":
        return DepthFirstFrontier()
    if name == "bfs":
        return BreadthFirstFrontier()
    if name == "random":
        return RandomFrontier(seed)
    raise ValueError(f"unknown search strategy {name!r}; expected one of {FRONTIERS}")


def expand_scripts(script: tuple[int, ...], arity: list[int]) -> list[tuple[int, ...]]:
    """Sibling scripts diverging from ``script``'s default continuation."""
    out = []
    for index in range(len(script), len(arity)):
        pad = (0,) * (index - len(script))
        for choice in range(1, arity[index]):
            out.append(script + pad + (choice,))
    return out
