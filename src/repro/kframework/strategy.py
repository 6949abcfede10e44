"""Evaluation-order strategies.

C leaves the evaluation order of most subexpressions unspecified (§2.5.2 of
the paper), and whether a program is undefined may depend on the order chosen.
The interpreter asks its strategy for the order in which to evaluate each
group of unsequenced subexpressions; the search driver
(:mod:`repro.kframework.search`) enumerates strategies to cover all orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence


class EvaluationStrategy:
    """Decides the evaluation order of ``n`` unsequenced siblings."""

    name = "abstract"

    def order(self, count: int, site: object = None) -> Sequence[int]:
        raise NotImplementedError

    def reset(self) -> None:
        """Called before each program run."""

    def note_operand(self, site: object, position: int) -> None:
        """Hook: operand ``position`` of the group at ``site`` starts now.

        The interpreter calls this between the operands of an unsequenced
        group so a strategy that tracks per-operand effects (the search
        engine's commutativity filter) can segment the event stream.  The
        default is a no-op; fixed-order strategies never need it.
        """

    def note_group_end(self, site: object) -> None:
        """Hook: the unsequenced group at ``site`` finished evaluating."""


class LeftToRightStrategy(EvaluationStrategy):
    """The order virtually every compiler uses for simple expressions."""

    name = "left-to-right"

    def order(self, count: int, site: object = None) -> Sequence[int]:
        return range(count)


class RightToLeftStrategy(EvaluationStrategy):
    """The reverse order (used by some compilers for call arguments)."""

    name = "right-to-left"

    def order(self, count: int, site: object = None) -> Sequence[int]:
        return range(count - 1, -1, -1)


@dataclass
class ScriptedStrategy(EvaluationStrategy):
    """Replays a scripted sequence of permutation choices.

    Each time the interpreter reaches a group of ``n`` unsequenced siblings,
    the strategy consumes the next decision from ``decisions`` (an index into
    the lexicographically ordered permutations of ``range(n)``).  Once the
    script is exhausted it defaults to left-to-right and records how many
    decision points were seen and how many alternatives each had, which the
    search driver uses to enumerate the next script.
    """

    decisions: list[int] = field(default_factory=list)
    name: str = "scripted"
    position: int = 0
    observed_arity: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.position = 0
        self.observed_arity = []

    def order(self, count: int, site: object = None) -> Sequence[int]:
        alternatives = permutation_count(count)
        self.observed_arity.append(alternatives)
        if self.position < len(self.decisions):
            choice = self.decisions[self.position]
        else:
            choice = 0
        self.position += 1
        choice = min(choice, alternatives - 1)
        return nth_permutation(count, choice)


def permutation_count(n: int) -> int:
    """How many orders ``n`` unsequenced siblings admit (n!)."""
    result = 1
    for i in range(2, n + 1):
        result *= i
    return result


def nth_permutation(count: int, index: int) -> tuple[int, ...]:
    """The ``index``-th lexicographic permutation of ``range(count)``."""
    if count <= 1:
        return tuple(range(count))
    if count == 2:
        return (0, 1) if index == 0 else (1, 0)
    permutations = list(itertools.permutations(range(count)))
    return permutations[index % len(permutations)]


def strategy_for(name: str) -> EvaluationStrategy:
    """Look up a strategy by its configuration name."""
    if name == "left-to-right":
        return LeftToRightStrategy()
    if name == "right-to-left":
        return RightToLeftStrategy()
    raise ValueError(f"unknown evaluation order strategy {name!r}")
