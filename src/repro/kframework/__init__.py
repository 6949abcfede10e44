"""A small K-style substrate: configurations, evaluation strategies, search.

The paper's semantics is written in the K framework, where program state is a
nested multiset of labeled cells (Figure 1) and evaluation is rewriting.  We
do not reimplement rewriting-logic matching; instead this package provides the
pieces of K that the paper's *techniques* rely on:

* :mod:`repro.kframework.cells` — the labeled-cell configuration view of the
  interpreter state (``k``, ``env``, ``mem``, ``locsWrittenTo``,
  ``notWritable``, ``callStack``, ...),
* :mod:`repro.kframework.strategy` — evaluation-order strategies standing in
  for the nondeterministic choice of rewrite redexes in unsequenced
  subexpressions,
* :mod:`repro.kframework.search` — the vocabulary of the bounded search over
  those choices (budgets, frontiers, results), the analogue of K's search
  mode that the paper says is required to find undefinedness reachable only
  under some evaluation orders (§2.5.2),
* :mod:`repro.kframework.engine` — the search engine itself: prefix
  checkpoints (sibling orders resume from the decision point), state
  deduplication, and a commutativity filter over execution-event footprints.
"""

from repro.kframework.cells import Cell, Configuration
from repro.kframework.engine import SearchEngine, checkpoint_supported
from repro.kframework.search import (
    BreadthFirstFrontier,
    DepthFirstFrontier,
    PathOutcome,
    RandomFrontier,
    SearchBudget,
    SearchOptions,
    SearchResult,
)
from repro.kframework.strategy import (
    EvaluationStrategy,
    LeftToRightStrategy,
    RightToLeftStrategy,
    ScriptedStrategy,
)

__all__ = [
    "BreadthFirstFrontier",
    "Cell",
    "Configuration",
    "DepthFirstFrontier",
    "EvaluationStrategy",
    "LeftToRightStrategy",
    "PathOutcome",
    "RandomFrontier",
    "RightToLeftStrategy",
    "ScriptedStrategy",
    "SearchBudget",
    "SearchEngine",
    "SearchOptions",
    "SearchResult",
    "checkpoint_supported",
]
