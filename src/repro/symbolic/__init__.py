"""Abstract interpretation over the checker's own semantic truth.

``repro.symbolic`` is the first *static* engine in the reproduction: an
interval-with-congruence abstract interpreter that consumes the same
per-site arithmetic facts (:func:`repro.core.plans.int_type_facts` /
:func:`repro.core.plans.int_binary_facts`) as the compiled and lowered
engines, so every ``check_*`` family becomes an interval emptiness or
containment test over the exact bounds the dynamic engines enforce.

Modules:

* :mod:`repro.symbolic.domain` — abstract values (interval + congruence),
  the relational constraint store, and the per-operator transfer functions.
* :mod:`repro.symbolic.abseval` — the abstract evaluator over the parsed
  fuzz-subset AST, with loop unrolling, widening, and honest bailouts.
* :mod:`repro.symbolic.prove` — verdicts: ``PROVED_DEFINED``,
  ``PROVED_UNDEFINED(kind)`` or ``INCONCLUSIVE`` with a witness interval.
* :mod:`repro.symbolic.oracle` — the soundness leg: every proved range is
  re-checked against concrete executions on sampled points (both endpoints
  always included).
"""

from repro.symbolic.domain import (
    AbstractInt,
    ConstraintStore,
    Interval,
    PossibleUB,
)
from repro.symbolic.prove import (
    INCONCLUSIVE,
    PROVED_DEFINED,
    PROVED_UNDEFINED,
    ProveReport,
    prove_source,
    prove_unit,
)
from repro.symbolic.oracle import check_proved_report, sample_points

__all__ = [
    "AbstractInt",
    "ConstraintStore",
    "Interval",
    "PossibleUB",
    "ProveReport",
    "PROVED_DEFINED",
    "PROVED_UNDEFINED",
    "INCONCLUSIVE",
    "prove_source",
    "prove_unit",
    "check_proved_report",
    "sample_points",
]
